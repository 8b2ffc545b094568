(* The source-to-report call sequence of `ptranc estimate` / `ptranc
   analyze`, one function per public call, each under a span.  With
   tracing on, calls that wrap several layers are followed by a replay
   of the calls they wrap (see Trace). *)

module Program = S89_frontend.Program
module Lexer = S89_frontend.Lexer
module Parser = S89_frontend.Parser
module Sema = S89_frontend.Sema
module Ecfg = S89_cfg.Ecfg
module Cfg = S89_cfg.Cfg
module Control_dep = S89_cdg.Control_dep
module Fcdg = S89_cdg.Fcdg
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Reconstruct = S89_profiling.Reconstruct
module Interp = S89_vm.Interp
module Optimize = S89_vm.Optimize
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Memo = S89_core.Memo
module Report = S89_core.Report

let span = Trace.span

let lines src =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) src;
  !n

let cfg_nodes (prog : Program.t) =
  List.fold_left
    (fun acc (p : Program.proc) -> acc + Cfg.num_nodes p.Program.cfg)
    0 (Program.procs prog)

(* Program.of_source = parse (which lexes), sema, lower *)
let frontend src =
  let prog, w = Trace.span_id "frontend.program" (fun () -> Program.of_source src) in
  Trace.replay ~wraps:w (fun () ->
      let ast, p = Trace.span_id "frontend.parse" (fun () -> Parser.parse_program src) in
      Trace.replay ~wraps:p (fun () ->
          ignore (span "frontend.lex" (fun () -> Lexer.tokenize src)));
      let penv = span "frontend.sema" (fun () -> Sema.analyze ast) in
      ignore (span "frontend.lower" (fun () -> Program.of_sema penv)));
  prog

let optimize prog = span "vm.optimize" (fun () -> Optimize.program prog)

(* Pipeline.create = ECFG, CDG, FCDG per procedure the memo misses.
   Traced, the memo is probed first to find the misses; the memo's
   analysis counts are read after that probe, so they count only
   Pipeline.create's own lookups. *)
let analysis_counts memo =
  let s = Memo.stats memo in
  (s.Memo.analysis_hits, s.Memo.analysis_misses)

let analysis ?memo prog =
  let misses =
    if not !Trace.enabled then []
    else
      match memo with
      | None -> Program.procs prog
      | Some m ->
          List.filter
            (fun p -> Memo.find_analysis m (Memo.body_fp p) = None)
            (Program.procs prog)
  in
  let before = Option.map analysis_counts memo in
  let t, w = Trace.span_id "profiling.analysis" (fun () -> Pipeline.create ?memo prog) in
  (match (memo, before) with
  | Some m, Some (h0, m0) when !Trace.enabled ->
      let h1, m1 = analysis_counts m in
      Trace.count "core.memo_analysis_hits" (float_of_int (h1 - h0));
      Trace.count "core.memo_analysis_misses" (float_of_int (m1 - m0))
  | _ -> ());
  Trace.replay ~wraps:w (fun () ->
      List.iter
        (fun (p : Program.proc) ->
          let ecfg =
            span "cfg.ecfg" (fun () ->
                Ecfg.extend ~empty:Analysis.synthetic_info p.Program.cfg)
          in
          let cdg = span "cdg.control_dep" (fun () -> Control_dep.compute ecfg) in
          ignore (span "cdg.fcdg" (fun () -> Fcdg.of_cdg cdg ecfg)))
        misses);
  t

let placement (t : Pipeline.t) =
  let plan =
    span "profiling.placement" (fun () ->
        Placement.plan ~second_moments:true t.Pipeline.analyses)
  in
  Trace.count "profiling.counters" (float_of_int (Placement.n_counters plan));
  plan

(* one instrumented run against [plan], as Pipeline.profile_smart and
   Pipeline.profile_run do it *)
let instrumented_run ~cost_model ~plan ~seed prog =
  let config =
    { Interp.default_config with cost_model; instr = Placement.probes plan; seed }
  in
  let vm = span "vm.create" (fun () -> Interp.create ~config prog) in
  ignore (span "vm.run" (fun () -> Interp.run vm));
  Trace.count "vm.fallback_execs" (float_of_int (Interp.fallback_execs vm));
  Trace.count "vm.mcycles" (float_of_int (Interp.cycles vm) /. 1e6);
  Array.sub (Interp.counters vm) 0 (Placement.n_counters plan)

(* Pipeline.profile_smart = placement, [runs] instrumented runs, one
   reconstruction of the summed counters *)
let profile ~cost_model ~runs ~seed (t : Pipeline.t) =
  let p, w =
    Trace.span_id "core.profile_smart" (fun () ->
        Pipeline.profile_smart ~cost_model ~runs ~seed t)
  in
  Trace.replay ~wraps:w (fun () ->
      let plan = placement t in
      let sums = Array.make (Placement.n_counters plan) 0 in
      for r = 0 to runs - 1 do
        let cs = instrumented_run ~cost_model ~plan ~seed:(seed + r) t.Pipeline.prog in
        Array.iteri (fun i c -> sums.(i) <- sums.(i) + c) cs
      done;
      ignore (span "profiling.reconstruct" (fun () -> Reconstruct.totals plan ~counters:sums)));
  p

let mcycles (p : Pipeline.profile) = p.Pipeline.avg_cycles *. float_of_int p.Pipeline.runs /. 1e6

let estimate_profiled ~cost_model t p =
  span "core.estimate" (fun () -> Pipeline.estimate_profiled ~cost_model t p)

let estimate_totals ~cost_model ?memo t totals =
  span "core.estimate" (fun () -> Pipeline.estimate_totals ~cost_model ?memo t ~totals)

let report est =
  let s = span "core.report" (fun () -> Fmt.str "%a" Report.pp est) in
  Trace.count "core.report_bytes" (float_of_int (String.length s));
  s

(* ---------------- independent oracles ---------------- *)

type totals = (string, (Analysis.cond, int) Hashtbl.t) Hashtbl.t

(* TOTAL_FREQ from uninstrumented runs with seeds [seed .. seed+runs-1],
   and whether Pipeline.estimate_oracle's TIME equals the measured
   cycles on every run *)
let oracle ~cost_model ~runs ~seed (t : Pipeline.t) : totals * bool =
  let acc : totals = Hashtbl.create 16 in
  let time_ok = ref true in
  for r = 0 to runs - 1 do
    let vm = Pipeline.run_once ~cost_model ~seed:(seed + r) t in
    Hashtbl.iter
      (fun name a ->
        let into =
          match Hashtbl.find_opt acc name with
          | Some tbl -> tbl
          | None ->
              let tbl = Hashtbl.create 16 in
              Hashtbl.replace acc name tbl;
              tbl
        in
        Hashtbl.iter
          (fun c v ->
            Hashtbl.replace into c (v + Option.value ~default:0 (Hashtbl.find_opt into c)))
          (Analysis.oracle_totals a vm))
      t.Pipeline.analyses;
    let time = Interproc.program_time (Pipeline.estimate_oracle ~cost_model t vm) in
    let cycles = float_of_int (Interp.cycles vm) in
    if Float.abs (time -. cycles) > 1e-9 *. Float.max 1.0 cycles then time_ok := false
  done;
  (acc, !time_ok)

(* every nonzero total on either side agrees *)
let totals_equal (a : totals) (b : totals) =
  let covers (x : totals) (y : totals) =
    Hashtbl.fold
      (fun name tx ok ->
        ok
        && Hashtbl.fold
             (fun c v ok ->
               let w =
                 match Hashtbl.find_opt y name with
                 | Some ty -> Option.value ~default:0 (Hashtbl.find_opt ty c)
                 | None -> 0
               in
               ok && (v = 0 || v = w))
             tx true)
      x true
  in
  covers a b && covers b a
