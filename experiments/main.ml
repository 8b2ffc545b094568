(* Regenerates the deterministic tables of EXPERIMENTS.md.

   Reads EXPERIMENTS.md on stdin and writes it to stdout with the body of
   every `<!-- experiment:ID -->` ... `<!-- /experiment -->` block replaced
   by freshly computed rows.  The root dune rule diffs the result against
   the committed file under `dune runtest`, and `dune promote` accepts a
   change.  Every number is simulated (cycles, counters, seeded estimates
   and simulated makespans), so the output is the same on any host.

   The claims the tables only illustrate are assertions: the three
   backends agree on every Table-1 cycle count, Figure 3 gives TIME = 920
   and STD_DEV = 300 exactly, X3's estimated TIME equals the measured
   mean, X7's held-out runs carry no probes and use seeds disjoint from
   the profile's, and the bytecode engine's allocation stays within its
   bounds.  A failed assertion, an unknown block and a missing block each
   exit 1. *)

module Interp = S89_vm.Interp
module CM = S89_vm.Cost_model
module Probe = S89_vm.Probe
module Optimize = S89_vm.Optimize
module Program = S89_frontend.Program
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Naive = S89_profiling.Naive
module Pipeline = S89_core.Pipeline
module Interproc = S89_core.Interproc
module Report = S89_core.Report
module Time_est = S89_core.Time_est
module Variance = S89_core.Variance
module Stats = S89_util.Stats
module Chunk = S89_sched.Chunk
module Parsim = S89_sched.Parsim
module Dist = S89_sched.Dist
module W = S89_workloads.Demos

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("experiments: " ^ msg);
      exit 1)
    fmt

let check ok fmt = Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

(* ---- cell formatting ---- *)

(* digits in groups of three, space-separated: 4518409 -> "4 518 409" *)
let group_digits s =
  let n = String.length s in
  let b = Buffer.create (n + (n / 3)) in
  String.iteri
    (fun i c ->
      if i > 0 && (n - i) mod 3 = 0 then Buffer.add_char b ' ';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let int n = (if n < 0 then "-" else "") ^ group_digits (string_of_int (abs n))

(* a float with [d] decimals, integer part grouped *)
let fixed d x =
  let s = Printf.sprintf "%.*f" d (Float.abs x) in
  let whole, frac =
    match String.index_opt s '.' with
    | Some i -> (String.sub s 0 i, String.sub s i (String.length s - i))
    | None -> (s, "")
  in
  (if x < 0.0 && s <> Printf.sprintf "%.*f" d 0.0 then "-" else "")
  ^ group_digits whole ^ frac

let pct x = Printf.sprintf "%+.1f%%" (100.0 *. x)

let table header rows =
  let b = Buffer.create 1024 in
  let line cells = Buffer.add_string b ("| " ^ String.concat " | " cells ^ " |\n") in
  line header;
  Buffer.add_string b
    ("|" ^ String.concat "|" (List.map (fun _ -> "---") header) ^ "|\n");
  List.iter line rows;
  Buffer.contents b

(* ---- the VM ---- *)

let backends = [ ("tree", Interp.Tree); ("compiled", Interp.Compiled);
                 ("bytecode", Interp.Bytecode) ]

(* Words allocated so far, exactly: minor words read live, plus words
   allocated straight into the major heap.  ([Gc.allocated_bytes] reads
   minor words as of the last minor collection only.) *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* One seed-42 run; also returns the bytes its creation and run
   allocated. *)
let run ?(instr = Probe.empty) ~backend ~cm prog =
  let config =
    { Interp.default_config with cost_model = cm; instr; seed = 42; backend }
  in
  let a0 = allocated_words () in
  let vm = Interp.create ~config prog in
  ignore (Interp.run vm);
  (vm, float_of_int (Sys.word_size / 8) *. (allocated_words () -. a0))

(* ------------------------------------------------------------------ *)
(* T1: Table 1's programs, opt ON and OFF                              *)
(* ------------------------------------------------------------------ *)

type t1_row = {
  program : string;
  mode : string;
  original : int;
  smart : int;
  naive : int;
  fallback : int;
}

(* Every configuration runs on all three backends, which must agree on
   the cycle count.  The bytecode engine's two wall-clock gates are
   replaced by allocation proxies, which repeat exactly run to run: it
   allocates at most a quarter of what the compiled engine does, and
   smart probes add at most 1% to its allocation. *)
let t1_row program mode prog cm =
  let where = program ^ "/" ^ mode in
  let on_all_backends what instr =
    let runs =
      List.map (fun (name, backend) -> (name, run ~instr ~backend ~cm prog)) backends
    in
    let cycles = Interp.cycles (fst (List.assoc "tree" runs)) in
    List.iter
      (fun (name, (vm, _)) ->
        check (Interp.cycles vm = cycles) "%s %s: %s gives %d cycles, tree %d" where what
          name (Interp.cycles vm) cycles)
      runs;
    (cycles, runs)
  in
  let original, runs0 = on_all_backends "original" Probe.empty in
  let smart_probes = Placement.probes (Placement.plan (Analysis.of_program prog)) in
  let smart, runs1 = on_all_backends "smart" smart_probes in
  let naive, _ = on_all_backends "naive" (Naive.probes (Naive.plan prog)) in
  let alloc runs name = snd (List.assoc name runs) in
  let bc0 = alloc runs0 "bytecode" and comp0 = alloc runs0 "compiled" in
  check (bc0 <= comp0 /. 4.0)
    "%s: bytecode allocates %.0f bytes, over 1/4 of compiled's %.0f" where bc0 comp0;
  check (alloc runs1 "bytecode" <= bc0 *. 1.01)
    "%s: smart probes raise bytecode allocation from %.0f to %.0f bytes (> 1%%)" where
    bc0 (alloc runs1 "bytecode");
  {
    program; mode; original; smart; naive;
    fallback = Interp.fallback_execs (fst (List.assoc "bytecode" runs0));
  }

let t1_rows =
  lazy
    (List.concat_map
       (fun (program, src) ->
         let base = Program.of_source src in
         [ t1_row program "opt-ON" (Optimize.program base) CM.optimized;
           t1_row program "opt-OFF" base CM.unoptimized ])
       [ ("LOOPS", S89_workloads.Livermore.source);
         ("SIMPLE", S89_workloads.Simple_code.source ()) ])

let table1 () =
  table [ "Program"; "Compiler"; "Original"; "Smart"; "Naive"; "FALLBACK" ]
    (List.map
       (fun r ->
         let cell c =
           let overhead = float_of_int (c - r.original) /. float_of_int r.original in
           Printf.sprintf "%s (%s)" (int c) (pct overhead)
         in
         [ r.program; r.mode; int r.original; cell r.smart; cell r.naive;
           int r.fallback ])
       (Lazy.force t1_rows))

(* ------------------------------------------------------------------ *)
(* F3: the paper's worked example                                      *)
(* ------------------------------------------------------------------ *)

(* The paper's profile (loop entered once, header executed 10 times,
   exit through IF (N.LT.0)) and costs (IFs = 1, CALL = 100 realized as
   TIME(FOO) via rule 2). *)
let figure3 () =
  let t = Pipeline.of_source (W.fig1 ()) in
  let a = Hashtbl.find t.Pipeline.analyses "FIG1" in
  let ecfg = a.Analysis.ecfg in
  let start = S89_cfg.Ecfg.start ecfg in
  let ph = S89_cfg.Ecfg.preheader_of_header ecfg 3 in
  let u = S89_cfg.Label.U and tt = S89_cfg.Label.T and ff = S89_cfg.Label.F in
  let fig1_totals = Hashtbl.create 16 in
  List.iter
    (fun (k, v) -> Hashtbl.replace fig1_totals k v)
    [ ((start, u), 1); ((ph, u), 10); ((3, tt), 5); ((3, ff), 5); ((4, tt), 1);
      ((4, ff), 4); ((5, tt), 0); ((5, ff), 5) ];
  let a2 = Hashtbl.find t.Pipeline.analyses "FOO" in
  let foo_totals = Hashtbl.create 4 in
  Hashtbl.replace foo_totals (S89_cfg.Ecfg.start a2.Analysis.ecfg, u) 9;
  let totals = function "FIG1" -> fig1_totals | _ -> foo_totals in
  let cost_override name node =
    match (name, node) with
    | "FIG1", (3 | 4 | 5) -> 1.0
    | "FOO", 1 -> 100.0
    | _ -> 0.0
  in
  let est = Pipeline.estimate_totals t ~totals ~cost_override in
  let time = Interproc.program_time est and sd = Interproc.program_std_dev est in
  check (time = 920.0 && sd = 300.0) "F3: TIME %g and STD_DEV %g, paper 920 and 300" time
    sd;
  let pe = Interproc.main_est est in
  let tm = pe.Interproc.time and v = pe.Interproc.variance in
  let num x = Printf.sprintf "%g" x in
  let tuple n =
    Printf.sprintf "[%s, %s, %s, %s, %s]" (num (Time_est.cost tm n))
      (num (Time_est.time tm n)) (num (Variance.e2 v n)) (num (Variance.var v n))
      (num (Variance.std_dev v n))
  in
  table [ "Quantity"; "Paper"; "Ours" ]
    ([ [ "TIME(START)"; "920"; num time ]; [ "STD_DEV(START)"; "300"; num sd ] ]
    @ List.map
        (fun n ->
          [ Printf.sprintf "node %d `%s` tuple" n (Report.describe_node a n); "—";
            tuple n ])
        [ 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* X1: counters and dynamic updates, naive vs smart per optimization   *)
(* ------------------------------------------------------------------ *)

let counters () =
  table [ "Program"; "naive (blocks)"; "smart opt1"; "opt1+2"; "opt1+2+3" ]
    (List.map
       (fun (name, src) ->
         let prog = Program.of_source src in
         let analyses = Analysis.of_program prog in
         let vm, _ = run ~backend:Interp.Compiled ~cm:CM.optimized prog in
         let naive = Naive.plan prog in
         let cell (plan : Placement.t) =
           Printf.sprintf "%s / %s" (int (Placement.n_counters plan))
             (int (Placement.dynamic_updates plan vm))
         in
         [ name;
           Printf.sprintf "%s / %s" (int (Naive.n_counters naive))
             (int (Naive.dynamic_updates naive prog vm));
           cell (Placement.plan ~opt2:false ~opt3:false analyses);
           cell (Placement.plan ~opt2:true ~opt3:false analyses);
           cell (Placement.plan ~opt2:true ~opt3:true analyses) ])
       [ ("FIG1", W.fig1 ()); ("BRANCHY", W.branchy ()); ("CGOTO", W.computed_goto ());
         ("LOOPS", S89_workloads.Livermore.source);
         ("SIMPLE", S89_workloads.Simple_code.source ~n:40 ~cycles:3 ()) ])

(* ------------------------------------------------------------------ *)
(* X2: simulated PC sampling vs exact counters                         *)
(* ------------------------------------------------------------------ *)

let sampling () =
  let prog = Program.of_source (S89_workloads.Simple_code.source ~n:40 ~cycles:3 ()) in
  table
    [ "sample interval (cycles)"; "samples"; "mean rel. err. of per-statement frequency";
      "statements with zero samples" ]
    (List.map
       (fun interval ->
         let config =
           { Interp.default_config with cost_model = CM.optimized;
             sample_interval = Some interval }
         in
         let vm = Interp.create ~config prog in
         ignore (Interp.run vm);
         let err = Stats.create () in
         let zero = ref 0 and considered = ref 0 in
         List.iter
           (fun (p : Program.proc) ->
             S89_cfg.Cfg.iter_nodes
               (fun nd ->
                 let execs = Interp.node_execs vm p.Program.name nd in
                 let info = S89_cfg.Cfg.info p.Program.cfg nd in
                 let cost = CM.node_cost CM.optimized info.S89_frontend.Ir.ir in
                 if execs > 0 && cost > 0 then begin
                   incr considered;
                   let samples = Interp.node_samples vm p.Program.name nd in
                   if samples = 0 then incr zero;
                   (* a frequency from samples: execs ~ samples * interval / cost *)
                   let est = float_of_int (samples * interval) /. float_of_int cost in
                   Stats.add err (Stats.rel_err est (float_of_int execs))
                 end)
               p.Program.cfg)
           (Program.procs prog);
         [ int interval; int (Interp.cycles vm / interval);
           Printf.sprintf "%.1f%%" (100.0 *. Stats.mean err);
           Printf.sprintf "%d / %d" !zero !considered ])
       [ 10; 100; 1_000; 10_000; 100_000 ])

(* ------------------------------------------------------------------ *)
(* X3 and X7: one profile per program                                  *)
(* ------------------------------------------------------------------ *)

(* X3's and X7's programs with their run counts, each profiled once
   with smart counters over seeds 1001.. and estimated under the paper's
   Case 1 (FREQ², iterations fully correlated) and the Wald-identity
   variant (independent iterations), both with callee-variance
   propagation *)
type estimated = {
  name : string;
  runs : int;
  t : Pipeline.t;
  est : Interproc.t;
  est_ind : Interproc.t;
}

let profile_seed = 1001
let held_out_seed = 2001

let estimated =
  lazy
    (List.map
       (fun (name, src, runs) ->
         let t = Pipeline.of_source src in
         let profile = Pipeline.profile_smart ~runs ~seed:profile_seed t in
         let est = Pipeline.estimate_profiled ~call_variance:true t profile in
         let est_ind =
           Pipeline.estimate_profiled ~call_variance:true
             ~iteration_model:Variance.Independent t profile
         in
         { name; runs; t; est; est_ind })
       [ ("BRANCHY", W.branchy (), 60); ("CHUNKY", W.chunky (), 60);
         ("NESTED", W.nested_random (), 60); ("CGOTO", W.computed_goto (), 60);
         ("SORT", W.sort (), 60); ("SIEVE", W.sieve (), 60);
         ("LINPACK", S89_workloads.Linpack_like.source (), 30);
         ("LOOPS", S89_workloads.Livermore.source, 8) ])

(* uninstrumented cycles of [e.runs] runs on seeds [seed].. *)
let measured e ~seed =
  List.init e.runs (fun s ->
      let vm = Pipeline.run_once ~seed:(seed + s) e.t in
      check
        (Array.for_all (( = ) 0) (Interp.counters vm))
        "%s: the uninstrumented run on seed %d fired a probe" e.name (seed + s);
      float_of_int (Interp.cycles vm))

(* ------------------------------------------------------------------ *)
(* X3: estimated TIME / STD_DEV vs measured mean / std-dev             *)
(* ------------------------------------------------------------------ *)

(* the measurement: uninstrumented runs with the profile's own seeds *)
let accuracy () =
  table
    [ "Program"; "runs"; "est TIME"; "measured mean"; "SD (paper)"; "SD (independent)";
      "SD measured" ]
    (List.map
       (fun e ->
         let st = Stats.of_list (measured e ~seed:profile_seed) in
         let time = Interproc.program_time e.est in
         check (Float.abs (time -. Stats.mean st) <= 1e-9 *. Stats.mean st)
           "X3 %s: estimated TIME %.6f, measured mean %.6f" e.name time (Stats.mean st);
         [ e.name; string_of_int e.runs; fixed 1 time; fixed 1 (Stats.mean st);
           fixed 0 (Interproc.program_std_dev e.est);
           fixed 0 (Interproc.program_std_dev e.est_ind); fixed 0 (Stats.std_dev st) ])
       (Lazy.force estimated))

(* ------------------------------------------------------------------ *)
(* X7: TIME ± STD_DEV on held-out runs                                 *)
(* ------------------------------------------------------------------ *)

(* X3's profile predicts uninstrumented runs on seeds it never saw *)
let held_out () =
  table
    [ "Program"; "runs"; "est TIME"; "held-out mean"; "TIME error"; "SD (paper)";
      "±1σ"; "±2σ"; "SD (independent)"; "±1σ"; "±2σ" ]
    (List.map
       (fun e ->
         check
           (profile_seed + e.runs <= held_out_seed
           || held_out_seed + e.runs <= profile_seed)
           "X7 %s: profile seeds %d.. and held-out seeds %d.. overlap" e.name
           profile_seed held_out_seed;
         let xs = measured e ~seed:held_out_seed in
         let mean = Stats.mean (Stats.of_list xs) in
         let time = Interproc.program_time e.est in
         let within est k =
           let sd = Interproc.program_std_dev est in
           let n = List.length (List.filter (fun x -> Float.abs (x -. time) <= k *. sd) xs) in
           Printf.sprintf "%d / %d" n e.runs
         in
         [ e.name; string_of_int e.runs; fixed 1 time; fixed 1 mean;
           pct ((time -. mean) /. mean);
           fixed 0 (Interproc.program_std_dev e.est); within e.est 1.0; within e.est 2.0;
           fixed 0 (Interproc.program_std_dev e.est_ind); within e.est_ind 1.0;
           within e.est_ind 2.0 ])
       (Lazy.force estimated))

(* ------------------------------------------------------------------ *)
(* X4: variance-driven chunk size (Kruskal-Weiss)                      *)
(* ------------------------------------------------------------------ *)

let makespan ~n ~p ~h ~dist strategy =
  Stats.mean (Parsim.run_avg ~seeds:8 ~n ~p ~h ~dist strategy)

(* N = 10 000 iterations of mean 100 cycles, dispatch overhead h = 50 *)
let chunks () =
  let n = 10_000 and mu = 100.0 and h = 50.0 in
  table [ "P"; "cv = σ/μ"; "KW chunk"; "static N/P"; "self-sched k=1"; "KW";
          "KW vs best baseline" ]
    (List.concat_map
       (fun p ->
         List.map
           (fun cv ->
             let sigma = cv *. mu in
             let dist = Dist.of_moments ~mean:mu ~variance:(sigma *. sigma) in
             let k = Chunk.kw_chunk ~n ~p ~h ~sigma in
             let m_static = makespan ~n ~p ~h ~dist Chunk.Static_split in
             let m_self = makespan ~n ~p ~h ~dist Chunk.Self_sched in
             let m_kw = makespan ~n ~p ~h ~dist (Chunk.Fixed k) in
             let best = Float.min m_static m_self in
             [ string_of_int p; Printf.sprintf "%g" cv; int k; fixed 0 m_static;
               fixed 0 m_self; fixed 0 m_kw; pct ((best -. m_kw) /. best) ])
           [ 0.0; 0.1; 0.5; 1.0; 2.0 ])
       [ 4; 16; 64 ])

(* the CHUNKY loop bodies' per-iteration mean and variance, taken from
   the estimator, choose the chunk for N = 10 000 iterations on P = 16 *)
let chunky () =
  let t = Pipeline.of_source (W.chunky ()) in
  let est = Pipeline.estimate_profiled t (Pipeline.profile_smart ~runs:20 t) in
  let pe = Interproc.main_est est in
  let a = pe.Interproc.analysis in
  let n = 10_000 and p = 16 and h = 50.0 in
  table [ "loop"; "TIME/iteration"; "SD/iteration"; "KW chunk"; "N/P"; "static N/P";
          "self-sched k=1"; "KW" ]
    (List.filter_map
       (fun hd ->
         let body = S89_cdg.Fcdg.children a.Analysis.fcdg hd S89_cfg.Label.T in
         let sum f = List.fold_left (fun acc v -> acc +. f v) 0.0 body in
         let time = sum (Time_est.time pe.Interproc.time)
         and var = sum (Variance.var pe.Interproc.variance) in
         if time > 50.0 && var > 0.0 then begin
           let k = Chunk.from_estimate ~time ~var ~n ~p ~h in
           let dist = Dist.of_moments ~mean:time ~variance:var in
           let m = makespan ~n ~p ~h ~dist in
           Some
             [ Printf.sprintf "header %d" hd; fixed 1 time; fixed 1 (sqrt var); int k;
               int (Chunk.static_chunk ~n ~p); fixed 0 (m Chunk.Static_split);
               fixed 0 (m Chunk.Self_sched); fixed 0 (m (Chunk.Fixed k)) ]
         end
         else None)
       (S89_cfg.Ecfg.headers a.Analysis.ecfg))

(* ------------------------------------------------------------------ *)
(* X5: compile-time frequency analysis vs profiling                    *)
(* ------------------------------------------------------------------ *)

let static_analysis () =
  table [ "Program"; "static TIME"; "profiled TIME"; "ratio"; "dominant error source" ]
    (List.map
       (fun (name, src, why) ->
         let t = Pipeline.create (Optimize.program (Program.of_source src)) in
         let est_static =
           Pipeline.estimate_totals t
             ~totals:(S89_core.Static_freq.program_totals t.Pipeline.analyses)
         in
         let est_oracle = Pipeline.estimate_oracle t (Pipeline.run_once ~seed:3 t) in
         let s = Interproc.program_time est_static
         and p = Interproc.program_time est_oracle in
         [ name; fixed 0 s; fixed 0 p; Printf.sprintf "%.2f" (s /. p); why ])
       [ ("SIMPLE", S89_workloads.Simple_code.source ~n:30 ~cycles:3 (),
          "none: constant mesh loops are fully analyzable");
         ("LOOPS", S89_workloads.Livermore.source,
          "GOTO loops (K2/K16/K17) at the default loop frequency");
         ("BRANCHY", W.branchy (), "50/50 heuristic vs the data's branch mix");
         ("CHUNKY", W.chunky (), "a 20%-taken heavy branch modeled as 50/50");
         ("FIG1", W.fig1 (), "GOTO loop: assumed frequency 10 vs actual 3") ])

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("T1", table1); ("F3", figure3); ("X1", counters); ("X2", sampling);
    ("X3", accuracy); ("X4", chunks); ("X4-CHUNKY", chunky); ("X5", static_analysis);
    ("X7", held_out) ]

let opening line =
  let prefix = "<!-- experiment:" and suffix = " -->" in
  if String.starts_with ~prefix line && String.ends_with ~suffix line then
    let lp = String.length prefix in
    Some (String.sub line lp (String.length line - lp - String.length suffix))
  else None

let closing = "<!-- /experiment -->"

let () =
  let out = Buffer.create 65536 in
  let seen = Hashtbl.create 16 in
  let rec copy () =
    match In_channel.input_line stdin with
    | None -> ()
    | Some line -> (
        Buffer.add_string out (line ^ "\n");
        match opening line with
        | None -> copy ()
        | Some id ->
            let generate =
              match List.assoc_opt id experiments with
              | Some g -> g
              | None -> fail "unknown experiment %S" id
            in
            check (not (Hashtbl.mem seen id)) "experiment %s appears twice" id;
            Hashtbl.replace seen id ();
            Buffer.add_string out (generate ());
            skip id)
  and skip id =
    match In_channel.input_line stdin with
    | None -> fail "experiment %s has no closing %s" id closing
    | Some line when line = closing ->
        Buffer.add_string out (line ^ "\n");
        copy ()
    | Some _ -> skip id
  in
  copy ();
  List.iter
    (fun (id, _) -> check (Hashtbl.mem seen id) "no <!-- experiment:%s --> block" id)
    experiments;
  print_string (Buffer.contents out)
