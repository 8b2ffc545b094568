(* End-to-end convenience API tying the whole reproduction together:

     source -> parse/lower -> analyses (ECFG/FCDG)
            -> profile (smart counters over N runs, or oracle counts)
            -> reconstruct TOTAL_FREQs -> FREQ
            -> COST/TIME/VAR bottom-up, interprocedurally.

   Because all the conservation laws are linear, counter arrays from
   several runs are summed element-wise and reconstructed once — this is
   exactly the paper's "accumulate the TOTAL_FREQ values (as a sum) from
   different program executions in the program database". *)

module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module Cost_model = S89_vm.Cost_model
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Reconstruct = S89_profiling.Reconstruct
module Database = S89_profiling.Database

let log_src = Logs.Src.create "s89.pipeline" ~doc:"end-to-end pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Diag = S89_diag.Diag
module Fault = S89_util.Fault

type t = {
  prog : Program.t;
  analyses : (string, Analysis.t) Hashtbl.t;
  diags : Diag.t list;
  memo : Memo.t option;
}

(* per-procedure analysis failure -> structured diagnostic *)
let analysis_diag (name : string) : exn -> Diag.t = function
  | Fault.Injected msg ->
      Diag.error ~proc:name ~code:"FLT001" ~hint:"injected by S89_FAULTS" msg
  | S89_exec.Supervise.Circuit_open key ->
      Diag.errorf ~proc:name ~code:"SRV002"
        ~hint:"degraded to the opaque-callee path; closes on the next success"
        "analysis suppressed: circuit breaker open for %s" key
  | Analysis.Unanalyzable { proc; reason } -> Diag.error ~proc ~code:"ANA001" reason
  | S89_cfg.Ecfg.Nonterminating_interval h ->
      Diag.errorf ~proc:name ~code:"ANA002"
        ~hint:"the paper assumes all executions terminate"
        "interval with header %d has no exit edge" h
  | S89_graph.Node_split.Gave_up n ->
      Diag.errorf ~proc:name ~code:"ANA001" "node splitting gave up with %d nodes" n
  | e ->
      Diag.errorf ~proc:name ~code:"ANA001" "analysis failed: %s"
        (Printexc.to_string e)

(* Graceful degradation (default): a procedure whose analysis fails is
   recorded as a diagnostic and skipped — the rest of the program is
   still analyzed, and the estimator treats the skipped procedure's calls
   as opaque.  [~strict:true] restores fail-fast: the first failure
   propagates as its original exception. *)
(* [?supervisor] wraps each procedure's analysis in
   [Supervise.protect] — transient failures are restarted with
   deterministic backoff, and a procedure whose circuit breaker is open
   (repeated failures, or pre-tripped by a resumed batch's journal) is
   suppressed immediately and degrades to the ANA003 opaque-callee path.
   [?journal] is called once per procedure, in procedure order, with
   ["ana <proc> ok"] or ["ana <proc> failed <CODE>"] — the batch
   checkpoint appends these to its WAL so a resumed batch knows which
   procedures already completed or failed. *)
(* [?memo] consults the memo's analysis layer under the body fingerprint
   before building anything: a hit reuses the cached ECFG/CDG/FCDG —
   re-bound to this program's procedure, since fingerprints ignore names
   — and only procedures with changed bodies are (re)built.  A procedure
   whose circuit breaker is open skips the memo so it degrades with
   [SRV002] exactly like an unmemoized run. *)
let create ?(strict = false) ?supervisor ?journal ?memo (prog : Program.t) :
    t =
  let procs = Array.of_list (Program.procs prog) in
  let memo_ok (p : Program.proc) =
    match supervisor with
    | Some s -> not (S89_exec.Supervise.breaker_open s ~key:p.Program.name)
    | None -> true
  in
  let fps =
    match memo with
    | None -> [||]
    | Some m -> Array.map (Memo.body_fp_cached m) procs
  in
  let attempt i (p : Program.proc) : (Analysis.t, Diag.t) result =
    let cached =
      match memo with
      | Some m when memo_ok p -> Memo.find_analysis m fps.(i)
      | _ -> None
    in
    match cached with
    | Some a -> Ok { a with Analysis.proc = p }
    | None -> (
        let work () =
          match supervisor with
          | None -> Analysis.of_proc p
          | Some s ->
              (* each restart draws its own fault decision *)
              S89_exec.Supervise.protect s ~key:p.Program.name (fun ~attempt ->
                  Analysis.of_proc ~attempt p)
        in
        match work () with
        | a ->
            (match memo with
            | Some m when memo_ok p -> Memo.add_analysis m fps.(i) a
            | _ -> ());
            Ok a
        (* a malformed S89_FAULTS is a configuration error, not a
           per-procedure failure: degrading it would repeat the same
           message for every procedure and fake a partially-green run *)
        | exception (Fault.Bad_spec _ as e) -> raise e
        | exception e when not strict -> Error (analysis_diag p.Program.name e))
  in
  let results = Array.mapi attempt procs in
  let analyses = Hashtbl.create 8 in
  let diags = ref [] in
  Array.iteri
    (fun i r ->
      let name = procs.(i).Program.name in
      (match journal with
      | None -> ()
      | Some j -> (
          match r with
          | Ok _ -> j (Printf.sprintf "ana %s ok" name)
          | Error d -> j (Printf.sprintf "ana %s failed %s" name d.Diag.code)));
      match r with
      | Ok a -> Hashtbl.replace analyses name a
      | Error d ->
          Log.warn (fun m -> m "%a" Diag.pp d);
          diags := d :: !diags)
    results;
  { prog; analyses; diags = List.rev !diags; memo }

let diagnostics t = t.diags

let of_source ?strict ?supervisor ?journal ?memo src =
  create ?strict ?supervisor ?journal ?memo (Program.of_source src)

(* frontend + analysis under one Result: a frontend failure is the single
   error; analysis failures degrade per procedure as in [create] *)
let of_source_result ?strict ?supervisor ?journal ?memo src :
    (t, Diag.t) result =
  match Program.of_source_result src with
  | Error d -> Error d
  | Ok prog -> (
      match create ?strict ?supervisor ?journal ?memo prog with
      | t -> Ok t
      | exception e ->
          (* only reachable under [~strict:true] *)
          Error (analysis_diag "" e))

(* ---------------- running ---------------- *)

(* a pipeline created with a memo reuses the VM code of every procedure
   whose code inputs the memo has seen before *)
let vm_cache t = Option.map Memo.vm_cache t.memo

(* one uninstrumented run; oracle counts serve as exact totals *)
let run_once ?(cost_model = Cost_model.optimized) ?(seed = 42)
    ?(backend = Interp.default_config.Interp.backend) t : Interp.t =
  let config = { Interp.default_config with cost_model; seed; backend } in
  let vm = Interp.create ?cache:(vm_cache t) ~config t.prog in
  ignore (Interp.run vm);
  vm

type profile = {
  plan : Placement.t;
  counters : int array; (* summed over all runs *)
  runs : int;
  totals : (string, (Analysis.cond, int) Hashtbl.t) Hashtbl.t;
  database : Database.t;
  avg_cycles : float; (* instrumented cycles per run *)
}

(* smart counter placement; a pipeline created with a memo reuses the
   decisions of every procedure body the memo has planned before *)
let plan ?(second_moments = true) t =
  Placement.plan ~second_moments
    ?cache:(Option.map Memo.placement_cache t.memo)
    t.analyses

(* profile with smart instrumentation over [runs] runs (seeds vary) *)
let profile_smart ?(cost_model = Cost_model.optimized) ?(runs = 1) ?(seed = 1)
    ?second_moments ?(backend = Interp.default_config.Interp.backend) t
    : profile =
  let plan = plan ?second_moments t in
  let sums = Array.make (Placement.n_counters plan) 0 in
  let cycles = ref 0 in
  for r = 0 to runs - 1 do
    let config =
      { Interp.default_config with cost_model; instr = Placement.probes plan;
        seed = seed + r; backend }
    in
    let vm = Interp.create ?cache:(vm_cache t) ~config t.prog in
    ignore (Interp.run vm);
    cycles := !cycles + Interp.cycles vm;
    let cs = Interp.counters vm in
    (* the VM rounds its counter array up to length >= 1 even for an
       empty plan (a fully-degraded pipeline profiles nothing), so sum
       over the plan's counters, not the VM's *)
    for i = 0 to Array.length sums - 1 do
      sums.(i) <- sums.(i) + cs.(i)
    done
  done;
  Log.info (fun m ->
      m "profiled %d runs with %d counters (%.0f cycles/run)" runs
        (Placement.n_counters plan)
        (float_of_int !cycles /. float_of_int runs));
  let totals = Reconstruct.totals plan ~counters:sums in
  let database = Database.create () in
  Database.accumulate database totals;
  database.Database.runs <- runs;
  {
    plan;
    counters = sums;
    runs;
    totals;
    avg_cycles = float_of_int !cycles /. float_of_int runs;
    database;
  }

(* one instrumented run against an existing plan, reconstructed alone —
   the batch service journals each run's totals to its WAL, so the unit
   of persistence is a single run, not a whole profile.  Summing the
   per-run totals equals profiling all runs at once (linearity). *)
let profile_run ?(cost_model = Cost_model.optimized)
    ?(backend = Interp.default_config.Interp.backend) ~plan ~seed t :
    (string, (Analysis.cond, int) Hashtbl.t) Hashtbl.t =
  let config =
    { Interp.default_config with cost_model; instr = Placement.probes plan;
      seed; backend }
  in
  let vm = Interp.create ?cache:(vm_cache t) ~config t.prog in
  ignore (Interp.run vm);
  let counters = Array.sub (Interp.counters vm) 0 (Placement.n_counters plan) in
  Reconstruct.totals plan ~counters

(* ---------------- estimation ---------------- *)

let totals_fn tbl name =
  match Hashtbl.find_opt tbl name with
  | Some t -> t
  | None -> Hashtbl.create 1

(* estimate from a smart profile (optionally with profiled loop-frequency
   variance from the second-moment counters) *)
let estimate_profiled ?(cost_model = Cost_model.optimized)
    ?(iteration_model = Variance.Paper_correlated) ?(call_variance = false)
    ?(recursion = Interproc.Reject) ?(use_second_moments = true) t (p : profile) :
    Interproc.t =
  let freq_var =
    if not use_second_moments then Interproc.Zero
    else
      Interproc.Profiled
        (fun proc header ->
          match Hashtbl.find_opt p.totals proc with
          | None -> None
          | Some tot ->
              List.assoc_opt header
                (Reconstruct.loop_second_moments p.plan ~counters:p.counters proc tot))
  in
  Interproc.estimate ~cost_model ~freq_var ~iteration_model ~call_variance ~recursion
    t.prog t.analyses ~totals:(totals_fn p.totals)

(* estimate straight from an uninstrumented run's oracle counts *)
let estimate_oracle ?(cost_model = Cost_model.optimized) ?(freq_var = Interproc.Zero)
    ?(iteration_model = Variance.Paper_correlated) ?(call_variance = false)
    ?(recursion = Interproc.Reject) ?cost_override t (vm : Interp.t) : Interproc.t =
  let totals name =
    let a = Hashtbl.find t.analyses name in
    Analysis.oracle_totals a vm
  in
  Interproc.estimate ~cost_model ~freq_var ~iteration_model ~call_variance ~recursion
    ?cost_override t.prog t.analyses ~totals

(* Static-frequency totals ready for [estimate_totals].  With [?memo],
   each procedure's synthetic TOTAL_FREQ table is cached under its body
   fingerprint (salted with the heuristics): on re-analysis only the
   procedures whose bodies changed recompute their tables.  Sound
   because [Static_freq.totals] is a deterministic function of the
   analysis, which the memo's analysis layer keys by the same
   fingerprint. *)
let static_totals ?heuristics ?memo t : string -> (Analysis.cond, int) Hashtbl.t =
  match memo with
  | None -> Static_freq.program_totals ?heuristics t.analyses
  | Some m ->
      let h =
        match heuristics with
        | None -> Static_freq.default_heuristics
        | Some h -> h
      in
      let salt =
        Printf.sprintf "static_totals %h %h %h" h.Static_freq.loop_freq
          h.Static_freq.branch_taken h.Static_freq.exit_taken
      in
      fun name ->
        match Hashtbl.find_opt t.analyses name with
        | Some a ->
            Memo.static_totals m ~salt a.Analysis.proc (fun () ->
                Static_freq.totals ?heuristics a)
        | None -> Hashtbl.create 1

(* estimate from explicit per-procedure totals (e.g. a loaded database);
   [?memo] makes the bottom-up traversal demand-driven — only the dirty
   cone of the call graph is recomputed *)
let estimate_totals ?(cost_model = Cost_model.optimized) ?(freq_var = Interproc.Zero)
    ?(iteration_model = Variance.Paper_correlated) ?(call_variance = false)
    ?(recursion = Interproc.Reject) ?cost_override ?memo t ~totals : Interproc.t =
  let memo = Option.map Memo.hooks memo in
  Interproc.estimate ~cost_model ~freq_var ~iteration_model ~call_variance ~recursion
    ?cost_override ?memo t.prog t.analyses ~totals
