(** End-to-end convenience API: parse/lower → analyses → profile →
    reconstruct → FREQ → TIME/VAR, interprocedurally. *)

module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module Cost_model = S89_vm.Cost_model
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Reconstruct = S89_profiling.Reconstruct
module Database = S89_profiling.Database

module Diag = S89_diag.Diag

type t = {
  prog : Program.t;
  analyses : (string, Analysis.t) Hashtbl.t;  (** ECFG/CDG/FCDG per procedure *)
  diags : Diag.t list;
      (** one diagnostic per procedure whose analysis failed (empty under
          [~strict:true], which fails fast instead) *)
}

(** Build the analyses for an already-lowered program.

    By default a procedure whose analysis fails is skipped and recorded
    in {!diags} — the remaining procedures are still analyzed and the
    estimator treats the skipped procedure's calls as opaque.
    [~strict:true] restores fail-fast behaviour: the first analysis
    failure propagates as its original exception.

    [?supervisor] wraps each procedure's analysis in
    {!S89_exec.Supervise.protect}: transient failures restart with
    deterministic backoff, and a procedure whose circuit is open
    (repeated failures, or pre-tripped from a resumed batch's journal)
    is suppressed with an [SRV002] diagnostic and degrades like any
    other analysis failure.  [?journal] is invoked once per procedure, in
    procedure order, with ["ana <proc> ok"] or
    ["ana <proc> failed <CODE>"].

    [?memo] consults the memo's analysis layer under each procedure's
    body fingerprint: a hit reuses the cached ECFG/CDG/FCDG and only
    changed bodies are rebuilt.  Procedures whose circuit breaker is
    open skip the memo and degrade with [SRV002] as usual. *)
val create :
  ?strict:bool ->
  ?supervisor:S89_exec.Supervise.t ->
  ?journal:(string -> unit) ->
  ?memo:Memo.t ->
  Program.t ->
  t

(** The per-procedure diagnostics collected by {!create}. *)
val diagnostics : t -> Diag.t list

(** Parse, analyze, lower and build the analyses from MF77 source. *)
val of_source :
  ?strict:bool ->
  ?supervisor:S89_exec.Supervise.t ->
  ?journal:(string -> unit) ->
  ?memo:Memo.t ->
  string ->
  t

(** Like {!of_source} but frontend failures come back as a structured
    diagnostic instead of an exception (analysis failures still degrade
    per procedure unless [~strict:true]). *)
val of_source_result :
  ?strict:bool ->
  ?supervisor:S89_exec.Supervise.t ->
  ?journal:(string -> unit) ->
  ?memo:Memo.t ->
  string ->
  (t, Diag.t) result

(** One uninstrumented VM run (its oracle counts serve as exact totals).
    [backend] selects the execution engine (default {!Interp.Bytecode});
    all backends are observationally identical, so results never depend
    on the choice. *)
val run_once :
  ?cost_model:Cost_model.t ->
  ?seed:int ->
  ?backend:Interp.backend ->
  t ->
  Interp.t

(** The result of profiling with optimized counters. *)
type profile = {
  plan : Placement.t;
  counters : int array;  (** summed element-wise over all runs (linearity) *)
  runs : int;
  totals : (string, (Analysis.cond, int) Hashtbl.t) Hashtbl.t;
      (** reconstructed TOTAL_FREQ per procedure *)
  database : Database.t;  (** the same totals, as a persistable database *)
  avg_cycles : float;  (** instrumented cycles per run *)
}

(** Run [runs] instrumented executions (seeds [seed], [seed+1], ...) with
    the §3-optimized counter placement, sum the counters, reconstruct.
    [second_moments] additionally tracks [Σ(trips+1)²] per exit-free DO
    loop for loop-frequency variance. *)
val profile_smart :
  ?cost_model:Cost_model.t ->
  ?runs:int ->
  ?seed:int ->
  ?second_moments:bool ->
  ?backend:Interp.backend ->
  t ->
  profile

(** One instrumented run against an existing [plan], reconstructed alone
    — the persistence unit of the batch service's WAL.  By linearity,
    accumulating per-run totals over seeds [s..s+n-1] equals
    [profile_smart ~runs:n ~seed:s]. *)
val profile_run :
  ?cost_model:Cost_model.t ->
  ?backend:Interp.backend ->
  plan:Placement.t ->
  seed:int ->
  t ->
  (string, (Analysis.cond, int) Hashtbl.t) Hashtbl.t

(** Estimate from a smart profile.  When [use_second_moments] (default
    true) the profiled E[F²] feeds [VAR(FREQ)] for the tracked loops. *)
val estimate_profiled :
  ?cost_model:Cost_model.t ->
  ?iteration_model:Variance.iteration_model ->
  ?call_variance:bool ->
  ?recursion:Interproc.recursion_policy ->
  ?use_second_moments:bool ->
  t ->
  profile ->
  Interproc.t

(** Estimate straight from an uninstrumented run's oracle counts
    (exactness: [program_time] then equals the measured cycles). *)
val estimate_oracle :
  ?cost_model:Cost_model.t ->
  ?freq_var:Interproc.freq_var_spec ->
  ?iteration_model:Variance.iteration_model ->
  ?call_variance:bool ->
  ?recursion:Interproc.recursion_policy ->
  ?cost_override:(string -> int -> float) ->
  t ->
  Interp.t ->
  Interproc.t

(** Static-frequency totals for {!estimate_totals}, no execution
    required.  With [?memo], each procedure's synthetic TOTAL_FREQ table
    is cached under its body fingerprint (salted with the heuristics):
    re-analysis recomputes tables only for changed bodies. *)
val static_totals :
  ?heuristics:Static_freq.heuristics ->
  ?memo:Memo.t ->
  t ->
  string ->
  (Analysis.cond, int) Hashtbl.t

(** Estimate from explicit per-procedure totals (e.g. a loaded database
    or hand-written profiles like the paper's worked example).  [?memo]
    makes the bottom-up traversal demand-driven: each procedure first
    consults the memo under its content fingerprint and only the dirty
    cone of the call graph is recomputed. *)
val estimate_totals :
  ?cost_model:Cost_model.t ->
  ?freq_var:Interproc.freq_var_spec ->
  ?iteration_model:Variance.iteration_model ->
  ?call_variance:bool ->
  ?recursion:Interproc.recursion_policy ->
  ?cost_override:(string -> int -> float) ->
  ?memo:Memo.t ->
  t ->
  totals:(string -> (Analysis.cond, int) Hashtbl.t) ->
  Interproc.t
