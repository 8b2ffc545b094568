(** Interprocedural estimation (§4, rule 2): procedures are visited
    bottom-up over the call graph and a call node's COST includes the
    callee's [TIME(START)]. *)

module Program = S89_frontend.Program
module Cost_model = S89_vm.Cost_model
module Analysis = S89_profiling.Analysis
module Freq = S89_profiling.Freq

(** Raised under the [Reject] policy when the call graph is recursive;
    carries the SCC's procedure names.  The paper defers recursion. *)
exception Recursion_unsupported of string list

(** The fixpoint iteration did not converge within [max_iter]. *)
exception No_convergence of string list

type recursion_policy =
  | Reject  (** the paper's stance *)
  | Fixpoint of { tol : float; max_iter : int }
      (** solve recursive TIME/VAR by fixed-point iteration over the SCC
          (the Sar87/Sar89 extension) *)

(** Loop-frequency variance source, per procedure (see
    {!Variance.freq_var_model}). *)
type freq_var_spec =
  | Zero
  | Geometric
  | Poisson
  | Uniform
  | Profiled of (string -> int -> float option)
      (** procedure → header → E[F²] per interval execution *)

(** Everything computed for one procedure. *)
type proc_est = {
  analysis : Analysis.t;
  freq : Freq.t;
  cost : float array;  (** COST(u) including callee times at call nodes *)
  time : Time_est.t;
  variance : Variance.t;
  rendered : string option Atomic.t option;
      (** the report lines {!Report.to_string} prints below this
          procedure's header line, filled by the first render.  [Some]
          only on estimates a memo holds: a memo hit copies the record,
          so the copy shares the cell and its text.  The memo empties
          the cell when a newer entry replaces this one under the same
          procedure name; the next render fills it again.  The header is
          not cached, since a hit may carry another procedure name. *)
}

type t = {
  per_proc : (string, proc_est) Hashtbl.t;
  main : string;
}

(** How a memo layer (see {!Memo}, which sits above this module) plugs
    into the bottom-up traversal: fingerprint primitives plus the cache.
    A procedure's key is [fp_mix salt [fp_body p; fp_totals tot;
    callee-keys…]] with callees in first-appearance order, so a change
    invalidates exactly its callers' cone.  [fp_body] must not depend on
    the procedure's own name (renaming-only edits keep fingerprints).
    [fp_totals] also receives the procedure name so the implementation
    can cache by physical identity of the table (a memoized totals
    source returns the same value across re-analyses); [find] receives
    the name of the procedure that looks the key up. *)
type memo_hooks = {
  fp_body : Program.proc -> int64;
  fp_totals : string -> (Analysis.cond, int) Hashtbl.t -> int64;
  fp_mix : string -> int64 list -> int64;
  find : string -> int64 -> proc_est option;
  add : int64 -> proc_est -> unit;
}

(** Estimate every procedure of a program, callees first.

    @param cost_model architectural costs (default {!Cost_model.optimized})
    @param freq_var loop-frequency variance source (default [Zero])
    @param iteration_model paper's FREQ² vs. Wald (default paper)
    @param call_variance propagate callee VAR through rule 2 (default
      false — the paper's [VAR(COST(u)) = 0] assumption)
    @param recursion what to do on call-graph cycles (default [Reject])
    @param cost_override replace the model-derived local COST of original
      nodes ([proc name -> node -> cost]); used by the worked example
    @param memo demand-driven recomputation: each non-recursive procedure
      first consults the memo under its content fingerprint and commits
      the cached result on a hit — only the dirty cone of the call graph
      is recomputed.  Ignored (full recomputation) when [freq_var] is
      [Profiled] or [cost_override] is given, whose closures a
      fingerprint cannot see.  Recursive SCCs are always recomputed but
      still fingerprinted, so their callers memoize soundly.
    @param on_diag called with a warning for every procedure missing from
      [analyses] (skipped from the estimate, its calls treated as opaque
      zero-cost calls); defaults to logging
    @param totals per-procedure [TOTAL_FREQ] tables (from reconstruction,
      a database, or oracle counts) *)
val estimate :
  ?cost_model:Cost_model.t ->
  ?freq_var:freq_var_spec ->
  ?iteration_model:Variance.iteration_model ->
  ?call_variance:bool ->
  ?recursion:recursion_policy ->
  ?cost_override:(string -> int -> float) ->
  ?memo:memo_hooks ->
  ?on_diag:(S89_diag.Diag.t -> unit) ->
  Program.t ->
  (string, Analysis.t) Hashtbl.t ->
  totals:(string -> (Analysis.cond, int) Hashtbl.t) ->
  t

(** Per-procedure results.  Raises [Invalid_argument] on unknown names. *)
val proc_est : t -> string -> proc_est

(** The main program's estimate. *)
val main_est : t -> proc_est

(** Whole-program TIME: [TIME(START)] of the main program. *)
val program_time : t -> float

(** Whole-program VAR. *)
val program_var : t -> float

(** Whole-program STD_DEV. *)
val program_std_dev : t -> float
