(** Memoized interprocedural analysis: per-procedure results keyed by
    content fingerprints (FNV-1a/64 of the lowered body chained with the
    ordered fingerprints of the callee summaries, the TOTAL_FREQ table
    and an option salt), so re-analysis of an edited program recomputes
    exactly the dirty cone of the call graph.

    Six layers: full results (with their rendered report lines),
    analyses, placement decisions, static totals, and VM layouts and
    code.  The memo is bounded by the program, not by the edit history:
    each procedure name holds its current body and the one it last
    superseded, and everything derived from a body no name holds is
    dropped; each name holds one full result, and a superseded one is
    dropped the same way (its persisted summary stays).  Thread-safe:
    the layers may be probed from several domains. *)

module Program = S89_frontend.Program
module Analysis = S89_profiling.Analysis
module Placement = S89_profiling.Placement
module Interp = S89_vm.Interp
module Diag = S89_diag.Diag

type t

type stats = {
  mutable hits : int;  (** full per-procedure results reused *)
  mutable misses : int;  (** dirty-cone recomputations *)
  mutable analysis_hits : int;  (** ECFG/CDG/FCDG builds skipped *)
  mutable analysis_misses : int;
  mutable placement_hits : int;  (** placement decisions reused *)
  mutable placement_misses : int;
  mutable code_hits : int;  (** VM code reused ({!vm_cache}) *)
  mutable code_misses : int;  (** procedures emitted *)
  mutable warm_confirmed : int;
      (** recomputations that matched a persisted summary *)
  mutable warm_mismatches : int;  (** [MEMO002] determinism violations *)
}

(** [on_diag] receives [MEMO001] when two persisted stores disagree on
    one fingerprint and [MEMO002] when a recomputed result disagrees
    with a persisted summary (default: logs a warning). *)
val create : ?on_diag:(Diag.t -> unit) -> unit -> t

(** {1 Fingerprints} *)

(** FNV-1a/64 of the lowered body: unit kind, parameters and the
    marshaled CFG (lowering is deterministic, so equal sources give
    equal bytes).  Excludes the procedure's name — renaming-only edits
    keep fingerprints. *)
val body_fp : Program.proc -> int64

(** [body_fp] through a per-memo physical-identity cache: the second
    consumer of the same program version (the interprocedural pass,
    after {!Pipeline.create}) gets its fingerprints for free.  A name
    whose fingerprint changes keeps the body it supersedes and lets go
    of the one before, which is evicted from every layer unless another
    name holds it. *)
val body_fp_cached : t -> Program.proc -> int64

(** Fingerprint of a [TOTAL_FREQ] table (sorted; zero entries ignored). *)
val totals_fp : (Analysis.cond, int) Hashtbl.t -> int64

(** Chain a salt and an ordered fingerprint list into one key. *)
val mix : string -> int64 list -> int64

(** {1 Cache layers} *)

(** The full-result layer, as {!Interproc.estimate}'s [?memo] argument. *)
val hooks : t -> Interproc.memo_hooks

(** The analysis layer, keyed by {!body_fp} ({!Pipeline.create} uses it
    to skip the ECFG/CDG/FCDG build for unchanged bodies). *)
val find_analysis : t -> int64 -> Analysis.t option

val add_analysis : t -> int64 -> Analysis.t -> unit

(** Derived synthetic TOTAL_FREQ tables: [static_totals t ~salt p
    compute] keys [compute ()] by [p]'s {!body_fp} mixed with [salt]
    ({!Pipeline.static_totals} passes its heuristics).  The cached table
    is returned as-is: consumers must treat it as read-only. *)
val static_totals :
  t ->
  salt:string ->
  Program.proc ->
  (unit -> (Analysis.cond, int) Hashtbl.t) ->
  (Analysis.cond, int) Hashtbl.t

(** The placement layer, as {!Placement.plan}'s [?cache]: decisions
    keyed by {!body_fp} mixed with the placement salt, counted in
    [placement_hits]/[placement_misses]. *)
val placement_cache : t -> Placement.cache

(** The VM layer, as {!Interp.create}'s [?cache]: slot layouts and
    emitted bytecode keyed by {!body_fp} mixed with the salts
    [Interp.create] passes, code counted in [code_hits]/[code_misses].
    The memo holds only the immutable code, never a VM's run state. *)
val vm_cache : t -> Interp.cache

(** {1 Persistence} *)

(** Install one persisted summary (from a store's memo records). *)
val load_summary : t -> fp:int64 -> name:string -> time:float -> var:float -> unit

(** Summaries created or changed since the last drain, oldest first, as
    [(fingerprint, name, TIME, VAR)] — what a service appends to its
    store. *)
val drain_summaries : t -> (int64 * string * float * float) list

(** Number of summaries currently held (persisted + fresh). *)
val summaries_loaded : t -> int

(** {1 Accounting} *)

val stats : t -> stats
val reset_stats : t -> unit
val pp_stats : Format.formatter -> t -> unit
