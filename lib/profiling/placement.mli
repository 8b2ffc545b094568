(** Smart counter placement (§3): one counter per control condition
    (optimization 1), counters dropped via conservation laws
    (optimization 2), and DO-loop bulk adds (optimization 3), with a
    solvability check guaranteeing reconstructibility. *)

module Ast = S89_frontend.Ast
module Probe = S89_vm.Probe
open S89_cfg

type cond = Analysis.cond

(** A quantity the reconstruction system can evaluate. *)
type term =
  | Tcond of cond  (** a condition's TOTAL_FREQ *)
  | Tnode_total of int  (** NODE_TOTAL of an FCDG node (Σ of in-conditions) *)

(** How a dropped condition's total is recovered. *)
type derivation =
  | Node_balance of { node : int; others : cond list }
      (** [c = NODE_TOTAL(node) − Σ others] (all labels present) *)
  | Exit_balance of { ph : int; others : cond list }
      (** [c = NODE_TOTAL(ph) − Σ other interval exits] *)
  | Latch_balance of { ph : int; header_cond : cond; others : term list }
      (** [c = TOTAL(ph,U) − NODE_TOTAL(ph) − Σ other latches] *)
  | Header_from_latches of { ph : int; latches : term list }
      (** [c = NODE_TOTAL(ph) + Σ latches] — observation 2 solved for the
          header, eliminating the per-iteration header counter *)
  | Static_trip of { ph : int; trip : int }
      (** constant-trip exit-free DO: header total = (trip+1)·entries *)
  | Static_body of { ph : int; trip : int }
      (** its body total = trip·entries *)

(** How a measured condition is physically counted. *)
type realization =
  | Incr_edge of int * Label.t  (** +1 on an original CFG edge *)
  | Incr_node of int  (** +1 when an original node executes *)
  | Bulk_entries of int * Ast.expr
      (** += expr on each entry edge of the given header (opt. 3) *)

type proc_plan = {
  analysis : Analysis.t;
  measured : (cond * int * realization) list;  (** condition, counter id, how *)
  derived : (cond * derivation) list;
  second_moment : (int * int * int option) list;
      (** header, counter id for Σ(trips+1)² per entry, static trip *)
}

type t

(** One procedure's placement decisions: which conditions stay measured
    (with their bulk expressions) and which are derived, and how.  They
    are a function of the analysis and [opt2]/[opt3] alone, with no
    counter ids or procedure name in them. *)
type decisions

(** A store for {!decisions}: [cache ~salt a compute] returns the
    decisions for [a], either from an earlier analysis of the same body
    under the same [salt] (which encodes [opt2]/[opt3]) or by calling
    [compute].  {!S89_core.Memo} implements it, keyed by body
    fingerprint. *)
type cache = salt:string -> Analysis.t -> (unit -> decisions) -> decisions

(** Plan counters for a whole program.  [opt2]/[opt3] toggle the paper's
    optimizations (both default true; opt1 is structural).
    [second_moments] adds Σ(trips+1)² bulk counters per exit-free DO loop
    for loop-frequency variance (§5).  [cache] lets procedures whose
    bodies were planned before reuse their decisions; counter ids and
    probes are realized afresh either way, so the plan is the same with
    or without it. *)
val plan :
  ?opt2:bool ->
  ?opt3:bool ->
  ?second_moments:bool ->
  ?cache:cache ->
  (string, Analysis.t) Hashtbl.t ->
  t

(** Number of counter variables allocated. *)
val n_counters : t -> int

(** The probes to attach to the VM ({!S89_vm.Interp.config}). *)
val probes : t -> Probe.t

val proc_plan : t -> string -> proc_plan
val proc_names : t -> string list

(** Dynamic counter updates a run executes, from a VM's oracle counts
    (the overhead quantity of Table 1 / X1). *)
val dynamic_updates : t -> S89_vm.Interp.t -> int

val pp_cond : Format.formatter -> cond -> unit
val pp : Format.formatter -> t -> unit
