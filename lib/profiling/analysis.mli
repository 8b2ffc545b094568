(** Per-procedure analysis bundle (ECFG + CDG + FCDG) and the mapping from
    control conditions to the physical measurements that realize them. *)

module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
open S89_cfg
open S89_cdg

(** A control condition [(u, l)] of the FCDG (paper §3). *)
type cond = int * Label.t

(** How a condition's [TOTAL_FREQ] is observable at run time. *)
type site =
  | Edge_site of int * Label.t  (** an original CFG edge [(src, label)] *)
  | Node_site of int  (** executions of an original node (headers, exits) *)
  | Invocation_site  (** procedure entry — the [(START, U)] condition *)
  | Never  (** pseudo conditions: always zero *)

type t = {
  proc : Program.proc;
  ecfg : Ir.info Ecfg.t;
  cdg : Control_dep.t;
  fcdg : Fcdg.t;
  conditions : cond list;  (** all FCDG control conditions *)
}

(** Payload given to synthetic ECFG nodes. *)
val synthetic_info : Ir.info

(** The procedure violates an analysis precondition (invalid or
    irreducible CFG) — raised by {!of_proc} instead of failing deep
    inside interval analysis. *)
exception Unanalyzable of { proc : string; reason : string }

(** Analyze one procedure (ECFG, CDG, FCDG).
    @raise Unanalyzable on an invalid or irreducible CFG
    @raise S89_util.Fault.Injected under [S89_FAULTS=analysis_raise:P] *)
val of_proc : Program.proc -> t

(** Analyze every procedure of a program, keyed by name. *)
val of_program : Program.t -> (string, t) Hashtbl.t

(** Classify a condition into its measurement site. *)
val site_of_condition : t -> cond -> site

(** A condition's exact [TOTAL_FREQ] from a VM run's oracle counts. *)
val oracle_total : t -> S89_vm.Interp.t -> cond -> int

(** All conditions with their oracle totals. *)
val oracle_totals : t -> S89_vm.Interp.t -> (cond, int) Hashtbl.t

(** Headers of exit-free DO loops (no branch in the body leaves the
    interval) — the targets of §3's third optimization. *)
val exit_free_do_headers : t -> int list

(** The DO metadata of a header node, if it is a lowered DO loop. *)
val do_meta : t -> int -> Ir.do_meta option

(** Original-CFG entry edges of a loop (the edges the ECFG redirected to
    the preheader); bulk probes attach here. *)
val entry_edges : t -> int -> Label.t S89_graph.Digraph.edge list
