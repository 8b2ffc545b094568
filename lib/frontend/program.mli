(** Whole-program view: one lowered CFG per program unit plus the call
    graph (callers → callees), which the interprocedural estimator walks
    bottom-up (§4 rule 2). *)

open S89_graph

(** One program unit, lowered. *)
type proc = {
  name : string;
  kind : Ast.unit_kind;
  params : string list;
  env : Sema.env;
  cfg : Ir.info S89_cfg.Cfg.t;  (** reducible by construction *)
  rewritten : bool;
      (** [cfg] is not the lowering of [env] but a rewrite of it
          ({!map_cfgs}), so a key derived from [env] (the memo's body
          fingerprint) must mix this in. *)
}

type t = {
  procs : proc array;
  by_name : (string, proc) Hashtbl.t;
  index : (string, int) Hashtbl.t;
  main : string;
  call_graph : unit Digraph.t;  (** node i = procs.(i); edges caller → callee *)
}

(** User functions referenced inside an expression (with multiplicity),
    given the unit table. *)
val expr_calls : (string, 'p) Hashtbl.t -> string list -> Ast.expr -> string list

(** Build from analyzed units (lowers every unit). *)
val of_sema : Sema.program_env -> t

(** Parse, analyze and lower MF77 source. *)
val of_source : string -> t

(** Like {!of_source}, but every frontend failure (lexical, parse,
    semantic, lowering, node-splitting fuel) is returned as a structured
    diagnostic instead of an exception. *)
val of_source_result : string -> (t, S89_diag.Diag.t) result

(** Find a unit by name; raises [Invalid_argument] if unknown. *)
val find : t -> string -> proc

val main_proc : t -> proc
val procs : t -> proc list

(** Distinct callees of a procedure. *)
val callees : t -> proc -> string list

(** Call-graph SCCs, callees-first. *)
val sccs : t -> proc list list

(** Does any call-graph cycle (including self loops) exist? *)
val is_recursive : t -> bool

(** Procedures in bottom-up call-graph order (callees before callers). *)
val bottom_up : t -> proc list

(** Rebuild with transformed CFGs (used by the optimizer); the call graph
    is recomputed and every procedure is marked [rewritten]. *)
val map_cfgs : t -> (proc -> Ir.info S89_cfg.Cfg.t) -> t
