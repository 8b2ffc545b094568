(** Statement-level CFG node payloads: one node per simple statement, as
    in the paper's Figure 1 (the paper allows nodes to be "basic blocks,
    statements, operations or instructions"). *)

(** Metadata of a lowered DO loop, attached to its header ({!Do_test}). *)
type do_meta = {
  trip_var : string;  (** compiler temp holding the remaining trip count *)
  static_trip : int option;  (** trips when lo/hi/step were constants *)
  do_var : string;  (** the user's DO variable (for reporting) *)
}

type node =
  | Entry  (** procedure entry marker; never has predecessors *)
  | Nop of string  (** CONTINUE or a materialized GOTO; text for display *)
  | Assign of Ast.lvalue * Ast.expr
  | Branch of Ast.expr  (** out-edges T / F *)
  | Do_test of do_meta  (** DO header: T = body, F = exit; tests trip > 0 *)
  | Select of Ast.expr * int  (** computed GOTO, n arms: Case 1..n, F = fallthrough *)
  | Call of string * Ast.expr list
  | Return
  | Stop
  | Print of Ast.expr list

type info = {
  ir : node;
  src_label : int option;  (** the statement's numeric label, if any *)
}

(** [add_info b i] appends the statement text of [i], prefixed by its
    source label; always one line.  [pp_node] and [pp_info] print the
    same text through [Format]. *)
val add_info : Buffer.t -> info -> unit

val pp_node : Format.formatter -> node -> unit
val pp_info : Format.formatter -> info -> unit

(** Expressions evaluated when the node executes (cost model and
    interprocedural call scan). *)
val exprs_of : node -> Ast.expr list

(** [iter_exprs f n] applies [f] to {!exprs_of}[ n] in order, without
    allocating the list. *)
val iter_exprs : (Ast.expr -> unit) -> node -> unit
