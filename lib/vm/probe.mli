(** Profiling instrumentation: counter-update actions attached to CFG
    nodes and edges, fired by the VM at [c_counter] cycles per action. *)

module Ast = S89_frontend.Ast

type action =
  | Incr of int  (** counter id += 1 *)
  | Bulk_add of int * Ast.expr
      (** counter id += expr evaluated in the current frame — the DO-loop
          optimization's "add the number of iterations once" (§3).  The
          expression must be statically numeric over the frame's local
          scalars (placement's are the DO trip temp, trip + 1, its
          square, or a literal): the bytecode engines compute it natively
          and [Interp.create] rejects any other with [Invalid_argument]. *)

type proc_instr = {
  on_node : action list array;  (** fired when the node executes *)
  on_edge : (S89_cfg.Label.t * action list) list array;
      (** fired when the labelled edge is traversed, by source node *)
}

type t = {
  n_counters : int;
  by_proc : (string, proc_instr) Hashtbl.t;
}

(** No instrumentation. *)
val empty : t

val make : n_counters:int -> t
val ensure_proc : t -> string -> num_nodes:int -> proc_instr
val add_node_action : t -> proc:string -> num_nodes:int -> node:int -> action -> unit

val add_edge_action :
  t -> proc:string -> num_nodes:int -> node:int -> label:S89_cfg.Label.t -> action -> unit

val find_proc : t -> string -> proc_instr option

(** Static number of attached actions (for reporting). *)
val num_actions : t -> int
