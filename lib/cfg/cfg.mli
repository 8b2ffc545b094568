(** Control flow graphs per Definition 1: a labelled multigraph with a
    node-type mapping, a unique first node and one or more last nodes.

    A CFG is built once through a {!Builder} and read-only from then on:
    a frozen {!S89_graph.Digraph.t} plus node-type and payload arrays.
    Node payloads of type ['a] carry client data (the MF77 frontend stores
    basic-block contents; tests use strings or unit). *)

open S89_graph

type 'a t

(** A CFG under construction: nodes and edges are appended; each node's
    out-edges keep the order they were added in. *)
module Builder : sig
  type 'a cfg := 'a t
  type 'a t

  (** A fresh empty builder with room for about [nodes] nodes and
      [edges] edges.  [dummy] is a placeholder payload for internal
      storage; it is never observable. *)
  val create : ?nodes:int -> ?edges:int -> dummy:'a -> unit -> 'a t

  (** Add a node with a payload and return its id; [ty] defaults to
      [Other]. *)
  val add_node : ?ty:Node_type.t -> 'a t -> 'a -> int

  val add_edge : 'a t -> src:int -> dst:int -> label:Label.t -> unit
  val set_entry : 'a t -> int -> unit
  val set_exits : 'a t -> int list -> unit

  (** The CFG built so far. *)
  val freeze : 'a t -> 'a cfg
end

(** The underlying graph. *)
val graph : 'a t -> Label.t Digraph.t

val num_nodes : 'a t -> int
val node_type : 'a t -> int -> Node_type.t
val info : 'a t -> int -> 'a

(** The same CFG with every payload rewritten ([f node payload]); the
    graph is shared, not copied. *)
val map_info : (int -> 'a -> 'b) -> 'a t -> 'b t

(** The unique first node.  Raises [Invalid_argument] if unset. *)
val entry : 'a t -> int

(** The last nodes (the paper allows several, e.g. RETURNs). *)
val exits : 'a t -> int list

(** {!S89_graph.Digraph.succ_edges} of {!graph}. *)
val succ_edges : 'a t -> int -> Label.t Digraph.edge list

(** {!S89_graph.Digraph.pred_edges} of {!graph}. *)
val pred_edges : 'a t -> int -> Label.t Digraph.edge list

val iter_nodes : (int -> unit) -> 'a t -> unit

(** Distinct outgoing labels of a node, in first-appearance order. *)
val out_labels : 'a t -> int -> Label.t list

(** [contract t ~target] keeps the nodes [v] with [target.(v) = v],
    renumbered in id order, with their payloads and types.  A kept node's
    out-edge to [v] goes to [target.(v)], in the same slot; the other
    nodes' out-edges are dropped.  The entry becomes its target's
    number, and dropped exits go.  When every node is kept, [t] itself
    comes back. *)
val contract : 'a t -> target:int array -> 'a t

(** Split nodes until the CFG is reducible ({!S89_graph.Node_split.split},
    for a caller that has found it irreducible): the new CFG, whose
    copies repeat their original's payload and node type and are exits
    when it is one, and the [(orig, copy)] pairs. *)
val split_irreducible : 'a t -> 'a t * (int * int) list

type error =
  | No_entry
  | No_exit
  | Dangling_exit of int
  | Unreachable of int list
  | Exit_has_successor of int

val pp_error : Format.formatter -> error -> unit

(** Structural sanity checks ahead of the interval/ECFG pipeline. *)
val validate : 'a t -> (unit, error) result

(** {!validate} given which nodes the entry reaches (as a caller's own
    traversal found them), instead of traversing the graph again. *)
val validate_reached : 'a t -> (int -> bool) -> (unit, error) result

val pp : ?pp_info:(Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
