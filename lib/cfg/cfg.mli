(** Control flow graphs per Definition 1: a labelled multigraph with a
    node-type mapping, a unique first node and one or more last nodes.

    Node payloads of type ['a] carry client data (the MF77 frontend stores
    basic-block contents; tests use strings or unit). *)

open S89_graph

type 'a t

(** Fresh empty CFG.  [dummy] is a placeholder payload for internal
    storage; it is never observable. *)
val create : dummy:'a -> 'a t

(** The underlying labelled multigraph (shared, not a copy). *)
val graph : 'a t -> Label.t Digraph.t

val num_nodes : 'a t -> int

(** A copy still being built ({!S89_graph.Digraph.copy}: edge records
    are shared), with the same payloads, node types, entry and exits;
    [dummy] is the copy's placeholder payload. *)
val copy : dummy:'a -> 'a t -> 'a t

(** Allocate a node with a payload; [ty] defaults to [Other]. *)
val add_node : ?ty:Node_type.t -> 'a t -> 'a -> int

val node_type : 'a t -> int -> Node_type.t
val set_node_type : 'a t -> int -> Node_type.t -> unit
val info : 'a t -> int -> 'a
val set_info : 'a t -> int -> 'a -> unit
val add_edge : 'a t -> src:int -> dst:int -> label:Label.t -> unit

(** The unique first node.  Raises [Invalid_argument] if unset. *)
val entry : 'a t -> int

val set_entry : 'a t -> int -> unit

(** The last nodes (the paper allows several, e.g. RETURNs). *)
val exits : 'a t -> int list

val set_exits : 'a t -> int list -> unit

(** Freeze the graph ({!S89_graph.Digraph.freeze}): no more nodes or
    edges; {!succ_edges} and {!pred_edges} then return lists built once.
    Payloads, node types, entry and exits stay settable. *)
val freeze : 'a t -> unit

val succ_edges : 'a t -> int -> Label.t Digraph.edge list
val pred_edges : 'a t -> int -> Label.t Digraph.edge list
val iter_nodes : (int -> unit) -> 'a t -> unit
val iter_edges : (Label.t Digraph.edge -> unit) -> 'a t -> unit

(** Distinct outgoing labels of a node, in first-appearance order. *)
val out_labels : 'a t -> int -> Label.t list

(** Ensure the entry node has no predecessors, inserting a fresh entry block
    (payload [dummy], label [U]) when needed; returns the (possibly new)
    entry.  Interval analysis requires this normal form. *)
val normalize_entry : 'a t -> int

(** Split nodes until the CFG is reducible (payloads and node types are
    duplicated along); returns the [(orig, copy)] pairs, [[]] if the graph
    was already reducible.  See {!S89_graph.Node_split}. *)
val make_reducible : 'a t -> (int * int) list

(** {!make_reducible} without its reducibility test, for a caller that
    has found the CFG irreducible already ({!S89_graph.Node_split.split}). *)
val split_irreducible : 'a t -> (int * int) list

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
