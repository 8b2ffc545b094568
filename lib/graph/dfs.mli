(** Depth-first traversal, numbering and edge classification. *)

(** DFS numbering of the nodes reachable from a root. *)
type numbering = {
  order : int array;  (** nodes in preorder (indices [0..count-1] valid) *)
  pre : int array;  (** preorder index, [-1] if unreachable *)
  post : int array;  (** postorder index, [-1] if unreachable *)
  parent : int array;  (** DFS tree parent, [-1] for root/unreachable *)
  count : int;  (** number of reachable nodes *)
}

type edge_kind = Tree | Back | Forward | Cross

(** Run an iterative DFS from [root] (successors in adjacency order). *)
val number : 'l Digraph.t -> root:int -> numbering

(** The numbering's reachable nodes in reverse postorder (root first). *)
val rev_postorder_of : numbering -> int array

(** Is the node reachable from the DFS root? *)
val reachable : numbering -> int -> bool

(** [is_ancestor num u v] — [u] is a (reflexive) DFS-tree ancestor of [v]. *)
val is_ancestor : numbering -> int -> int -> bool

(** Classify an edge between reachable nodes.
    Raises [Invalid_argument] on unreachable endpoints. *)
val classify : numbering -> 'l Digraph.edge -> edge_kind

(** Reachable nodes in reverse postorder (root first). *)
val rev_postorder : 'l Digraph.t -> root:int -> int array

(** Reverse-postorder index per node; [max_int] for unreachable nodes. *)
val rpo_index : 'l Digraph.t -> root:int -> int array

(** All DFS back edges (target is a DFS-tree ancestor of the source). *)
val back_edges : 'l Digraph.t -> root:int -> 'l Digraph.edge list
