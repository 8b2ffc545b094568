(** Dominator trees (Cooper–Harvey–Kennedy iterative algorithm).

    Works on arbitrary flowgraphs.  Nodes unreachable from the root are
    reported unreachable and dominate nothing.  Dominance queries are
    O(1). *)

type t

(** Compute the dominator tree of the nodes reachable from [root]; reads
    the predecessor arrays and the successor side's DFS.  Postdominators
    pass a {!Digraph.transpose}. *)
val compute : 'l Digraph.t -> root:int -> t

(** {!compute} reusing a {!Dfs.number} of the same graph; its root is
    the dominator tree's root. *)
val of_dfs : 'l Digraph.t -> Dfs.numbering -> t

(** The immediate-dominator array {!of_dfs} builds its tree from: [-1]
    for the root and unreachable nodes.  Enough for a caller with few
    dominance questions, each a walk up from the lower node. *)
val idoms : 'l Digraph.t -> Dfs.numbering -> int array

(** Immediate dominator; [None] for the root and unreachable nodes. *)
val idom : t -> int -> int option

(** {!idom} without the option: [-1] for the root and unreachable nodes. *)
val idom_id : t -> int -> int

(** Is the node reachable from the root? *)
val reachable : t -> int -> bool

(** Depth in the dominator tree (root = 0); [-1] if unreachable. *)
val depth : t -> int -> int

(** Dominator-tree children, in increasing id order. *)
val children : t -> int -> int list

(** [dominates t u v] — reflexive dominance of [v] by [u]. *)
val dominates : t -> int -> int -> bool

val strictly_dominates : t -> int -> int -> bool

(** Dominators of [v] from the root down to [v] itself ([] if unreachable). *)
val dominators : t -> int -> int list
