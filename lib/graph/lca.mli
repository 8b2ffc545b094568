(** Least common ancestors in a rooted forest given as a parent array.
    Construction is O(n); the ancestor test is O(1). *)

type t

(** [of_parents parent] builds the structure; [parent.(v) = -1] marks roots.
    The array must describe a forest (no cycles); it is kept, not copied,
    so the caller must not change it afterwards. *)
val of_parents : int array -> t

(** Depth of a node (roots have depth 0). *)
val depth : t -> int -> int

(** Parent of a node, [None] for roots. *)
val parent : t -> int -> int option

(** Children of a node, in increasing id order; O(n). *)
val children : t -> int -> int list

(** Least common ancestor.  Raises [Not_found] if the nodes are in
    different trees of the forest. *)
val lca : t -> int -> int -> int

val lca_opt : t -> int -> int -> int option

(** [is_ancestor t u v] — [u] is a (reflexive) ancestor of [v]; O(1). *)
val is_ancestor : t -> int -> int -> bool

(** Preorder index in the forest (roots in increasing id order, each
    node's children in increasing id order).  The subtree of [v] occupies
    the preorders from [preorder v] (inclusive) to
    [preorder v + subtree_size v] (exclusive). *)
val preorder : t -> int -> int

val subtree_size : t -> int -> int
