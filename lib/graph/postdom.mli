(** Postdominator trees: dominators of the reversed graph rooted at the
    exit.  Postdominance queries are O(1). *)

type t

(** Postdominator tree of the nodes that can reach [exit_]. *)
val compute : 'l Digraph.t -> exit_:int -> t

(** Immediate postdominator; [None] for the exit and nodes that cannot reach it. *)
val ipostdom : t -> int -> int option

(** {!ipostdom} without the option: [-1] for the exit and nodes that
    cannot reach it. *)
val ipostdom_id : t -> int -> int

(** Can the node reach the exit? *)
val reachable : t -> int -> bool

(** Depth in the postdominator tree (exit = 0); [-1] if it cannot reach the exit. *)
val depth : t -> int -> int

(** Postdominator-tree children, in increasing id order. *)
val children : t -> int -> int list

(** [postdominates t u v] — reflexive postdominance of [v] by [u]. *)
val postdominates : t -> int -> int -> bool

val strictly_postdominates : t -> int -> int -> bool

(** Postdominators of [v], exit first, down to [v] itself. *)
val postdominators : t -> int -> int list
