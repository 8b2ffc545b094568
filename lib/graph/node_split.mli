(** Node splitting: make an irreducible flowgraph reducible by duplicating
    nodes (ASU §10.4), preserving the language of node sequences. *)

(** Raised when the fuel bound is exhausted (pathological inputs only);
    carries the node count at the time of giving up. *)
exception Gave_up of int

(** [make_reducible g ~root] is a reducible graph equivalent to [g] and
    the [(orig, copy)] pairs of the nodes it duplicated, in the order the
    splits were performed; copies are numbered after [g]'s nodes.  A
    reducible graph (the Hecht–Ullman test, {!Reducibility.reducible_dfs})
    comes back as it is, with [[]]. *)
val make_reducible : 'l Digraph.t -> root:int -> 'l Digraph.t * (int * int) list

(** {!make_reducible} without the test, for a caller that has already
    found [g] irreducible.  Right on any graph, but on a reducible one it
    still builds the forward part and its SCCs to find nothing to split.
    Each edge redirected to a copy goes last among its source's
    out-edges. *)
val split : 'l Digraph.t -> root:int -> 'l Digraph.t * (int * int) list
