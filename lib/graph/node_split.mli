(** Node splitting: make an irreducible flowgraph reducible by duplicating
    nodes (ASU §10.4), preserving the language of node sequences. *)

(** Raised when the fuel bound is exhausted (pathological inputs only);
    carries the node count at the time of giving up. *)
exception Gave_up of int

(** [make_reducible g ~root ~on_copy] splits nodes in place until [g] is
    reducible.  [on_copy ~orig ~copy] is called for every duplication so the
    caller can clone node payloads.  Returns the list of [(orig, copy)]
    pairs in the order the splits were performed.  A reducible graph
    (the Hecht–Ullman test, {!Reducibility.reducible_dfs}) returns [[]]
    at once and is left as it was. *)
val make_reducible :
  'l Digraph.t -> root:int -> on_copy:(orig:int -> copy:int -> unit) -> (int * int) list

(** {!make_reducible} without the test, for a caller that has already
    found [g] irreducible.  Right on any graph, but on a reducible one it
    still builds the forward part and its SCCs to find nothing to split. *)
val split :
  'l Digraph.t -> root:int -> on_copy:(orig:int -> copy:int -> unit) -> (int * int) list
