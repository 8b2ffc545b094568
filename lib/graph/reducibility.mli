(** Reducibility testing (Hecht–Ullman / ASU §10.4 characterization). *)

(** Edges whose target dominates their source (natural-loop back edges),
    among nodes reachable from [root]. *)
val natural_back_edges : 'l Digraph.t -> root:int -> 'l Digraph.edge list

(** Copy of the reachable subgraph with natural back edges removed and
    labels erased.  Acyclic iff the graph is reducible. *)
val forward_part : 'l Digraph.t -> root:int -> unit Digraph.t

(** A flowgraph is reducible iff {!forward_part} is acyclic. *)
val is_reducible : 'l Digraph.t -> root:int -> bool

(** Retreating edges of the {!Dfs.number} DFS that are not natural back
    edges — witnesses of irreducibility.  Empty iff the graph is reducible
    (Hecht–Ullman). *)
val offending_edges : 'l Digraph.t -> root:int -> 'l Digraph.edge list

(** The Hecht–Ullman test over a graph and a {!Dfs.number} of it: every
    retreating edge's target dominates its source.  Equivalent to
    {!is_reducible}, with one dominator tree. *)
val reducible_dfs : 'l Digraph.t -> Dfs.numbering -> bool

(** [Some back_edges] when reducible, [None] otherwise. *)
val back_edges_if_reducible : 'l Digraph.t -> root:int -> 'l Digraph.edge list option
