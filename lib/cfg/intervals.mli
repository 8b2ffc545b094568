(** Interval structure of a reducible CFG (paper §2): the natural-loop
    forest plus the paper's [HDR] / [HDR_PARENT] / [HDR_LCA] mappings.

    The whole procedure body is the outermost interval, headed by the entry
    node.  The entry must have no predecessors (lowering's ENTRY node has
    none).

    {!compute} takes one DFS and one dominator tree: reducibility is the
    Hecht–Ullman test (every DFS retreating edge must be a back edge), and
    the loop forest comes from collapsing natural loops into their headers
    with a union-find, inner loops first, in O((n + m) α(n)); listing the
    exit edges costs their total number.  The nodes are stored ordered by the header-tree preorder
    of their innermost header, so each interval is one contiguous slice of
    that order, and membership is an O(1) test: [v] is in the interval of
    [h] iff [encloses h (hdr v)]. *)

open S89_graph

(** The CFG is irreducible; carries witness retreating edges [(src, dst)]. *)
exception Irreducible of (int * int) list

(** The entry node has predecessors. *)
exception Entry_has_preds of int

type t

(** Compute the interval structure.
    @raise Irreducible if the CFG is not reducible (checked first); the
      witnesses are {!S89_graph.Reducibility.offending_edges}.
    @raise Entry_has_preds if the entry node has in-edges. *)
val compute : 'a Cfg.t -> t

(** Entry node = id of the outermost interval. *)
val root : t -> int

(** Real loop headers, outermost-first (the root interval is not listed). *)
val headers : t -> int list

(** Is the node a real loop header? *)
val is_header : t -> int -> bool

(** [hdr t v] — the paper's [HDR(v)]: header of the innermost interval
    containing [v] ({!root} for loop-free nodes). *)
val hdr : t -> int -> int

(** [hdr_parent t h] — the paper's [HDR_PARENT(h)]; [None] encodes the
    paper's "0" (outermost interval).  Raises [Invalid_argument] if [h] is
    neither a header nor the root. *)
val hdr_parent : t -> int -> int option

(** [hdr_lca t h1 h2] — the paper's [HDR_LCA]: least common ancestor in the
    header tree.  Arguments must be headers or the root. *)
val hdr_lca : t -> int -> int -> int

(** Depth in the header tree (root = 0). *)
val interval_depth : t -> int -> int

(** [encloses t a b] — interval [a] (reflexively) contains interval [b];
    O(1). *)
val encloses : t -> int -> int -> bool

(** [mem t h v] — node [v] belongs to the interval headed by [h] (a header
    or the root), i.e. [encloses t h (hdr t v)]; O(1). *)
val mem : t -> int -> int -> bool

(** Nodes of the interval headed by [h], including nested loops; for the
    root this is every node.  A fresh copy of the interval's slice, in
    slice order (by innermost header, then by id).  Raises
    [Invalid_argument] if [h] is neither a header nor the root. *)
val members : t -> int -> int array

(** Sources of the back edges into a real header, in edge order (by
    source id), with multiplicity. *)
val back_edge_sources : t -> int -> int list

(** Exit edges of a real loop: edges from a member to a non-member, by
    source id, then in adjacency order.  Computed once by {!compute}. *)
val exit_edges : t -> int -> Label.t Digraph.edge list

val pp : Format.formatter -> t -> unit
