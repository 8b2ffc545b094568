(** Directed labelled multigraphs over dense integer node ids.

    Nodes are integers [0 .. num_nodes-1] allocated by {!add_node}.  Parallel
    edges are permitted, as required by Definition 1 of the paper ("CFG is in
    general a multi-graph"). *)

(** A labelled edge.  Edges are plain data and compare structurally. *)
type 'l edge = { src : int; dst : int; label : 'l }

(** A directed multigraph with edge labels of type ['l]: mutable until
    frozen. *)
type 'l t

(** The flat form of a graph.  Node [v]'s out-edges occupy slots
    [succ_off.(v) .. succ_off.(v+1) - 1] of [succ_dst]/[succ_lbl], and its
    in-edges the same slots of [pred_src]/[pred_lbl]; within a node, slots
    keep the order of {!succ_edges}/{!pred_edges}. *)
type 'l csr = private {
  n : int;
  succ_off : int array;
  succ_dst : int array;
  succ_lbl : 'l array;
  pred_off : int array;
  pred_src : int array;
  pred_lbl : 'l array;
}

(** A fresh empty graph. *)
val create : unit -> 'l t

(** Number of allocated nodes. *)
val num_nodes : 'l t -> int

(** Allocate a fresh node and return its id. *)
val add_node : 'l t -> int

(** [add_nodes g n] allocates [n] fresh nodes and returns their ids in order. *)
val add_nodes : 'l t -> int -> int list

(** [mem_node g n] is true when [n] is a valid node id of [g]. *)
val mem_node : 'l t -> int -> bool

(** Insert an edge and return it.  Raises [Invalid_argument] on unknown ids
    and on a frozen graph (as do {!add_node} and {!remove_edge}). *)
val add_edge : 'l t -> src:int -> dst:int -> label:'l -> 'l edge

(** Remove one occurrence of a structurally equal edge.
    Raises [Not_found] if absent. *)
val remove_edge : 'l t -> 'l edge -> unit

(** Make the graph read-only and flat, in place; idempotent. *)
val freeze : 'l t -> unit

(** The CSR arrays: those of a frozen graph, or an O(n+m) snapshot of a
    graph still being built. *)
val csr : 'l t -> 'l csr

(** The same arrays with the two directions swapped: the reversed graph,
    in O(1) and without copying. *)
val reverse_csr : 'l csr -> 'l csr

(** A frozen graph from each node's out-edges, in order (node [v]'s list
    holds edges with [src = v]); each node's in-edges come in edge order
    (by source, then out-edge order).  The edge records are kept. *)
val of_succ_lists : 'l edge list array -> 'l t

(** Nodes reachable from [root], as a membership array; no CSR is built. *)
val reachable : 'l t -> root:int -> bool array

(** Out-edges of a node, in insertion order. *)
val succ_edges : 'l t -> int -> 'l edge list

(** In-edges of a node, in insertion order. *)
val pred_edges : 'l t -> int -> 'l edge list

(** Successor node ids (with multiplicity), in insertion order. *)
val succs : 'l t -> int -> int list

(** Predecessor node ids (with multiplicity), in insertion order. *)
val preds : 'l t -> int -> int list

val out_degree : 'l t -> int -> int
val in_degree : 'l t -> int -> int
val iter_nodes : (int -> unit) -> 'l t -> unit
val iter_edges : ('l edge -> unit) -> 'l t -> unit
val fold_edges : ('acc -> 'l edge -> 'acc) -> 'acc -> 'l t -> 'acc

(** All edges, grouped by source node in insertion order. *)
val edges : 'l t -> 'l edge list

val num_edges : 'l t -> int

(** All edges from [src] to [dst]. *)
val find_edges : 'l t -> src:int -> dst:int -> 'l edge list

val has_edge : 'l t -> src:int -> dst:int -> bool

(** Reversed copy: every edge [(u,v,l)] becomes [(v,u,l)].  The copy is
    a graph being built; see {!reverse_csr} for a read-only view. *)
val reverse : 'l t -> 'l t

(** Structure-preserving copy, still being built: the two graphs change
    independently but share their (immutable) edge records.  Each node's
    in-edges come in edge order (by source, then out-edge order). *)
val copy : 'l t -> 'l t

(** Put each node's in-edges in edge order (by source, then out-edge
    order), the order {!copy} gives them, in place.  Raises
    [Invalid_argument] on a frozen graph. *)
val order_preds : 'l t -> unit

(** Copy with labels recomputed from each edge. *)
val map_labels : ('l edge -> 'm) -> 'l t -> 'm t

(** Debug printer. *)
val pp : ?pp_label:(Format.formatter -> 'l -> unit) -> Format.formatter -> 'l t -> unit
