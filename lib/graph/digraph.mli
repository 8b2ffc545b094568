(** Directed labelled multigraphs over dense integer node ids, built once
    and then read-only.

    A graph is made by a {!Builder}, which appends nodes and edges, and
    {!Builder.freeze}, which lays them out as flat CSR arrays.  Parallel
    edges are permitted, as required by Definition 1 of the paper ("CFG is
    in general a multi-graph"). *)

(** A labelled edge.  Edges are plain data and compare structurally. *)
type 'l edge = { src : int; dst : int; label : 'l }

(** A frozen graph in CSR form.  Node [v]'s out-edges occupy slots
    [succ_off.(v) .. succ_off.(v+1) - 1] of [succ_dst]/[succ_lbl], in the
    order they were added.  Its in-edges occupy the same slots of
    [pred_src]/[pred_lbl], in edge order: by source, then out-edge slot
    (the transpose of the out-edge arrays). *)
type 'l t = private {
  n : int;
  succ_off : int array;
  succ_dst : int array;
  succ_lbl : 'l array;
  pred_off : int array;
  pred_src : int array;
  pred_lbl : 'l array;
}

(** An append-only graph under construction. *)
module Builder : sig
  type 'l graph := 'l t
  type 'l t

  (** A fresh empty builder with room for [edges] edges (default 8)
      before its arrays grow. *)
  val create : ?edges:int -> unit -> 'l t

  (** Add a node and return its id. *)
  val add_node : 'l t -> int

  (** [add_nodes b k] adds [k] nodes and returns the first one's id. *)
  val add_nodes : 'l t -> int -> int

  (** Append an edge; it goes last among its source's out-edges.  Raises
      [Invalid_argument] on an unknown node id. *)
  val add_edge : 'l t -> src:int -> dst:int -> label:'l -> unit

  (** The graph built so far, in O(n + m). *)
  val freeze : 'l t -> 'l graph
end

(** The same arrays with the two directions swapped: the reversed graph,
    in O(1) and without copying. *)
val transpose : 'l t -> 'l t

val num_nodes : 'l t -> int
val num_edges : 'l t -> int

(** [mem_node g n] is true when [n] is a valid node id of [g]. *)
val mem_node : 'l t -> int -> bool

(** Nodes reachable from [root], as a membership array. *)
val reachable : 'l t -> root:int -> bool array

(** Out-edges of a node in slot order, as a fresh list. *)
val succ_edges : 'l t -> int -> 'l edge list

(** In-edges of a node in slot order, as a fresh list. *)
val pred_edges : 'l t -> int -> 'l edge list

(** Successor node ids (with multiplicity), in slot order. *)
val succs : 'l t -> int -> int list

(** Predecessor node ids (with multiplicity), in slot order. *)
val preds : 'l t -> int -> int list

(** Distinct labels of a node's out-edges (structural equality), in
    first-appearance order. *)
val out_labels : 'l t -> int -> 'l list

val out_degree : 'l t -> int -> int
val in_degree : 'l t -> int -> int
val iter_nodes : (int -> unit) -> 'l t -> unit

(** Every edge, by source, then out-edge slot. *)
val iter_edges : ('l edge -> unit) -> 'l t -> unit

val fold_edges : ('acc -> 'l edge -> 'acc) -> 'acc -> 'l t -> 'acc
val has_edge : 'l t -> src:int -> dst:int -> bool
