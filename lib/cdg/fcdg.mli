(** Forward control dependence graph: the CDG with loop-carried (back)
    edges removed — a DAG rooted at START (paper §2). *)

open S89_graph
open S89_cfg

(** Raised when back-edge removal does not leave a rooted DAG. *)
exception Malformed of string

type t

(** Build the FCDG from a precomputed CDG. *)
val of_cdg : Control_dep.t -> 'a Ecfg.t -> t

(** Compute CDG and FCDG in one step. *)
val compute : 'a Ecfg.t -> t

(** The acyclic graph; edge [(u,v,l)] makes [v] a child of condition [(u,l)]. *)
val graph : t -> Label.t Digraph.t

val start : t -> int
val stop : t -> int

(** The CDG back edges that were removed. *)
val removed_back_edges : t -> Label.t Digraph.edge list

(** All nodes in topological order (START first) — the top-down pass order. *)
val topological : t -> int array

(** All nodes in reverse topological order — the bottom-up pass order. *)
val bottom_up : t -> int array

(** [L(u)]: distinct labels leaving [u], in first-appearance order. *)
val labels : t -> int -> Label.t list

(** [C(u,l)]: children of [u] under label [l]. *)
val children : t -> int -> Label.t -> int list

(** The non-pseudo conditions [(u,l)] a node hangs under, sorted and
    without repeats: NODE_TOTAL sums their totals. *)
val parent_conditions : t -> int -> (int * Label.t) list

(** The control conditions [{(u,l)}] of §3, deterministically ordered. *)
val control_conditions : t -> (int * Label.t) list

val pp : Format.formatter -> t -> unit
