(** Control dependence graphs (Definition 2, after
    Ferrante–Ottenstein–Warren), computed from an ECFG via its
    postdominator tree. *)

open S89_graph
open S89_cfg

(** Raised when some node has no path to STOP (the paper assumes normal
    termination); carries the stuck nodes. *)
exception Cannot_reach_stop of int list

type t

(** Compute the (possibly cyclic) control dependence graph of an ECFG.
    Edge [(x, y, l)] means: [y] is control dependent on condition [(x,l)]. *)
val compute : 'a Ecfg.t -> t

(** The CDG as a frozen labelled multigraph (same node ids as the
    ECFG). *)
val graph : t -> Label.t Digraph.t

(** The postdominator tree of the ECFG used in the construction. *)
val postdom : t -> Postdom.t

(** Definitional membership check (independent of the tree walk; used as a
    testing oracle): [y] is CD on [(x,l)] iff some edge [(x,s,l)] has
    [y] postdominating [s] but not [x]. *)
val is_control_dependent : t -> 'a Ecfg.t -> on:int * Label.t -> int -> bool
