(** Extended control flow graph (paper §2, the six-step construction):
    preheaders, postexits, START/STOP and never-taken pseudo edges, built
    from a reducible CFG and its interval structure. *)

open S89_graph

(** Raised when a loop has no exit edges (the paper assumes all executions
    terminate normally); carries the loop header. *)
exception Nonterminating_interval of int

(** {!extend} was given a CFG that fails {!Cfg.validate}. *)
exception Invalid_cfg of Cfg.error

type 'a t

(** The label connecting a preheader to its header node ([U]); Definition 3
    reads the loop frequency off this control condition. *)
val body_label : Label.t

(** Build the ECFG.  Original node ids are preserved; synthetic nodes get
    payload [empty] (default: the entry node's payload).
    @raise Intervals.Irreducible on irreducible input
    @raise Nonterminating_interval on an exitless loop
    @raise Invalid_cfg if {!Cfg.validate} fails. *)
val extend : ?empty:'a -> 'a Cfg.t -> 'a t

(** The extended graph.  Entry is START, the only exit is STOP. *)
val cfg : 'a t -> 'a Cfg.t

val start : 'a t -> int
val stop : 'a t -> int

(** Interval structure of the {e original} CFG. *)
val intervals : 'a t -> Intervals.t

(** Ids below this count are original CFG nodes. *)
val orig_count : 'a t -> int

val is_original : 'a t -> int -> bool

(** Interval (header id, or the root) containing an extended node. *)
val interval_of : 'a t -> int -> int

val preheader_of_header : 'a t -> int -> int
val header_of_preheader : 'a t -> int -> int
val is_preheader : 'a t -> int -> bool
val is_postexit : 'a t -> int -> bool

(** Header of the interval a postexit node exits. *)
val exited_interval : 'a t -> int -> int

(** All postexit nodes, in creation order. *)
val postexits : 'a t -> int list

(** Real loop headers (of the original CFG), outermost-first. *)
val headers : 'a t -> int list

(** In-edges of a header other than its preheader's edge — the branches
    that "transfer control back to the loop header" (§3, optimization 2). *)
val latch_edges : 'a t -> int -> Label.t Digraph.edge list

(** Postexit nodes exiting the interval headed by [h]. *)
val postexits_of_header : 'a t -> int -> int list

val pp : ?pp_info:(Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
