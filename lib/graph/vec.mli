(** Growable arrays (OCaml 5.1 has no [Dynarray]). *)

type 'a t

(** [create ~dummy] is a fresh empty vector.  [dummy] fills unused slots. *)
val create : dummy:'a -> 'a t

(** [make n x ~dummy] is a vector of [n] copies of [x]. *)
val make : int -> 'a -> dummy:'a -> 'a t

(** Number of elements. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [get t i] is the [i]th element; raises [Invalid_argument] out of bounds. *)
val get : 'a t -> int -> 'a

(** [set t i x] replaces the [i]th element. *)
val set : 'a t -> int -> 'a -> unit

(** Append one element at the end. *)
val push : 'a t -> 'a -> unit

(** Remove and return the last element. *)
val pop : 'a t -> 'a

(** Last element without removing it. *)
val top : 'a t -> 'a

(** Remove all elements. *)
val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

(** An independent vector with the same elements and room to grow by
    half before it reallocates. *)
val copy : 'a t -> 'a t
val of_list : 'a list -> dummy:'a -> 'a t
val map : ('a -> 'b) -> 'a t -> dummy:'b -> 'b t

(** [filter p t] is a fresh vector of the elements satisfying [p]. *)
val filter : ('a -> bool) -> 'a t -> 'a t
