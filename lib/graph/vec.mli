(** Growable arrays (OCaml 5.1 has no [Dynarray]). *)

type 'a t

(** [create ~capacity ~dummy] is a fresh empty vector with room for
    [capacity] elements before it grows.  [dummy] fills unused slots. *)
val create : capacity:int -> dummy:'a -> 'a t

(** Number of elements. *)
val length : 'a t -> int

(** [get t i] is the [i]th element; raises [Invalid_argument] out of bounds. *)
val get : 'a t -> int -> 'a

(** Append one element at the end. *)
val push : 'a t -> 'a -> unit

(** The elements, as an array that later pushes do not change. *)
val to_array : 'a t -> 'a array
