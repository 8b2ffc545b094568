(** Edge labels of the control flow graph (the set [L] of Definition 1). *)

type t =
  | T  (** true branch of a conditional *)
  | F  (** false branch of a conditional *)
  | U  (** unconditional transfer *)
  | Case of int  (** one arm of a multiway branch *)
  | Pseudo of int  (** never-taken pseudo edge inserted by the ECFG
                       construction (printed Z1, Z2, ... as in the paper) *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** True exactly for [Pseudo _] labels. *)
val is_pseudo : t -> bool

(** [T], [F], [U], [C<k>] or [Z<k>]. *)
val to_string : t -> string

(** [add b l] appends [to_string l] to [b]. *)
val add : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
