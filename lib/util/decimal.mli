(** Decimal numbers appended straight to a [Buffer.t].  Each writer is
    byte-identical to the [Printf] conversion it names; the common cases
    (integers, integer-valued floats) are written digit by digit with no
    format string and no intermediate string. *)

(** [format_float "%.<p><c>" x] is what [Printf]'s ["%.<p><c>"] prints
    for [c] one of [f], [e], [E], [g], [G]: the primitive those
    conversions call, without [Printf]'s format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(** [add_int b n] appends [string_of_int n] (["%d"]). *)
val add_int : Buffer.t -> int -> unit

(** [width n] is [String.length (string_of_int n)], for padding. *)
val width : int -> int

(** [add_f0 b x] appends [Printf.sprintf "%.0f" x]. *)
val add_f0 : Buffer.t -> float -> unit

(** [add_g4 b x] appends [Printf.sprintf "%.4g" x]. *)
val add_g4 : Buffer.t -> float -> unit
