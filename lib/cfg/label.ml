(* Edge labels of the control flow graph (the set L of Definition 1).

   [T]/[F] mark the branches of a two-way conditional, [U] an unconditional
   transfer, [Case k] one arm of a computed/multiway branch, and [Pseudo k]
   the never-taken pseudo edges that the ECFG construction inserts (the
   paper prints them as Z1, Z2, ...). *)

type t = T | F | U | Case of int | Pseudo of int

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let is_pseudo = function Pseudo _ -> true | _ -> false

let add b = function
  | T -> Buffer.add_char b 'T'
  | F -> Buffer.add_char b 'F'
  | U -> Buffer.add_char b 'U'
  | Case k ->
      Buffer.add_char b 'C';
      S89_util.Decimal.add_int b k
  | Pseudo k ->
      Buffer.add_char b 'Z';
      S89_util.Decimal.add_int b k

let to_string = function
  | T -> "T"
  | F -> "F"
  | U -> "U"
  | l ->
      let b = Buffer.create 4 in
      add b l;
      Buffer.contents b

let pp fmt l = Fmt.string fmt (to_string l)
