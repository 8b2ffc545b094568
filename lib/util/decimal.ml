(* Decimal numbers appended straight to a [Buffer.t], byte-identical to
   [Printf]'s ["%d"], ["%.0f"] and ["%.4g"] without a format string or an
   intermediate string per number. *)

external format_float : string -> float -> string = "caml_format_float"

(* the digits of [-m] for [m <= 0]; working on the non-positive side
   keeps [min_int] in range *)
let rec add_digits b m =
  if m <= -10 then add_digits b (m / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let width n =
  let rec go w m = if m <= -10 then go (w + 1) (m / 10) else w in
  if n < 0 then go 2 n else go 1 (-n)

(* an integer-valued float with |x| < 2^62: its digits, and ["-0"] for
   [-0.], as both ["%.0f"] and ["%.4g"] print it *)
let add_integral b x =
  if x = 0.0 && Float.sign_bit x then Buffer.add_string b "-0"
  else add_int b (int_of_float x)

let add_f0 b x =
  if Float.is_integer x && Float.abs x < 1e15 then add_integral b x
  else Buffer.add_string b (format_float "%.0f" x)

(* ["%.4g"] prints an integer-valued |x| < 10^4 as its digits *)
let add_g4 b x =
  if Float.is_integer x && Float.abs x < 1e4 then add_integral b x
  else Buffer.add_string b (format_float "%.4g" x)
