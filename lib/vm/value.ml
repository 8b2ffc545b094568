(* Runtime values and Fortran-flavoured arithmetic for the MF77 VM.

   Semantics choices that matter to the reproduction:
   - INTEGER division truncates toward zero (Fortran rule) — the DO-loop
     trip count formula in Lower relies on it;
   - mixed INTEGER/REAL arithmetic promotes to REAL;
   - [i ** j] with non-negative integer exponents stays INTEGER. *)

module Ast = S89_frontend.Ast

type t = Int of int | Real of float | Bool of bool

exception Runtime_error of string

let err fmt = Fmt.kstr (fun s -> raise (Runtime_error s)) fmt

let zero_of (ty : Ast.typ) =
  match ty with Ast.Tint -> Int 0 | Ast.Treal -> Real 0.0 | Ast.Tlogical -> Bool false

let to_float = function
  | Int i -> float_of_int i
  | Real r -> r
  | Bool _ -> err "LOGICAL used in arithmetic"

let to_int = function
  | Int i -> i
  | Real r -> int_of_float r (* truncation, as Fortran INT() *)
  | Bool _ -> err "LOGICAL used as INTEGER"

let to_bool = function
  | Bool b -> b
  | v -> err "arithmetic value %s used as LOGICAL" (match v with Int _ -> "INTEGER" | _ -> "REAL")

let pp fmt = function
  | Int i -> Fmt.int fmt i
  | Real r -> Fmt.pf fmt "%.6g" r
  | Bool true -> Fmt.string fmt ".TRUE."
  | Bool false -> Fmt.string fmt ".FALSE."

(* coerce a value for storage into a variable of declared type *)
let coerce (ty : Ast.typ) v =
  match (ty, v) with
  | Ast.Tint, Int _ | Ast.Treal, Real _ | Ast.Tlogical, Bool _ -> v
  | Ast.Tint, Real r -> Int (int_of_float r)
  | Ast.Treal, Int i -> Real (float_of_int i)
  | Ast.Tlogical, _ -> err "cannot store arithmetic value in LOGICAL"
  | _, Bool _ -> err "cannot store LOGICAL in arithmetic variable"

let arith name fint freal a b =
  match (a, b) with
  | Int x, Int y -> Int (fint x y)
  | (Int _ | Real _), (Int _ | Real _) -> Real (freal (to_float a) (to_float b))
  | _ -> err "LOGICAL operand of %s" name

let add = arith "+" ( + ) ( +. )
let sub = arith "-" ( - ) ( -. )
let mul = arith "*" ( * ) ( *. )

let div a b =
  match (a, b) with
  | Int _, Int 0 -> err "INTEGER division by zero"
  | Int x, Int y ->
      (* OCaml's / truncates toward zero, matching Fortran *)
      Int (x / y)
  | (Int _ | Real _), (Int _ | Real _) ->
      let d = to_float b in
      if d = 0.0 then err "REAL division by zero" else Real (to_float a /. d)
  | _ -> err "LOGICAL operand of /"

(* exponentiation by squaring, O(log exp) and constant stack; int
   multiplication wraps mod 2^63 and is associative, so the result equals
   the repeated product [base * base * ... * base] bit for bit *)
let int_pow base exp =
  let rec go acc b e =
    if e = 0 then acc else go (if e land 1 = 1 then acc * b else acc) (b * b) (e lsr 1)
  in
  go 1 base exp

let pow a b =
  match (a, b) with
  | Int x, Int y -> if y >= 0 then Int (int_pow x y) else err "negative INTEGER exponent"
  | Real x, Int y ->
      if y >= 0 then Real (Float.pow x (float_of_int y))
      else Real (1.0 /. Float.pow x (float_of_int (-y)))
  | (Int _ | Real _), Real _ -> Real (Float.pow (to_float a) (to_float b))
  | _ -> err "LOGICAL operand of **"

let neg = function
  | Int i -> Int (-i)
  | Real r -> Real (-.r)
  | Bool _ -> err "LOGICAL operand of unary -"

let compare_num a b =
  match (a, b) with
  | Int x, Int y -> compare x y
  | (Int _ | Real _), (Int _ | Real _) -> compare (to_float a) (to_float b)
  | Bool x, Bool y -> compare x y
  | _ -> err "comparison between LOGICAL and arithmetic"

let rel op a b =
  let c = compare_num a b in
  Bool
    (match op with
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | _ -> err "rel: not a relational operator")

let logic op a b =
  match op with
  | Ast.And -> Bool (to_bool a && to_bool b)
  | Ast.Or -> Bool (to_bool a || to_bool b)
  | _ -> err "logic: not a logical operator"
