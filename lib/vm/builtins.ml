(* Implementations of the MF77 intrinsics (names/arities are declared in
   s89_frontend.Intrinsics; the VM dispatches here).

   Each intrinsic is its own closure, registered in a table that [apply]
   looks names up in. *)

module Prng = S89_util.Prng
open Value

type impl = Prng.t -> t list -> t

let err name = Value.err "intrinsic %s: bad arguments" name

let fold1 name f : impl = fun _ vs -> match vs with [ v ] -> f v | _ -> err name

let minmax name pick : impl =
 fun _ vs ->
  match vs with
  | [] | [ _ ] -> err name
  | v :: rest ->
      List.fold_left
        (fun acc v -> if pick (compare_num v acc) then v else acc)
        v rest

let minmax_int name pick : impl =
  let mm = minmax name pick in
  fun rng vs -> Int (to_int (mm rng vs))

let promote_real = function Int i -> Real (float_of_int i) | v -> v

let minmax_real name pick : impl =
  let mm = minmax name pick in
  fun rng vs -> promote_real (mm rng vs)

let real_fun name f : impl =
  fold1 name (fun v -> Real (f (to_float v)))

let table : (string * impl) list =
  [
    ( "ABS",
      fold1 "ABS" (function
        | Int i -> Int (abs i)
        | Real r -> Real (Float.abs r)
        | _ -> err "ABS") );
    ("IABS", fold1 "IABS" (fun v -> Int (abs (to_int v))));
    ( "SQRT",
      fold1 "SQRT" (fun v ->
          let x = to_float v in
          if x < 0.0 then Value.err "SQRT of negative value %g" x else Real (sqrt x)) );
    ("EXP", real_fun "EXP" exp);
    ( "LOG",
      fold1 "LOG" (fun v ->
          let x = to_float v in
          if x <= 0.0 then Value.err "LOG of non-positive value %g" x else Real (log x)) );
    ( "ALOG",
      fold1 "ALOG" (fun v ->
          let x = to_float v in
          if x <= 0.0 then Value.err "LOG of non-positive value %g" x else Real (log x)) );
    ("SIN", real_fun "SIN" sin);
    ("COS", real_fun "COS" cos);
    ("TAN", real_fun "TAN" tan);
    ("ATAN", real_fun "ATAN" atan);
    ( "MOD",
      fun _ vs ->
        match vs with
        | [ Int a; Int b ] ->
            if b = 0 then Value.err "MOD by zero" else Int (a mod b)
        | [ _; _ ] -> (
            match List.map to_float vs with
            | [ a; b ] when b <> 0.0 -> Real (Float.rem a b)
            | _ -> Value.err "MOD by zero")
        | _ -> err "MOD" );
    ( "AMOD",
      fun _ vs ->
        match vs with
        | [ a; b ] ->
            let b = to_float b in
            if b = 0.0 then Value.err "AMOD by zero"
            else Real (Float.rem (to_float a) b)
        | _ -> err "AMOD" );
    ("MIN", minmax "MIN" (fun c -> c < 0));
    ("MAX", minmax "MAX" (fun c -> c > 0));
    ("MIN0", minmax_int "MIN0" (fun c -> c < 0));
    ("MAX0", minmax_int "MAX0" (fun c -> c > 0));
    ("AMIN1", minmax_real "AMIN1" (fun c -> c < 0));
    ("AMAX1", minmax_real "AMAX1" (fun c -> c > 0));
    ("INT", fold1 "INT" (fun v -> Int (to_int v)));
    ("IFIX", fold1 "IFIX" (fun v -> Int (to_int v)));
    ("REAL", fold1 "REAL" (fun v -> Real (to_float v)));
    ("FLOAT", fold1 "FLOAT" (fun v -> Real (to_float v)));
    ( "SIGN",
      fun _ vs ->
        match vs with
        | [ a; b ] -> (
            (* |a| with the sign of b *)
            match (a, b) with
            | Int x, Int y -> Int (if y >= 0 then abs x else -abs x)
            | _ ->
                let x = Float.abs (to_float a) in
                Real (if to_float b >= 0.0 then x else -.x))
        | _ -> err "SIGN" );
    ( "ISIGN",
      fun _ vs ->
        match vs with
        | [ a; b ] ->
            let x = abs (to_int a) in
            Int (if to_int b >= 0 then x else -x)
        | _ -> err "ISIGN" );
    ( "RAND",
      fun rng vs ->
        match vs with [] -> Real (Prng.float rng) | _ -> err "RAND" );
    ( "IRAND",
      fun rng vs ->
        match vs with
        | [ v ] ->
            let n = to_int v in
            if n <= 0 then Value.err "IRAND bound must be positive"
            else Int (1 + Prng.int rng n)
        | _ -> err "IRAND" );
  ]

let by_name : (string, impl) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, f) -> Hashtbl.replace tbl name f) table;
  tbl

let apply (rng : Prng.t) name (vs : t list) : t =
  match Hashtbl.find_opt by_name name with
  | Some f -> f rng vs
  | None -> err name
