(* Intrinsic functions shared between semantic analysis (names/arities),
   the VM (implementations live in s89_vm) and the cost model (cost
   classes).  The selection covers what the Livermore-style kernels and the
   SIMPLE-style code need. *)

type cost_class = Cheap | Moderate | Expensive
(* Cheap: ABS/MOD/MIN/MAX/conversions; Moderate: SIGN etc.;
   Expensive: SQRT/EXP/LOG/trig (many machine cycles on an IBM 3090 too) *)

type info = {
  min_arity : int;
  max_arity : int; (* max_int for variadic MIN/MAX *)
  cost : cost_class;
}

let table : (string * info) list =
  let f min_arity max_arity cost = { min_arity; max_arity; cost } in
  [
    ("ABS", f 1 1 Cheap);
    ("IABS", f 1 1 Cheap);
    ("SQRT", f 1 1 Expensive);
    ("EXP", f 1 1 Expensive);
    ("LOG", f 1 1 Expensive);
    ("ALOG", f 1 1 Expensive);
    ("SIN", f 1 1 Expensive);
    ("COS", f 1 1 Expensive);
    ("TAN", f 1 1 Expensive);
    ("ATAN", f 1 1 Expensive);
    ("MOD", f 2 2 Moderate);
    ("AMOD", f 2 2 Moderate);
    ("MIN", f 2 max_int Cheap);
    ("MAX", f 2 max_int Cheap);
    ("MIN0", f 2 max_int Cheap);
    ("MAX0", f 2 max_int Cheap);
    ("AMIN1", f 2 max_int Cheap);
    ("AMAX1", f 2 max_int Cheap);
    ("INT", f 1 1 Cheap);
    ("REAL", f 1 1 Cheap);
    ("FLOAT", f 1 1 Cheap);
    ("IFIX", f 1 1 Cheap);
    ("SIGN", f 2 2 Moderate);
    ("ISIGN", f 2 2 Moderate);
    (* pseudo-random intrinsics: the workload generators use these to vary
       branch outcomes and loop trip counts between profiled runs *)
    ("RAND", f 0 0 Moderate); (* uniform real in [0,1) *)
    ("IRAND", f 1 1 Moderate); (* uniform integer in [1,n] *)
  ]

(* Built once.  Sema, the optimizer and COST(u) look names up per
   expression; the stored values are the options [lookup] returns, so a
   lookup allocates nothing. *)
let by_name : (string, info option) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun (name, info) -> Hashtbl.replace h name (Some info)) table;
  h

let lookup name = try Hashtbl.find by_name name with Not_found -> None

let is_intrinsic name = Hashtbl.mem by_name name

(* Result type, given the argument types (loose Fortran rules). *)
let result_type name (args : Ast.typ list) : Ast.typ =
  match name with
  | "IABS" | "MIN0" | "MAX0" | "INT" | "IFIX" | "MOD" | "ISIGN" | "IRAND" -> Ast.Tint
  | "SQRT" | "EXP" | "LOG" | "ALOG" | "SIN" | "COS" | "TAN" | "ATAN" | "AMOD"
  | "AMIN1" | "AMAX1" | "REAL" | "FLOAT" | "SIGN" | "RAND" ->
      Ast.Treal
  | "ABS" | "MIN" | "MAX" ->
      if List.exists (fun t -> t = Ast.Treal) args then Ast.Treal else Ast.Tint
  | _ -> Ast.Treal
