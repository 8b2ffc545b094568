(* Closure compilation of MF77 expressions and IR nodes.

   Everything that can be decided from the program text is decided here,
   once: variable slots, intrinsic implementations, callee procedures,
   array strides and bounds of statically-dimensioned arrays, constant
   subexpressions, and successor indices of every control transfer.  The
   residual runtime work is a closure call per AST node with no string
   hashing, no association-list scans and no per-step allocation beyond
   the values themselves.

   Observational parity with the tree-walking evaluator is part of the
   contract (the differential property test in test/test_vm.ml enforces
   it): evaluation order, coercions, PRNG consumption and runtime error
   points are preserved exactly. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Sema = S89_frontend.Sema
module Prng = S89_util.Prng
open S89_cfg

type rt = {
  rng : Prng.t;
  out : Buffer.t;
  mutable call : Program.proc -> Env.binding list -> Value.t option;
}

let make_rt ~rng ~out =
  { rng; out;
    call = (fun p _ -> Value.err "VM not initialized (call to %s)" p.Program.name) }

type cexpr = Env.slots -> Value.t

(* internal representation during compilation: constants stay symbolic so
   operator folding can happen bottom-up *)
type c = K of Value.t | D of cexpr

let force = function K v -> fun _ -> v | D f -> f

let ty_of_value = function
  | Value.Int _ -> Ast.Tint
  | Value.Real _ -> Ast.Treal
  | Value.Bool _ -> Ast.Tlogical

(* fold a pure operator over constants; if it raises (e.g. 1/0) the error
   must surface at run time, each time the expression executes *)
let fold1 f v =
  match f v with
  | r -> K r
  | exception Value.Runtime_error _ -> D (fun _ -> f v)

let fold2 f a b =
  match f a b with
  | r -> K r
  | exception Value.Runtime_error _ -> D (fun _ -> f a b)

let read_slot name s : cexpr =
 fun venv ->
  match venv.(s) with
  | Env.Cell c -> c.v
  | Env.Elem (a, off) -> Env.get a off
  | Env.Arr _ -> Value.err "array %s used as a scalar" name
  | Env.Poison m -> Value.err "%s" m

let get_arr name s venv =
  match venv.(s) with
  | Env.Arr a -> a
  | Env.Cell _ | Env.Elem _ -> Value.err "%s is not an array" name
  | Env.Poison m -> Value.err "%s" m

(* static dimensions usable for stride precomputation: a declared,
   non-dummy array (dummies adopt the caller's dimensions at run time) *)
let static_dims (lay : Env.layout) s =
  if s < lay.Env.n_params then None
  else
    match lay.Env.kinds.(s) with
    | S89_frontend.Sema.Array (_, dims) when not (List.mem (-1) dims) -> Some dims
    | _ -> None

let check_dim name k d i =
  if i < 1 || i > d then
    Value.err "%s: subscript %d of dimension %d out of bounds [1,%d]" name i (k + 1) d

(* ---- static typing facts, for the unboxed fast paths ----

   A slot's value type is static when its binding is fixed at frame
   creation (not a dummy argument — callers can bind those to anything)
   and every store coerces to the declared type.  Arithmetic over
   statically-typed operands runs on native ints/floats: no Value
   allocation per intermediate, no constructor dispatch per operation.
   This is what makes subscript evaluation and REAL expression kernels
   cheap; parity with the generic Value path is exact (int ops are the
   same machine ops; REAL subtrees are evaluated by the generic path in
   float arithmetic anyway, with Int operands promoted via to_float). *)

let static_scalar_ty (lay : Env.layout) s =
  if s < lay.Env.n_params then None
  else
    match lay.Env.kinds.(s) with
    (* constant options: the emitters ask this per variable leaf *)
    | Sema.Scalar Ast.Tint -> Some Ast.Tint
    | Sema.Scalar Ast.Treal -> Some Ast.Treal
    | Sema.Scalar Ast.Tlogical -> Some Ast.Tlogical
    | Sema.Const (Ast.Int _) -> Some Ast.Tint
    | Sema.Const (Ast.Real _) -> Some Ast.Treal
    | Sema.Const (Ast.Bool _) -> Some Ast.Tlogical
    | _ -> None

let static_elt_ty (lay : Env.layout) s =
  if s < lay.Env.n_params then None
  else
    match lay.Env.kinds.(s) with
    | Sema.Array (Ast.Tint, _) -> Some Ast.Tint
    | Sema.Array (Ast.Treal, _) -> Some Ast.Treal
    | Sema.Array (Ast.Tlogical, _) -> Some Ast.Tlogical
    | _ -> None

(* the numeric type the generic evaluation of [e] is guaranteed to
   yield (it raises exactly where the specialized code raises);
   None = unknown, LOGICAL, or involves calls/dummy arguments *)
let rec static_num (lay : Env.layout) (e : Ast.expr) : Ast.typ option =
  match e with
  | Ast.Int _ -> Some Ast.Tint
  | Ast.Real _ -> Some Ast.Treal
  | Ast.Var v -> (
      match static_scalar_ty lay (Env.slot lay v) with
      | Some (Ast.Tint | Ast.Treal) as t -> t
      | _ -> None)
  | Ast.Index (name, _) -> (
      match static_elt_ty lay (Env.slot lay name) with
      | Some (Ast.Tint | Ast.Treal) as t -> t
      | _ -> None)
  | Ast.Unop (Ast.Neg, e1) -> static_num lay e1
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
      match (static_num lay a, static_num lay b) with
      | Some Ast.Tint, Some Ast.Tint -> Some Ast.Tint
      | Some (Ast.Tint | Ast.Treal), Some (Ast.Tint | Ast.Treal) -> Some Ast.Treal
      | _ -> None)
  | _ -> None

let static_int lay e =
  match static_num lay e with Some Ast.Tint -> true | _ -> false

let rec compile rt prog (lay : Env.layout) (e : Ast.expr) : c =
  match e with
  | Ast.Int i -> K (Value.Int i)
  | Ast.Real r -> K (Value.Real r)
  | Ast.Bool b -> K (Value.Bool b)
  | Ast.Var v -> D (read_slot v (Env.slot lay v))
  | Ast.Index (name, idx) ->
      D (compile_element rt prog lay name idx (fun _ a off -> Env.get a off))
  | Ast.Call (f, args) -> compile_call rt prog lay f args
  | Ast.Unop (Ast.Neg, e1) -> (
      match compile rt prog lay e1 with
      | K v -> fold1 Value.neg v
      | D f -> (
          match (static_num lay e, compile_num rt prog lay e) with
          | Some Ast.Tint, _ -> (
              match compile_int rt prog lay e with
              | Some fi -> D (fun venv -> Value.Int (fi venv))
              | None -> D (fun venv -> Value.neg (f venv)))
          | Some Ast.Treal, Some ff -> D (fun venv -> Value.Real (ff venv))
          | _ -> D (fun venv -> Value.neg (f venv))))
  | Ast.Unop (Ast.Not, e) -> (
      let nt v = Value.Bool (not (Value.to_bool v)) in
      match compile rt prog lay e with
      | K v -> fold1 nt v
      | D f -> D (fun venv -> nt (f venv)))
  | Ast.Binop (op, a, b) -> (
      let op_fn : Value.t -> Value.t -> Value.t =
        match op with
        | Ast.Add -> Value.add
        | Sub -> Value.sub
        | Mul -> Value.mul
        | Div -> Value.div
        | Pow -> Value.pow
        | Lt | Le | Gt | Ge | Eq | Ne -> Value.rel op
        | And | Or -> Value.logic op
      in
      match (compile rt prog lay a, compile rt prog lay b) with
      | K va, K vb -> fold2 op_fn va vb
      | ca, cb -> (
          (* unboxed arithmetic over statically-typed operands; the boxing
             happens once, at the expression boundary *)
          match static_num lay e with
          | Some Ast.Tint -> (
              match compile_int rt prog lay e with
              | Some fi -> D (fun venv -> Value.Int (fi venv))
              | None -> assert false)
          | Some Ast.Treal -> (
              match compile_float rt prog lay e with
              | Some ff -> D (fun venv -> Value.Real (ff venv))
              | None -> assert false)
          | _ ->
              let fa = force ca and fb = force cb in
              D
                (fun venv ->
                  let va = fa venv in
                  let vb = fb venv in
                  op_fn va vb)))

(* array element access, continuation-passing so loads, stores and
   by-reference Elem bindings share the stride/bounds machinery without
   allocating an (array, offset) pair per access *)
and compile_element :
    'r. rt -> Program.t -> Env.layout -> string -> Ast.expr list ->
    (Env.slots -> Env.array_obj -> int -> 'r) -> Env.slots -> 'r =
 fun rt prog lay name idx k ->
  let s = Env.slot lay name in
  let cidx = Array.of_list (List.map (compile_index rt prog lay) idx) in
  match (static_dims lay s, cidx) with
  | Some [ d0 ], [| c0 |] ->
      fun venv ->
        let a = get_arr name s venv in
        let i = c0 venv in
        check_dim name 0 d0 i;
        k venv a (i - 1)
  | Some [ d0; d1 ], [| c0; c1 |] ->
      fun venv ->
        let a = get_arr name s venv in
        let i0 = c0 venv in
        let i1 = c1 venv in
        check_dim name 0 d0 i0;
        check_dim name 1 d1 i1;
        k venv a (i0 - 1 + ((i1 - 1) * d0))
  | Some dims, _ when List.length dims = Array.length cidx ->
      (* general static rank: precomputed dims and strides *)
      let dims = Array.of_list dims in
      let n = Array.length dims in
      let strides = Array.make n 1 in
      for j = 1 to n - 1 do
        strides.(j) <- strides.(j - 1) * dims.(j - 1)
      done;
      fun venv ->
        let a = get_arr name s venv in
        let is = Array.make n 0 in
        for j = 0 to n - 1 do
          is.(j) <- cidx.(j) venv
        done;
        let off = ref 0 in
        for j = 0 to n - 1 do
          check_dim name j dims.(j) is.(j);
          off := !off + ((is.(j) - 1) * strides.(j))
        done;
        k venv a !off
  | _ ->
      (* dummy argument or rank mismatch: the caller's dimensions decide *)
      let n = Array.length cidx in
      fun venv ->
        let a = get_arr name s venv in
        let rec go i =
          if i = n then []
          else
            let v = cidx.(i) venv in
            v :: go (i + 1)
        in
        let is = go 0 in
        k venv a (Env.offset name a is)

(* an expression in integer position (the consumer applies Value.to_int):
   produce the int directly.  Vars, element loads and literals specialize
   unconditionally ([to_int] composed with the load); arithmetic
   specializes only over statically-INTEGER operands, where native int
   ops agree with the generic Value path bit for bit. *)
and compile_index rt prog lay (e : Ast.expr) : Env.slots -> int =
  match compile_int rt prog lay e with
  | Some f -> f
  | None ->
      let g = force (compile rt prog lay e) in
      fun venv -> Value.to_int (g venv)

and compile_int rt prog lay (e : Ast.expr) : (Env.slots -> int) option =
  match e with
  | Ast.Int i -> Some (fun _ -> i)
  | Ast.Real r ->
      let i = int_of_float r in
      Some (fun _ -> i)
  | Ast.Var v ->
      let s = Env.slot lay v in
      Some
        (fun venv ->
          match venv.(s) with
          | Env.Cell c -> Value.to_int c.v
          | Env.Elem (a, off) -> Env.get_int a off
          | Env.Arr _ -> Value.err "array %s used as a scalar" v
          | Env.Poison m -> Value.err "%s" m)
  | Ast.Index (name, idx) ->
      Some
        (compile_element rt prog lay name idx (fun _ a off ->
             Env.get_int a off))
  | Ast.Unop (Ast.Neg, e1) when static_int lay e1 -> (
      match compile_int rt prog lay e1 with
      | Some f -> Some (fun venv -> -f venv)
      | None -> None)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b)
    when static_int lay a && static_int lay b -> (
      match (compile_int rt prog lay a, compile_int rt prog lay b) with
      | Some fa, Some fb ->
          Some
            (match op with
            | Ast.Add ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x + y
            | Ast.Sub ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x - y
            | Ast.Mul ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x * y
            | _ ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  if y = 0 then Value.err "INTEGER division by zero" else x / y)
      | _ -> None)
  | _ -> None

(* a REAL-typed expression as a native float (defined when
   [static_num lay e = Some Treal]); Int subterms are promoted exactly
   where the generic arith would promote them *)
and compile_float rt prog lay (e : Ast.expr) : (Env.slots -> float) option =
  match e with
  | Ast.Real r -> Some (fun _ -> r)
  | Ast.Var v ->
      let s = Env.slot lay v in
      Some
        (fun venv ->
          match venv.(s) with
          | Env.Cell c -> Value.to_float c.v
          | Env.Elem (a, off) -> Env.get_float a off
          | Env.Arr _ -> Value.err "array %s used as a scalar" v
          | Env.Poison m -> Value.err "%s" m)
  | Ast.Index (name, idx) ->
      Some
        (compile_element rt prog lay name idx (fun _ a off ->
             Env.get_float a off))
  | Ast.Unop (Ast.Neg, e1) -> (
      match compile_num rt prog lay e1 with
      | Some f -> Some (fun venv -> -.f venv)
      | None -> None)
  | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) -> (
      match (compile_num rt prog lay a, compile_num rt prog lay b) with
      | Some fa, Some fb ->
          Some
            (match op with
            | Ast.Add ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x +. y
            | Ast.Sub ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x -. y
            | Ast.Mul ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  x *. y
            | _ ->
                fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  if y = 0.0 then Value.err "REAL division by zero" else x /. y)
      | _ -> None)
  | _ -> None

(* a statically-typed numeric expression as a float, promoting Int
   results the way [Value.to_float] would *)
and compile_num rt prog lay (e : Ast.expr) : (Env.slots -> float) option =
  match static_num lay e with
  | Some Ast.Treal -> compile_float rt prog lay e
  | Some Ast.Tint -> (
      match compile_int rt prog lay e with
      | Some f -> Some (fun venv -> float_of_int (f venv))
      | None -> None)
  | _ -> None

(* a condition over statically-typed operands: native comparison, no
   Bool allocation.  compare_num on two Ints is exactly [compare]; on a
   Real operand it compares [to_float] of both, i.e. [Float.compare]
   (which is why the float arm uses it rather than native [<] — they
   differ on NaN). *)
and compile_cond rt prog lay (e : Ast.expr) : (Env.slots -> bool) option =
  match e with
  | Ast.Bool b -> Some (fun _ -> b)
  | Ast.Binop (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
    -> (
      let int_test : (int -> int -> bool) option =
        match op with
        | Ast.Lt -> Some ( < )
        | Ast.Le -> Some ( <= )
        | Ast.Gt -> Some ( > )
        | Ast.Ge -> Some ( >= )
        | Ast.Eq -> Some ( = )
        | Ast.Ne -> Some ( <> )
        | _ -> None
      in
      let float_test : (float -> float -> bool) option =
        match op with
        | Ast.Lt -> Some (fun x y -> Float.compare x y < 0)
        | Ast.Le -> Some (fun x y -> Float.compare x y <= 0)
        | Ast.Gt -> Some (fun x y -> Float.compare x y > 0)
        | Ast.Ge -> Some (fun x y -> Float.compare x y >= 0)
        | Ast.Eq -> Some (fun x y -> Float.compare x y = 0)
        | Ast.Ne -> Some (fun x y -> Float.compare x y <> 0)
        | _ -> None
      in
      match (static_num lay a, static_num lay b) with
      | Some Ast.Tint, Some Ast.Tint -> (
          match (compile_int rt prog lay a, compile_int rt prog lay b, int_test)
          with
          | Some fa, Some fb, Some cmp ->
              Some
                (fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  cmp x y)
          | _ -> None)
      | Some _, Some _ -> (
          match (compile_num rt prog lay a, compile_num rt prog lay b, float_test)
          with
          | Some fa, Some fb, Some cmp ->
              Some
                (fun venv ->
                  let x = fa venv in
                  let y = fb venv in
                  cmp x y)
          | _ -> None)
      | _ -> None)
  | Ast.Unop (Ast.Not, e1) -> (
      match compile_cond rt prog lay e1 with
      | Some f -> Some (fun venv -> not (f venv))
      | None -> None)
  | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) -> (
      (* Value.logic evaluates both operands (no short circuit) *)
      match (compile_cond rt prog lay a, compile_cond rt prog lay b) with
      | Some fa, Some fb ->
          Some
            (if op = Ast.And then fun venv ->
               let x = fa venv in
               let y = fb venv in
               x && y
             else fun venv ->
               let x = fa venv in
               let y = fb venv in
               x || y)
      | _ -> None)
  | _ -> None

and compile_call rt prog lay f args : c =
  match Hashtbl.find_opt prog.Program.by_name f with
  | Some callee ->
      let cargs = Array.of_list (List.map (compile_arg rt prog lay) args) in
      D
        (fun venv ->
          match rt.call callee (eval_bindings cargs venv) with
          | Some v -> v
          | None -> Value.err "subroutine %s used as a function" f)
  | None -> (
      (* intrinsic (or unknown: resolves to a raising implementation),
         with direct fast paths for the PRNG hooks *)
      match (f, args) with
      | "RAND", [] -> D (fun _ -> Value.Real (Prng.float rt.rng))
      | "IRAND", [ e ] ->
          let c0 = compile_index rt prog lay e in
          D
            (fun venv ->
              let n = c0 venv in
              if n <= 0 then Value.err "IRAND bound must be positive"
              else Value.Int (1 + Prng.int rt.rng n))
      | _ ->
          let fn = Builtins.resolve f in
          let cargs =
            Array.of_list (List.map (fun e -> force (compile rt prog lay e)) args)
          in
          let n = Array.length cargs in
          D
            (fun venv ->
              let rec go i =
                if i = n then []
                else
                  let v = cargs.(i) venv in
                  v :: go (i + 1)
              in
              fn rt.rng (go 0)))

(* Fortran argument passing: variables and array elements by reference,
   whole arrays by reference, general expressions by copy-in *)
and compile_arg rt prog lay (e : Ast.expr) : Env.slots -> Env.binding =
  match e with
  | Ast.Var v ->
      let s = Env.slot lay v in
      fun venv ->
        (match venv.(s) with
        | Env.Poison m -> Value.err "%s" m
        | b -> b)
  | Ast.Index (name, idx) ->
      compile_element rt prog lay name idx (fun _ a off -> Env.Elem (a, off))
  | _ ->
      let f = force (compile rt prog lay e) in
      fun venv ->
        let v = f venv in
        Env.Cell { v; ty = ty_of_value v }

and eval_bindings (cargs : (Env.slots -> Env.binding) array) venv =
  let n = Array.length cargs in
  let rec go i =
    if i = n then []
    else
      let b = cargs.(i) venv in
      b :: go (i + 1)
  in
  go 0

let compile_expr rt prog lay e = force (compile rt prog lay e)

(* ---- node steps ---- *)

let ret_code = -1
let stop_code = -2

let find_idx (succ : Label.t array) l =
  let n = Array.length succ in
  let rec go i = if i = n then -1 else if Label.equal succ.(i) l then i else go (i + 1) in
  go 0

let compile_node rt prog (lay : Env.layout) ~node_id ~(succ : Label.t array)
    (ir : Ir.node) : Env.slots -> int =
  let pname = lay.Env.lproc.Program.name in
  let no_succ l =
    Value.err "no %s successor at node %d of %s" (Label.to_string l) node_id pname
  in
  let take l i = if i >= 0 then i else no_succ l in
  let u = find_idx succ Label.U in
  let write_scalar name s v venv =
    match venv.(s) with
    | Env.Cell c -> c.v <- Value.coerce c.ty v
    | Env.Elem (a, off) -> Env.set a off v
    | Env.Arr _ -> Value.err "assignment to whole array %s" name
    | Env.Poison m -> Value.err "%s" m
  in
  (* RHS of an assignment into a destination of statically-known numeric
     type, pre-coerced: [coerce Tint (Real r) = Int (int_of_float r)] and
     [coerce Treal (Int i) = Real (float_of_int i)], so applying the
     conversion natively is exactly the generic store *)
  let typed_rhs (dst : Ast.typ option) (e : Ast.expr) :
      (Env.slots -> Value.t) option =
    match (dst, static_num lay e) with
    | Some Ast.Tint, Some Ast.Tint ->
        Option.map
          (fun f venv -> Value.Int (f venv))
          (compile_int rt prog lay e)
    | Some Ast.Tint, Some Ast.Treal ->
        Option.map
          (fun f venv -> Value.Int (int_of_float (f venv)))
          (compile_float rt prog lay e)
    | Some Ast.Treal, Some _ ->
        Option.map
          (fun f venv -> Value.Real (f venv))
          (compile_num rt prog lay e)
    | _ -> None
  in
  match ir with
  | Ir.Entry | Ir.Nop _ -> fun _ -> take Label.U u
  | Ir.Assign (Ast.Lvar v, e) -> (
      let s = Env.slot lay v in
      match typed_rhs (static_scalar_ty lay s) e with
      | Some f ->
          (* typed scalar := static numeric expression — the slot is a
             fixed non-dummy Cell whose ty matches, and [f] pre-coerces *)
          fun venv ->
            let x = f venv in
            (match venv.(s) with
            | Env.Cell c -> c.v <- x
            | _ -> write_scalar v s x venv);
            take Label.U u
      | None ->
          let f = compile_expr rt prog lay e in
          fun venv ->
            write_scalar v s (f venv) venv;
            take Label.U u)
  | Ir.Assign (Ast.Larr (name, idx), e) ->
      let store =
        match typed_rhs (static_elt_ty lay (Env.slot lay name)) e with
        | Some frhs ->
            (* indices are evaluated before the RHS, as in the generic
               path; the element ty matches [frhs]'s pre-coercion *)
            compile_element rt prog lay name idx (fun venv a off ->
                Env.set a off (frhs venv))
        | None ->
            let frhs = compile_expr rt prog lay e in
            compile_element rt prog lay name idx (fun venv a off ->
                Env.set a off (frhs venv))
      in
      fun venv ->
        store venv;
        take Label.U u
  | Ir.Branch e -> (
      let t_idx = find_idx succ Label.T and f_idx = find_idx succ Label.F in
      match compile_cond rt prog lay e with
      | Some f when t_idx >= 0 && f_idx >= 0 ->
          fun venv -> if f venv then t_idx else f_idx
      | Some f ->
          fun venv -> if f venv then take Label.T t_idx else take Label.F f_idx
      | None ->
          let f = compile_expr rt prog lay e in
          if t_idx >= 0 && f_idx >= 0 then
            fun venv -> if Value.to_bool (f venv) then t_idx else f_idx
          else fun venv ->
            if Value.to_bool (f venv) then take Label.T t_idx else take Label.F f_idx)
  | Ir.Do_test d ->
      let s = Env.slot lay d.Ir.trip_var in
      let rd = read_slot d.Ir.trip_var s in
      let t_idx = find_idx succ Label.T and f_idx = find_idx succ Label.F in
      if t_idx >= 0 && f_idx >= 0 then
        fun venv -> if Value.to_int (rd venv) > 0 then t_idx else f_idx
      else fun venv ->
        if Value.to_int (rd venv) > 0 then take Label.T t_idx else take Label.F f_idx
  | Ir.Select (e, narms) ->
      let f = compile_index rt prog lay e in
      let case_tbl = Array.init narms (fun k -> find_idx succ (Label.Case (k + 1))) in
      let f_idx = find_idx succ Label.F in
      fun venv ->
        let i = f venv in
        if i >= 1 && i <= narms then take (Label.Case i) case_tbl.(i - 1)
        else take Label.F f_idx
  | Ir.Call (name, args) -> (
      match Hashtbl.find_opt prog.Program.by_name name with
      | Some callee ->
          let cargs = Array.of_list (List.map (compile_arg rt prog lay) args) in
          fun venv ->
            ignore (rt.call callee (eval_bindings cargs venv));
            take Label.U u
      | None -> fun _ -> Value.err "CALL of unknown subroutine %s" name)
  | Ir.Print es ->
      let cs = Array.of_list (List.map (compile_expr rt prog lay) es) in
      fun venv ->
        Array.iter
          (fun c -> Buffer.add_string rt.out (Fmt.str "%a " Value.pp (c venv)))
          cs;
        Buffer.add_char rt.out '\n';
        take Label.U u
  | Ir.Return -> fun _ -> ret_code
  | Ir.Stop -> fun _ -> stop_code
