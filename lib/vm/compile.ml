(* Closure compilation of MF77 expressions and IR nodes: the generic,
   exact evaluator behind the bytecode engine's FALLBACK op.

   Name resolution is done here, once: variable slots, intrinsic
   implementations, callee procedures and the successor index of every
   control transfer.  What remains at run time is one closure call per AST
   node over a slot frame, each returning a boxed [Value.t]; there is no
   typing, specialization or constant folding — statically typed code is
   the emitter's business (Emit), and it never reaches these closures.

   Observational parity with the tree-walking evaluator is the contract
   (the differential tests in test/test_vm.ml and fuzz/fuzz.ml enforce
   it): evaluation order, coercions, PRNG consumption and runtime error
   points and messages are those of [Interp.eval], node for node. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
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

let ty_of_value = function
  | Value.Int _ -> Ast.Tint
  | Value.Real _ -> Ast.Treal
  | Value.Bool _ -> Ast.Tlogical

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

(* evaluate compiled closures left to right into a list *)
let eval_list (cs : (Env.slots -> 'a) array) venv =
  let n = Array.length cs in
  let rec go i =
    if i = n then []
    else
      let v = cs.(i) venv in
      v :: go (i + 1)
  in
  go 0

let rec compile_expr rt prog (lay : Env.layout) (e : Ast.expr) : cexpr =
  match e with
  | Ast.Int i ->
      let v = Value.Int i in
      fun _ -> v
  | Ast.Real r ->
      let v = Value.Real r in
      fun _ -> v
  | Ast.Bool b ->
      let v = Value.Bool b in
      fun _ -> v
  | Ast.Var v -> read_slot v (Env.slot lay v)
  | Ast.Index (name, idx) ->
      compile_element rt prog lay name idx (fun _ a off -> Env.get a off)
  | Ast.Call (f, args) -> compile_call rt prog lay f args
  | Ast.Unop (Ast.Neg, e1) ->
      let f = compile_expr rt prog lay e1 in
      fun venv -> Value.neg (f venv)
  | Ast.Unop (Ast.Not, e1) ->
      let f = compile_expr rt prog lay e1 in
      fun venv -> Value.Bool (not (Value.to_bool (f venv)))
  | Ast.Binop (op, a, b) ->
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
      let fa = compile_expr rt prog lay a and fb = compile_expr rt prog lay b in
      fun venv ->
        let va = fa venv in
        let vb = fb venv in
        op_fn va vb

(* array element access, continuation-passing so loads, stores and
   by-reference Elem bindings share one path: the array binding, then the
   subscripts left to right, then [Env.offset]'s rank and bounds checks *)
and compile_element :
    'r. rt -> Program.t -> Env.layout -> string -> Ast.expr list ->
    (Env.slots -> Env.array_obj -> int -> 'r) -> Env.slots -> 'r =
 fun rt prog lay name idx k ->
  let s = Env.slot lay name in
  let cidx =
    Array.of_list
      (List.map
         (fun e ->
           let f = compile_expr rt prog lay e in
           fun venv -> Value.to_int (f venv))
         idx)
  in
  fun venv ->
    let a = get_arr name s venv in
    k venv a (Env.offset name a (eval_list cidx venv))

and compile_call rt prog lay f args : cexpr =
  match Hashtbl.find_opt prog.Program.by_name f with
  | Some callee ->
      let cargs = Array.of_list (List.map (compile_arg rt prog lay) args) in
      fun venv -> (
        match rt.call callee (eval_list cargs venv) with
        | Some v -> v
        | None -> Value.err "subroutine %s used as a function" f)
  | None ->
      (* intrinsic (or unknown: resolves to a raising implementation) *)
      let fn = Builtins.resolve f in
      let cargs = Array.of_list (List.map (compile_expr rt prog lay) args) in
      fun venv -> fn rt.rng (eval_list cargs venv)

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
      let f = compile_expr rt prog lay e in
      fun venv ->
        let v = f venv in
        Env.Cell { v; ty = ty_of_value v }

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
  let take l i =
    if i >= 0 then i
    else Value.err "no %s successor at node %d of %s" (Label.to_string l) node_id pname
  in
  let u = find_idx succ Label.U in
  match ir with
  | Ir.Entry | Ir.Nop _ -> fun _ -> take Label.U u
  | Ir.Assign (Ast.Lvar v, e) ->
      let s = Env.slot lay v in
      let f = compile_expr rt prog lay e in
      fun venv ->
        let x = f venv in
        (match venv.(s) with
        | Env.Cell c -> c.v <- Value.coerce c.ty x
        | Env.Elem (a, off) -> Env.set a off x
        | Env.Arr _ -> Value.err "assignment to whole array %s" v
        | Env.Poison m -> Value.err "%s" m);
        take Label.U u
  | Ir.Assign (Ast.Larr (name, idx), e) ->
      (* the subscripts and their bounds checks come before the RHS *)
      let frhs = compile_expr rt prog lay e in
      let store =
        compile_element rt prog lay name idx (fun venv a off ->
            Env.set a off (frhs venv))
      in
      fun venv ->
        store venv;
        take Label.U u
  | Ir.Branch e ->
      let f = compile_expr rt prog lay e in
      let t_idx = find_idx succ Label.T and f_idx = find_idx succ Label.F in
      fun venv ->
        if Value.to_bool (f venv) then take Label.T t_idx else take Label.F f_idx
  | Ir.Do_test d ->
      let rd = read_slot d.Ir.trip_var (Env.slot lay d.Ir.trip_var) in
      let t_idx = find_idx succ Label.T and f_idx = find_idx succ Label.F in
      fun venv ->
        if Value.to_int (rd venv) > 0 then take Label.T t_idx else take Label.F f_idx
  | Ir.Select (e, narms) ->
      let f = compile_expr rt prog lay e in
      let case_tbl = Array.init narms (fun k -> find_idx succ (Label.Case (k + 1))) in
      let f_idx = find_idx succ Label.F in
      fun venv ->
        let i = Value.to_int (f venv) in
        if i >= 1 && i <= narms then take (Label.Case i) case_tbl.(i - 1)
        else take Label.F f_idx
  | Ir.Call (name, args) -> (
      match Hashtbl.find_opt prog.Program.by_name name with
      | Some callee ->
          let cargs = Array.of_list (List.map (compile_arg rt prog lay) args) in
          fun venv ->
            ignore (rt.call callee (eval_list cargs venv));
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
