(* The reference evaluator: MF77 expressions and IR nodes walked as ASTs
   over slot frames.  This is the only generic evaluator in the VM.  The
   Tree engine runs every node through it; the bytecode engine runs the
   nodes Emit cannot type statically (its FALLBACK op) and, under
   [Compiled], every node.

   Its behaviour is the semantics the other paths are held to: evaluation
   left to right, Fortran argument binding, coercion on store, PRNG draws
   in order, and the runtime error raised at each failing point. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Prng = S89_util.Prng
open S89_cfg

exception Stopped

type rt = {
  prog : Program.t;
  rng : Prng.t;
  out : Buffer.t;
  mutable call : Program.proc -> Env.binding list -> Value.t option;
}

let make_rt ~prog ~rng ~out =
  { prog; rng; out;
    call = (fun p _ -> Value.err "VM not initialized (call to %s)" p.Program.name) }

let ty_of_value = function
  | Value.Int _ -> Ast.Tint
  | Value.Real _ -> Ast.Treal
  | Value.Bool _ -> Ast.Tlogical

let rec eval rt (lay : Env.layout) venv (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int i -> Value.Int i
  | Ast.Real r -> Value.Real r
  | Ast.Bool b -> Value.Bool b
  | Ast.Var v -> Env.read lay.Env.names (Env.slot lay v) venv
  | Ast.Index (name, idx) ->
      let a, off = element rt lay venv name idx in
      Env.get a off
  | Ast.Call (f, args) -> (
      match Hashtbl.find_opt rt.prog.Program.by_name f with
      | Some callee -> (
          match rt.call callee (List.map (arg_binding rt lay venv) args) with
          | Some v -> v
          | None -> Value.err "subroutine %s used as a function" f)
      | None -> Builtins.apply rt.rng f (List.map (eval rt lay venv) args))
  | Ast.Unop (Ast.Neg, e1) -> Value.neg (eval rt lay venv e1)
  | Ast.Unop (Ast.Not, e1) -> Value.Bool (not (Value.to_bool (eval rt lay venv e1)))
  | Ast.Binop (op, a, b) -> (
      let va = eval rt lay venv a in
      let vb = eval rt lay venv b in
      match op with
      | Ast.Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Pow -> Value.pow va vb
      | Lt | Le | Gt | Ge | Eq | Ne -> Value.rel op va vb
      | And | Or -> Value.logic op va vb)

(* an array element: the array binding, then the subscripts left to
   right, then [Env.offset]'s rank and bounds checks *)
and element rt lay venv name idx =
  let a = Env.get_arr lay.Env.names (Env.slot lay name) venv in
  (a, Env.offset name a (List.map (fun i -> Value.to_int (eval rt lay venv i)) idx))

(* Fortran argument passing: variables and array elements by reference,
   whole arrays by reference, general expressions by copy-in *)
and arg_binding rt lay venv (e : Ast.expr) : Env.binding =
  match e with
  | Ast.Var v -> (
      match venv.(Env.slot lay v) with
      | Env.Poison m -> Value.err "%s" m
      | b -> b)
  | Ast.Index (name, idx) ->
      let a, off = element rt lay venv name idx in
      Env.Elem (a, off)
  | _ ->
      let v = eval rt lay venv e in
      Env.Cell { v; ty = ty_of_value v }

(* ---- nodes ---- *)

(* The step of [%TRIPk = MAX0((hi - I + step) / step, 0)], the trip count
   lowering assigns at a DO loop's entry (also once optimized, when the
   division is left): lowering's temporaries alone start with '%'. *)
let trip_step v (e : Ast.expr) =
  match e with
  | Ast.Call ("MAX0", [ Ast.Binop (Ast.Div, _, s); _ ]) when v.[0] = '%' -> Some s
  | _ -> None

(* the DO variable of the loop whose header tests [trip] *)
let do_var_of (lay : Env.layout) trip =
  let cfg = lay.Env.lproc.Program.cfg in
  let rec go i =
    if i = Cfg.num_nodes cfg then trip
    else
      match (Cfg.info cfg i).Ir.ir with
      | Ir.Do_test d when d.Ir.trip_var = trip -> d.Ir.do_var
      | _ -> go (i + 1)
  in
  go 0

let step rt (lay : Env.layout) venv (ir : Ir.node) : Label.t option =
  match ir with
  | Ir.Entry | Ir.Nop _ -> Some Label.U
  | Ir.Assign (Ast.Lvar v, (Ast.Call (f, [ Ast.Binop (Ast.Div, a, b); k ]) as e))
    when trip_step v e <> None ->
      (* the generic evaluation of [e], except that the division a zero
         step fails names the step *)
      let x = eval rt lay venv a in
      let y = eval rt lay venv b in
      (match (x, y) with
      | (Value.Int _ | Value.Real _), (Value.Int 0 | Value.Real 0.0) ->
          Value.err "%s: DO %s has a zero step" lay.Env.lproc.Program.name (do_var_of lay v)
      | _ -> ());
      let q = Value.div x y in
      Env.write lay.Env.names (Env.slot lay v) venv
        (Builtins.apply rt.rng f [ q; eval rt lay venv k ]);
      Some Label.U
  | Ir.Assign (Ast.Lvar v, e) ->
      let x = eval rt lay venv e in
      Env.write lay.Env.names (Env.slot lay v) venv x;
      Some Label.U
  | Ir.Assign (Ast.Larr (name, idx), e) ->
      (* the subscripts and their bounds checks come before the RHS *)
      let a, off = element rt lay venv name idx in
      Env.set a off (eval rt lay venv e);
      Some Label.U
  | Ir.Branch e -> if Value.to_bool (eval rt lay venv e) then Some Label.T else Some Label.F
  | Ir.Do_test d ->
      if Env.read_int lay.Env.names (Env.slot lay d.Ir.trip_var) venv > 0 then Some Label.T
      else Some Label.F
  | Ir.Select (e, narms) ->
      let i = Value.to_int (eval rt lay venv e) in
      if i >= 1 && i <= narms then Some (Label.Case i) else Some Label.F
  | Ir.Call (name, args) -> (
      match Hashtbl.find_opt rt.prog.Program.by_name name with
      | Some callee ->
          ignore (rt.call callee (List.map (arg_binding rt lay venv) args));
          Some Label.U
      | None -> Value.err "CALL of unknown subroutine %s" name)
  | Ir.Print es ->
      List.iter
        (fun e -> Buffer.add_string rt.out (Fmt.str "%a " Value.pp (eval rt lay venv e)))
        es;
      Buffer.add_char rt.out '\n';
      Some Label.U
  | Ir.Return -> None
  | Ir.Stop -> raise Stopped

(* ---- successor dispatch ---- *)

(* first successor index per label; -1 = no such successor *)
type dispatch = { d_u : int; d_t : int; d_f : int; d_cases : int array }

let dispatch (labels : Label.t array) =
  let first p =
    let n = Array.length labels in
    let rec go k = if k = n then -1 else if p labels.(k) then k else go (k + 1) in
    go 0
  in
  let max_case =
    Array.fold_left (fun m l -> match l with Label.Case c -> max m c | _ -> m) 0 labels
  in
  {
    d_u = first (Label.equal Label.U);
    d_t = first (Label.equal Label.T);
    d_f = first (Label.equal Label.F);
    d_cases = Array.init max_case (fun c -> first (Label.equal (Label.Case (c + 1))));
  }

let successor d (l : Label.t) ~node (lay : Env.layout) =
  let k =
    match l with
    | Label.U -> d.d_u
    | Label.T -> d.d_t
    | Label.F -> d.d_f
    | Label.Case c -> if c >= 1 && c <= Array.length d.d_cases then d.d_cases.(c - 1) else -1
    | Label.Pseudo _ -> -1
  in
  if k < 0 then
    Value.err "no %s successor at node %d of %s" (Label.to_string l) node
      lay.Env.lproc.Program.name;
  k
