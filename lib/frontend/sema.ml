(* Semantic analysis for MF77.

   Responsibilities:
   - build the per-unit symbol table (declared/implicit types, array dims,
     PARAMETER constants);
   - rewrite parsed [Call(name, args)] nodes into [Index] when [name] is an
     array, substitute PARAMETER constants, fold them where trivial;
   - check labels (GOTO targets exist, no duplicates), DO variables are
     integer scalars, called units exist with plausible arity;
   - light type checking: conditions must be logical, assignment targets
     must not be constants.

   The result feeds both the lowering pass and the VM. *)

open Ast

type var_kind =
  | Scalar of typ
  | Array of typ * int list (* dims; -1 = assumed-size *)
  | Const of expr (* PARAMETER: a literal after folding *)

type env = {
  unit_ : program_unit; (* body rewritten *)
  vars : (string, var_kind) Hashtbl.t;
  result_var : string option; (* for FUNCTIONs: the unit name *)
  labels : (int, unit) Hashtbl.t;
}

type program_env = {
  units : env list;
  by_name : (string, env) Hashtbl.t;
  main : string;
}

exception Error of string

let err fmt = Fmt.kstr (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)

let const_fold_binop op a b =
  match (op, a, b) with
  | Add, Int x, Int y -> Some (Int (x + y))
  | Sub, Int x, Int y -> Some (Int (x - y))
  | Mul, Int x, Int y -> Some (Int (x * y))
  | Div, Int x, Int y when y <> 0 -> Some (Int (x / y))
  | Add, Real x, Real y -> Some (Real (x +. y))
  | Sub, Real x, Real y -> Some (Real (x -. y))
  | Mul, Real x, Real y -> Some (Real (x *. y))
  | Div, Real x, Real y when y <> 0.0 -> Some (Real (x /. y))
  | _ -> None

(* minimal constant evaluation for PARAMETER right-hand sides *)
let rec const_eval params e =
  match e with
  | Int _ | Real _ | Bool _ -> e
  | Var v -> (
      match List.assoc_opt v params with
      | Some c -> c
      | None -> err "PARAMETER expression references non-constant %s" v)
  | Unop (Neg, e) -> (
      match const_eval params e with
      | Int i -> Int (-i)
      | Real r -> Real (-.r)
      | _ -> err "bad PARAMETER expression")
  | Binop (op, a, b) -> (
      match const_fold_binop op (const_eval params a) (const_eval params b) with
      | Some c -> c
      | None -> err "bad PARAMETER expression")
  | _ -> err "bad PARAMETER expression"

(* ------------------------------------------------------------------ *)

type ctx = {
  cvars : (string, var_kind) Hashtbl.t;
  all_units : (string, program_unit) Hashtbl.t;
  cunit : program_unit;
}

let var_type ctx name =
  match Hashtbl.find_opt ctx.cvars name with
  | Some (Scalar t) | Some (Array (t, _)) -> t
  | Some (Const (Int _)) -> Tint
  | Some (Const (Real _)) -> Treal
  | Some (Const (Bool _)) -> Tlogical
  | Some (Const _) -> Treal
  | None -> implicit_type name

let rec expr_type ctx = function
  | Int _ -> Tint
  | Real _ -> Treal
  | Bool _ -> Tlogical
  | Var v -> var_type ctx v
  | Index (a, _) -> var_type ctx a
  | Call (f, args) -> (
      match Hashtbl.find_opt ctx.all_units f with
      | Some { kind = Function (Some t); _ } -> t
      | Some { kind = Function None; _ } -> implicit_type f
      | Some _ -> err "%s: subroutine %s used as a function" ctx.cunit.name f
      | None -> Intrinsics.result_type f (List.map (expr_type ctx) args))
  | Unop (Neg, e) -> expr_type ctx e
  | Unop (Not, _) -> Tlogical
  | Binop ((Add | Sub | Mul | Div | Pow), a, b) ->
      if expr_type ctx a = Treal || expr_type ctx b = Treal then Treal else Tint
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) -> Tlogical

(* [List.map f l], left to right, but [l] itself when [f] returns every
   element unchanged: the rewrites below touch few nodes, and returning
   the parsed nodes they leave alone, rather than copies, keeps the
   parser's tree instead of a second one *)
let rec map_keep f l =
  match l with
  | [] -> l
  | x :: rest ->
      let y = f x in
      let rest' = map_keep f rest in
      if y == x && rest' == rest then l else y :: rest'

(* rewrite Call->Index / substitute constants, checking as we go; a node
   with nothing to rewrite comes back as itself *)
let rec rw_expr ctx e =
  match e with
  | Int _ | Real _ | Bool _ -> e
  | Var v -> (
      match Hashtbl.find_opt ctx.cvars v with
      | Some (Const c) -> c
      | Some (Array _) -> err "%s: array %s used without subscripts" ctx.cunit.name v
      | _ -> e)
  | Index (a, idx) ->
      let idx' = map_keep (rw_expr ctx) idx in
      if idx' == idx then e else Index (a, idx')
  | Call (name, args) -> (
      match Hashtbl.find_opt ctx.cvars name with
      | Some (Array (_, dims)) ->
          let args = List.map (rw_expr ctx) args in
          let rank = List.length dims in
          if rank <> List.length args && dims <> [ -1 ] then
            err "%s: array %s has rank %d, used with %d subscripts" ctx.cunit.name
              name rank (List.length args);
          List.iter
            (fun ix ->
              if expr_type ctx ix <> Tint then
                err "%s: non-integer subscript of %s" ctx.cunit.name name)
            args;
          Index (name, args)
      | Some (Const _) | Some (Scalar _) ->
          err "%s: %s is not an array or function" ctx.cunit.name name
      | None -> (
          match Hashtbl.find_opt ctx.all_units name with
          | Some { kind = Function _; params; _ } ->
              if List.length params <> List.length args then
                err "%s: function %s expects %d arguments, got %d" ctx.cunit.name
                  name (List.length params) (List.length args);
              (* user-call arguments may be whole arrays (by reference) *)
              let args' = map_keep (rw_arg ctx) args in
              if args' == args then e else Call (name, args')
          | Some _ -> err "%s: CALL required to invoke subroutine %s" ctx.cunit.name name
          | None -> (
              match Intrinsics.lookup name with
              | Some info ->
                  let args' = map_keep (rw_expr ctx) args in
                  let n = List.length args' in
                  if n < info.min_arity || n > info.max_arity then
                    err "%s: intrinsic %s: bad arity %d" ctx.cunit.name name n;
                  if args' == args then e else Call (name, args')
              | None -> err "%s: unknown function or array %s" ctx.cunit.name name)))
  | Unop (op, e1) ->
      let e1' = rw_expr ctx e1 in
      if e1' == e1 then e else Unop (op, e1')
  | Binop (op, a0, b0) -> (
      let a = rw_expr ctx a0 and b = rw_expr ctx b0 in
      match const_fold_binop op a b with
      | Some c -> c
      | None -> if a == a0 && b == b0 then e else Binop (op, a, b))

(* arguments of user calls may be whole arrays (passed by reference) *)
and rw_arg ctx e =
  match e with
  | Var v -> (
      match Hashtbl.find_opt ctx.cvars v with
      | Some (Array _) -> e (* whole-array argument *)
      | _ -> rw_expr ctx e)
  | _ -> rw_expr ctx e

let rw_lvalue ctx lv =
  match lv with
  | Lvar v -> (
      match Hashtbl.find_opt ctx.cvars v with
      | Some (Const _) -> err "%s: assignment to PARAMETER %s" ctx.cunit.name v
      | Some (Array _) -> err "%s: assignment to whole array %s" ctx.cunit.name v
      | _ -> lv)
  | Larr (a, idx) -> (
      match Hashtbl.find_opt ctx.cvars a with
      | Some (Array _) ->
          let idx' = map_keep (rw_expr ctx) idx in
          if idx' == idx then lv else Larr (a, idx')
      | _ -> err "%s: %s is not an array" ctx.cunit.name a)

let check_logical ctx e what =
  if expr_type ctx e <> Tlogical then
    err "%s: %s condition is not LOGICAL" ctx.cunit.name what

let rec rw_stmt ctx s =
  match s with
  | Assign (lv, e) ->
      (* the right-hand side first: the order decides which error a
         malformed statement reports *)
      let e' = rw_expr ctx e in
      let lv' = rw_lvalue ctx lv in
      if lv' == lv && e' == e then s else Assign (lv', e')
  | Goto _ -> s
  | Cgoto (ls, e) ->
      let e' = rw_expr ctx e in
      if expr_type ctx e' <> Tint then
        err "%s: computed GOTO selector is not INTEGER" ctx.cunit.name;
      if e' == e then s else Cgoto (ls, e')
  | If_logical (c, s1) ->
      let c' = rw_expr ctx c in
      check_logical ctx c' "IF";
      (match s1 with
      | If_logical _ | If_block _ | Do _ ->
          err "%s: illegal statement in logical IF" ctx.cunit.name
      | _ -> ());
      let s1' = rw_stmt ctx s1 in
      if c' == c && s1' == s1 then s else If_logical (c', s1')
  | If_block (arms, else_) ->
      (* the ELSE block first, then the arms in order: the order decides
         which error a malformed unit reports *)
      let else' =
        match else_ with
        | None -> else_
        | Some blk ->
            let blk' = rw_block ctx blk in
            if blk' == blk then else_ else Some blk'
      in
      let arms' =
        map_keep
          (fun ((c, blk) as arm) ->
            let c' = rw_expr ctx c in
            check_logical ctx c' "IF";
            let blk' = rw_block ctx blk in
            if c' == c && blk' == blk then arm else (c', blk'))
          arms
      in
      if arms' == arms && else' == else_ then s else If_block (arms', else')
  | Do d ->
      (match Hashtbl.find_opt ctx.cvars d.do_var with
      | Some (Scalar Tint) -> ()
      | None when implicit_type d.do_var = Tint -> ()
      | None -> err "%s: DO variable %s is not INTEGER" ctx.cunit.name d.do_var
      | Some _ -> err "%s: DO variable %s is not an INTEGER scalar" ctx.cunit.name d.do_var);
      let lo = rw_expr ctx d.do_lo and hi = rw_expr ctx d.do_hi in
      let step =
        match d.do_step with
        | None -> d.do_step
        | Some e ->
            let e' = rw_expr ctx e in
            if e' == e then d.do_step else Some e'
      in
      (* Fortran 77 forbids a zero step; the trip count would divide by it *)
      (match step with
      | Some (Int 0 | Unop (Neg, Int 0)) ->
          err "%s: DO %s has a zero step" ctx.cunit.name d.do_var
      | _ -> ());
      List.iter
        (fun e ->
          if expr_type ctx e <> Tint then
            err "%s: DO bounds of %s must be INTEGER" ctx.cunit.name d.do_var)
        (lo :: hi :: Option.to_list step);
      let body = rw_block ctx d.do_body in
      if lo == d.do_lo && hi == d.do_hi && step == d.do_step && body == d.do_body then s
      else Do { d with do_lo = lo; do_hi = hi; do_step = step; do_body = body }
  | Call_stmt (name, args0) -> (
      let args = map_keep (rw_arg ctx) args0 in
      match Hashtbl.find_opt ctx.all_units name with
      | Some { kind = Subroutine; params; _ } ->
          if List.length params <> List.length args then
            err "%s: subroutine %s expects %d arguments, got %d" ctx.cunit.name name
              (List.length params) (List.length args);
          if args == args0 then s else Call_stmt (name, args)
      | Some _ -> err "%s: CALL of non-subroutine %s" ctx.cunit.name name
      | None -> err "%s: unknown subroutine %s" ctx.cunit.name name)
  | Return ->
      if ctx.cunit.kind = Program then
        err "%s: RETURN in main program" ctx.cunit.name
      else s
  | Stop | Continue -> s
  | Print es ->
      let es' = map_keep (rw_expr ctx) es in
      if es' == es then s else Print es'

and rw_block ctx blk =
  map_keep
    (fun ls ->
      let stmt = rw_stmt ctx ls.stmt in
      if stmt == ls.stmt then ls else { ls with stmt })
    blk

(* labels: collect & check uniqueness, then check GOTO targets *)
let rec stmt_labels acc ls =
  let acc = match ls.label with Some l -> l :: acc | None -> acc in
  match ls.stmt with
  | If_block (arms, else_) ->
      let acc = List.fold_left (fun a (_, b) -> block_labels a b) acc arms in
      (match else_ with Some b -> block_labels acc b | None -> acc)
  | Do d -> block_labels acc d.do_body
  | If_logical (_, s) -> stmt_labels acc { label = None; stmt = s }
  | _ -> acc

and block_labels acc blk = List.fold_left stmt_labels acc blk

let rec stmt_goto_targets acc s =
  match s with
  | Goto l -> l :: acc
  | Cgoto (ls, _) -> ls @ acc
  | If_logical (_, s) -> stmt_goto_targets acc s
  | If_block (arms, else_) ->
      let acc =
        List.fold_left (fun a (_, b) -> block_goto_targets a b) acc arms
      in
      (match else_ with Some b -> block_goto_targets acc b | None -> acc)
  | Do d -> block_goto_targets acc d.do_body
  | _ -> acc

and block_goto_targets acc blk =
  List.fold_left (fun a ls -> stmt_goto_targets a ls.stmt) acc blk

(* ------------------------------------------------------------------ *)

let analyze_unit all_units (u : program_unit) : env =
  let vars = Hashtbl.create 16 in
  (* PARAMETERs first (they may be referenced by later PARAMETERs) *)
  let params = ref [] in
  List.iter
    (function
      | Dparam ps ->
          List.iter
            (fun (n, e) ->
              let c = const_eval !params e in
              params := (n, c) :: !params;
              if Hashtbl.mem vars n then err "%s: duplicate declaration of %s" u.name n;
              Hashtbl.replace vars n (Const c))
            ps
      | Dvar _ -> ())
    u.decls;
  List.iter
    (function
      | Dvar (ty, names) ->
          List.iter
            (fun (n, dims) ->
              if Hashtbl.mem vars n then err "%s: duplicate declaration of %s" u.name n;
              List.iter
                (fun d ->
                  if d = 0 || d < -1 then err "%s: bad dimension for %s" u.name n)
                dims;
              if dims = [] then Hashtbl.replace vars n (Scalar ty)
              else Hashtbl.replace vars n (Array (ty, dims)))
            names
      | Dparam _ -> ())
    u.decls;
  (* parameters of the unit: give undeclared ones their implicit scalar type *)
  List.iter
    (fun p ->
      match Hashtbl.find_opt vars p with
      | Some (Const _) -> err "%s: dummy argument %s is a PARAMETER" u.name p
      | Some _ -> ()
      | None -> Hashtbl.replace vars p (Scalar (implicit_type p)))
    u.params;
  let result_var =
    match u.kind with
    | Function ty ->
        let t = match ty with Some t -> t | None -> implicit_type u.name in
        if Hashtbl.mem vars u.name then
          err "%s: function name also declared as variable" u.name;
        Hashtbl.replace vars u.name (Scalar t);
        Some u.name
    | _ -> None
  in
  let ctx = { cvars = vars; all_units; cunit = u } in
  let body = rw_block ctx u.body in
  (* labels *)
  let ls = block_labels [] body in
  let labels = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem labels l then err "%s: duplicate label %d" u.name l;
      Hashtbl.replace labels l ())
    ls;
  List.iter
    (fun l ->
      if not (Hashtbl.mem labels l) then err "%s: GOTO to unknown label %d" u.name l)
    (block_goto_targets [] body);
  { unit_ = { u with body }; vars; result_var; labels }

let analyze (p : program) : program_env =
  let all_units = Hashtbl.create 8 in
  List.iter
    (fun u ->
      if Hashtbl.mem all_units u.name then err "duplicate program unit %s" u.name;
      if Intrinsics.is_intrinsic u.name then
        err "program unit %s shadows an intrinsic" u.name;
      Hashtbl.replace all_units u.name u)
    p;
  let mains = List.filter (fun u -> u.kind = Program) p in
  let main =
    match mains with
    | [ m ] -> m.name
    | [] -> err "no PROGRAM unit"
    | _ -> err "multiple PROGRAM units"
  in
  let units = List.map (analyze_unit all_units) p in
  let by_name = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace by_name e.unit_.name e) units;
  { units; by_name; main }

(* Parse + analyze in one step. *)
let parse_and_analyze src = analyze (Parser.parse_program src)
