(* Scalar optimizer over statement-level CFGs.

   Together with the two Cost_model presets, this models the paper's
   "Compiler optimization ON/OFF" axis of Table 1.  Passes:

   1. constant folding + algebraic simplification + a little strength
      reduction (x**2 -> x*x for cheap operands);
   2. local constant propagation along straight-line chains, with
      conservative clobbering around calls (by-reference arguments and
      parameter aliasing);
   3. dead scalar-assignment elimination;
   4. elision of no-op nodes (CONTINUEs, materialized GOTOs, dead assigns).

   RAND/IRAND are treated as side-effecting so that optimization does not
   perturb the random stream: profiled frequencies stay comparable across
   optimization levels, as they would with a real compiler. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Sema = S89_frontend.Sema
module Lower = S89_frontend.Lower
open S89_cfg

(* ---- purity / effects ---- *)

let is_user prog f =
  match prog with Some p -> Hashtbl.mem p.Program.by_name f | None -> false

let rec expr_impure (prog : Program.t option) (e : Ast.expr) =
  match e with
  | Ast.Int _ | Real _ | Bool _ | Var _ -> false
  | Index (_, idx) -> List.exists (expr_impure prog) idx
  | Call (f, args) ->
      is_user prog f
      || f = "RAND" || f = "IRAND"
      || List.exists (expr_impure prog) args
  | Unop (_, e) -> expr_impure prog e
  | Binop (_, a, b) -> expr_impure prog a || expr_impure prog b

(* ---- pass 1: folding ---- *)

let value_of_lit = function
  | Ast.Int i -> Some (Value.Int i)
  | Ast.Real r -> Some (Value.Real r)
  | Ast.Bool b -> Some (Value.Bool b)
  | _ -> None

let lit_of_value = function
  | Value.Int i -> Ast.Int i
  | Value.Real r -> Ast.Real r
  | Value.Bool b -> Ast.Bool b

let is_cheap = function Ast.Var _ | Ast.Int _ | Ast.Real _ -> true | _ -> false

(* A user call's actual fixes its passing mode: a variable or array
   element is passed by reference, anything else by copy-in.  Rewrites
   must keep that mode, or a callee's stores land elsewhere. *)
let by_ref = function Ast.Var _ | Ast.Index _ -> true | _ -> false

let rec fold prog (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Int _ | Real _ | Bool _ | Var _ -> e
  | Index (a, idx) -> Index (a, List.map (fold prog) idx)
  | Call (f, args) when is_user prog f -> Call (f, List.map (fold_actual prog) args)
  | Call (f, args) -> (
      let args = List.map (fold prog) args in
      let e = Ast.Call (f, args) in
      if expr_impure prog e then e
      else
        match List.map value_of_lit args with
        | vs when List.for_all Option.is_some vs
                  && S89_frontend.Intrinsics.is_intrinsic f -> (
            let vs = List.map Option.get vs in
            (* constant intrinsic application; RAND/IRAND excluded above *)
            let rng = S89_util.Prng.create ~seed:0 in
            match Builtins.apply rng f vs with
            | v -> lit_of_value v
            | exception Value.Runtime_error _ -> e)
        | _ -> e)
  | Unop (op, a) -> (
      let a = fold prog a in
      match (op, a) with
      | Ast.Neg, Ast.Int i -> Ast.Int (-i)
      | Ast.Neg, Ast.Real r -> Ast.Real (-.r)
      | Ast.Neg, Ast.Unop (Ast.Neg, x) -> x
      | Ast.Not, Ast.Bool b -> Ast.Bool (not b)
      | Ast.Not, Ast.Unop (Ast.Not, x) -> x
      | _ -> Unop (op, a))
  | Binop (op, a, b) -> (
      let a = fold prog a and b = fold prog b in
      let e = Ast.Binop (op, a, b) in
      match (value_of_lit a, value_of_lit b) with
      | Some va, Some vb -> (
          let r =
            match op with
            | Ast.Add -> Some (Value.add va vb)
            | Sub -> Some (Value.sub va vb)
            | Mul -> Some (Value.mul va vb)
            | Div -> ( try Some (Value.div va vb) with Value.Runtime_error _ -> None)
            | Pow -> ( try Some (Value.pow va vb) with Value.Runtime_error _ -> None)
            | Lt | Le | Gt | Ge | Eq | Ne -> (
                try Some (Value.rel op va vb) with Value.Runtime_error _ -> None)
            | And | Or -> (
                try Some (Value.logic op va vb) with Value.Runtime_error _ -> None)
          in
          match r with Some v -> lit_of_value v | None -> e)
      | _ ->
          let pure x = not (expr_impure prog x) in
          (* algebraic identities (only on pure discarded operands) *)
          (match (op, a, b) with
          | Ast.Add, Ast.Int 0, x | Ast.Add, x, Ast.Int 0 -> x
          | Ast.Add, Ast.Real 0.0, x | Ast.Add, x, Ast.Real 0.0 -> x
          | Ast.Sub, x, Ast.Int 0 | Ast.Sub, x, Ast.Real 0.0 -> x
          | Ast.Mul, Ast.Int 1, x | Ast.Mul, x, Ast.Int 1 -> x
          | Ast.Mul, Ast.Real 1.0, x | Ast.Mul, x, Ast.Real 1.0 -> x
          | Ast.Mul, (Ast.Int 0 as z), x when pure x -> z
          | Ast.Mul, x, (Ast.Int 0 as z) when pure x -> z
          | Ast.Div, x, Ast.Int 1 | Ast.Div, x, Ast.Real 1.0 -> x
          | Ast.Pow, x, Ast.Int 1 -> x
          | Ast.Pow, x, Ast.Int 2 when is_cheap x -> Ast.Binop (Ast.Mul, x, x)
          | _ -> e))

(* [I * 1] folds to [I]: a copy-in actual must not become a reference *)
and fold_actual prog a =
  let a' = fold prog a in
  if by_ref a' && not (by_ref a) then a else a'

let fold_node prog (ir : Ir.node) : Ir.node =
  match ir with
  | Ir.Assign (Ast.Larr (a, idx), e) ->
      Ir.Assign (Ast.Larr (a, List.map (fold prog) idx), fold prog e)
  | Ir.Assign (lv, e) -> Ir.Assign (lv, fold prog e)
  | Ir.Branch e -> Ir.Branch (fold prog e)
  | Ir.Select (e, n) -> Ir.Select (fold prog e, n)
  | Ir.Call (f, args) -> Ir.Call (f, List.map (fold_actual prog) args)
  | Ir.Print es -> Ir.Print (List.map (fold prog) es)
  | Ir.Entry | Ir.Nop _ | Ir.Do_test _ | Ir.Return | Ir.Stop -> ir

(* ---- pass 2: global constant propagation ----

   Classic Kildall-style dataflow over the statement-level CFG.  The
   lattice per scalar variable is [Const lit] / bottom, with "absent from
   the map" meaning bottom; a node's OUT is [None] until first visited so
   the meet only ranges over computed predecessors.  Conservative
   clobbering: a scalar passed by reference to a user call (or read while
   a user function runs) loses its constant, and writing a by-reference
   parameter clobbers all parameters (they may alias). *)

module SM = Map.Make (String)

let rec subst prog env (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Var v -> ( match SM.find_opt v env with Some lit -> lit | None -> e)
  | Ast.Int _ | Real _ | Bool _ -> e
  | Index (a, idx) -> Index (a, List.map (subst prog env) idx)
  | Call (f, args) when is_user prog f ->
      Call (f, List.map (subst_actual prog env) args)
  | Call (f, args) -> Call (f, List.map (subst prog env) args)
  | Unop (op, a) -> Unop (op, subst prog env a)
  | Binop (op, a, b) -> Binop (op, subst prog env a, subst prog env b)

(* a constant for a by-reference variable would make the callee's
   dummy a copy *)
and subst_actual prog env = function
  | Ast.Var _ as a -> a
  | a -> subst prog env a

(* scalars a node's execution may clobber beyond its own left-hand side:
   variables passed (by reference) to user calls *)
let clobbered_by_calls prog ir =
  let user f =
    match prog with Some p -> Hashtbl.mem p.Program.by_name f | None -> true
  in
  let acc = ref [] in
  let rec scan (e : Ast.expr) =
    match e with
    | Ast.Call (f, args) ->
        if user f then
          List.iter (function Ast.Var v -> acc := v :: !acc | a -> scan a) args
        else List.iter scan args
    | Ast.Index (_, idx) -> List.iter scan idx
    | Ast.Unop (_, a) -> scan a
    | Ast.Binop (_, a, b) -> scan a; scan b
    | _ -> ()
  in
  (match ir with
  | Ir.Call (f, args) ->
      if user f then
        List.iter (function Ast.Var v -> acc := v :: !acc | a -> scan a) args
      else List.iter scan args
  | _ -> List.iter scan (Ir.exprs_of ir));
  !acc

(* transfer function: OUT from IN, after the node executes *)
let transfer prog is_param ir env =
  let env = List.fold_left (fun env v -> SM.remove v env) env (clobbered_by_calls prog ir) in
  match ir with
  | Ir.Assign (Ast.Lvar v, rhs) -> (
      let env = SM.remove v env in
      let env =
        if is_param v then SM.filter (fun w _ -> not (is_param w)) env else env
      in
      match value_of_lit rhs with Some _ -> SM.add v rhs env | None -> env)
  | Ir.Do_test d -> SM.remove d.Ir.trip_var env
  | _ -> env

let meet a b =
  SM.merge
    (fun _ x y -> match (x, y) with Some x, Some y when x = y -> Some x | _ -> None)
    a b

let propagate prog (proc : Program.proc) (cfg : Ir.info Cfg.t) : Ir.info Cfg.t =
  let is_param v = List.mem v proc.Program.params in
  let n = Cfg.num_nodes cfg in
  let g = Cfg.graph cfg in
  let entry = Cfg.entry cfg in
  let out : Ast.expr SM.t option array = Array.make n None in
  let rpo = S89_graph.Dfs.rev_postorder g ~root:entry in
  let env_in = Array.make n SM.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun u ->
        let in_env =
          if u = entry then SM.empty
          else
            List.fold_left
              (fun acc p ->
                match out.(p) with
                | None -> acc
                | Some o -> ( match acc with None -> Some o | Some a -> Some (meet a o)))
              None (S89_graph.Digraph.preds g u)
            |> Option.value ~default:SM.empty
        in
        env_in.(u) <- in_env;
        (* transfer on the node as currently written, with IN substituted
           into the right-hand sides for evaluation *)
        let ir = (Cfg.info cfg u).Ir.ir in
        let ir_eval =
          match ir with
          | Ir.Assign (lv, e) -> Ir.Assign (lv, fold prog (subst prog in_env e))
          | other -> other
        in
        let new_out = transfer prog is_param ir_eval in_env in
        let same =
          match out.(u) with
          | Some o -> SM.equal ( = ) o new_out
          | None -> false
        in
        if not same then begin
          out.(u) <- Some new_out;
          changed := true
        end)
      rpo
  done;
  (* rewrite every reachable node under its IN environment *)
  let reached = Array.make n false in
  Array.iter (fun u -> reached.(u) <- true) rpo;
  Cfg.map_info
    (fun u (info : Ir.info) ->
      let env = env_in.(u) in
      let ir =
        match info.Ir.ir with
        | Ir.Assign (Ast.Larr (a, idx), e) ->
            Ir.Assign (Ast.Larr (a, List.map (subst prog env) idx), subst prog env e)
        | Ir.Assign (lv, e) -> Ir.Assign (lv, subst prog env e)
        | Ir.Branch e -> Ir.Branch (subst prog env e)
        | Ir.Select (e, k) -> Ir.Select (subst prog env e, k)
        | Ir.Call (f, args) -> Ir.Call (f, List.map (subst_actual prog env) args)
        | Ir.Print es -> Ir.Print (List.map (subst prog env) es)
        | ir -> ir
      in
      if reached.(u) then { info with Ir.ir = fold_node prog ir } else info)
    cfg

(* ---- pass 3: dead scalar assignments ---- *)

let read_vars (proc : Program.proc) (cfg : Ir.info Cfg.t) =
  let reads = Hashtbl.create 32 in
  let rec scan (e : Ast.expr) =
    match e with
    | Ast.Var v -> Hashtbl.replace reads v ()
    | Ast.Int _ | Real _ | Bool _ -> ()
    | Index (a, idx) ->
        Hashtbl.replace reads a ();
        List.iter scan idx
    | Call (_, args) -> List.iter scan args
    | Unop (_, a) -> scan a
    | Binop (_, a, b) -> scan a; scan b
  in
  Cfg.iter_nodes
    (fun u ->
      let info = Cfg.info cfg u in
      List.iter scan (Ir.exprs_of info.Ir.ir);
      (match info.Ir.ir with
      | Ir.Do_test d -> Hashtbl.replace reads d.Ir.trip_var ()
      | Ir.Assign (Ast.Larr (a, _), _) -> Hashtbl.replace reads a ()
      | _ -> ()))
    cfg;
  List.iter (fun p -> Hashtbl.replace reads p ()) proc.Program.params;
  (match proc.Program.env.Sema.result_var with
  | Some rv -> Hashtbl.replace reads rv ()
  | None -> ());
  reads

let kill_dead_assigns prog (proc : Program.proc) (cfg : Ir.info Cfg.t) =
  let reads = read_vars proc cfg in
  Cfg.map_info
    (fun _ (info : Ir.info) ->
      match info.Ir.ir with
      | Ir.Assign (Ast.Lvar v, rhs)
        when (not (Hashtbl.mem reads v)) && not (expr_impure prog rhs) ->
          { info with Ir.ir = Ir.Nop "DEAD" }
      | _ -> info)
    cfg

(* ---- pass 4: elide no-op nodes ---- *)

let elide (cfg : Ir.info Cfg.t) : Ir.info Cfg.t =
  let n = Cfg.num_nodes cfg and g = Cfg.graph cfg in
  let elidable u =
    u <> Cfg.entry cfg
    && (match (Cfg.info cfg u).Ir.ir with Ir.Nop _ -> true | _ -> false)
    && S89_graph.Digraph.out_degree g u = 1
    && Label.equal g.succ_lbl.(g.succ_off.(u)) Label.U
  in
  (* resolve through chains of elidable nodes, stopping on cycles *)
  let target = Array.make n (-1) in
  let rec resolve u seen =
    if target.(u) >= 0 then target.(u)
    else if List.mem u seen then u (* nop cycle: keep *)
    else if not (elidable u) then begin
      target.(u) <- u;
      u
    end
    else begin
      let t = resolve g.succ_dst.(g.succ_off.(u)) (u :: seen) in
      target.(u) <- t;
      t
    end
  in
  for u = 0 to n - 1 do
    ignore (resolve u [])
  done;
  Cfg.contract cfg ~target

(* ---- pass 5: refine DO metadata ----
   Constant propagation can turn a trip-count initializer into a literal
   ("N = 200; DO I = 1, N" becomes %TRIP = 200).  Record it in the
   header's metadata: the static-trip cases of the profiling optimization
   3 and of compile-time frequency analysis then apply. *)

let refine_do_metadata (cfg : Ir.info Cfg.t) =
  (* constant init assignments per trip variable (the latch decrement is
     self-referencing and never a literal) *)
  let init_const = Hashtbl.create 8 in
  Cfg.iter_nodes
    (fun u ->
      match (Cfg.info cfg u).Ir.ir with
      | Ir.Assign (Ast.Lvar v, Ast.Int c)
        when String.length v > 5 && String.sub v 0 5 = "%TRIP" ->
          (* several constant writes to one temp cannot happen (one init
             per lowered loop), but stay safe *)
          if Hashtbl.mem init_const v then Hashtbl.replace init_const v None
          else Hashtbl.replace init_const v (Some c)
      | Ir.Assign (Ast.Lvar v, _)
        when String.length v > 5 && String.sub v 0 5 = "%TRIP" ->
          (* a non-literal write other than the decrement: give up *)
          (match (Cfg.info cfg u).Ir.ir with
          | Ir.Assign (_, Ast.Binop (Ast.Sub, Ast.Var v', Ast.Int 1)) when v' = v -> ()
          | _ -> Hashtbl.replace init_const v None)
      | _ -> ())
    cfg;
  Cfg.map_info
    (fun _ (info : Ir.info) ->
      match info.Ir.ir with
      | Ir.Do_test meta when meta.Ir.static_trip = None -> (
          match Hashtbl.find_opt init_const meta.Ir.trip_var with
          | Some (Some c) ->
              { info with
                Ir.ir = Ir.Do_test { meta with Ir.static_trip = Some (max c 0) } }
          | _ -> info)
      | _ -> info)
    cfg

(* ---- driver ---- *)

let optimize_cfg ?program (proc : Program.proc) : Ir.info Cfg.t =
  let cfg = ref proc.Program.cfg in
  for _round = 1 to 3 do
    cfg :=
      Cfg.map_info
        (fun _ (info : Ir.info) -> { info with Ir.ir = fold_node program info.Ir.ir })
        !cfg;
    cfg := propagate program proc !cfg;
    cfg := refine_do_metadata !cfg;
    cfg := kill_dead_assigns program proc !cfg;
    cfg := elide !cfg
  done;
  !cfg

(* Whole-program optimization: every pass builds a new CFG, so the
   original Program.t is untouched. *)
let program (prog : Program.t) : Program.t =
  Program.map_cfgs prog (fun p -> optimize_cfg ~program:prog p)
