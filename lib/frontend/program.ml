(* Whole-program view: one lowered CFG per program unit, plus the call
   graph.  The interprocedural estimator (rule 2 of §4) visits procedures
   bottom-up over this call graph; recursion shows up as a non-singleton
   SCC. *)

open S89_graph
open S89_cfg

type proc = {
  name : string;
  kind : Ast.unit_kind;
  params : string list;
  env : Sema.env;
  cfg : Ir.info Cfg.t;
  rewritten : bool;
}

type t = {
  procs : proc array;
  by_name : (string, proc) Hashtbl.t;
  index : (string, int) Hashtbl.t;
  main : string;
  call_graph : unit Digraph.t; (* node i = procs.(i); edge caller -> callee *)
}

(* user-defined functions called inside an expression, prepended to [acc]
   in the order they finish (arguments first) *)
let rec expr_calls by_name acc (e : Ast.expr) =
  match e with
  | Ast.Int _ | Real _ | Bool _ | Var _ -> acc
  | Index (_, idx) -> exprs_calls by_name acc idx
  | Call (f, args) ->
      let acc = exprs_calls by_name acc args in
      if Hashtbl.mem by_name f then f :: acc else acc
  | Unop (_, e) -> expr_calls by_name acc e
  | Binop (_, a, b) -> expr_calls by_name (expr_calls by_name acc a) b

and exprs_calls by_name acc = function
  | [] -> acc
  | e :: rest -> exprs_calls by_name (expr_calls by_name acc e) rest

(* all callees of a CFG node (subroutine call and/or functions in exprs) *)
let node_callees by_name (info : Ir.info) =
  let acc =
    match info.ir with
    | Ir.Call (name, _) when Hashtbl.mem by_name name -> [ name ]
    | _ -> []
  in
  exprs_calls by_name acc (Ir.exprs_of info.ir)

let callees_of_proc by_name (p : proc) =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let add c =
    if not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      acc := c :: !acc
    end
  in
  for n = 0 to Cfg.num_nodes p.cfg - 1 do
    List.iter add (node_callees by_name (Cfg.info p.cfg n))
  done;
  List.rev !acc

(* The program over [procs]: name tables and the call graph. *)
let assemble procs main =
  let by_name = Hashtbl.create 8 and index = Hashtbl.create 8 in
  Array.iteri
    (fun i p ->
      Hashtbl.replace by_name p.name p;
      Hashtbl.replace index p.name i)
    procs;
  let b = Digraph.Builder.create () in
  ignore (Digraph.Builder.add_nodes b (Array.length procs));
  Array.iteri
    (fun i p ->
      List.iter
        (fun callee -> Digraph.Builder.add_edge b ~src:i ~dst:(Hashtbl.find index callee) ~label:())
        (callees_of_proc by_name p))
    procs;
  { procs; by_name; index; main; call_graph = Digraph.Builder.freeze b }

let of_sema (penv : Sema.program_env) : t =
  let procs =
    List.map
      (fun (env : Sema.env) ->
        let u = env.Sema.unit_ in
        {
          name = u.name;
          kind = u.kind;
          params = u.params;
          env;
          cfg = Lower.lower_unit env;
          rewritten = false;
        })
      penv.Sema.units
    |> Array.of_list
  in
  assemble procs penv.Sema.main

let of_source src = of_sema (Sema.parse_and_analyze src)

(* Diagnostic shim over [of_source]: every exception the frontend stack
   can raise on malformed input becomes a structured diagnostic.  The
   raising [of_source] stays as the thin compatibility API. *)
let of_source_result src : (t, S89_diag.Diag.t) result =
  let module D = S89_diag.Diag in
  match of_source src with
  | t -> Ok t
  | exception Lexer.Error (msg, line) -> Error (D.error ~line ~code:"LEX001" msg)
  | exception Parser.Parse_error (msg, line) -> Error (D.error ~line ~code:"PAR001" msg)
  | exception Sema.Error msg -> Error (D.error ~code:"SEM001" msg)
  | exception Lower.Error msg -> Error (D.error ~code:"LOW001" msg)
  | exception S89_graph.Node_split.Gave_up n ->
      Error
        (D.errorf ~code:"LOW002"
           ~hint:"the control flow is pathologically irreducible"
           "node splitting gave up with %d nodes" n)

let find t name =
  match Hashtbl.find_opt t.by_name name with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Program.find: unknown unit %s" name)

let main_proc t = find t t.main

let procs t = Array.to_list t.procs

let callees t (p : proc) =
  let i = Hashtbl.find t.index p.name in
  List.map (fun j -> t.procs.(j).name) (Digraph.succs t.call_graph i)

(* SCCs of the call graph, callees-first; singletons without self loops are
   non-recursive. *)
let sccs t =
  List.map (fun comp -> List.map (fun i -> t.procs.(i)) comp) (Topo.scc t.call_graph)

let is_recursive t =
  List.exists
    (fun comp ->
      match comp with
      | [ i ] -> Digraph.has_edge t.call_graph ~src:i ~dst:i
      | _ -> true)
    (Topo.scc t.call_graph)

(* Procedures in bottom-up call-graph order (callees before callers).
   Recursive programs still get an order (SCC members in arbitrary relative
   order); the estimator decides how to handle them. *)
let bottom_up t = List.concat (sccs t)

(* Rebuild the program with transformed CFGs (used by the optimizer).
   The call graph is recomputed in case calls were removed. *)
let map_cfgs t f =
  assemble (Array.map (fun p -> { p with cfg = f p; rewritten = true }) t.procs) t.main
