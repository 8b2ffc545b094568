(* The MF77 virtual machine: a cycle-accounting interpreter over the
   statement-level CFGs produced by lowering.

   This is the stand-in for the paper's IBM 3090 testbed.  It provides:
   - execution of a whole Program.t with Fortran calling conventions
     (scalars and array elements by reference);
   - cycle accounting driven by a Cost_model (the paper's COST(u) values
     are charged per node execution, so the estimator's prediction is
     exactly comparable to the measured cycle count);
   - "oracle" counts: every node execution and edge traversal is counted
     for free — these are ground truth for the profiling tests;
   - profiling instrumentation: probe actions fire on node/edge events and
     charge [c_counter] cycles each, which is what Table 1 measures;
   - a simulated PC-sampling profiler (a sample every N cycles), used to
     reproduce §3's argument that sampling is too coarse for
     statement-level frequencies.

   Two drivers share all of the bookkeeping:
   - bytecode: each procedure is emitted once to flat register bytecode
     run by one dispatch loop (see Emit and Bytecode).  Under [Bytecode]
     (the default) a node the emitter cannot type statically escapes
     through FALLBACK to its closure from Compile; under [Compiled]
     every node is a FALLBACK, so the same loop runs nothing but
     closures over slot-resolved frames (see Env and Compile);
   - [Tree]: the original tree-walking evaluator over per-frame hash
     tables, kept as the semantic reference for differential testing. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Intrinsics = S89_frontend.Intrinsics
module Sema = S89_frontend.Sema
module Program = S89_frontend.Program
module Prng = S89_util.Prng
open S89_cfg

(* The step and cycle guards are defined in Bytecode — the lowest layer
   that raises them — and re-exported here under their historical names;
   only procedure calls, made here, check the depth guard. *)
exception Out_of_fuel = Bytecode.Out_of_fuel
exception Out_of_cycles = Bytecode.Out_of_cycles
exception Call_depth_exceeded of int
exception Stopped = Bytecode.Stopped (* internal: STOP statement unwinding *)

type binding = Env.binding =
  | Cell of { mutable v : Value.t; ty : Ast.typ }
  | Arr of Env.array_obj
  | Elem of Env.array_obj * int
  | Poison of string

type frame = { fproc : Program.proc; vars : (string, binding) Hashtbl.t }

(* ---- compiled procedures: per-node cost, dispatch tables, probes ---- *)

(* O(1) successor lookup by edge label (first matching successor wins,
   like the linear scan it replaces); -1 = no such successor *)
type dispatch = { d_u : int; d_t : int; d_f : int; d_cases : int array }

let succ_index (d : dispatch) (l : Label.t) =
  match l with
  | Label.U -> d.d_u
  | Label.T -> d.d_t
  | Label.F -> d.d_f
  | Label.Case c -> if c >= 1 && c <= Array.length d.d_cases then d.d_cases.(c - 1) else -1
  | Label.Pseudo _ -> -1

type cnode = {
  ir : Ir.node;
  cost : int;
  succ_labels : Label.t array;
  succ_dst : int array; (* destination pc, parallel to succ_labels *)
  dispatch : dispatch;
  edge_counts : int array; (* oracle: traversals, parallel to succ_labels *)
  mutable execs : int; (* oracle: node executions *)
  node_probes : Probe.action list;
  edge_probes : Probe.action list array; (* parallel to succ_labels *)
  mutable samples : int; (* PC-sampling hits *)
}

type cproc = {
  cp_proc : Program.proc;
  code : cnode array;
  centry : int;
  mutable invocations : int;
}

type backend = Tree | Compiled | Bytecode

type config = {
  cost_model : Cost_model.t;
  instr : Probe.t;
  seed : int;
  max_steps : int;
  max_cycles : int; (* cycle fuel; max_int = unlimited *)
  max_call_depth : int; (* guards runaway recursion from blowing the stack *)
  sample_interval : int option;
  backend : backend;
}

let default_config =
  {
    cost_model = Cost_model.optimized;
    instr = Probe.empty;
    seed = 42;
    max_steps = 200_000_000;
    max_cycles = max_int;
    max_call_depth = 10_000;
    sample_interval = None;
    backend = Bytecode;
  }

type t = {
  config : config;
  prog : Program.t;
  cprocs : (string, cproc) Hashtbl.t; (* Tree backend *)
  bprocs : (string, Bytecode.proc) Hashtbl.t; (* Compiled/Bytecode backends *)
  acct : Bytecode.acct;
      (* cycles, steps, call depth, sampling clock and instrumentation
         counters, shared by all backends *)
  rng : Prng.t;
  out : Buffer.t;
}

(* checked counter arithmetic: saturate at max_int with a diagnostic,
   never wrap around (the reconstruction laws assume exact sums) *)
let counter_incr st c = Bytecode.counter_incr st.acct c
let counter_add st c v = Bytecode.counter_add st.acct c v

let compile_proc config (p : Program.proc) : cproc =
  let cfg = p.Program.cfg in
  let n = Cfg.num_nodes cfg in
  let pi = Probe.find_proc config.instr p.Program.name in
  let code =
    Array.init n (fun i ->
        let info = Cfg.info cfg i in
        let edges = Cfg.succ_edges cfg i in
        let succ_labels =
          Array.of_list
            (List.map (fun (e : Label.t S89_graph.Digraph.edge) -> e.label) edges)
        in
        let succ_dst =
          Array.of_list
            (List.map (fun (e : Label.t S89_graph.Digraph.edge) -> e.dst) edges)
        in
        let d_u = ref (-1) and d_t = ref (-1) and d_f = ref (-1) in
        let max_case =
          Array.fold_left
            (fun m l -> match l with Label.Case c -> max m c | _ -> m)
            0 succ_labels
        in
        let d_cases = Array.make max_case (-1) in
        Array.iteri
          (fun k l ->
            match l with
            | Label.U -> if !d_u < 0 then d_u := k
            | Label.T -> if !d_t < 0 then d_t := k
            | Label.F -> if !d_f < 0 then d_f := k
            | Label.Case c -> if d_cases.(c - 1) < 0 then d_cases.(c - 1) <- k
            | Label.Pseudo _ -> ())
          succ_labels;
        let node_probes =
          match pi with Some pi -> pi.Probe.on_node.(i) | None -> []
        in
        let edge_probe_assoc =
          match pi with Some pi -> pi.Probe.on_edge.(i) | None -> []
        in
        let edge_probes =
          Array.map
            (fun l ->
              match
                List.find_opt (fun (lbl, _) -> Label.equal lbl l) edge_probe_assoc
              with
              | Some (_, acts) -> acts
              | None -> [])
            succ_labels
        in
        {
          ir = info.Ir.ir;
          cost = Cost_model.node_cost config.cost_model info.Ir.ir;
          succ_labels;
          succ_dst;
          dispatch = { d_u = !d_u; d_t = !d_t; d_f = !d_f; d_cases };
          edge_counts = Array.make (Array.length succ_labels) 0;
          execs = 0;
          node_probes;
          edge_probes;
          samples = 0;
        })
  in
  { cp_proc = p; code; centry = Cfg.entry cfg; invocations = 0 }

(* ---- frames and bindings (tree backend) ---- *)

let binding_of_kind = Env.binding_of_kind

let lookup frame name =
  match Hashtbl.find_opt frame.vars name with
  | Some b -> b
  | None ->
      let env = frame.fproc.Program.env in
      let kind =
        match Hashtbl.find_opt env.Sema.vars name with
        | Some k -> k
        | None -> Sema.Scalar (Ast.implicit_type name)
      in
      let b = binding_of_kind name kind in
      Hashtbl.replace frame.vars name b;
      b

let read_scalar frame name =
  match lookup frame name with
  | Cell c -> c.v
  | Elem (a, off) -> Env.get a off
  | Arr _ -> Value.err "array %s used as a scalar" name
  | Poison m -> Value.err "%s" m

let write_scalar frame name v =
  match lookup frame name with
  | Cell c -> c.v <- Value.coerce c.ty v
  | Elem (a, off) -> Env.set a off v
  | Arr _ -> Value.err "assignment to whole array %s" name
  | Poison m -> Value.err "%s" m

let offset = Env.offset

let get_array frame name =
  match lookup frame name with
  | Arr a -> a
  | Cell _ | Elem _ -> Value.err "%s is not an array" name
  | Poison m -> Value.err "%s" m

(* ---- shared bookkeeping ---- *)

let charge st c =
  let a = st.acct in
  a.Bytecode.cycles <- a.Bytecode.cycles + c

let find_cproc st name =
  match Hashtbl.find_opt st.cprocs name with
  | Some cp -> cp
  | None -> Value.err "uncompiled procedure %s" name

let enter_call st (cp : cproc) =
  cp.invocations <- cp.invocations + 1;
  let a = st.acct in
  a.Bytecode.depth <- a.Bytecode.depth + 1;
  if a.Bytecode.depth > a.Bytecode.max_depth then
    raise (Call_depth_exceeded a.Bytecode.depth)

(* sampling slow path: attribute hits to the executing node (taken only
   when the cycle counter crossed the sampling boundary) *)
let take_samples st (n : cnode) =
  let a = st.acct in
  while a.Bytecode.cycles >= a.Bytecode.next_sample do
    n.samples <- n.samples + 1;
    a.Bytecode.next_sample <- a.Bytecode.next_sample + a.Bytecode.sample_interval
  done

(* charge node cost, count the execution, attribute PC samples *)
let account st (n : cnode) =
  let a = st.acct in
  a.Bytecode.steps <- a.Bytecode.steps + 1;
  charge st n.cost;
  (* charge before checking, and fuel before cycles, so every backend
     trips the same guard at the same (steps, cycles) point *)
  if a.Bytecode.steps > st.config.max_steps then raise Out_of_fuel;
  if a.Bytecode.cycles > st.config.max_cycles then raise Out_of_cycles;
  n.execs <- n.execs + 1;
  take_samples st n

(* ---- tree-walking backend (the semantic reference) ---- *)

let rec eval st frame (e : Ast.expr) : Value.t =
  match e with
  | Ast.Int i -> Value.Int i
  | Real r -> Value.Real r
  | Bool b -> Value.Bool b
  | Var v -> read_scalar frame v
  | Index (name, idx) ->
      let a = get_array frame name in
      let idx = List.map (fun i -> Value.to_int (eval st frame i)) idx in
      Env.get a (offset name a idx)
  | Call (f, args) -> (
      match Hashtbl.find_opt st.prog.Program.by_name f with
      | Some callee -> (
          let bindings = List.map (arg_binding st frame) args in
          match call_proc st callee bindings with
          | Some v -> v
          | None -> Value.err "subroutine %s used as a function" f)
      | None ->
          let vs = List.map (eval st frame) args in
          Builtins.apply st.rng f vs)
  | Unop (Ast.Neg, e) -> Value.neg (eval st frame e)
  | Unop (Ast.Not, e) -> Value.Bool (not (Value.to_bool (eval st frame e)))
  | Binop (op, a, b) -> (
      let va = eval st frame a in
      let vb = eval st frame b in
      match op with
      | Ast.Add -> Value.add va vb
      | Sub -> Value.sub va vb
      | Mul -> Value.mul va vb
      | Div -> Value.div va vb
      | Pow -> Value.pow va vb
      | Lt | Le | Gt | Ge | Eq | Ne -> Value.rel op va vb
      | And | Or -> Value.logic op va vb)

(* argument passing: variables and array elements by reference, arrays by
   reference, general expressions by copy-in *)
and arg_binding st frame (e : Ast.expr) : binding =
  match e with
  | Ast.Var v -> (
      match lookup frame v with
      | Poison m -> Value.err "%s" m
      | b -> b)
  | Ast.Index (name, idx) ->
      let a = get_array frame name in
      let idx = List.map (fun i -> Value.to_int (eval st frame i)) idx in
      Elem (a, offset name a idx)
  | _ ->
      let v = eval st frame e in
      Cell
        {
          v;
          ty = (match v with Value.Int _ -> Ast.Tint | Value.Real _ -> Ast.Treal | _ -> Ast.Tlogical);
        }

and call_proc st (callee : Program.proc) (args : binding list) : Value.t option =
  let cp = find_cproc st callee.Program.name in
  enter_call st cp;
  let frame = { fproc = callee; vars = Hashtbl.create 16 } in
  (try
     List.iter2
       (fun p b ->
         (* coerce copy-in scalars to the declared parameter type *)
         let b =
           match (b, Hashtbl.find_opt callee.Program.env.Sema.vars p) with
           | Cell c, Some (Sema.Scalar ty) when c.ty <> ty ->
               Cell { v = Value.coerce ty c.v; ty }
           | _ -> b
         in
         Hashtbl.replace frame.vars p b)
       callee.Program.params args
   with Invalid_argument _ ->
     Value.err "arity mismatch calling %s" callee.Program.name);
  (try run_frame st cp frame
   with e ->
     st.acct.Bytecode.depth <- st.acct.Bytecode.depth - 1;
     raise e);
  st.acct.Bytecode.depth <- st.acct.Bytecode.depth - 1;
  match callee.Program.env.Sema.result_var with
  | Some rv -> Some (read_scalar frame rv)
  | None -> None

and run_frame st (cp : cproc) frame : unit =
  let pc = ref cp.centry in
  let running = ref true in
  while !running do
    let n = cp.code.(!pc) in
    account st n;
    fire_actions st frame n.node_probes;
    let out_label =
      match n.ir with
      | Ir.Entry | Ir.Nop _ -> Some Label.U
      | Ir.Assign (Ast.Lvar v, e) ->
          write_scalar frame v (eval st frame e);
          Some Label.U
      | Ir.Assign (Ast.Larr (name, idx), e) ->
          let a = get_array frame name in
          let idx = List.map (fun i -> Value.to_int (eval st frame i)) idx in
          let off = offset name a idx in
          Env.set a off (eval st frame e);
          Some Label.U
      | Ir.Branch e ->
          if Value.to_bool (eval st frame e) then Some Label.T else Some Label.F
      | Ir.Do_test d ->
          if Value.to_int (read_scalar frame d.Ir.trip_var) > 0 then Some Label.T
          else Some Label.F
      | Ir.Select (e, narms) ->
          let i = Value.to_int (eval st frame e) in
          if i >= 1 && i <= narms then Some (Label.Case i) else Some Label.F
      | Ir.Call (name, args) -> (
          match Hashtbl.find_opt st.prog.Program.by_name name with
          | Some callee ->
              let bindings = List.map (arg_binding st frame) args in
              ignore (call_proc st callee bindings);
              Some Label.U
          | None -> Value.err "CALL of unknown subroutine %s" name)
      | Ir.Print es ->
          List.iter
            (fun e ->
              Buffer.add_string st.out (Fmt.str "%a " Value.pp (eval st frame e)))
            es;
          Buffer.add_char st.out '\n';
          Some Label.U
      | Ir.Return -> None
      | Ir.Stop -> raise Stopped
    in
    match out_label with
    | None -> running := false
    | Some l -> (
        let k = succ_index n.dispatch l in
        if k < 0 then
          Value.err "no %s successor at node %d of %s" (Label.to_string l) !pc
            cp.cp_proc.Program.name;
        n.edge_counts.(k) <- n.edge_counts.(k) + 1;
        (match n.edge_probes.(k) with
        | [] -> ()
        | acts -> fire_actions st frame acts);
        pc := n.succ_dst.(k))
  done

and fire_actions st frame (acts : Probe.action list) =
  List.iter
    (fun (a : Probe.action) ->
      match a with
      | Probe.Incr c ->
          charge st st.config.cost_model.Cost_model.c_counter;
          counter_incr st c
      | Probe.Bulk_add (c, e) ->
          charge st
            (st.config.cost_model.Cost_model.c_counter
            + Cost_model.expr_cost st.config.cost_model e);
          counter_add st c (Value.to_int (eval st frame e)))
    acts

(* ---- bytecode backend ---- *)

let find_bproc st name =
  match Hashtbl.find_opt st.bprocs name with
  | Some bp -> bp
  | None -> Value.err "uncompiled procedure %s" name

(* the bytecode driver, for [Compiled] and [Bytecode] alike: invocation
   count, depth guard, parameter binding, frame execution, result read *)
let call_proc_bytecode st (callee : Program.proc) (args : binding list) :
    Value.t option =
  let bp = find_bproc st callee.Program.name in
  bp.Bytecode.invocations <- bp.Bytecode.invocations + 1;
  let a = st.acct in
  a.Bytecode.depth <- a.Bytecode.depth + 1;
  if a.Bytecode.depth > a.Bytecode.max_depth then
    raise (Call_depth_exceeded a.Bytecode.depth);
  let lay = bp.Bytecode.layout in
  let venv = Env.make_frame lay in
  (try
     let n_params = lay.Env.n_params in
     let rec bind i = function
       | [] -> if i <> n_params then raise (Invalid_argument "arity")
       | b :: rest ->
           if i >= n_params then raise (Invalid_argument "arity");
           let b =
             match (b, lay.Env.param_tys.(i)) with
             | Cell c, Some ty when c.ty <> ty -> Cell { v = Value.coerce ty c.v; ty }
             | _ -> b
           in
           venv.(i) <- b;
           bind (i + 1) rest
     in
     bind 0 args
   with Invalid_argument _ ->
     Value.err "arity mismatch calling %s" callee.Program.name);
  (try Bytecode.exec st.acct bp venv
   with e ->
     st.acct.Bytecode.depth <- st.acct.Bytecode.depth - 1;
     raise e);
  st.acct.Bytecode.depth <- st.acct.Bytecode.depth - 1;
  match lay.Env.result_slot with
  | Some s -> (
      match venv.(s) with
      | Cell c -> Some c.v
      | Elem (a, off) -> Some (Env.get a off)
      | Arr _ -> Value.err "array %s used as a scalar" lay.Env.names.(s)
      | Poison m -> Value.err "%s" m)
  | None -> None

(* ---- construction ---- *)

let driver = function
  | Tree -> call_proc
  | Compiled | Bytecode -> call_proc_bytecode

let create ?(config = default_config) (prog : Program.t) : t =
  let rng = Prng.create ~seed:config.seed in
  let out = Buffer.create 256 in
  let rt = Compile.make_rt ~rng ~out in
  let cprocs = Hashtbl.create 8 in
  let bprocs = Hashtbl.create 8 in
  (match config.backend with
  | Tree ->
      List.iter
        (fun p -> Hashtbl.replace cprocs p.Program.name (compile_proc config p))
        (Program.procs prog)
  | Compiled | Bytecode ->
      (* [Compiled] is the same bytecode with every node a FALLBACK *)
      let all_fallback = config.backend = Compiled in
      List.iter
        (fun p ->
          Hashtbl.replace bprocs p.Program.name
            (Emit.emit_proc ~cost_model:config.cost_model ~instr:config.instr
               ~all_fallback rt prog p))
        (Program.procs prog));
  let acct =
    Bytecode.make_acct ~max_steps:config.max_steps ~max_cycles:config.max_cycles
      ~max_call_depth:config.max_call_depth
      ~sample_interval:config.sample_interval
      ~c_counter:config.cost_model.Cost_model.c_counter
      ~n_counters:config.instr.Probe.n_counters
  in
  let st = { config; prog; cprocs; bprocs; acct; rng; out } in
  let call = driver config.backend in
  rt.Compile.call <- (fun callee args -> call st callee args);
  st

(* ---- entry points and results ---- *)

type outcome = Normal_stop | Fell_off_end

let run (st : t) : outcome =
  let main = Program.main_proc st.prog in
  match driver st.config.backend st main [] with
  | exception Stopped -> Normal_stop
  | _ -> Fell_off_end

let cycles st = st.acct.Bytecode.cycles
let steps st = st.acct.Bytecode.steps
let output st = Buffer.contents st.out
let counters st = Array.copy st.acct.Bytecode.counters

let cproc st name =
  match Hashtbl.find_opt st.cprocs name with
  | Some cp -> cp
  | None -> invalid_arg (Printf.sprintf "Interp.cproc: unknown procedure %s" name)

let bproc st name =
  match Hashtbl.find_opt st.bprocs name with
  | Some bp -> bp
  | None -> invalid_arg (Printf.sprintf "Interp.bproc: unknown procedure %s" name)

let invocations st name =
  match st.config.backend with
  | Tree -> (cproc st name).invocations
  | Compiled | Bytecode -> (bproc st name).Bytecode.invocations

(* oracle: executions of a node *)
let node_execs st name node =
  match st.config.backend with
  | Tree -> (cproc st name).code.(node).execs
  | Compiled | Bytecode -> (bproc st name).Bytecode.execs.(node)

(* oracle: traversals of the CFG edge (node, label) *)
let edge_count st name node label =
  let sum labels count =
    let total = ref 0 in
    Array.iteri
      (fun k l -> if Label.equal l label then total := !total + count k)
      labels;
    !total
  in
  match st.config.backend with
  | Tree ->
      let cn = (cproc st name).code.(node) in
      sum cn.succ_labels (Array.get cn.edge_counts)
  | Compiled | Bytecode ->
      let bp = bproc st name in
      let base = bp.Bytecode.edge_base.(node) in
      sum bp.Bytecode.succ_labels.(node) (fun k ->
          bp.Bytecode.edge_counts.(base + k))

(* PC-sampling hits of a node *)
let node_samples st name node =
  match st.config.backend with
  | Tree -> (cproc st name).code.(node).samples
  | Compiled | Bytecode -> (bproc st name).Bytecode.samples.(node)

(* FALLBACK escapes executed across all bytecode procs (perf telemetry;
   0 under Tree, which has no bytecode, and every step under Compiled) *)
let fallback_execs st =
  Hashtbl.fold
    (fun _ (bp : Bytecode.proc) acc -> acc + bp.Bytecode.fb_execs)
    st.bprocs 0

(* ---- guarded execution: structured results ---- *)

let counter_overflowed st = st.acct.Bytecode.overflowed

module Diag = S89_diag.Diag

let diagnostics st =
  List.map
    (fun c ->
      Diag.warningf ~code:"RUN005"
        ~hint:"the reconstruction laws assume exact sums; rerun with fewer \
               iterations or split the profile across runs"
        "counter %d saturated at max_int" c)
    st.acct.Bytecode.overflowed

let run_result (st : t) : (outcome, Diag.t) result =
  match run st with
  | o -> Ok o
  | exception Value.Runtime_error msg -> Error (Diag.error ~code:"RUN001" msg)
  | exception Out_of_fuel ->
      Error
        (Diag.errorf ~code:"RUN002"
           ~hint:"raise [max_steps] if the program is expected to run this long"
           "out of fuel after %d statements" st.acct.Bytecode.steps)
  | exception Out_of_cycles ->
      Error
        (Diag.errorf ~code:"RUN003"
           ~hint:"raise [max_cycles] if the program is expected to run this long"
           "cycle budget exhausted after %d cycles" st.acct.Bytecode.cycles)
  | exception Call_depth_exceeded d ->
      Error
        (Diag.errorf ~code:"RUN004"
           ~hint:"raise [max_call_depth] for deeply recursive programs"
           "call depth exceeded %d" d)
  | exception S89_util.Fault.Injected msg ->
      Error (Diag.error ~code:"FLT001" ~hint:"injected by S89_FAULTS" msg)
