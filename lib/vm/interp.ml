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

   Two drivers share all of the bookkeeping, and both run over slot
   frames ({!Env}) with the one reference evaluator ({!Eval}):
   - bytecode: each procedure is emitted once to flat register bytecode
     run by one dispatch loop (see Emit and Bytecode).  Emitted code is
     immutable, so a cache ([create ?cache]) may share it across VMs and
     program versions; each VM binds it to its own run state
     ([Bytecode.instantiate]).  Under [Bytecode]
     (the default) a node the emitter cannot type statically escapes
     through FALLBACK to the reference evaluator; under [Compiled] every
     node is a FALLBACK;
   - [Tree]: a plain loop that runs every node through the reference
     evaluator, kept as the semantic reference for differential testing
     (its label dispatch, accounting, probes and oracle counts are its
     own, so the bytecode driver is checked against an independent
     walker). *)

module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Prng = S89_util.Prng
open S89_cfg

(* The step and cycle guards are defined in Bytecode — the lowest layer
   that raises them — and re-exported here under their historical names;
   only procedure calls, made here, check the depth guard. *)
exception Out_of_fuel = Bytecode.Out_of_fuel
exception Out_of_cycles = Bytecode.Out_of_cycles
exception Call_depth_exceeded of int

(* ---- Tree procedures: per-node cost, dispatch tables, probes ---- *)

type cnode = {
  ir : Ir.node;
  cost : int;
  succ_labels : Label.t array;
  succ_dst : int array; (* destination pc, parallel to succ_labels *)
  dispatch : Eval.dispatch;
  edge_counts : int array; (* oracle: traversals, parallel to succ_labels *)
  mutable execs : int; (* oracle: node executions *)
  node_probes : Probe.action list;
  edge_probes : Probe.action list array; (* parallel to succ_labels *)
  mutable samples : int; (* PC-sampling hits *)
}

type cproc = {
  lay : Env.layout;
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
  cprocs : (string, cproc) Hashtbl.t; (* Tree backend *)
  bprocs : (string, Bytecode.proc) Hashtbl.t; (* Compiled/Bytecode backends *)
  acct : Bytecode.acct;
      (* cycles, steps, call depth, sampling clock and instrumentation
         counters, shared by all backends *)
  rt : Eval.rt;
  mutable main_frame : (Env.layout * Env.slots) option; (* once bound *)
}

(* checked counter arithmetic: saturate at max_int with a diagnostic,
   never wrap around (the reconstruction laws assume exact sums) *)
let counter_incr st c = Bytecode.counter_incr st.acct c
let counter_add st c v = Bytecode.counter_add st.acct c v

let compile_proc config (lay : Env.layout) : cproc =
  let cfg = lay.Env.lproc.Program.cfg in
  let n = Cfg.num_nodes cfg in
  let pi = Probe.find_proc config.instr lay.Env.lproc.Program.name in
  let g = Cfg.graph cfg in
  let code =
    Array.init n (fun i ->
        let info = Cfg.info cfg i in
        let off = g.succ_off.(i) and deg = S89_graph.Digraph.out_degree g i in
        let succ_labels = Array.sub g.succ_lbl off deg in
        let succ_dst = Array.sub g.succ_dst off deg in
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
          dispatch = Eval.dispatch succ_labels;
          edge_counts = Array.make (Array.length succ_labels) 0;
          execs = 0;
          node_probes;
          edge_probes;
          samples = 0;
        })
  in
  { lay; code; centry = Cfg.entry cfg; invocations = 0 }

(* ---- shared bookkeeping ---- *)

let charge st c =
  let a = st.acct in
  a.Bytecode.cycles <- a.Bytecode.cycles + c

(* one activation, for either driver: depth guard, frame binding, [run],
   result read *)
let invoke st (lay : Env.layout) run args : Value.t option =
  let a = st.acct in
  a.Bytecode.depth <- a.Bytecode.depth + 1;
  if a.Bytecode.depth > a.Bytecode.max_depth then
    raise (Call_depth_exceeded a.Bytecode.depth);
  let venv = Env.bind_frame lay args in
  if a.Bytecode.depth = 1 then st.main_frame <- Some (lay, venv);
  (try run venv
   with e ->
     a.Bytecode.depth <- a.Bytecode.depth - 1;
     raise e);
  a.Bytecode.depth <- a.Bytecode.depth - 1;
  match lay.Env.result_slot with
  | Some s -> Some (Env.read lay.Env.names s venv)
  | None -> None

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

(* ---- the Tree driver (the semantic reference) ---- *)

let fire_actions st (cp : cproc) venv (acts : Probe.action list) =
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
          counter_add st c (Value.to_int (Eval.eval st.rt cp.lay venv e)))
    acts

let run_frame st (cp : cproc) venv =
  let rec go pc =
    let n = cp.code.(pc) in
    account st n;
    fire_actions st cp venv n.node_probes;
    match Eval.step st.rt cp.lay venv n.ir with
    | None -> ()
    | Some l ->
        let k = Eval.successor n.dispatch l ~node:pc cp.lay in
        n.edge_counts.(k) <- n.edge_counts.(k) + 1;
        (match n.edge_probes.(k) with
        | [] -> ()
        | acts -> fire_actions st cp venv acts);
        go n.succ_dst.(k)
  in
  go cp.centry

let call_tree st (callee : Program.proc) args =
  match Hashtbl.find_opt st.cprocs callee.Program.name with
  | Some cp ->
      cp.invocations <- cp.invocations + 1;
      invoke st cp.lay (run_frame st cp) args
  | None -> Value.err "uncompiled procedure %s" callee.Program.name

(* ---- the bytecode driver, for [Compiled] and [Bytecode] alike ---- *)

let call_bytecode st (callee : Program.proc) args =
  match Hashtbl.find_opt st.bprocs callee.Program.name with
  | Some bp ->
      bp.Bytecode.invocations <- bp.Bytecode.invocations + 1;
      invoke st bp.Bytecode.layout (Bytecode.exec st.acct bp) args
  | None -> Value.err "uncompiled procedure %s" callee.Program.name

(* ---- construction ---- *)

let driver = function
  | Tree -> call_tree
  | Compiled | Bytecode -> call_bytecode

(* A store for what [create] builds per procedure that outlives one VM:
   [cache ~salt p compute] returns a value equal to [compute ()], keyed
   by [p]'s body and [salt], which carries every other input. *)
type 'a cache_layer = salt:string -> Program.proc -> (unit -> 'a) -> 'a
type cache = { layouts : Env.layout cache_layer; codes : Bytecode.code cache_layer }

let through cache layer ~salt p compute =
  match cache with
  | None -> compute ()
  | Some c -> (layer c) ~salt:(salt ()) p compute

(* What a layout reads beyond the body: a FUNCTION's result variable is
   named after the FUNCTION, and body fingerprints ignore names. *)
let layout_salt (p : Program.proc) () =
  match p.Program.env.S89_frontend.Sema.result_var with
  | Some rv -> "layout " ^ rv
  | None -> "layout"

(* What [Emit.emit_proc] reads beyond the layout: the cost model, the
   lowering mode, the dummies' call-site types and the procedure's probe
   actions (counter ids included).  Emit also asks which names the
   program's user procedures take, but only of the names a body calls,
   and sema has resolved each of those to a user procedure or an
   intrinsic, never both: a rename or an added procedure re-emits only
   the bodies it edits.  All are data, so their marshaled bytes stand
   for them. *)
let code_salt config ~all_fallback =
  let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ])) in
  let common = lazy (Printf.sprintf "%s %b" (digest config.cost_model) all_fallback) in
  fun (p : Program.proc) (dummies : S89_frontend.Ast.typ option array) () ->
    String.concat " "
      [ Lazy.force common; layout_salt p (); digest dummies;
        digest (Probe.find_proc config.instr p.Program.name) ]

let create ?cache ?(config = default_config) (prog : Program.t) : t =
  let rt =
    Eval.make_rt ~prog ~rng:(Prng.create ~seed:config.seed) ~out:(Buffer.create 256)
  in
  let lays = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let lay =
        through cache (fun c -> c.layouts) ~salt:(layout_salt p) p (fun () -> Env.layout p)
      in
      (* a cached layout may come from an earlier program version *)
      Hashtbl.replace lays p.Program.name
        (if lay.Env.lproc == p then lay else { lay with Env.lproc = p }))
    (Program.procs prog);
  let cprocs = Hashtbl.create 8 in
  let bprocs = Hashtbl.create 8 in
  (match config.backend with
  | Tree -> Hashtbl.iter (fun name lay -> Hashtbl.replace cprocs name (compile_proc config lay)) lays
  | Compiled | Bytecode ->
      (* [Compiled] is the same bytecode with every node a FALLBACK *)
      let all_fallback = config.backend = Compiled in
      let dummies = Emit.dummy_types prog lays in
      let salt = code_salt config ~all_fallback in
      Hashtbl.iter
        (fun name (lay : Env.layout) ->
          let p = lay.Env.lproc and dummies = Hashtbl.find dummies name in
          let code =
            through cache (fun c -> c.codes) ~salt:(salt p dummies) p (fun () ->
                Emit.emit_proc ~cost_model:config.cost_model ~instr:config.instr
                  ~all_fallback ~dummies prog lay)
          in
          Hashtbl.replace bprocs name (Bytecode.instantiate code lay rt))
        lays);
  let acct =
    Bytecode.make_acct ~max_steps:config.max_steps ~max_cycles:config.max_cycles
      ~max_call_depth:config.max_call_depth
      ~sample_interval:config.sample_interval
      ~c_counter:config.cost_model.Cost_model.c_counter
      ~n_counters:config.instr.Probe.n_counters
  in
  let st = { config; cprocs; bprocs; acct; rt; main_frame = None } in
  let call = driver config.backend in
  rt.Eval.call <- (fun callee args -> call st callee args);
  st

(* ---- entry points and results ---- *)

type outcome = Normal_stop | Fell_off_end

let run (st : t) : outcome =
  let main = Program.main_proc st.rt.Eval.prog in
  match driver st.config.backend st main [] with
  | exception Eval.Stopped -> Normal_stop
  | _ -> Fell_off_end

let cycles st = st.acct.Bytecode.cycles
let steps st = st.acct.Bytecode.steps
let output st = Buffer.contents st.rt.Eval.out

let main_arrays st =
  match st.main_frame with
  | None -> []
  | Some (lay, venv) ->
      List.filter_map
        (fun s ->
          match venv.(s) with
          | Env.Arr arr -> Some (lay.Env.names.(s), Array.init (Env.size arr) (Env.get arr))
          | _ -> None)
        (List.init (Array.length venv) Fun.id)

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
      let base = bp.Bytecode.c.Bytecode.edge_base.(node) in
      sum bp.Bytecode.c.Bytecode.succ_labels.(node) (fun k ->
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
