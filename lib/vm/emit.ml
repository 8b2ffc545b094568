(* CFG -> register bytecode translation.

   One pass over the procedure's CFG emits a contiguous [int array] of
   {!Bytecode} instructions.  The translation is conservative: a node is
   lowered to native register ops only when every fact it depends on is
   static (slot types, array dimensions, successor edges); anything else
   becomes a [FALLBACK] op wrapping the closure from
   {!Compile.compile_node}, which is semantically exact by construction.
   The static-typing judgments are shared with compile.ml
   ([Compile.static_num] and friends) so both backends specialize — and
   therefore agree — on exactly the same expressions.

   Scalar promotion: every non-dummy slot of static INTEGER/REAL type
   that is never passed by reference to a user procedure lives in an
   unboxed int/float register for the whole activation.  Registers are
   synced with the frame cells at entry, at RET, and around each
   fallback (only the slots the fallback's node actually mentions), so
   closures and FUNCTION-result reads always see current values, while
   by-reference aliasing is impossible for promoted slots by
   construction.

   Parity fine print encoded here:
   - conditionals/selects never bump edge counts themselves; every
     traversal runs the successor's EDGE/EDGEP op, so fused jumps cannot
     double-count and probed edges fire after the bump (compiled order);
   - evaluation order inside expressions is left-to-right as in
     compile.ml; hoisting the array lookup of a statically-dimensioned
     array past index evaluation is unobservable (the binding is always
     [Arr], so the lookup cannot raise);
   - float const-op fusions keep the constant on the side it appears on
     (FADDK/FMULK only fold a right-hand constant; FRSUBK handles
     [k - x]) so NaN propagation is bit-identical to the generic path;
   - no emit-time constant folding: [1/0] must raise each time it
     executes, exactly like the closure backend. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Sema = S89_frontend.Sema
module Program = S89_frontend.Program
module B = Bytecode
open S89_cfg

(* raised (emit-time only) when a node has no native lowering *)
exception Unsupported

let find_idx (succ : Label.t array) l =
  let n = Array.length succ in
  let rec go i =
    if i = n then -1 else if Label.equal succ.(i) l then i else go (i + 1)
  in
  go 0

(* scalar variable names an expression can read (array names excluded:
   arrays are never promoted) *)
let rec names_of acc (e : Ast.expr) =
  match e with
  | Ast.Int _ | Ast.Real _ | Ast.Bool _ -> acc
  | Ast.Var v -> v :: acc
  | Ast.Index (_, idx) -> List.fold_left names_of acc idx
  | Ast.Call (_, args) -> List.fold_left names_of acc args
  | Ast.Unop (_, e1) -> names_of acc e1
  | Ast.Binop (_, a, b) -> names_of (names_of acc a) b

(* scalars a node's generic execution can read or write *)
let node_names (ir : Ir.node) =
  let extra =
    match ir with
    | Ir.Assign (Ast.Lvar v, _) -> [ v ]
    | Ir.Do_test d -> [ d.Ir.trip_var ]
    | _ -> []
  in
  List.fold_left names_of extra (Ir.exprs_of ir)

let jop_ii = function
  | Ast.Lt -> B.op_jlt_ii
  | Ast.Le -> B.op_jle_ii
  | Ast.Gt -> B.op_jgt_ii
  | Ast.Ge -> B.op_jge_ii
  | Ast.Eq -> B.op_jeq_ii
  | Ast.Ne -> B.op_jne_ii
  | _ -> raise Unsupported

let jop_ik = function
  | Ast.Lt -> B.op_jlt_ik
  | Ast.Le -> B.op_jle_ik
  | Ast.Gt -> B.op_jgt_ik
  | Ast.Ge -> B.op_jge_ik
  | Ast.Eq -> B.op_jeq_ik
  | Ast.Ne -> B.op_jne_ik
  | _ -> raise Unsupported

let jop_ff = function
  | Ast.Lt -> B.op_jlt_ff
  | Ast.Le -> B.op_jle_ff
  | Ast.Gt -> B.op_jgt_ff
  | Ast.Ge -> B.op_jge_ff
  | Ast.Eq -> B.op_jeq_ff
  | Ast.Ne -> B.op_jne_ff
  | _ -> raise Unsupported

let jop_fk = function
  | Ast.Lt -> B.op_jlt_fk
  | Ast.Le -> B.op_jle_fk
  | Ast.Gt -> B.op_jgt_fk
  | Ast.Ge -> B.op_jge_fk
  | Ast.Eq -> B.op_jeq_fk
  | Ast.Ne -> B.op_jne_fk
  | _ -> raise Unsupported

(* [k rel x] rewritten as [x rel' k]; sound for both int comparison and
   Float.compare, which are total orders *)
let flip_rel = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op (* Eq/Ne symmetric *)

(* ---- emission plan (profile-guided) ----

   The plan steers code generation without changing semantics:
   - [native_intrinsics]: lower statically-typed intrinsic calls (SQRT,
     EXP, RAND, INT, ...) to dedicated opcodes instead of escaping the
     whole node to FALLBACK;
   - [inline_sites]: CALL statement nodes (per procedure) where a hot
     leaf callee should be spliced into the caller's frame — attempted,
     with full rollback to FALLBACK when any legality condition fails;
   - [layout]: per-procedure node emission order (hot-first), legal for
     any permutation because every control transfer carries an explicit
     destination pc;
   - [inline_budget]: maximum callee CFG size considered for splicing.

   All observable accounting (cycles, steps, oracle counts, probes, PRNG
   stream, error points) is preserved exactly under any plan; the
   differential suites enforce this. *)
type plan = {
  native_intrinsics : bool;
  inline_sites : (string, int list) Hashtbl.t;
  layout : (string, int array) Hashtbl.t;
  inline_budget : int;
}

let default_plan =
  {
    native_intrinsics = true;
    inline_sites = Hashtbl.create 1;
    layout = Hashtbl.create 1;
    inline_budget = 16;
  }

(* intrinsic calls escape to FALLBACK too: the baseline against which
   EXPERIMENTS.md X6 counts what intrinsic lowering and inlining save *)
let conservative_plan = { default_plan with native_intrinsics = false }

let emit_proc ~(cost_model : Cost_model.t) ~(instr : Probe.t)
    ?(plan = default_plan) (rt : Compile.rt) (prog : Program.t)
    (p : Program.proc) : B.proc =
  let cfg = p.Program.cfg in
  let n = Cfg.num_nodes cfg in
  let pi = Probe.find_proc instr p.Program.name in
  let lay = Env.layout p in
  let nslots = Env.n_slots lay in
  let inline_sites =
    match Hashtbl.find_opt plan.inline_sites p.Program.name with
    | Some l -> l
    | None -> []
  in

  (* ---- promotion analysis ---- *)
  let by_ref = Array.make nslots false in
  let mark_by_ref = function
    | Ast.Var v -> by_ref.(Env.slot lay v) <- true
    | _ -> ()
  in
  (* bare-variable arguments of user-procedure calls are bound by
     reference (compile_arg / arg_binding): the callee can mutate them
     behind the frame's back, so those slots must stay in their cells *)
  let rec scan_refs (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ | Ast.Var _ -> ()
    | Ast.Index (_, idx) -> List.iter scan_refs idx
    | Ast.Call (f, args) ->
        if Hashtbl.mem prog.Program.by_name f then List.iter mark_by_ref args;
        List.iter scan_refs args
    | Ast.Unop (_, e1) -> scan_refs e1
    | Ast.Binop (_, a, b) ->
        scan_refs a;
        scan_refs b
  in
  let scan_action = function
    | Probe.Incr _ -> ()
    | Probe.Bulk_add (_, e) -> scan_refs e
  in
  for i = 0 to n - 1 do
    let ir = (Cfg.info cfg i).Ir.ir in
    (match ir with
    | Ir.Call (f, args) when Hashtbl.mem prog.Program.by_name f ->
        (* at a planned inline site the bare-variable args bind to the
           caller's own registers (exact by-reference aliasing), so they
           may stay promoted; if the splice is rejected the node falls
           back and fb_sync covers those names anyway *)
        if not (List.mem i inline_sites) then List.iter mark_by_ref args
    | _ -> ());
    List.iter scan_refs (Ir.exprs_of ir)
  done;
  (match pi with
  | Some pi ->
      Array.iter (List.iter scan_action) pi.Probe.on_node;
      Array.iter
        (List.iter (fun (_, acts) -> List.iter scan_action acts))
        pi.Probe.on_edge
  | None -> ());

  let slot_ireg = Array.make nslots (-1) in
  let slot_freg = Array.make nslots (-1) in
  let n_pro_i = ref 0 and n_pro_f = ref 0 in
  for s = lay.Env.n_params to nslots - 1 do
    if not by_ref.(s) then
      match Compile.static_scalar_ty lay s with
      | Some Ast.Tint ->
          slot_ireg.(s) <- !n_pro_i;
          incr n_pro_i
      | Some Ast.Treal ->
          slot_freg.(s) <- !n_pro_f;
          incr n_pro_f
      | _ -> ()
  done;
  let sync_of_slots slots =
    let si = ref [] and sf = ref [] in
    List.iter
      (fun s ->
        if slot_ireg.(s) >= 0 then si := (s, slot_ireg.(s)) :: !si
        else if slot_freg.(s) >= 0 then sf := (s, slot_freg.(s)) :: !sf)
      slots;
    {
      B.si_slot = Array.of_list (List.map fst !si);
      si_reg = Array.of_list (List.map snd !si);
      sf_slot = Array.of_list (List.map fst !sf);
      sf_reg = Array.of_list (List.map snd !sf);
    }
  in
  let all_promoted =
    sync_of_slots (List.init nslots (fun s -> s))
  in
  let sync_of_names names =
    sync_of_slots
      (List.sort_uniq compare (List.map (Env.slot lay) names))
  in

  (* temp registers: above the promoted ones, reset per node, watermarked *)
  let ti_base = !n_pro_i and tf_base = !n_pro_f in
  let ti = ref ti_base and tf = ref tf_base in
  let max_ti = ref ti_base and max_tf = ref tf_base in
  let reset_temps () =
    ti := ti_base;
    tf := tf_base
  in
  let itemp () =
    let r = !ti in
    incr ti;
    if !ti > !max_ti then max_ti := !ti;
    r
  in
  let ftemp () =
    let r = !tf in
    incr tf;
    if !tf > !max_tf then max_tf := !tf;
    r
  in

  (* ---- code buffer ---- *)
  let buf = ref (Array.make 1024 0) in
  let len = ref 0 in
  let emit k =
    if !len = Array.length !buf then begin
      let nb = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 nb 0 !len;
      buf := nb
    end;
    !buf.(!len) <- k;
    incr len
  in
  let pos () = !len in
  let patch i v = !buf.(i) <- v in
  let node_start = Array.make n (-1) in
  (* forward references to node starts: (operand position, node id) *)
  let fixups = ref [] in
  let emit_node_ref nid =
    emit 0;
    fixups := (pos () - 1, nid) :: !fixups
  in

  (* ---- float constant pool (deduplicated by bit pattern) ---- *)
  let fpool = ref [] and n_fpool = ref 0 in
  let fpool_tbl : (int64, int) Hashtbl.t = Hashtbl.create 16 in
  let fconst (x : float) =
    let bits = Int64.bits_of_float x in
    match Hashtbl.find_opt fpool_tbl bits with
    | Some k -> k
    | None ->
        let k = !n_fpool in
        incr n_fpool;
        fpool := x :: !fpool;
        Hashtbl.add fpool_tbl bits k;
        k
  in

  (* ---- shared tables ---- *)
  let bulks = ref [] and n_bulks = ref 0 in
  let add_bulk c e =
    let bi = !n_bulks in
    incr n_bulks;
    bulks :=
      {
        B.bk_counter = c;
        bk_charge =
          cost_model.Cost_model.c_counter + Cost_model.expr_cost cost_model e;
        bk_expr = Compile.compile_expr rt prog lay e;
        bk_sync = sync_of_names (names_of [] e);
      }
      :: !bulks;
    bi
  in
  let groups = ref [] and n_groups = ref 0 in
  let add_group acts =
    let gid = !n_groups in
    incr n_groups;
    groups :=
      Array.of_list
        (List.map
           (function
             | Probe.Incr c -> B.PIncr c
             | Probe.Bulk_add (c, e) -> B.PBulk (add_bulk c e))
           acts)
      :: !groups;
    gid
  in
  let fallbacks = ref [] and n_fallbacks = ref 0 in

  (* ---- edge bookkeeping: flat (node, successor index) -> counter ---- *)
  let succ_labels = Array.make n [||] in
  let succ_dst = Array.make n [||] in
  for i = 0 to n - 1 do
    let edges = Cfg.succ_edges cfg i in
    succ_labels.(i) <-
      Array.of_list
        (List.map (fun (e : Label.t S89_graph.Digraph.edge) -> e.label) edges);
    succ_dst.(i) <-
      Array.of_list
        (List.map (fun (e : Label.t S89_graph.Digraph.edge) -> e.dst) edges)
  done;
  let edge_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    edge_base.(i + 1) <- edge_base.(i) + Array.length succ_labels.(i)
  done;
  let node_cost =
    Array.init n (fun i -> Cost_model.node_cost cost_model (Cfg.info cfg i).Ir.ir)
  in

  (* inlined-callee regions extend the exec/sample and edge-count arrays
     past the caller's own nodes/edges; the tops track the next free
     index and size the arrays at the end *)
  let exec_top = ref n in
  let edge_top = ref edge_base.(n) in
  let regions = ref [] and n_regions = ref 0 in

  (* ---- expression context ----

     The emitters below resolve variables through these three functions
     so the same code serves the caller's frame (promoted slots, cell
     loads allowed) and an inlined callee body (virtual registers only).
     [cx_slots] gates every frame-cell/array access: inside a splice the
     callee has no frame, so anything unpromotable bails out. *)
  let caller_ty v =
    match Compile.static_scalar_ty lay (Env.slot lay v) with
    | Some (Ast.Tint | Ast.Treal) as t -> t
    | _ -> None
  in
  let caller_ireg v = slot_ireg.(Env.slot lay v) in
  let caller_freg v = slot_freg.(Env.slot lay v) in
  let cx_ty = ref caller_ty in
  let cx_ireg = ref caller_ireg in
  let cx_freg = ref caller_freg in
  let cx_slots = ref true in
  let reset_cx () =
    cx_ty := caller_ty;
    cx_ireg := caller_ireg;
    cx_freg := caller_freg;
    cx_slots := true
  in

  (* Static numeric typing: mirrors [Compile.static_num] case for case
     (same judgments => both backends specialize the same expressions),
     extended — when the plan enables it — with intrinsic calls whose
     native lowering below is exact.  A user procedure shadowing an
     intrinsic name keeps the dynamic path. *)
  let is_native_intrinsic f =
    plan.native_intrinsics && not (Hashtbl.mem prog.Program.by_name f)
  in
  let rec xstatic_num (e : Ast.expr) : Ast.typ option =
    match e with
    | Ast.Int _ -> Some Ast.Tint
    | Ast.Real _ -> Some Ast.Treal
    | Ast.Var v -> !cx_ty v
    | Ast.Index (name, _) ->
        if !cx_slots then
          match Compile.static_elt_ty lay (Env.slot lay name) with
          | Some (Ast.Tint | Ast.Treal) as t -> t
          | _ -> None
        else None
    | Ast.Unop (Ast.Neg, e1) -> xstatic_num e1
    | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
        match (xstatic_num a, xstatic_num b) with
        | Some Ast.Tint, Some Ast.Tint -> Some Ast.Tint
        | Some (Ast.Tint | Ast.Treal), Some (Ast.Tint | Ast.Treal) ->
            Some Ast.Treal
        | _ -> None)
    | Ast.Call (f, args) when is_native_intrinsic f -> (
        let num1 t =
          match args with
          | [ a ] -> ( match xstatic_num a with Some _ -> Some t | None -> None)
          | _ -> None
        in
        match f with
        | "SQRT" | "EXP" | "LOG" | "ALOG" | "SIN" | "COS" | "TAN" | "ATAN"
        | "REAL" | "FLOAT" ->
            num1 Ast.Treal
        | "INT" | "IFIX" | "IABS" | "IRAND" -> num1 Ast.Tint
        | "ABS" -> ( match args with [ a ] -> xstatic_num a | _ -> None)
        | "MOD" -> (
            match args with
            | [ a; b ]
              when xstatic_num a = Some Ast.Tint && xstatic_num b = Some Ast.Tint
              ->
                Some Ast.Tint
            | _ -> None)
        | "RAND" -> ( match args with [] -> Some Ast.Treal | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let xstatic_int e = xstatic_num e = Some Ast.Tint in

  (* array subscript: split off a constant displacement (A(I+1),
     A(I-2)) so it folds into the access opcode's ka/kb immediate.
     Int adds are exact, so evaluating [reg + k] at the access is
     observationally identical to materializing the sum in a temp; the
     static-int guard keeps non-integer subscripts on the fallback
     path, where a REAL subscript truncates after the addition. *)
  let index_parts (e : Ast.expr) : Ast.expr * int =
    match e with
    | Ast.Binop (Ast.Add, e1, Ast.Int k) when xstatic_int e1 -> (e1, k)
    | Ast.Binop (Ast.Add, Ast.Int k, e1) when xstatic_int e1 -> (e1, k)
    | Ast.Binop (Ast.Sub, e1, Ast.Int k) when xstatic_int e1 -> (e1, -k)
    | _ -> (e, 0)
  in

  (* expression emitters, mirroring compile_int/compile_float/
     compile_num case for case.  Results go to [dst] when given (safe:
     every op reads its sources before writing its destination), else
     to a fresh temp — or, for a promoted variable leaf, its own
     register. *)
  let rec emit_int ?dst (e : Ast.expr) : int =
    let into k =
      match dst with
      | Some d ->
          k d;
          d
      | None ->
          let d = itemp () in
          k d;
          d
    in
    match e with
    | Ast.Int i ->
        into (fun d ->
            emit B.op_ldki;
            emit d;
            emit i)
    | Ast.Real r ->
        let i = int_of_float r in
        into (fun d ->
            emit B.op_ldki;
            emit d;
            emit i)
    | Ast.Var v -> (
        let ri = !cx_ireg v in
        if ri >= 0 then
          match dst with
          | None -> ri
          | Some d ->
              if d <> ri then begin
                emit B.op_movi;
                emit d;
                emit ri
              end;
              d
        else
          let rf = !cx_freg v in
          if rf >= 0 then
            into (fun d ->
                emit B.op_ftoi;
                emit d;
                emit rf)
          else if !cx_slots then
            into (fun d ->
                emit B.op_ldci;
                emit d;
                emit (Env.slot lay v))
          else raise Unsupported)
    | Ast.Index (name, idx) -> (
        if not !cx_slots then raise Unsupported;
        let s = Env.slot lay name in
        match (Compile.static_dims lay s, idx) with
        | Some [ d0 ], [ e0 ] ->
            let e0, k0 = index_parts e0 in
            let r0 = emit_int e0 in
            into (fun d ->
                emit B.op_lda1i;
                emit d;
                emit s;
                emit d0;
                emit r0;
                emit k0)
        | Some [ d0; d1 ], [ e0; e1 ] ->
            let e0, k0 = index_parts e0 in
            let e1, k1 = index_parts e1 in
            let r0 = emit_int e0 in
            let r1 = emit_int e1 in
            into (fun d ->
                emit B.op_lda2i;
                emit d;
                emit s;
                emit d0;
                emit d1;
                emit r0;
                emit r1;
                emit k0;
                emit k1)
        | _ -> raise Unsupported)
    | Ast.Unop (Ast.Neg, e1) when xstatic_int e1 ->
        let r = emit_int e1 in
        into (fun d ->
            emit B.op_ineg;
            emit d;
            emit r)
    | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b)
      when xstatic_int a && xstatic_int b -> (
        match (op, a, b) with
        (* constant-fused forms; int ops are exact, so commuting a
           constant to the immediate slot is observationally identical *)
        | Ast.Add, _, Ast.Int k ->
            let r = emit_int a in
            into (fun d ->
                emit B.op_iaddk;
                emit d;
                emit r;
                emit k)
        | Ast.Add, Ast.Int k, _ ->
            let r = emit_int b in
            into (fun d ->
                emit B.op_iaddk;
                emit d;
                emit r;
                emit k)
        | Ast.Sub, _, Ast.Int k ->
            let r = emit_int a in
            into (fun d ->
                emit B.op_iaddk;
                emit d;
                emit r;
                emit (-k))
        | Ast.Sub, Ast.Int k, _ ->
            let r = emit_int b in
            into (fun d ->
                emit B.op_irsubk;
                emit d;
                emit r;
                emit k)
        | Ast.Mul, _, Ast.Int k ->
            let r = emit_int a in
            into (fun d ->
                emit B.op_imulk;
                emit d;
                emit r;
                emit k)
        | Ast.Mul, Ast.Int k, _ ->
            let r = emit_int b in
            into (fun d ->
                emit B.op_imulk;
                emit d;
                emit r;
                emit k)
        | _ ->
            let ra = emit_int a in
            let rb = emit_int b in
            let opc =
              match op with
              | Ast.Add -> B.op_iadd
              | Ast.Sub -> B.op_isub
              | Ast.Mul -> B.op_imul
              | _ -> B.op_idiv
            in
            into (fun d ->
                emit opc;
                emit d;
                emit ra;
                emit rb))
    | Ast.Call (f, args) when is_native_intrinsic f -> (
        (* exact counterparts of the Builtins closures: same coercions,
           same error points/messages, same PRNG draws *)
        match (f, args) with
        | ("INT" | "IFIX"), [ a ] -> (
            match xstatic_num a with
            | Some Ast.Tint -> emit_int ?dst a (* to_int on Int = identity *)
            | Some Ast.Treal ->
                let r = emit_float a in
                into (fun d ->
                    emit B.op_ftoi;
                    emit d;
                    emit r)
            | _ -> raise Unsupported)
        | "IABS", [ a ] ->
            let r = emit_as_int a in
            into (fun d ->
                emit B.op_iabs;
                emit d;
                emit r)
        | "ABS", [ a ] when xstatic_num a = Some Ast.Tint ->
            let r = emit_int a in
            into (fun d ->
                emit B.op_iabs;
                emit d;
                emit r)
        | "IRAND", [ a ] ->
            let r = emit_as_int a in
            into (fun d ->
                emit B.op_irand;
                emit d;
                emit r)
        | "MOD", [ a; b ]
          when xstatic_num a = Some Ast.Tint && xstatic_num b = Some Ast.Tint
          ->
            let ra = emit_int a in
            let rb = emit_int b in
            into (fun d ->
                emit B.op_imod;
                emit d;
                emit ra;
                emit rb)
        | _ -> raise Unsupported)
    | _ -> raise Unsupported
  and emit_float ?dst (e : Ast.expr) : int =
    let into k =
      match dst with
      | Some d ->
          k d;
          d
      | None ->
          let d = ftemp () in
          k d;
          d
    in
    let lit = function
      | Ast.Real r -> Some r
      | Ast.Int i -> Some (float_of_int i)
      | _ -> None
    in
    match e with
    | Ast.Real r ->
        let k = fconst r in
        into (fun d ->
            emit B.op_ldkf;
            emit d;
            emit k)
    | Ast.Var v -> (
        let rf = !cx_freg v in
        if rf >= 0 then
          match dst with
          | None -> rf
          | Some d ->
              if d <> rf then begin
                emit B.op_movf;
                emit d;
                emit rf
              end;
              d
        else
          let ri = !cx_ireg v in
          if ri >= 0 then
            into (fun d ->
                emit B.op_itof;
                emit d;
                emit ri)
          else if !cx_slots then
            into (fun d ->
                emit B.op_ldcf;
                emit d;
                emit (Env.slot lay v))
          else raise Unsupported)
    | Ast.Index (name, idx) -> (
        if not !cx_slots then raise Unsupported;
        let s = Env.slot lay name in
        match (Compile.static_dims lay s, idx) with
        | Some [ d0 ], [ e0 ] ->
            let e0, k0 = index_parts e0 in
            let r0 = emit_int e0 in
            into (fun d ->
                emit B.op_lda1f;
                emit d;
                emit s;
                emit d0;
                emit r0;
                emit k0)
        | Some [ d0; d1 ], [ e0; e1 ] ->
            let e0, k0 = index_parts e0 in
            let e1, k1 = index_parts e1 in
            let r0 = emit_int e0 in
            let r1 = emit_int e1 in
            into (fun d ->
                emit B.op_lda2f;
                emit d;
                emit s;
                emit d0;
                emit d1;
                emit r0;
                emit r1;
                emit k0;
                emit k1)
        | _ -> raise Unsupported)
    | Ast.Unop (Ast.Neg, e1) ->
        let r = emit_num e1 in
        into (fun d ->
            emit B.op_fneg;
            emit d;
            emit r)
    | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) -> (
        match (op, lit a, lit b) with
        (* right-hand constants fuse; a left-hand constant only fuses
           for Sub (FRSUBK) — Add/Mul would swap NaN operand order *)
        | Ast.Add, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            into (fun d ->
                emit B.op_faddk;
                emit d;
                emit r;
                emit kk)
        | Ast.Sub, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            into (fun d ->
                emit B.op_fsubk;
                emit d;
                emit r;
                emit kk)
        | Ast.Mul, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            into (fun d ->
                emit B.op_fmulk;
                emit d;
                emit r;
                emit kk)
        | Ast.Sub, Some k, _ ->
            let r = emit_num b in
            let kk = fconst k in
            into (fun d ->
                emit B.op_frsubk;
                emit d;
                emit r;
                emit kk)
        | _ ->
            let ra = emit_num a in
            let rb = emit_num b in
            let opc =
              match op with
              | Ast.Add -> B.op_fadd
              | Ast.Sub -> B.op_fsub
              | Ast.Mul -> B.op_fmul
              | _ -> B.op_fdiv
            in
            into (fun d ->
                emit opc;
                emit d;
                emit ra;
                emit rb))
    | Ast.Call (f, args) when is_native_intrinsic f -> (
        (* unary real intrinsics take to_float of their argument, which
           is exactly emit_num's promotion *)
        let un opc a =
          let r = emit_num a in
          into (fun d ->
              emit opc;
              emit d;
              emit r)
        in
        match (f, args) with
        | "SQRT", [ a ] -> un B.op_fsqrt a
        | "EXP", [ a ] -> un B.op_fexp a
        | ("LOG" | "ALOG"), [ a ] -> un B.op_flog a
        | "SIN", [ a ] -> un B.op_fsin a
        | "COS", [ a ] -> un B.op_fcos a
        | "TAN", [ a ] -> un B.op_ftan a
        | "ATAN", [ a ] -> un B.op_fatan a
        | "ABS", [ a ] when xstatic_num a = Some Ast.Treal ->
            let r = emit_float a in
            into (fun d ->
                emit B.op_fabs;
                emit d;
                emit r)
        | ("REAL" | "FLOAT"), [ a ] -> (
            match xstatic_num a with
            | Some Ast.Treal -> emit_float ?dst a (* to_float on Real = id *)
            | Some Ast.Tint ->
                let r = emit_int a in
                into (fun d ->
                    emit B.op_itof;
                    emit d;
                    emit r)
            | _ -> raise Unsupported)
        | "RAND", [] -> into (fun d -> emit B.op_rand; emit d)
        | _ -> raise Unsupported)
    | _ -> raise Unsupported
  and emit_num ?dst (e : Ast.expr) : int =
    match xstatic_num e with
    | Some Ast.Treal -> emit_float ?dst e
    | Some Ast.Tint -> (
        let r = emit_int e in
        match dst with
        | Some d ->
            emit B.op_itof;
            emit d;
            emit r;
            d
        | None ->
            let d = ftemp () in
            emit B.op_itof;
            emit d;
            emit r;
            d)
    | _ -> raise Unsupported
  and emit_as_int (e : Ast.expr) : int =
    (* Value.to_int of a statically-typed operand *)
    match xstatic_num e with
    | Some Ast.Tint -> emit_int e
    | Some Ast.Treal ->
        let r = emit_float e in
        let t = itemp () in
        emit B.op_ftoi;
        emit t;
        emit r;
        t
    | _ -> raise Unsupported
  in
  (* fused compare-and-branch; returns the (pcT, pcF) operand positions
     to patch once the edge sequences exist *)
  let rec emit_cond_jump ~neg (e : Ast.expr) : int * int =
    match e with
    | Ast.Unop (Ast.Not, e1) -> emit_cond_jump ~neg:(not neg) e1
    | Ast.Binop
        (((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne) as op), a, b)
      -> (
        let finish () =
          let pt = pos () in
          emit 0;
          let pf = pos () in
          emit 0;
          if neg then (pf, pt) else (pt, pf)
        in
        match (xstatic_num a, xstatic_num b) with
        | Some Ast.Tint, Some Ast.Tint -> (
            match (a, b) with
            | _, Ast.Int k ->
                let ra = emit_int a in
                emit (jop_ik op);
                emit ra;
                emit k;
                finish ()
            | Ast.Int k, _ ->
                let rb = emit_int b in
                emit (jop_ik (flip_rel op));
                emit rb;
                emit k;
                finish ()
            | _ ->
                let ra = emit_int a in
                let rb = emit_int b in
                emit (jop_ii op);
                emit ra;
                emit rb;
                finish ())
        | Some _, Some _ -> (
            let lit = function
              | Ast.Real r -> Some r
              | Ast.Int i -> Some (float_of_int i)
              | _ -> None
            in
            match (lit a, lit b) with
            | _, Some k ->
                let ra = emit_num a in
                emit (jop_fk op);
                emit ra;
                emit (fconst k);
                finish ()
            | Some k, _ ->
                let rb = emit_num b in
                emit (jop_fk (flip_rel op));
                emit rb;
                emit (fconst k);
                finish ()
            | _ ->
                let ra = emit_num a in
                let rb = emit_num b in
                emit (jop_ff op);
                emit ra;
                emit rb;
                finish ())
        | _ -> raise Unsupported)
    | _ -> raise Unsupported
  in

  (* ---- hot leaf-call inlining ----

     Splices a straight-line leaf callee (Entry -> scalar assigns ->
     Return, no branches/arrays/calls/PRINT, <= inline_budget nodes)
     into the caller's frame.  All accounting is preserved exactly:
     the callee's nodes and flat edges get a fresh block of the host's
     exec/sample/edge-count arrays (a [region] records the bases and
     the per-site invocation count, bumped by IENTER together with the
     call-depth guard), every transition charges the same node costs
     through EDGEA/EDGEPA, and Incr probes fire in compiled order.
     Argument binding reproduces [Compile.eval_bindings]: a bare
     promoted variable of the declared type aliases the caller's own
     register (true by-reference semantics, including CALL FOO(M,M));
     a promoted variable of the other numeric type, or any statically
     typed expression, is copied into a fresh register with the exact
     [Value.coerce] conversion; anything else rejects the splice. *)
  let emit_inline f (args : Ast.expr list) =
    let callee =
      match Hashtbl.find_opt prog.Program.by_name f with
      | Some c -> c
      | None -> raise Unsupported
    in
    let ccfg = callee.Program.cfg in
    let cn = Cfg.num_nodes ccfg in
    if cn > plan.inline_budget then raise Unsupported;
    let clay = Env.layout callee in
    let cnp = clay.Env.n_params in
    if List.length args <> cnp then raise Unsupported;
    let cnslots = Env.n_slots clay in
    (* the callee must be a straight-line leaf chain ending in RETURN *)
    let chain = ref [] and steps = ref 0 in
    let rec walk u =
      incr steps;
      if !steps > cn then raise Unsupported;
      chain := u :: !chain;
      match (Cfg.info ccfg u).Ir.ir with
      | Ir.Return -> (
          match Cfg.succ_edges ccfg u with
          | [] -> ()
          | _ -> raise Unsupported)
      | Ir.Entry | Ir.Nop _ | Ir.Assign (Ast.Lvar _, _) -> (
          match Cfg.succ_edges ccfg u with
          | [ (e : Label.t S89_graph.Digraph.edge) ]
            when Label.equal e.label Label.U ->
              walk e.dst
          | _ -> raise Unsupported)
      | _ -> raise Unsupported
    in
    walk (Cfg.entry ccfg);
    let chain = List.rev !chain in
    let cpi = Probe.find_proc instr callee.Program.name in
    let cnode_probes u =
      match cpi with Some q -> q.Probe.on_node.(u) | None -> []
    in
    let cedge_probes u =
      match cpi with
      | Some q -> (
          match
            List.find_opt
              (fun (l, _) -> Label.equal l Label.U)
              q.Probe.on_edge.(u)
          with
          | Some (_, acts) -> acts
          | None -> [])
      | None -> []
    in
    (* flat edge indexing identical to the callee's standalone emission,
       so the interpreter can sum host and standalone counters *)
    let cedge_base = Array.make (cn + 1) 0 in
    for u = 0 to cn - 1 do
      cedge_base.(u + 1) <- cedge_base.(u) + List.length (Cfg.succ_edges ccfg u)
    done;
    let ccost u = Cost_model.node_cost cost_model (Cfg.info ccfg u).Ir.ir in
    let ri = !n_regions in
    incr n_regions;
    let rg =
      {
        B.rg_callee = callee.Program.name;
        rg_node_base = !exec_top;
        rg_edge_base = !edge_top;
        rg_invocations = 0;
      }
    in
    regions := rg :: !regions;
    exec_top := !exec_top + cn;
    edge_top := !edge_top + cedge_base.(cn);
    (* virtual callee registers, indexed by callee slot *)
    let creg_i = Array.make (max cnslots 1) (-1) in
    let creg_f = Array.make (max cnslots 1) (-1) in
    (* bind arguments left-to-right in the caller context (argument
       evaluation precedes the invocation count / depth guard, exactly
       like eval_bindings before enter_call) *)
    List.iteri
      (fun j arg ->
        let ty =
          match clay.Env.param_tys.(j) with
          | Some ((Ast.Tint | Ast.Treal) as t) -> t
          | _ -> raise Unsupported
        in
        match arg with
        | Ast.Var v -> (
            let ri0 = !cx_ireg v and rf0 = !cx_freg v in
            match ty with
            | Ast.Tint ->
                if ri0 >= 0 then creg_i.(j) <- ri0 (* by-ref alias *)
                else if rf0 >= 0 then begin
                  let t = itemp () in
                  emit B.op_ftoi;
                  emit t;
                  emit rf0;
                  creg_i.(j) <- t
                end
                else raise Unsupported
            | Ast.Treal ->
                if rf0 >= 0 then creg_f.(j) <- rf0 (* by-ref alias *)
                else if ri0 >= 0 then begin
                  let t = ftemp () in
                  emit B.op_itof;
                  emit t;
                  emit ri0;
                  creg_f.(j) <- t
                end
                else raise Unsupported
            | _ -> raise Unsupported)
        | Ast.Index _ ->
            (* array-element by-reference binding: not modeled *)
            raise Unsupported
        | e -> (
            match (ty, xstatic_num e) with
            | Ast.Tint, Some Ast.Tint ->
                let t = itemp () in
                ignore (emit_int ~dst:t e);
                creg_i.(j) <- t
            | Ast.Tint, Some Ast.Treal ->
                let r = emit_float e in
                let t = itemp () in
                emit B.op_ftoi;
                emit t;
                emit r;
                creg_i.(j) <- t
            | Ast.Treal, Some _ ->
                let t = ftemp () in
                ignore (emit_num ~dst:t e);
                creg_f.(j) <- t
            | _ -> raise Unsupported))
      args;
    (* count the invocation and check the call-depth guard *)
    emit B.op_ienter;
    emit ri;
    (* fresh locals per invocation, exactly as make_frame initializes
       them: scalars to zero, literal PARAMETERs to their value *)
    for s = cnp to cnslots - 1 do
      match Compile.static_scalar_ty clay s with
      | Some Ast.Tint ->
          let t = itemp () in
          creg_i.(s) <- t;
          let k =
            match clay.Env.kinds.(s) with
            | Sema.Const (Ast.Int k) -> k
            | _ -> 0
          in
          emit B.op_ldki;
          emit t;
          emit k
      | Some Ast.Treal ->
          let t = ftemp () in
          creg_f.(s) <- t;
          let r =
            match clay.Env.kinds.(s) with
            | Sema.Const (Ast.Real r) -> r
            | _ -> 0.0
          in
          emit B.op_ldkf;
          emit t;
          emit (fconst r)
      | _ -> () (* arrays/LOGICALs: any use below rejects the splice *)
    done;
    (* switch the expression context to the callee's virtual frame *)
    cx_ty :=
      (fun v ->
        let s = Env.slot clay v in
        if s < cnp then
          match clay.Env.param_tys.(s) with
          | Some ((Ast.Tint | Ast.Treal) as t) -> Some t
          | _ -> None
        else
          match Compile.static_scalar_ty clay s with
          | Some ((Ast.Tint | Ast.Treal) as t) -> Some t
          | _ -> None);
    cx_ireg := (fun v -> creg_i.(Env.slot clay v));
    cx_freg := (fun v -> creg_f.(Env.slot clay v));
    cx_slots := false;
    (* callee entry accounting, like the standalone proc prologue *)
    let centry = List.hd chain in
    emit B.op_acct;
    emit (rg.B.rg_node_base + centry);
    emit (ccost centry);
    List.iter
      (fun u ->
        let ir = (Cfg.info ccfg u).Ir.ir in
        (* node probes fire right after the node's accounting *)
        List.iter
          (function
            | Probe.Incr c ->
                emit B.op_probe;
                emit c
            | Probe.Bulk_add _ -> raise Unsupported)
          (cnode_probes u);
        (match ir with
        | Ir.Entry | Ir.Nop _ -> ()
        | Ir.Assign (Ast.Lvar v, e) -> (
            let s = Env.slot clay v in
            match (!cx_ty v, xstatic_num e) with
            | Some Ast.Tint, Some Ast.Tint ->
                ignore (emit_int ~dst:creg_i.(s) e)
            | Some Ast.Tint, Some Ast.Treal ->
                let r = emit_float e in
                emit B.op_ftoi;
                emit creg_i.(s);
                emit r
            | Some Ast.Treal, Some _ -> ignore (emit_num ~dst:creg_f.(s) e)
            | _ -> raise Unsupported)
        | Ir.Return -> emit B.op_iexit
        | _ -> raise Unsupported);
        match ir with
        | Ir.Return -> () (* falls through to the caller's edge sequence *)
        | _ -> (
            match Cfg.succ_edges ccfg u with
            | [ (e : Label.t S89_graph.Digraph.edge) ] -> (
                let d = e.dst in
                match cedge_probes u with
                | [] ->
                    emit B.op_edgea;
                    emit (rg.B.rg_edge_base + cedge_base.(u));
                    emit (rg.B.rg_node_base + d);
                    emit (ccost d);
                    emit (pos () + 1) (* next chain node follows *)
                | acts ->
                    List.iter
                      (function
                        | Probe.Incr _ -> ()
                        | Probe.Bulk_add _ -> raise Unsupported)
                      acts;
                    let gid = add_group acts in
                    emit B.op_edgepa;
                    emit (rg.B.rg_edge_base + cedge_base.(u));
                    emit gid;
                    emit (rg.B.rg_node_base + d);
                    emit (ccost d);
                    emit (pos () + 1))
            | _ -> raise Unsupported))
      chain;
    reset_cx ()
  in

  (* Node accounting is fused into the incoming edge (EDGEA/EDGEPA), so
     [node_start] points at a node's probes+body and only the procedure
     entry — which no edge reaches — needs a standalone ACCT prologue. *)
  let entry = Cfg.entry cfg in
  let entry_pc = pos () in
  emit B.op_acct;
  emit entry;
  emit node_cost.(entry);
  emit B.op_jmp;
  emit_node_ref entry;

  (* ---- per-node emission ----

     [order] is the emission (memory-layout) order; any permutation is
     legal because every control transfer goes through an explicit
     destination operand, so only instruction-cache locality changes.
     A malformed plan entry silently degrades to the natural order. *)
  let order =
    match Hashtbl.find_opt plan.layout p.Program.name with
    | Some o when Array.length o = n ->
        let seen = Array.make n false in
        let ok = ref true in
        Array.iter
          (fun i ->
            if i < 0 || i >= n || seen.(i) then ok := false
            else seen.(i) <- true)
          o;
        if !ok then o else Array.init n (fun i -> i)
    | _ -> Array.init n (fun i -> i)
  in
  for oi = 0 to n - 1 do
    let i = order.(oi) in
    node_start.(i) <- pos ();
    reset_temps ();
    let ir = (Cfg.info cfg i).Ir.ir in
    let succ = succ_labels.(i) in
    let nsucc = Array.length succ in
    let node_probes =
      match pi with Some pi -> pi.Probe.on_node.(i) | None -> []
    in
    let edge_probe_assoc =
      match pi with Some pi -> pi.Probe.on_edge.(i) | None -> []
    in
    let edge_probes k =
      match
        List.find_opt
          (fun (lbl, _) -> Label.equal lbl succ.(k))
          edge_probe_assoc
      with
      | Some (_, acts) -> acts
      | None -> []
    in
    (* node probes run right after the node's (edge-fused) accounting *)
    List.iter
      (function
        | Probe.Incr c ->
            emit B.op_probe;
            emit c
        | Probe.Bulk_add (c, e) ->
            emit B.op_probe_bulk;
            emit (add_bulk c e))
      node_probes;

    (* traversal of successor [k]: bump its flat counter, fire its edge
       probes, account the destination node, jump to its probes+body *)
    let emit_edge_seq k =
      let pc = pos () in
      let d = succ_dst.(i).(k) in
      (match edge_probes k with
      | [] ->
          emit B.op_edgea;
          emit (edge_base.(i) + k);
          emit d;
          emit node_cost.(d);
          emit_node_ref d
      | acts ->
          let gid = add_group acts in
          emit B.op_edgepa;
          emit (edge_base.(i) + k);
          emit gid;
          emit d;
          emit node_cost.(d);
          emit_node_ref d);
      pc
    in

    let u = find_idx succ Label.U in
    let t_idx = find_idx succ Label.T in
    let f_idx = find_idx succ Label.F in
    let require b = if not b then raise Unsupported in

    let emit_native () =
      match ir with
      | Ir.Entry | Ir.Nop _ ->
          require (u >= 0);
          ignore (emit_edge_seq u)
      | Ir.Assign (Ast.Lvar v, e) ->
          require (u >= 0);
          let s = Env.slot lay v in
          (match (Compile.static_scalar_ty lay s, xstatic_num e) with
          | Some Ast.Tint, Some Ast.Tint ->
              if slot_ireg.(s) >= 0 then ignore (emit_int ~dst:slot_ireg.(s) e)
              else begin
                let r = emit_int e in
                emit B.op_stci;
                emit s;
                emit r
              end
          | Some Ast.Tint, Some Ast.Treal ->
              (* coerce Tint (Real r) = Int (int_of_float r) *)
              let f = emit_float e in
              if slot_ireg.(s) >= 0 then begin
                emit B.op_ftoi;
                emit slot_ireg.(s);
                emit f
              end
              else begin
                let t = itemp () in
                emit B.op_ftoi;
                emit t;
                emit f;
                emit B.op_stci;
                emit s;
                emit t
              end
          | Some Ast.Treal, Some _ ->
              if slot_freg.(s) >= 0 then ignore (emit_num ~dst:slot_freg.(s) e)
              else begin
                let r = emit_num e in
                emit B.op_stcf;
                emit s;
                emit r
              end
          | _ -> raise Unsupported);
          ignore (emit_edge_seq u)
      | Ir.Assign (Ast.Larr (name, idx), e) ->
          require (u >= 0);
          let s = Env.slot lay name in
          (* indices (and their bounds checks) evaluate before the RHS,
             exactly like compile_element's wrapping of the store *)
          let off =
            match (Compile.static_dims lay s, idx) with
            | Some [ d0 ], [ e0 ] ->
                let e0, k0 = index_parts e0 in
                let r0 = emit_int e0 in
                let t = itemp () in
                emit B.op_aoff1;
                emit t;
                emit s;
                emit d0;
                emit r0;
                emit k0;
                t
            | Some [ d0; d1 ], [ e0; e1 ] ->
                let e0, k0 = index_parts e0 in
                let e1, k1 = index_parts e1 in
                let r0 = emit_int e0 in
                let r1 = emit_int e1 in
                let t = itemp () in
                emit B.op_aoff2;
                emit t;
                emit s;
                emit d0;
                emit d1;
                emit r0;
                emit r1;
                emit k0;
                emit k1;
                t
            | _ -> raise Unsupported
          in
          (match (Compile.static_elt_ty lay s, xstatic_num e) with
          | Some Ast.Tint, Some Ast.Tint ->
              let r = emit_int e in
              emit B.op_stai;
              emit s;
              emit off;
              emit r
          | Some Ast.Tint, Some Ast.Treal ->
              let f = emit_float e in
              let t = itemp () in
              emit B.op_ftoi;
              emit t;
              emit f;
              emit B.op_stai;
              emit s;
              emit off;
              emit t
          | Some Ast.Treal, Some _ ->
              let r = emit_num e in
              emit B.op_staf;
              emit s;
              emit off;
              emit r
          | _ -> raise Unsupported);
          ignore (emit_edge_seq u)
      | Ir.Branch e ->
          require (t_idx >= 0 && f_idx >= 0);
          let pt, pf = emit_cond_jump ~neg:false e in
          let pcT = emit_edge_seq t_idx in
          let pcF = emit_edge_seq f_idx in
          patch pt pcT;
          patch pf pcF
      | Ir.Do_test d ->
          require (t_idx >= 0 && f_idx >= 0);
          let s = Env.slot lay d.Ir.trip_var in
          let pt, pf =
            if slot_freg.(s) >= 0 then begin
              (* to_int of a REAL trip counter is int_of_float *)
              emit B.op_jtrip;
              emit slot_freg.(s);
              let pt = pos () in
              emit 0;
              let pf = pos () in
              emit 0;
              (pt, pf)
            end
            else begin
              let r =
                if slot_ireg.(s) >= 0 then slot_ireg.(s)
                else begin
                  let t = itemp () in
                  emit B.op_ldci;
                  emit t;
                  emit s;
                  t
                end
              in
              emit B.op_jgt_ik;
              emit r;
              emit 0;
              let pt = pos () in
              emit 0;
              let pf = pos () in
              emit 0;
              (pt, pf)
            end
          in
          let pcT = emit_edge_seq t_idx in
          let pcF = emit_edge_seq f_idx in
          patch pt pcT;
          patch pf pcF
      | Ir.Select (e, narms) ->
          let case_tbl =
            Array.init narms (fun k -> find_idx succ (Label.Case (k + 1)))
          in
          require (f_idx >= 0 && Array.for_all (fun k -> k >= 0) case_tbl);
          let r = emit_int e in
          emit B.op_select;
          emit r;
          emit narms;
          let tbl_pos = pos () in
          for _ = 0 to narms do
            emit 0
          done;
          let seq_pc = Hashtbl.create 8 in
          let get_seq k =
            match Hashtbl.find_opt seq_pc k with
            | Some pc -> pc
            | None ->
                let pc = emit_edge_seq k in
                Hashtbl.add seq_pc k pc;
                pc
          in
          Array.iteri (fun j k -> patch (tbl_pos + j) (get_seq k)) case_tbl;
          patch (tbl_pos + narms) (get_seq f_idx)
      | Ir.Return -> emit B.op_ret
      | Ir.Stop -> emit B.op_stop
      | Ir.Call (f, args) when List.mem i inline_sites ->
          require (u >= 0);
          emit_inline f args;
          ignore (emit_edge_seq u)
      | Ir.Call _ | Ir.Print _ -> raise Unsupported
    in

    let emit_fallback () =
      let fb =
        {
          B.fb_step =
            Compile.compile_node rt prog lay ~node_id:i ~succ ir;
          fb_sync = sync_of_names (node_names ir);
          fb_edges = Array.make (max nsucc 1) (-1);
        }
      in
      let fi = !n_fallbacks in
      incr n_fallbacks;
      fallbacks := fb :: !fallbacks;
      emit B.op_fallback;
      emit fi;
      for k = 0 to nsucc - 1 do
        fb.B.fb_edges.(k) <- emit_edge_seq k
      done
    in

    let mark = pos () and saved_fixups = !fixups in
    let saved_exec = !exec_top and saved_edge = !edge_top in
    let saved_regions = !regions and saved_nregions = !n_regions in
    try emit_native ()
    with Unsupported ->
      (* roll back everything a partial lowering (or aborted inline
         splice) may have touched, then take the exact fallback path *)
      len := mark;
      fixups := saved_fixups;
      exec_top := saved_exec;
      edge_top := saved_edge;
      regions := saved_regions;
      n_regions := saved_nregions;
      reset_cx ();
      reset_temps ();
      emit_fallback ()
  done;

  List.iter (fun (p, nid) -> patch p node_start.(nid)) !fixups;

  {
    B.bp_proc = p;
    layout = lay;
    code = Array.sub !buf 0 !len;
    fpool = Array.of_list (List.rev !fpool);
    entry_pc;
    n_iregs = !max_ti;
    n_fregs = !max_tf;
    all_promoted;
    names = lay.Env.names;
    rng = rt.Compile.rng;
    fallbacks = Array.of_list (List.rev !fallbacks);
    bulks = Array.of_list (List.rev !bulks);
    groups = Array.of_list (List.rev !groups);
    regions = Array.of_list (List.rev !regions);
    execs = Array.make (max !exec_top 1) 0;
    samples = Array.make (max !exec_top 1) 0;
    edge_counts = Array.make (max !edge_top 1) 0;
    edge_base;
    succ_labels;
    invocations = 0;
    fb_execs = 0;
  }
