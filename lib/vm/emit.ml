(* CFG -> register bytecode translation.

   One pass over the procedure's CFG emits a contiguous [int array] of
   {!Bytecode} instructions.  The translation is conservative: a node is
   lowered to native register ops only when every fact it depends on is
   static (slot types, array dimensions, successor edges); anything else
   becomes a [FALLBACK] op that runs the node through {!Eval}, the
   reference evaluator, which is exact by construction.  This module
   alone decides what is statically typed ([xstatic_num] and the slot
   facts below, including the call-site typing of dummy arguments);
   Eval never specializes, so there is one judgment to keep sound.

   Scalar promotion: every non-dummy slot of static INTEGER/REAL type
   that is never passed by reference to a user procedure lives in an
   unboxed int/float register for the whole activation.  Registers are
   synced with the frame cells at entry, at RET, and around each
   fallback (only the slots the fallback's node actually mentions), so
   the reference evaluator and FUNCTION-result reads always see current
   values, while by-reference aliasing is impossible for promoted slots
   by construction.  Typed dummies are never promoted: a callee may
   alias them, so they load and store through their binding.

   [~all_fallback] is the [Compiled] backend's lowering mode: no slot is
   promoted and every node becomes a FALLBACK, so the dispatch loop runs
   each node through the reference evaluator.  Accounting and probes are
   emitted exactly as in the default mode.

   A DO loop's latch, [I = I + k] followed by its trip decrement and
   header, becomes one LATCH when no probe sits on those nodes and
   edges ([latch_of]), and a LATCHT when the header's T edge and the
   body's first node are probe-free too; the decrement and header nodes
   keep their own code, whose branch targets LATCH reads.  Four more
   pairs fuse by patching the first instruction's opcode once the
   second is emitted after it: an array store followed by its node's
   EDGEA (STAIE/STAFE), an LDA2F whose temp the next FADD/FSUB/FMUL
   reads as its right operand (A2FADD/A2FSUB/A2FMUL), a store's AOFF2
   followed by the LDA2F of the same element (AOFF2L), and a
   FADD/FSUB/FMUL whose temp the next STAFE stores (FADDST/FSUBST/
   FMULST).  A fused edge is always a probe-free one: only those are a
   single EDGEA.

   A DO loop's trip count [%TRIPk = MAX0((hi - I + step) / step, 0)]
   is emitted natively only when its step is a non-zero literal;
   otherwise it is a FALLBACK, so that Eval names a zero step.

   Parity fine print encoded here:
   - conditionals/selects never bump edge counts themselves; every
     traversal runs the successor's edge sequence, so fused jumps cannot
     double-count and probed edges fire after the bump (Tree's order);
   - evaluation order inside expressions is left-to-right as in the
     generic evaluator; hoisting the array lookup of a
     statically-dimensioned array past index evaluation is unobservable
     (the binding is always [Arr], so the lookup cannot raise);
   - float const-op fusions keep the constant on the side it appears on
     (FADDK/FMULK only fold a right-hand constant; FRSUBK handles
     [k - x]) so NaN propagation is bit-identical to the generic path;
   - no emit-time constant folding: [1/0] must raise each time it
     executes, exactly like the generic evaluator. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Sema = S89_frontend.Sema
module B = Bytecode
open S89_cfg

(* ---- static slot facts ----

   A local slot's value type is static when every store coerces to its
   declared type.  A dummy argument's binding comes from its callers, so
   its type is the call-site judgement below ([dummies], one entry per
   dummy, [None] = generic). *)

(* declared dimensions of a non-dummy array slot, when none is -1
   (assumed-size) *)
let static_dims (lay : Env.layout) s =
  if s < lay.Env.n_params then None
  else
    match lay.Env.kinds.(s) with
    | Sema.Array (_, dims) when not (List.mem (-1) dims) -> Some dims
    | _ -> None

(* value type of a scalar or PARAMETER slot *)
let static_scalar_ty (lay : Env.layout) (dummies : Ast.typ option array) s =
  if s < lay.Env.n_params then dummies.(s)
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

(* element type of a non-dummy array slot *)
let static_elt_ty (lay : Env.layout) s =
  if s < lay.Env.n_params then None
  else
    match lay.Env.kinds.(s) with
    | Sema.Array (Ast.Tint, _) -> Some Ast.Tint
    | Sema.Array (Ast.Treal, _) -> Some Ast.Treal
    | Sema.Array (Ast.Tlogical, _) -> Some Ast.Tlogical
    | _ -> None

(* ---- call-site typing of scalar dummies ----

   The program is closed, so every binding a dummy can receive comes
   from a call site we can see.  A scalar dummy is typed T when every
   binding it can receive holds a T:
   - a cell (a caller's local, or a copy-in value) is coerced to the
     dummy's declared or implicit type on binding ([Env.bind_frame]);
   - an array element keeps its array's element type, never coerced;
   - a forwarded dummy carries its own judgement, which types the callee's
     dummy only where the two types agree.
   No call site, an arity mismatch or a whole array leaves the dummy
   generic.  Sites are collected once; only forwarded dummies iterate,
   each rising at most twice in the lattice. *)

type judgement = Bot | Ty of Ast.typ | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Ty s, Ty t when s = t -> a
  | _ -> Top

let dummy_types (prog : Program.t) (lays : (string, Env.layout) Hashtbl.t) :
    (string, Ast.typ option array) Hashtbl.t =
  let user f = Hashtbl.mem prog.Program.by_name f in
  let j = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name (lay : Env.layout) ->
      Hashtbl.replace j name
        (Array.init lay.Env.n_params (fun i ->
             match lay.Env.kinds.(i) with Sema.Scalar _ -> Bot | _ -> Top)))
    lays;
  let work = Queue.create () in
  let contribute callee i t =
    let a = Hashtbl.find j callee in
    let t' = join a.(i) t in
    if t' <> a.(i) then begin
      a.(i) <- t';
      Queue.add (callee, i) work
    end
  in
  (* forwarding edges, keyed by the caller's dummy *)
  let fwd = Hashtbl.create 16 in
  let site caller (cl : Env.layout) callee args =
    let (l : Env.layout) = Hashtbl.find lays callee in
    if List.length args <> l.Env.n_params then
      for i = 0 to l.Env.n_params - 1 do
        contribute callee i Top
      done
    else
      List.iteri
        (fun i (a : Ast.expr) ->
          let cell = match l.Env.param_tys.(i) with Some d -> Ty d | None -> Top in
          match a with
          | Ast.Var v -> (
              let s = Env.slot cl v in
              if s < cl.Env.n_params then Hashtbl.add fwd (caller, s) (callee, i)
              else
                match cl.Env.kinds.(s) with
                | Sema.Scalar _ | Sema.Const (Ast.Int _ | Ast.Real _ | Ast.Bool _) ->
                    contribute callee i cell
                | _ -> contribute callee i Top)
          | Ast.Index (name, _) -> (
              let s = Env.slot cl name in
              match (static_dims cl s, static_elt_ty cl s) with
              | Some _, Some elt -> contribute callee i (Ty elt)
              | _ -> contribute callee i Top)
          | _ -> contribute callee i cell)
        args
  in
  Hashtbl.iter
    (fun caller (cl : Env.layout) ->
      List.iter (fun (f, args) -> if user f then site caller cl f args) cl.Env.calls)
    lays;
  Hashtbl.iter (fun name a -> Array.iteri (fun i _ -> Queue.add (name, i) work) a) j;
  while not (Queue.is_empty work) do
    let caller, s = Queue.pop work in
    let t = (Hashtbl.find j caller).(s) in
    List.iter
      (fun (callee, i) ->
        let (l : Env.layout) = Hashtbl.find lays callee in
        contribute callee i
          (match (t, l.Env.param_tys.(i)) with
          | Bot, _ -> Bot
          | Ty t', Some d when t' = d -> t
          | _ -> Top))
      (Hashtbl.find_all fwd (caller, s))
  done;
  let typed = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name a ->
      Hashtbl.replace typed name (Array.map (function Ty t -> Some t | Bot | Top -> None) a))
    j;
  typed

(* raised (emit-time only) when a node has no native lowering *)
exception Unsupported

let find_idx (succ : Label.t array) l =
  let n = Array.length succ in
  let rec go i =
    if i = n then -1 else if Label.equal succ.(i) l then i else go (i + 1)
  in
  go 0

let require b = if not b then raise Unsupported

(* the probe actions of the first edge labelled [l] ([] if none) *)
let rec edge_acts l = function
  | [] -> []
  | (lbl, acts) :: rest -> if Label.equal lbl l then acts else edge_acts l rest

(* [labels.(k)] and [dsts.(base + k)] from a successor edge list *)
(* The emission buffer, shared by all [emit_proc] calls.  A call takes it
   (leaving [[||]]) and puts back the possibly grown buffer, so a
   concurrent call on another domain or thread starts its own. *)
let code_buffer : int array Atomic.t = Atomic.make [||]

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

let emit_proc ~(cost_model : Cost_model.t) ~(instr : Probe.t)
    ~(all_fallback : bool) ~(dummies : Ast.typ option array) (prog : Program.t)
    (lay : Env.layout) : B.code =
  let p = lay.Env.lproc in
  let cfg = p.Program.cfg in
  let n = Cfg.num_nodes cfg in
  let pi = Probe.find_proc instr p.Program.name in
  let nslots = Env.n_slots lay in

  (* ---- promotion analysis ---- *)
  let by_ref = Array.make nslots false in
  let mark_by_ref = function
    | Ast.Var v -> by_ref.(Env.slot lay v) <- true
    | _ -> ()
  in
  (* bare-variable arguments of user-procedure calls are bound by
     reference (Eval's arg_binding): the callee can mutate them
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
  for i = 0 to n - 1 do
    let ir = (Cfg.info cfg i).Ir.ir in
    (match ir with
    | Ir.Call (f, args) when Hashtbl.mem prog.Program.by_name f ->
        List.iter mark_by_ref args
    | _ -> ());
    Ir.iter_exprs scan_refs ir
  done;

  let slot_ireg = Array.make nslots (-1) in
  let slot_freg = Array.make nslots (-1) in
  let n_pro_i = ref 0 and n_pro_f = ref 0 in
  for s = lay.Env.n_params to nslots - 1 do
    if not (all_fallback || by_ref.(s)) then
      match static_scalar_ty lay dummies s with
      | Some Ast.Tint ->
          slot_ireg.(s) <- !n_pro_i;
          incr n_pro_i
      | Some Ast.Treal ->
          slot_freg.(s) <- !n_pro_f;
          incr n_pro_f
      | _ -> ()
  done;
  (* A sync covers the promoted slots among those marked since the last
     [take_sync], in descending slot order; taking it clears the marks. *)
  let marked = Array.make nslots false in
  let mark_slot s = marked.(s) <- true in
  (* scalars an expression can read (array names excluded: arrays are
     never promoted) *)
  let rec mark_expr (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ -> ()
    | Ast.Var v -> mark_slot (Env.slot lay v)
    | Ast.Index (_, idx) -> List.iter mark_expr idx
    | Ast.Call (_, args) -> List.iter mark_expr args
    | Ast.Unop (_, e1) -> mark_expr e1
    | Ast.Binop (_, a, b) ->
        mark_expr a;
        mark_expr b
  in
  (* scalars a node's generic execution can read or write *)
  let mark_node (ir : Ir.node) =
    (match ir with
    | Ir.Assign (Ast.Lvar v, _) -> mark_slot (Env.slot lay v)
    | Ir.Do_test d -> mark_slot (Env.slot lay d.Ir.trip_var)
    | _ -> ());
    Ir.iter_exprs mark_expr ir
  in
  let take_sync () =
    let ni = ref 0 and nf = ref 0 in
    for s = 0 to nslots - 1 do
      if marked.(s) then
        if slot_ireg.(s) >= 0 then incr ni else if slot_freg.(s) >= 0 then incr nf
    done;
    let sync =
      {
        B.si_slot = Array.make !ni 0;
        si_reg = Array.make !ni 0;
        sf_slot = Array.make !nf 0;
        sf_reg = Array.make !nf 0;
      }
    in
    ni := 0;
    nf := 0;
    for s = nslots - 1 downto 0 do
      if marked.(s) then begin
        marked.(s) <- false;
        if slot_ireg.(s) >= 0 then begin
          sync.B.si_slot.(!ni) <- s;
          sync.B.si_reg.(!ni) <- slot_ireg.(s);
          incr ni
        end
        else if slot_freg.(s) >= 0 then begin
          sync.B.sf_slot.(!nf) <- s;
          sync.B.sf_reg.(!nf) <- slot_freg.(s);
          incr nf
        end
      end
    done;
    sync
  in
  let all_promoted =
    Array.fill marked 0 nslots true;
    take_sync ()
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

  (* ---- edge bookkeeping: flat (node, successor index) -> counter ----

     The CFG's out-edge slots: [edge_base.(i) + k] indexes successor [k]
     of node [i] in [edge_dst] (and in the proc's edge counters) *)
  let g = Cfg.graph cfg in
  let edge_base = g.succ_off and edge_dst = g.succ_dst in
  let succ_labels =
    Array.init n (fun i -> Array.sub g.succ_lbl edge_base.(i) (edge_base.(i + 1) - edge_base.(i)))
  in
  let node_cost = Array.init n (fun i -> Cost_model.node_cost cost_model (Cfg.info cfg i).Ir.ir) in

  (* ---- code buffer ----

     Borrowed from [code_buffer] and given back at the end, when the
     proc takes an exact-length copy: emission allocates only that copy.
     Code size per node varies too much to presize without slack (about
     12 to 23 words on generated programs), and [Interp.create] is on
     every profiled run's path. *)
  let buf = ref (Atomic.exchange code_buffer [||]) in
  let len = ref 0 in
  let emit k =
    if !len = Array.length !buf then begin
      let b = Array.make (max (24 * n + 64) (2 * !len)) 0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- k;
    incr len
  in
  let pos () = !len in
  let patch i v = !buf.(i) <- v in
  let node_start = Array.make n (-1) in
  (* forward references to node starts: the operand holds the node id
     until the end, when each recorded position is patched to the node's
     start.  There is one per edge sequence, plus the entry's JMP (a
     LATCH's reference to its header stands in for its node's edge). *)
  let fixups = Array.make (edge_base.(n) + 1) 0 and n_fixups = ref 0 in
  let emit_node_ref nid =
    emit nid;
    fixups.(!n_fixups) <- pos () - 1;
    incr n_fixups
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
  let groups = ref [] and n_groups = ref 0 in
  let add_group counters =
    let gid = !n_groups in
    incr n_groups;
    groups := Array.of_list counters :: !groups;
    gid
  in
  let fallbacks = ref [] and n_fallbacks = ref 0 in

  (* Static numeric typing: the type the generic evaluation of [e] is
     guaranteed to yield (raising exactly where the native code below
     raises); None = unknown, LOGICAL, or involves user calls or untyped
     dummy arguments.  Intrinsic calls are typed when their native
     lowering is exact (sema rejects a user procedure named like an
     intrinsic, so an intrinsic's name always means the intrinsic). *)
  let rec xstatic_num (e : Ast.expr) : Ast.typ option =
    match e with
    | Ast.Int _ -> Some Ast.Tint
    | Ast.Real _ -> Some Ast.Treal
    | Ast.Var v -> (
        match static_scalar_ty lay dummies (Env.slot lay v) with
        | Some (Ast.Tint | Ast.Treal) as t -> t
        | _ -> None)
    | Ast.Index (name, _) -> (
        match static_elt_ty lay (Env.slot lay name) with
        | Some (Ast.Tint | Ast.Treal) as t -> t
        | _ -> None)
    | Ast.Unop (Ast.Neg, e1) -> xstatic_num e1
    | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) -> (
        match (xstatic_num a, xstatic_num b) with
        | Some Ast.Tint, Some Ast.Tint -> Some Ast.Tint
        | Some (Ast.Tint | Ast.Treal), Some (Ast.Tint | Ast.Treal) ->
            Some Ast.Treal
        | _ -> None)
    | Ast.Call (f, args) -> (
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
        | "MAX0" | "MIN0" -> (
            match args with
            | _ :: _ :: _
              when List.for_all (fun a -> xstatic_num a = Some Ast.Tint) args ->
                Some Ast.Tint
            | _ -> None)
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

  (* expression emitters over [xstatic_num]-typed expressions: emit_int
     for Some Tint, emit_float for Some Treal, emit_num for either (as a
     float).  Results go to [dst] when given (safe: every op reads its
     sources before writing its destination), else to a fresh temp — or,
     for a promoted variable leaf, its own register. *)
  (* where the last LDA2F, AOFF2 and two-register FADD/FSUB/FMUL of the
     current node start, or -1 *)
  let last_lda2f = ref (-1) and last_aoff2 = ref (-1) and last_falu = ref (-1) in
  let idest = function Some d -> d | None -> itemp () in
  let fdest = function Some d -> d | None -> ftemp () in
  let rec emit_int ?dst (e : Ast.expr) : int =
    match e with
    | Ast.Int i ->
        let d = idest dst in
        emit B.op_ldki;
        emit d;
        emit i;
        d
    | Ast.Real r ->
        let i = int_of_float r in
        let d = idest dst in
        emit B.op_ldki;
        emit d;
        emit i;
        d
    | Ast.Var v -> (
        let s = Env.slot lay v in
        let ri = slot_ireg.(s) in
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
          let rf = slot_freg.(s) in
          if rf >= 0 then begin
            let d = idest dst in
            emit B.op_ftoi;
            emit d;
            emit rf;
            d
          end
          else
            let d = idest dst in
            emit B.op_ldci;
            emit d;
            emit s;
            d)
    | Ast.Index (name, idx) -> (
        let s = Env.slot lay name in
        match (static_dims lay s, idx) with
        | Some [ d0 ], [ e0 ] ->
            let e0, k0 = index_parts e0 in
            let r0 = emit_int e0 in
            let d = idest dst in
            emit B.op_lda1i;
            emit d;
            emit s;
            emit d0;
            emit r0;
            emit k0;
            d
        | Some [ d0; d1 ], [ e0; e1 ] ->
            let e0, k0 = index_parts e0 in
            let e1, k1 = index_parts e1 in
            let r0 = emit_int e0 in
            let r1 = emit_int e1 in
            let d = idest dst in
            emit B.op_lda2i;
            emit d;
            emit s;
            emit d0;
            emit d1;
            emit r0;
            emit r1;
            emit k0;
            emit k1;
            d
        | _ -> raise Unsupported)
    | Ast.Unop (Ast.Neg, e1) when xstatic_int e1 ->
        let r = emit_int e1 in
        let d = idest dst in
        emit B.op_ineg;
        emit d;
        emit r;
        d
    | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b)
      when xstatic_int a && xstatic_int b -> (
        match (op, a, b) with
        (* constant-fused forms; int ops are exact, so commuting a
           constant to the immediate slot is observationally identical *)
        | Ast.Add, _, Ast.Int k ->
            let r = emit_int a in
            let d = idest dst in
            emit B.op_iaddk;
            emit d;
            emit r;
            emit k;
            d
        | Ast.Add, Ast.Int k, _ ->
            let r = emit_int b in
            let d = idest dst in
            emit B.op_iaddk;
            emit d;
            emit r;
            emit k;
            d
        | Ast.Sub, _, Ast.Int k ->
            let r = emit_int a in
            let d = idest dst in
            emit B.op_iaddk;
            emit d;
            emit r;
            emit (-k);
            d
        | Ast.Sub, Ast.Int k, _ ->
            let r = emit_int b in
            let d = idest dst in
            emit B.op_irsubk;
            emit d;
            emit r;
            emit k;
            d
        | Ast.Mul, _, Ast.Int k ->
            let r = emit_int a in
            let d = idest dst in
            emit B.op_imulk;
            emit d;
            emit r;
            emit k;
            d
        | Ast.Mul, Ast.Int k, _ ->
            let r = emit_int b in
            let d = idest dst in
            emit B.op_imulk;
            emit d;
            emit r;
            emit k;
            d
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
            let d = idest dst in
            emit opc;
            emit d;
            emit ra;
            emit rb;
            d)
    | Ast.Call (f, args) -> (
        (* exact counterparts of the Builtins closures: same coercions,
           same error points/messages, same PRNG draws *)
        match (f, args) with
        | ("INT" | "IFIX"), [ a ] -> (
            match xstatic_num a with
            | Some Ast.Tint -> emit_int ?dst a (* to_int on Int = identity *)
            | Some Ast.Treal ->
                let r = emit_float a in
                let d = idest dst in
                emit B.op_ftoi;
                emit d;
                emit r;
                d
            | _ -> raise Unsupported)
        | "IABS", [ a ] ->
            let r = emit_as_int a in
            let d = idest dst in
            emit B.op_iabs;
            emit d;
            emit r;
            d
        | "ABS", [ a ] when xstatic_num a = Some Ast.Tint ->
            let r = emit_int a in
            let d = idest dst in
            emit B.op_iabs;
            emit d;
            emit r;
            d
        | "IRAND", [ a ] ->
            let r = emit_as_int a in
            let d = idest dst in
            emit B.op_irand;
            emit d;
            emit r;
            d
        | "MOD", [ a; b ]
          when xstatic_num a = Some Ast.Tint && xstatic_num b = Some Ast.Tint
          ->
            let ra = emit_int a in
            let rb = emit_int b in
            let d = idest dst in
            emit B.op_imod;
            emit d;
            emit ra;
            emit rb;
            d
        | ("MAX0" | "MIN0"), (a0 :: (_ :: _ as rest) as args)
          when List.for_all xstatic_int args ->
            (* every argument, left to right, before the first write: the
               destination may be a register an argument reads.  On INTEGER
               values the tie rule (keep the first) is unobservable. *)
            let opc = if f = "MAX0" then B.op_imax else B.op_imin in
            let rec regs = function
              | [] -> []
              | a :: rest ->
                  let r = emit_int a in
                  r :: regs rest
            in
            let rec fold acc = function
              | [] -> acc
              | r :: rest ->
                  let d = if rest = [] then idest dst else itemp () in
                  emit opc;
                  emit d;
                  emit acc;
                  emit r;
                  fold d rest
            in
            let r0 = emit_int a0 in
            fold r0 (regs rest)
        | _ -> raise Unsupported)
    | _ -> raise Unsupported
  and emit_float ?dst (e : Ast.expr) : int =
    let lit = function
      | Ast.Real r -> Some r
      | Ast.Int i -> Some (float_of_int i)
      | _ -> None
    in
    match e with
    | Ast.Real r ->
        let k = fconst r in
        let d = fdest dst in
        emit B.op_ldkf;
        emit d;
        emit k;
        d
    | Ast.Var v -> (
        let s = Env.slot lay v in
        let rf = slot_freg.(s) in
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
          let ri = slot_ireg.(s) in
          if ri >= 0 then begin
            let d = fdest dst in
            emit B.op_itof;
            emit d;
            emit ri;
            d
          end
          else
            let d = fdest dst in
            emit B.op_ldcf;
            emit d;
            emit s;
            d)
    | Ast.Index (name, idx) -> (
        let s = Env.slot lay name in
        match (static_dims lay s, idx) with
        | Some [ d0 ], [ e0 ] ->
            let e0, k0 = index_parts e0 in
            let r0 = emit_int e0 in
            let d = fdest dst in
            emit B.op_lda1f;
            emit d;
            emit s;
            emit d0;
            emit r0;
            emit k0;
            d
        | Some [ d0; d1 ], [ e0; e1 ] ->
            let e0, k0 = index_parts e0 in
            let e1, k1 = index_parts e1 in
            let r0 = emit_int e0 in
            let r1 = emit_int e1 in
            let d = fdest dst in
            (* the store's AOFF2 just emitted for this element runs fused
               with this load ([A(I,J) = A(I,J) ...]) *)
            let q = !last_aoff2 in
            if
              q = pos () - 9
              && !buf.(q + 2) = s && !buf.(q + 5) = r0 && !buf.(q + 6) = r1
              && !buf.(q + 7) = k0 && !buf.(q + 8) = k1
            then patch q B.op_aoff2l;
            last_lda2f := pos ();
            emit B.op_lda2f;
            emit d;
            emit s;
            emit d0;
            emit d1;
            emit r0;
            emit r1;
            emit k0;
            emit k1;
            d
        | _ -> raise Unsupported)
    | Ast.Unop (Ast.Neg, e1) ->
        let r = emit_num e1 in
        let d = fdest dst in
        emit B.op_fneg;
        emit d;
        emit r;
        d
    | Ast.Binop (((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div) as op), a, b) -> (
        match (op, lit a, lit b) with
        (* right-hand constants fuse; a left-hand constant only fuses
           for Sub (FRSUBK) — Add/Mul would swap NaN operand order *)
        | Ast.Add, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            let d = fdest dst in
            emit B.op_faddk;
            emit d;
            emit r;
            emit kk;
            d
        | Ast.Sub, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            let d = fdest dst in
            emit B.op_fsubk;
            emit d;
            emit r;
            emit kk;
            d
        | Ast.Mul, _, Some k ->
            let r = emit_num a in
            let kk = fconst k in
            let d = fdest dst in
            emit B.op_fmulk;
            emit d;
            emit r;
            emit kk;
            d
        | Ast.Sub, Some k, _ ->
            let r = emit_num b in
            let kk = fconst k in
            let d = fdest dst in
            emit B.op_frsubk;
            emit d;
            emit r;
            emit kk;
            d
        | _ ->
            let ra = emit_num a in
            let rb = emit_num b in
            let opc, fused =
              match op with
              | Ast.Add -> (B.op_fadd, B.op_a2fadd)
              | Ast.Sub -> (B.op_fsub, B.op_a2fsub)
              | Ast.Mul -> (B.op_fmul, B.op_a2fmul)
              | _ -> (B.op_fdiv, -1)
            in
            (* the right operand's LDA2F, just emitted into rb, runs
               fused with this op *)
            let q = !last_lda2f in
            if fused >= 0 && q = pos () - 9 && !buf.(q + 1) = rb && rb >= tf_base then begin
              patch q fused;
              (* AOFF2L reads its follower as a plain LDA2F *)
              if !last_aoff2 = q - 9 then patch (q - 9) B.op_aoff2
            end;
            let d = fdest dst in
            if fused >= 0 then last_falu := pos ();
            emit opc;
            emit d;
            emit ra;
            emit rb;
            d)
    | Ast.Call (f, args) -> (
        (* unary real intrinsics take to_float of their argument, which
           is exactly emit_num's promotion *)
        let un opc a =
          let r = emit_num a in
          let d = fdest dst in
          emit opc;
          emit d;
          emit r;
          d
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
            let d = fdest dst in
            emit B.op_fabs;
            emit d;
            emit r;
            d
        | ("REAL" | "FLOAT"), [ a ] -> (
            match xstatic_num a with
            | Some Ast.Treal -> emit_float ?dst a (* to_float on Real = id *)
            | Some Ast.Tint ->
                let r = emit_int a in
                let d = fdest dst in
                emit B.op_itof;
                emit d;
                emit r;
                d
            | _ -> raise Unsupported)
        | "RAND", [] ->
            let d = fdest dst in
            emit B.op_rand;
            emit d;
            d
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

  (* ---- per-node emitters ----

     Defined once per procedure and parameterized by the node id, so the
     node loop below allocates no closures. *)

  (* one probe action, inline.  A bulk add charges first, then computes
     its count natively into an int register (placement's are the DO
     trip temp, trip+1, its square or a literal: no sync, no box), then
     adds it *)
  let emit_probe = function
    | Probe.Incr c ->
        emit B.op_probe;
        emit c
    | Probe.Bulk_add (c, e) ->
        emit B.op_charge;
        emit (cost_model.Cost_model.c_counter + Cost_model.expr_cost cost_model e);
        let r =
          try emit_as_int e
          with Unsupported ->
            invalid_arg
              ("Emit: a bulk-add expression in " ^ p.Program.name
             ^ " is not statically numeric")
        in
        emit B.op_probe_add;
        emit c;
        emit r
  in
  (* traversal of successor [k] of node [i]: bump its flat counter, fire
     its edge probes, account the destination node, jump to its
     probes+body *)
  let emit_edge_seq i k =
    let pc = pos () in
    let d = edge_dst.(edge_base.(i) + k) in
    let acts =
      match pi with
      | Some pi -> edge_acts succ_labels.(i).(k) pi.Probe.on_edge.(i)
      | None -> []
    in
    let incr_only =
      List.filter_map (function Probe.Incr c -> Some c | Probe.Bulk_add _ -> None) acts
    in
    (match acts with
    | [] ->
        emit B.op_edgea;
        emit (edge_base.(i) + k);
        emit d;
        emit node_cost.(d);
        emit_node_ref d
    | acts when List.compare_lengths incr_only acts = 0 ->
        let gid = add_group incr_only in
        emit B.op_edgepa;
        emit (edge_base.(i) + k);
        emit gid;
        emit d;
        emit node_cost.(d);
        emit_node_ref d
    | acts ->
        emit B.op_edge;
        emit (edge_base.(i) + k);
        List.iter emit_probe acts;
        emit B.op_acct;
        emit d;
        emit node_cost.(d);
        emit B.op_jmp;
        emit_node_ref d);
    pc
  in
  (* The LATCH shape (Bytecode.op_latch): node [i] is [I = I + k] with I
     a promoted INTEGER and k a literal; its one successor [d] is
     [T = T - 1] with T in a float register; [d]'s one successor [h] is
     the DO header testing T.  No probe may sit on the edges i->d and
     d->h or on the nodes d and h: then [h]'s code is exactly its JTRIP,
     whose pcT/pcF LATCH reads. *)
  let edge_free j k =
    match pi with
    | None -> true
    | Some pi -> edge_acts succ_labels.(j).(k) pi.Probe.on_edge.(j) = []
  in
  let node_free j = match pi with None -> true | Some pi -> pi.Probe.on_node.(j) = [] in
  let latch_of i (ir : Ir.node) =
    let single j = edge_base.(j + 1) - edge_base.(j) = 1 in
    match ir with
    | Ir.Assign (Ast.Lvar v, Ast.Binop (Ast.Add, Ast.Var v', Ast.Int k))
      when v = v' && single i && slot_ireg.(Env.slot lay v) >= 0 -> (
        let d = edge_dst.(edge_base.(i)) in
        match (Cfg.info cfg d).Ir.ir with
        | Ir.Assign (Ast.Lvar t, Ast.Binop (Ast.Sub, Ast.Var t', Ast.Int 1))
          when t = t' && single d && slot_freg.(Env.slot lay t) >= 0 -> (
            let h = edge_dst.(edge_base.(d)) in
            match (Cfg.info cfg h).Ir.ir with
            | Ir.Do_test dt
              when dt.Ir.trip_var = t
                   && find_idx succ_labels.(h) Label.T >= 0
                   && find_idx succ_labels.(h) Label.F >= 0
                   && edge_free i 0 && edge_free d 0 && node_free d && node_free h ->
                Some (slot_ireg.(Env.slot lay v), k, d, slot_freg.(Env.slot lay t), h)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  (* LATCHT when the header's T edge would be an EDGEA into a node
     without probes *)
  let emit_latch i (ri, k, d, ft, h) =
    let t = find_idx succ_labels.(h) Label.T in
    emit
      (if edge_free h t && node_free edge_dst.(edge_base.(h) + t) then B.op_latcht
       else B.op_latch);
    emit ri;
    emit k;
    emit edge_base.(i);
    emit d;
    emit node_cost.(d);
    emit ft;
    emit edge_base.(d);
    emit h;
    emit node_cost.(h);
    emit_node_ref h
  in
  let emit_native i (ir : Ir.node) =
    let succ = succ_labels.(i) in
    let u = find_idx succ Label.U in
    let t_idx = find_idx succ Label.T in
    let f_idx = find_idx succ Label.F in
    match ir with
    | Ir.Entry | Ir.Nop _ ->
        require (u >= 0);
        ignore (emit_edge_seq i u)
    | Ir.Assign (Ast.Lvar v, e) ->
        require (u >= 0);
        (* a trip count whose step may be zero goes to Eval, which names
           the step when it is *)
        (match Eval.trip_step v e with
        | Some (Ast.Int k) -> require (k <> 0)
        | Some _ -> raise Unsupported
        | None -> ());
        let s = Env.slot lay v in
        (match (static_scalar_ty lay dummies s, xstatic_num e) with
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
        ignore (emit_edge_seq i u)
    | Ir.Assign (Ast.Larr (name, idx), e) ->
        require (u >= 0);
        let s = Env.slot lay name in
        (* indices (and their bounds checks) evaluate before the RHS,
           exactly like compile_element's wrapping of the store *)
        let off =
          match (static_dims lay s, idx) with
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
              last_aoff2 := pos ();
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
        (match (static_elt_ty lay s, xstatic_num e) with
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
        (* the store takes its edge when that is one EDGEA *)
        let q = pos () - 4 in
        let e = emit_edge_seq i u in
        if !buf.(e) = B.op_edgea then begin
          patch q (if !buf.(q) = B.op_stai then B.op_staie else B.op_stafe);
          (* and a STAFE of the temp the FADD/FSUB/FMUL just before it
             wrote takes that op *)
          let f = !last_falu in
          if
            f = q - 4 && !buf.(q) = B.op_stafe && !buf.(f + 1) = !buf.(q + 3)
            && !buf.(f + 1) >= tf_base
          then
            patch f
              (let op = !buf.(f) in
               if op = B.op_fadd then B.op_faddst
               else if op = B.op_fsub then B.op_fsubst
               else B.op_fmulst)
        end
    | Ir.Branch e ->
        require (t_idx >= 0 && f_idx >= 0);
        let pt, pf = emit_cond_jump ~neg:false e in
        let pcT = emit_edge_seq i t_idx in
        let pcF = emit_edge_seq i f_idx in
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
        let pcT = emit_edge_seq i t_idx in
        let pcF = emit_edge_seq i f_idx in
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
              let pc = emit_edge_seq i k in
              Hashtbl.add seq_pc k pc;
              pc
        in
        Array.iteri (fun j k -> patch (tbl_pos + j) (get_seq k)) case_tbl;
        patch (tbl_pos + narms) (get_seq f_idx)
    | Ir.Return -> emit B.op_ret
    | Ir.Stop -> emit B.op_stop
    | Ir.Call _ | Ir.Print _ -> raise Unsupported
  in
  let emit_fallback i (ir : Ir.node) =
    mark_node ir;
    let fb_sync = take_sync () in
    emit B.op_fallback;
    emit !n_fallbacks;
    incr n_fallbacks;
    let succ = succ_labels.(i) in
    let fb_edges = Array.init (Array.length succ) (emit_edge_seq i) in
    fallbacks :=
      { B.fb_node = i; fb_ir = ir; fb_dispatch = Eval.dispatch succ; fb_sync; fb_edges }
      :: !fallbacks
  in

  for i = 0 to n - 1 do
    node_start.(i) <- pos ();
    reset_temps ();
    last_lda2f := -1;
    last_aoff2 := -1;
    last_falu := -1;
    let ir = (Cfg.info cfg i).Ir.ir in
    (match pi with
    | Some pi -> List.iter emit_probe pi.Probe.on_node.(i)
    | None -> ());
    if all_fallback then emit_fallback i ir
    else
      match latch_of i ir with
      | Some l -> emit_latch i l
      | None -> (
          let mark = pos () and saved_fixups = !n_fixups in
          try emit_native i ir
          with Unsupported ->
            (* roll back everything a partial lowering may have touched,
               then take the exact fallback path *)
            len := mark;
            n_fixups := saved_fixups;
            reset_temps ();
            emit_fallback i ir)
  done;

  for f = 0 to !n_fixups - 1 do
    let p = fixups.(f) in
    patch p node_start.(!buf.(p))
  done;
  let code = Array.sub !buf 0 !len in
  Atomic.set code_buffer !buf;

  {
    B.code;
    fpool = Array.of_list (List.rev !fpool);
    entry_pc;
    n_iregs = !max_ti;
    n_fregs = !max_tf;
    all_promoted;
    fallbacks = Array.of_list (List.rev !fallbacks);
    groups = Array.of_list (List.rev !groups);
    edge_base;
    succ_labels;
  }
