(* Flat register bytecode: the execution engine of the [Bytecode] and
   [Compiled] backends.

   Each procedure is compiled (by Emit) to one contiguous [int array] of
   int-coded instructions plus a float constant pool.  Execution is one
   tail-recursive dispatch loop over the pre-resolved code array, in two
   levels: a leaf loop that runs every op making no call, and [slow],
   which runs the ops that call out, so that nothing returns into the
   leaf loop and it spills nothing.  No Value boxing for
   statically-typed scalar traffic (promoted scalars live in unboxed
   int/float register files), fused compare-and-branch
   superinstructions, a DO-latch superinstruction (LATCH: increment,
   trip decrement and header test in one dispatch; LATCHT also takes the
   header's T edge), fused pairs for the hot array shapes (a store that
   takes its edge, a 2-D element as a float op's right operand, an
   in-place update's load, a float op stored straight to an element),
   and dedicated probe opcodes that update an
   instrumentation counter with one array bump instead of a closure
   wrapper.  Each array and cell op has a fast path for the binding Emit
   expects, with one range branch for all its subscripts; everything
   else goes through [slow] to a never-inlined cold helper that returns
   the next pc.

   Anything the emitter cannot prove statically falls back, per node, to
   the reference evaluator {!Eval} (the [FALLBACK] opcode), which walks
   the node's AST on boxed values.  Under [Compiled] every node is
   emitted that way.  Observational parity with the Tree engine, which
   runs every node through the same evaluator, is preserved exactly:
   same evaluation order, same coercions, same runtime-error points and
   messages, same PRNG consumption, same cycle and step accounting, same
   probe charges and same guard-trip points.  The differential tests in
   test/test_vm.ml and fuzz/fuzz.ml enforce this three ways. *)

module Ir = S89_frontend.Ir
open S89_cfg

(* Guard exceptions live here (the lowest layer that raises them); Interp
   re-exports them under the historical names. *)
exception Out_of_fuel
exception Out_of_cycles

(* ---- shared run accounting ----

   One [acct] per VM instance, shared by every frame and every backend:
   cycle/step totals, the sampling clock, and the instrumentation
   counters with their saturation bookkeeping.  Keeping it a flat record
   of mutable ints lets the dispatch loop update it without indirection
   and lets nested procedure calls (including fallbacks that re-enter
   the VM) see a single consistent clock. *)

type acct = {
  mutable cycles : int;
  mutable steps : int;
  mutable next_sample : int;
  sample_interval : int; (* max_int = sampling off *)
  max_steps : int;
  max_cycles : int;
  c_counter : int; (* cycle charge per counter update *)
  counters : int array;
  mutable overflowed : int list; (* saturated counters (ascending, distinct) *)
  mutable depth : int; (* current call depth, shared by all backends *)
  max_depth : int;
}

let make_acct ~max_steps ~max_cycles ~max_call_depth ~sample_interval ~c_counter
    ~n_counters =
  let interval = match sample_interval with Some s -> s | None -> max_int in
  {
    cycles = 0;
    steps = 0;
    next_sample = interval;
    sample_interval = interval;
    max_steps;
    max_cycles;
    c_counter;
    counters = Array.make (max n_counters 1) 0;
    overflowed = [];
    depth = 0;
    max_depth = max_call_depth;
  }

(* a counter hit max_int: saturate and remember — never silent wraparound *)
let record_overflow a c =
  if not (List.mem c a.overflowed) then
    a.overflowed <- List.sort compare (c :: a.overflowed)

let counter_incr a c =
  let old = a.counters.(c) in
  if old = max_int then record_overflow a c else a.counters.(c) <- old + 1

let counter_add a c v =
  let old = a.counters.(c) in
  let s = old + v in
  if v > 0 && s < old then begin
    record_overflow a c;
    a.counters.(c) <- max_int
  end
  else a.counters.(c) <- s

(* ---- compiled procedure representation ---- *)

(* promoted-register <-> frame-cell transfer lists, split by register
   class; parallel arrays (slot, register) to avoid tuple loads *)
type sync = {
  si_slot : int array;
  si_reg : int array;
  sf_slot : int array;
  sf_reg : int array;
}

let empty_sync = { si_slot = [||]; si_reg = [||]; sf_slot = [||]; sf_reg = [||] }

(* a node the emitter could not lower, run by the reference evaluator:
   its IR, its label -> successor dispatch, the promoted slots it may
   touch and the edge-sequence pc per successor *)
type fallback = {
  fb_node : int;
  fb_ir : Ir.node;
  fb_dispatch : Eval.dispatch;
  fb_sync : sync;
  fb_edges : int array; (* successor index -> pc of its edge sequence *)
}

(* The immutable code [Emit.emit_proc] produces: everything below is a
   function of the procedure's body, its layout, the cost model, the
   lowering mode, its dummies' call-site types, its probe actions and
   which of the names it calls are user procedures, and holds no run
   state — so one value may back any number of VMs ({!instantiate}),
   and a memo may keep it across program versions. *)
type code = {
  code : int array;
  fpool : float array;
  entry_pc : int;
  n_iregs : int;
  n_fregs : int;
  all_promoted : sync; (* every promoted slot: frame init and RET sync *)
  fallbacks : fallback array;
  groups : int array array; (* edge-probe groups: counters to bump *)
  (* CFG shape for the oracle counts: node [nid]'s successor [k] has
     flat edge index [edge_base.(nid) + k] *)
  edge_base : int array;
  succ_labels : Label.t array array;
}

(* [code] bound into one VM: its layout (frames, and slot names for
   runtime error messages), its run-wide state and the oracle counts of
   this run *)
type proc = {
  c : code;
  layout : Env.layout;
  rt : Eval.rt; (* fallbacks; RAND/IRAND opcodes draw from its stream *)
  (* oracle meta, indexed by CFG node id (execs/samples) or flat edge
     index (edge_base.(nid) + successor position) *)
  execs : int array;
  samples : int array;
  edge_counts : int array;
  mutable invocations : int;
  mutable fb_execs : int; (* FALLBACK escapes executed (perf telemetry) *)
}

let instantiate (c : code) (layout : Env.layout) (rt : Eval.rt) : proc =
  let n = Array.length c.succ_labels in
  {
    c;
    layout;
    rt;
    execs = Array.make (max n 1) 0;
    samples = Array.make (max n 1) 0;
    edge_counts = Array.make (max c.edge_base.(n) 1) 0;
    invocations = 0;
    fb_execs = 0;
  }

(* ---- opcode map (operands follow the opcode word) ----

   The dispatch loop below matches on these literal values; keep the two
   in lockstep.  Documented in docs/../DESIGN.md (bytecode format). *)

let op_acct = 0 (* nid cost *)
(* an edge whose probes include a bulk add runs EDGE, the probes, ACCT
   and JMP; every other edge is one fused EDGEA/EDGEPA (below) *)
let op_edge = 1 (* eidx *)
let op_charge = 2 (* k : cycles += k, a bulk add's charge *)
let op_jmp = 3 (* dst *)
let op_ret = 4
let op_stop = 5
let op_fallback = 6 (* fi *)
let op_probe = 7 (* counter *)
let op_probe_add = 8 (* counter ra : counter += ra, saturating *)
let op_ldki = 9 (* rd k *)
let op_movi = 10 (* rd ra *)
let op_iadd = 11 (* rd ra rb *)
let op_isub = 12 (* rd ra rb *)
let op_imul = 13 (* rd ra rb *)
let op_idiv = 14 (* rd ra rb *)
let op_ineg = 15 (* rd ra *)
let op_iaddk = 16 (* rd ra k *)
let op_imulk = 17 (* rd ra k *)
let op_irsubk = 18 (* rd ra k : rd <- k - ra *)
let op_ldkf = 19 (* fd k(pool) *)
let op_movf = 20 (* fd fa *)
let op_fadd = 21 (* fd fa fb *)
let op_fsub = 22 (* fd fa fb *)
let op_fmul = 23 (* fd fa fb *)
let op_fdiv = 24 (* fd fa fb *)
let op_fneg = 25 (* fd fa *)
let op_faddk = 26 (* fd fa k(pool) *)
let op_fsubk = 27 (* fd fa k(pool) *)
let op_fmulk = 28 (* fd fa k(pool) *)
let op_frsubk = 29 (* fd fa k(pool) : fd <- k - fa *)
let op_itof = 30 (* fd ra *)
let op_ftoi = 31 (* rd fa *)
let op_ldci = 32 (* rd slot *)
let op_ldcf = 33 (* fd slot *)
let op_stci = 34 (* slot ra *)
let op_stcf = 35 (* slot fa *)
(* array accesses carry a constant displacement per subscript register
   (A(I+1) folds to ka = 1), applied before the bounds check; int adds
   are exact, so this is identical to materializing the sum in a temp *)
let op_lda1i = 36 (* rd slot d0 ra ka *)
let op_lda1f = 37 (* fd slot d0 ra ka *)
let op_lda2i = 38 (* rd slot d0 d1 ra rb ka kb *)
let op_lda2f = 39 (* fd slot d0 d1 ra rb ka kb *)
let op_aoff1 = 40 (* rd slot d0 ra ka *)
let op_aoff2 = 41 (* rd slot d0 d1 ra rb ka kb *)
let op_stai = 42 (* slot ro ra *)
let op_staf = 43 (* slot ro fa *)

(* fused compare-and-branch superinstructions: ra rb pcT pcF (II/FF) or
   ra k pcT pcF (IK; k immediate) / fa k pcT pcF (FK; k is a pool index).
   Float forms follow [Float.compare] semantics (NaN below everything,
   NaN = NaN), exactly like the generic Value.rel path. *)
let op_jlt_ii = 44
let op_jle_ii = 45
let op_jgt_ii = 46
let op_jge_ii = 47
let op_jeq_ii = 48
let op_jne_ii = 49
let op_jlt_ik = 50
let op_jle_ik = 51
let op_jgt_ik = 52
let op_jge_ik = 53
let op_jeq_ik = 54
let op_jne_ik = 55
let op_jlt_ff = 56
let op_jle_ff = 57
let op_jgt_ff = 58
let op_jge_ff = 59
let op_jeq_ff = 60
let op_jne_ff = 61
let op_jlt_fk = 62
let op_jle_fk = 63
let op_jgt_fk = 64
let op_jge_fk = 65
let op_jeq_fk = 66
let op_jne_fk = 67
let op_jtrip = 68 (* fa pcT pcF : DO header, int_of_float fa > 0 *)
let op_select = 69 (* ra n pc1..pcn pcF *)

(* edge-accounting superinstructions: fuse the edge bump with the
   destination node's ACCT, since every traversal performs both
   back-to-back.  EDGEA/EDGEPA jump to the destination's probes+body;
   only the procedure entry still executes a standalone ACCT. *)
let op_edgea = 70 (* eidx nid cost dst *)
let op_edgepa = 71 (* eidx gid nid cost dst *)

(* native intrinsics: unary float transcendentals (error semantics match
   Builtins exactly), ABS/IABS/MOD, and the PRNG intrinsics (drawing from
   [proc.rng], the same stream Builtins.apply consumes).  These eliminate
   the FALLBACK escape for statically-typed expressions that call
   intrinsics — the dominant escape source on the Livermore kernels. *)
let op_fsqrt = 72 (* fd fa *)
let op_fexp = 73 (* fd fa *)
let op_flog = 74 (* fd fa *)
let op_fsin = 75 (* fd fa *)
let op_fcos = 76 (* fd fa *)
let op_ftan = 77 (* fd fa *)
let op_fatan = 78 (* fd fa *)
let op_fabs = 79 (* fd fa *)
let op_iabs = 80 (* rd ra *)
let op_rand = 81 (* fd *)
let op_irand = 82 (* rd ra *)
let op_imod = 83 (* rd ra rb *)

(* INTEGER MAX0/MIN0: Emit chains one per argument after the first, once
   every argument is in a register *)
let op_imax = 84 (* rd ra rb *)
let op_imin = 85 (* rd ra rb *)

(* a DO latch in one dispatch, for the node [I = I + k] (I a promoted
   INTEGER register, k a literal) whose successor is [%TRIPn = %TRIPn -
   1] (the trip temp in a float register) and whose successor's
   successor is the header testing it, when neither edge has probes and
   neither successor has node probes.  It runs the increment; EDGEA's
   accounting for edge e1 into the decrement node n1; the decrement; the
   same for edge e2 into the header n2; then the header's JTRIP at hpc,
   jumping to its pcT or pcF.  Samples due at n1 or n2 are taken there,
   in line, as EDGEA takes them.  (86 is unused.) *)
let op_latch = 87 (* ri k e1 n1 c1 ft e2 n2 c2 hpc *)

(* Fused pairs.  Each is its first instruction with a new opcode, and
   the second instruction stays in place right after it (or, for
   LATCHT, at the header's T-edge sequence): the fused op runs both in
   one dispatch, and its cold path runs the first one alone and goes on
   at the second.  Emit fuses only where the second is an EDGEA (no
   probes on the edge) or works on the first's result or element. *)
let op_staie = 88 (* slot ro ra, then the node's EDGEA *)
let op_stafe = 89 (* slot ro fa, then the node's EDGEA *)
(* an LDA2F into the temp the next FADD/FSUB/FMUL reads as its right
   operand: fd <- fa op element, without the temp *)
let op_a2fadd = 90 (* LDA2F's operands, then FADD fd fa t *)
let op_a2fsub = 91 (* LDA2F's operands, then FSUB fd fa t *)
let op_a2fmul = 92 (* LDA2F's operands, then FMUL fd fa t *)
(* LATCH that also takes the header's T edge, when that edge's sequence
   is an EDGEA and the loop body's first node has no probes: it runs the
   EDGEA at the header's pcT in line. *)
let op_latcht = 93 (* LATCH's operands *)
(* an AOFF2 followed by the LDA2F of the same element (same slot,
   subscript registers and displacements), as in [A(I,J) = A(I,J) + x]:
   one range branch for both, and the offset and the element written *)
let op_aoff2l = 94 (* AOFF2's operands, then LDA2F fd ... *)
(* a FADD/FSUB/FMUL into the temp the next STAFE stores, as in
   [A(I,J) = x + y]: the result goes straight to the element *)
let op_faddst = 95 (* FADD's operands, then STAFE slot ro fd *)
let op_fsubst = 96 (* FSUB's operands, then STAFE slot ro fd *)
let op_fmulst = 97 (* FMUL's operands, then STAFE slot ro fd *)

let n_opcodes = 98

(* operand words per opcode; -1: not an opcode.  SELECT's count is
   [n + 3] for its [n] arms (see [census]). *)
let operands =
  let w = Array.make n_opcodes (-1) in
  let set ops k = List.iter (fun op -> w.(op) <- k) ops in
  set [ op_ret; op_stop ] 0;
  set [ op_edge; op_charge; op_jmp; op_fallback; op_probe; op_rand ] 1;
  set
    [ op_acct; op_probe_add; op_ldki; op_movi; op_ineg; op_ldkf; op_movf; op_fneg;
      op_itof; op_ftoi; op_ldci; op_ldcf; op_stci; op_stcf; op_fsqrt; op_fexp; op_flog;
      op_fsin; op_fcos; op_ftan; op_fatan; op_fabs; op_iabs; op_irand ]
    2;
  set
    [ op_iadd; op_isub; op_imul; op_idiv; op_iaddk; op_imulk; op_irsubk; op_fadd; op_fsub;
      op_fmul; op_fdiv; op_faddk; op_fsubk; op_fmulk; op_frsubk; op_stai; op_staf;
      op_jtrip; op_imod; op_imax; op_imin; op_staie; op_stafe; op_faddst; op_fsubst;
      op_fmulst ]
    3;
  for op = op_jlt_ii to op_jne_fk do
    w.(op) <- 4
  done;
  set [ op_edgea ] 4;
  set [ op_lda1i; op_lda1f; op_aoff1; op_edgepa ] 5;
  set [ op_lda2i; op_lda2f; op_aoff2; op_a2fadd; op_a2fsub; op_a2fmul; op_aoff2l ] 8;
  set [ op_latch; op_latcht ] 10;
  w.(op_select) <- 0;
  w

(* How many instructions of each opcode [c.code] holds, walking it from
   its first word by operand count: a static census, the same for every
   run of the code. *)
let census (c : code) : int array =
  let n = Array.make n_opcodes 0 in
  let code = c.code in
  let rec walk pc =
    if pc < Array.length code then begin
      let op = code.(pc) in
      n.(op) <- n.(op) + 1;
      walk (pc + 1 + if op = op_select then code.(pc + 2) + 3 else operands.(op))
    end
  in
  walk 0;
  n

(* ---- runtime helpers ---- *)

let check_dim name k d i =
  if i < 1 || i > d then
    Value.err "%s: subscript %d of dimension %d out of bounds [1,%d]" name i (k + 1) d

(* ---- cold paths ----

   Every array and cell op has a fast path in the leaf loop: it finds
   the binding Emit expects (an [Arr] of the op's element type, a [Cell]
   holding the op's value type) and tests all its subscripts' ranges in
   one branch.  Anything else lands in one of these helpers, which runs
   the op's generic code in its one order: the binding first (through
   Env, which raises the binding errors), then dimension 1's bounds, then
   dimension 2's, then the element or cell access through Env's coercing
   accessors.  A helper writes its own destination, so a float result is
   never boxed, and returns the op's next pc to [slow]. *)

(* the rest of an array op once its offset is checked: LDA*'s read or
   AOFF*'s offset *)
let finish_array (arr : Env.array_obj) off (code : int array) (ireg : int array)
    (freg : float array) pc =
  let op = code.(pc) and rd = code.(pc + 1) in
  if op = op_lda1i || op = op_lda2i then ireg.(rd) <- Env.get_int arr off
  else if op = op_aoff1 || op = op_aoff2 || op = op_aoff2l then ireg.(rd) <- off
  else freg.(rd) <- Env.get_float arr off

(* LDA1I/LDA1F/AOFF1 rd slot d0 ra ka *)
let[@inline never] array1_cold names (venv : Env.slots) code ireg freg pc =
  let s = code.(pc + 2) in
  let arr = Env.get_arr names s venv in
  let i = ireg.(code.(pc + 4)) + code.(pc + 5) in
  check_dim names.(s) 0 code.(pc + 3) i;
  finish_array arr (i - 1) code ireg freg pc;
  pc + 6

(* LDA2I/LDA2F/AOFF2 rd slot d0 d1 ra rb ka kb, and A2FADD/A2FSUB/A2FMUL
   and AOFF2L as the LDA2F or AOFF2 they start with: the op after them
   does the rest *)
let[@inline never] array2_cold names (venv : Env.slots) code ireg freg pc =
  let s = code.(pc + 2) in
  let arr = Env.get_arr names s venv in
  let d0 = code.(pc + 3) in
  let i0 = ireg.(code.(pc + 5)) + code.(pc + 7) in
  let i1 = ireg.(code.(pc + 6)) + code.(pc + 8) in
  check_dim names.(s) 0 d0 i0;
  check_dim names.(s) 1 code.(pc + 4) i1;
  finish_array arr (i0 - 1 + ((i1 - 1) * d0)) code ireg freg pc;
  pc + 9

(* STAI/STAF slot ro ra, and STAIE/STAFE as the store they start with:
   their EDGEA follows *)
let[@inline never] store_array_cold names (venv : Env.slots) (code : int array)
    (ireg : int array) (freg : float array) pc =
  let arr = Env.get_arr names code.(pc + 1) venv in
  let r = code.(pc + 3) in
  let op = code.(pc) in
  Env.set arr ireg.(code.(pc + 2))
    (if op = op_stai || op = op_staie then Value.Int ireg.(r) else Value.Real freg.(r));
  pc + 4

(* LDCI/LDCF rd slot *)
let[@inline never] load_cell_cold names (venv : Env.slots) (code : int array)
    (ireg : int array) (freg : float array) pc =
  let rd = code.(pc + 1) and s = code.(pc + 2) in
  if code.(pc) = op_ldci then ireg.(rd) <- Env.read_int names s venv
  else freg.(rd) <- Env.read_float names s venv;
  pc + 3

(* STCI/STCF slot ra, on a binding other than a [Cell] *)
let[@inline never] store_cell_cold names (venv : Env.slots) (code : int array)
    (ireg : int array) (freg : float array) pc =
  let s = code.(pc + 1) and r = code.(pc + 2) in
  Env.write names s venv
    (if code.(pc) = op_stci then Value.Int ireg.(r) else Value.Real freg.(r));
  pc + 3

(* promoted registers -> frame cells (before a fallback that may read
   them, and at RET so the caller can read a FUNCTION result) *)
let store_regs (s : sync) (venv : Env.slots) (ireg : int array)
    (freg : float array) =
  let n = Array.length s.si_slot in
  for i = 0 to n - 1 do
    match venv.(s.si_slot.(i)) with
    | Env.Cell c -> c.v <- Value.Int ireg.(s.si_reg.(i))
    | _ -> () (* promoted slots are always Cells, by construction *)
  done;
  let n = Array.length s.sf_slot in
  for i = 0 to n - 1 do
    match venv.(s.sf_slot.(i)) with
    | Env.Cell c -> c.v <- Value.Real freg.(s.sf_reg.(i))
    | _ -> ()
  done

(* frame cells -> promoted registers (at frame entry and after a
   fallback that may have written them) *)
let load_regs (s : sync) (venv : Env.slots) (ireg : int array)
    (freg : float array) =
  let n = Array.length s.si_slot in
  for i = 0 to n - 1 do
    match venv.(s.si_slot.(i)) with
    | Env.Cell c -> ireg.(s.si_reg.(i)) <- Value.to_int c.v
    | _ -> ()
  done;
  let n = Array.length s.sf_slot in
  for i = 0 to n - 1 do
    match venv.(s.sf_slot.(i)) with
    | Env.Cell c -> freg.(s.sf_reg.(i)) <- Value.to_float c.v
    | _ -> ()
  done

(* The accounting every node execution does, in its one order: the step
   and the node's cycles, the budget check, the exec count, then the
   samples now due, charged to the node.  Both are inlined into the leaf
   loop below, so a sample costs no call there. *)
let[@inline] take_samples (a : acct) (samples : int array) nid =
  while a.cycles >= a.next_sample do
    Array.unsafe_set samples nid (Array.unsafe_get samples nid + 1);
    a.next_sample <- a.next_sample + a.sample_interval
  done

let[@inline] account (a : acct) (execs : int array) (samples : int array) nid cost =
  let steps = a.steps + 1 in
  a.steps <- steps;
  let cycles = a.cycles + cost in
  a.cycles <- cycles;
  (* both budget checks share one branch: the remaining budgets are both
     non-negative iff neither limit is exceeded *)
  if (a.max_steps - steps) lor (a.max_cycles - cycles) < 0 then
    if steps > a.max_steps then raise Out_of_fuel else raise Out_of_cycles;
  Array.unsafe_set execs nid (Array.unsafe_get execs nid + 1);
  if cycles >= a.next_sample then take_samples a samples nid

(* EDGEA eidx nid cost dst at [q]: the edge bump, then the destination's
   accounting; returns [dst] *)
let[@inline] edgea (a : acct) (code : int array) edge_counts execs samples q =
  let e = Array.unsafe_get code (q + 1) in
  Array.unsafe_set edge_counts e (Array.unsafe_get edge_counts e + 1);
  account a execs samples (Array.unsafe_get code (q + 2)) (Array.unsafe_get code (q + 3));
  Array.unsafe_get code (q + 4)

(* A frame's REAL and INTEGER array data by slot, [||] for every other
   binding: resolved once per activation, since no slot is rebound while
   its frame lives.  A declared array has at least one element, so a
   non-empty entry is the binding Emit expects. *)
let reals_of (venv : Env.slots) =
  Array.map (function Env.Arr { Env.data = Env.Reals d; _ } -> d | _ -> [||]) venv

let ints_of (venv : Env.slots) =
  Array.map (function Env.Arr { Env.data = Env.Ints d; _ } -> d | _ -> [||]) venv

(* [Float.compare]-faithful three-way comparison with a native fast path:
   when either operand is NaN all three native tests fail and we defer to
   Float.compare (NaN = NaN, NaN < non-NaN) — bit-identical to the
   generic backend's Value.rel on REAL operands. *)
let[@inline] fcmp3 (x : float) (y : float) =
  if x < y then -1 else if x > y then 1 else if x = y then 0 else Float.compare x y

(* ---- the dispatch loop ----

   Two levels.  The leaf loop runs every op that makes no call, each arm
   a tail call to the next op; an op that must call out (FALLBACK, RET,
   the counter helpers, the PRNG and libm intrinsics, a runtime error, a
   binding the fast path does not expect) makes it return that op's pc.
   [run] hands that pc to [slow], which runs the op and gives back the
   next pc (-1 when the activation returns), and re-enters the leaf.
   Since nothing returns into the leaf loop, its state stays in
   registers: no spill ahead of its jump table. *)

let exec (a : acct) (p : proc) (venv : Env.slots) : unit =
  let c = p.c in
  let code = c.code in
  let fpool = c.fpool in
  let names = p.layout.Env.names in
  let ireg = Array.make (max c.n_iregs 1) 0 in
  let freg = Array.make (max c.n_fregs 1) 0.0 in
  load_regs c.all_promoted venv ireg freg;
  let execs = p.execs in
  let samples = p.samples in
  let edge_counts = p.edge_counts in
  let counters = a.counters in
  let reals = reals_of venv and ints = ints_of venv in
  let rec leaf pc =
    match Array.unsafe_get code pc with
    | 0 (* ACCT nid cost *) ->
        account a execs samples (Array.unsafe_get code (pc + 1)) (Array.unsafe_get code (pc + 2));
        leaf (pc + 3)
    | 1 (* EDGE eidx *) ->
        let e = Array.unsafe_get code (pc + 1) in
        Array.unsafe_set edge_counts e (Array.unsafe_get edge_counts e + 1);
        leaf (pc + 2)
    | 2 (* CHARGE k *) ->
        a.cycles <- a.cycles + Array.unsafe_get code (pc + 1);
        leaf (pc + 2)
    | 3 (* JMP dst *) -> leaf (Array.unsafe_get code (pc + 1))
    | 5 (* STOP *) -> raise Eval.Stopped
    | 7 (* PROBE counter *) ->
        let c = Array.unsafe_get code (pc + 1) in
        let old = counters.(c) in
        (* a saturated counter is [slow]'s *)
        if old = max_int then pc
        else begin
          a.cycles <- a.cycles + a.c_counter;
          Array.unsafe_set counters c (old + 1);
          leaf (pc + 2)
        end
    | 9 (* LDKI rd k *) ->
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get code (pc + 2));
        leaf (pc + 3)
    | 10 (* MOVI rd ra *) ->
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)));
        leaf (pc + 3)
    | 11 (* IADD rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (x + y);
        leaf (pc + 4)
    | 12 (* ISUB rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (x - y);
        leaf (pc + 4)
    | 13 (* IMUL rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (x * y);
        leaf (pc + 4)
    | 14 (* IDIV rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        if y = 0 then pc
        else begin
          Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (x / y);
          leaf (pc + 4)
        end
    | 15 (* INEG rd ra *) ->
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (-Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)));
        leaf (pc + 3)
    | 16 (* IADDK rd ra k *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (x + Array.unsafe_get code (pc + 3));
        leaf (pc + 4)
    | 17 (* IMULK rd ra k *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (x * Array.unsafe_get code (pc + 3));
        leaf (pc + 4)
    | 18 (* IRSUBK rd ra k *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get code (pc + 3) - x);
        leaf (pc + 4)
    | 19 (* LDKF fd k *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)));
        leaf (pc + 3)
    | 20 (* MOVF fd fa *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get freg (Array.unsafe_get code (pc + 2)));
        leaf (pc + 3)
    | 21 (* FADD fd fa fb *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (x +. y);
        leaf (pc + 4)
    | 22 (* FSUB fd fa fb *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (x -. y);
        leaf (pc + 4)
    | 23 (* FMUL fd fa fb *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (x *. y);
        leaf (pc + 4)
    | 24 (* FDIV fd fa fb *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
        if y = 0.0 then pc
        else begin
          Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (x /. y);
          leaf (pc + 4)
        end
    | 25 (* FNEG fd fa *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (-.Array.unsafe_get freg (Array.unsafe_get code (pc + 2)));
        leaf (pc + 3)
    | 26 (* FADDK fd fa k *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (x +. Array.unsafe_get fpool (Array.unsafe_get code (pc + 3)));
        leaf (pc + 4)
    | 27 (* FSUBK fd fa k *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (x -. Array.unsafe_get fpool (Array.unsafe_get code (pc + 3)));
        leaf (pc + 4)
    | 28 (* FMULK fd fa k *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (x *. Array.unsafe_get fpool (Array.unsafe_get code (pc + 3)));
        leaf (pc + 4)
    | 29 (* FRSUBK fd fa k *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get fpool (Array.unsafe_get code (pc + 3)) -. x);
        leaf (pc + 4)
    | 30 (* ITOF fd ra *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (float_of_int (Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))));
        leaf (pc + 3)
    | 31 (* FTOI rd fa *) ->
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (int_of_float (Array.unsafe_get freg (Array.unsafe_get code (pc + 2))));
        leaf (pc + 3)
    | 32 (* LDCI rd slot *) -> (
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 2)) with
        | Env.Cell { v = Value.Int x; _ } ->
            Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) x;
            leaf (pc + 3)
        | _ -> pc)
    | 33 (* LDCF fd slot *) -> (
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 2)) with
        | Env.Cell { v = Value.Real x; _ } ->
            Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) x;
            leaf (pc + 3)
        | _ -> pc)
    | 34 (* STCI slot ra *) -> (
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 1)) with
        | Env.Cell c ->
            c.v <- Value.Int (Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)));
            leaf (pc + 3)
        | _ -> pc)
    | 35 (* STCF slot fa *) -> (
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 1)) with
        | Env.Cell c ->
            c.v <- Value.Real (Array.unsafe_get freg (Array.unsafe_get code (pc + 2)));
            leaf (pc + 3)
        | _ -> pc)
    (* one range branch per access: i is in [1,d] iff (i-1) lor (d-i) is
       non-negative, since sema keeps every declared bound >= 1 *)
    | 36 (* LDA1I rd slot d0 ra ka *) -> (
        let i =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 4))
          + Array.unsafe_get code (pc + 5)
        in
        let d = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
        if Array.length d > 0 && (i - 1) lor (Array.unsafe_get code (pc + 3) - i) >= 0 then begin
          Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (Array.unsafe_get d (i - 1));
          leaf (pc + 6)
        end
        else pc)
    | 37 (* LDA1F fd slot d0 ra ka *) -> (
        let i =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 4))
          + Array.unsafe_get code (pc + 5)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if Array.length d > 0 && (i - 1) lor (Array.unsafe_get code (pc + 3) - i) >= 0 then begin
          Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (Array.unsafe_get d (i - 1));
          leaf (pc + 6)
        end
        else pc)
    | 38 (* LDA2I rd slot d0 d1 ra rb ka kb *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get ints (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
            (Array.unsafe_get d (i0 - 1 + ((i1 - 1) * d0)));
          leaf (pc + 9)
        end
        else pc)
    | 39 (* LDA2F fd slot d0 d1 ra rb ka kb *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
            (Array.unsafe_get d (i0 - 1 + ((i1 - 1) * d0)));
          leaf (pc + 9)
        end
        else pc)
    | 40 (* AOFF1 rd slot d0 ra ka *) -> (
        let i =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 4))
          + Array.unsafe_get code (pc + 5)
        in
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 2)) with
        | Env.Arr _ when (i - 1) lor (Array.unsafe_get code (pc + 3) - i) >= 0 ->
            Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (i - 1);
            leaf (pc + 6)
        | _ -> pc)
    | 41 (* AOFF2 rd slot d0 d1 ra rb ka kb *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        match Array.unsafe_get venv (Array.unsafe_get code (pc + 2)) with
        | Env.Arr _
          when (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1)
               >= 0 ->
            Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (i0 - 1 + ((i1 - 1) * d0));
            leaf (pc + 9)
        | _ -> pc)
    (* the offset comes from this access's AOFF, so it is in range *)
    | 42 (* STAI slot ro ra *) -> (
        let d = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
        if Array.length d > 0 then begin
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))) <-
            Array.unsafe_get ireg (Array.unsafe_get code (pc + 3));
          leaf (pc + 4)
        end
        else pc)
    | 43 (* STAF slot ro fa *) -> (
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 1)) in
        if Array.length d > 0 then begin
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))) <-
            Array.unsafe_get freg (Array.unsafe_get code (pc + 3));
          leaf (pc + 4)
        end
        else pc)
    | 44 (* JLT_II ra rb pcT pcF *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x < y then pc + 3 else pc + 4))
    | 45 (* JLE_II *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x <= y then pc + 3 else pc + 4))
    | 46 (* JGT_II *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x > y then pc + 3 else pc + 4))
    | 47 (* JGE_II *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x >= y then pc + 3 else pc + 4))
    | 48 (* JEQ_II *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x = y then pc + 3 else pc + 4))
    | 49 (* JNE_II *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if x <> y then pc + 3 else pc + 4))
    | 50 (* JLT_IK ra k pcT pcF *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x < k then pc + 3 else pc + 4))
    | 51 (* JLE_IK *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x <= k then pc + 3 else pc + 4))
    | 52 (* JGT_IK *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x > k then pc + 3 else pc + 4))
    | 53 (* JGE_IK *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x >= k then pc + 3 else pc + 4))
    | 54 (* JEQ_IK *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x = k then pc + 3 else pc + 4))
    | 55 (* JNE_IK *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get code (pc + 2) in
        leaf (Array.unsafe_get code (if x <> k then pc + 3 else pc + 4))
    | 56 (* JLT_FF fa fb pcT pcF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y < 0 then pc + 3 else pc + 4))
    | 57 (* JLE_FF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y <= 0 then pc + 3 else pc + 4))
    | 58 (* JGT_FF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y > 0 then pc + 3 else pc + 4))
    | 59 (* JGE_FF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y >= 0 then pc + 3 else pc + 4))
    | 60 (* JEQ_FF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y = 0 then pc + 3 else pc + 4))
    | 61 (* JNE_FF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x y <> 0 then pc + 3 else pc + 4))
    | 62 (* JLT_FK fa k pcT pcF *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k < 0 then pc + 3 else pc + 4))
    | 63 (* JLE_FK *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k <= 0 then pc + 3 else pc + 4))
    | 64 (* JGT_FK *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k > 0 then pc + 3 else pc + 4))
    | 65 (* JGE_FK *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k >= 0 then pc + 3 else pc + 4))
    | 66 (* JEQ_FK *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k = 0 then pc + 3 else pc + 4))
    | 67 (* JNE_FK *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        let k = Array.unsafe_get fpool (Array.unsafe_get code (pc + 2)) in
        leaf (Array.unsafe_get code (if fcmp3 x k <> 0 then pc + 3 else pc + 4))
    | 68 (* JTRIP fa pcT pcF *) ->
        let t = Array.unsafe_get freg (Array.unsafe_get code (pc + 1)) in
        leaf (Array.unsafe_get code (if int_of_float t > 0 then pc + 2 else pc + 3))
    | 69 (* SELECT ra n pc1..pcn pcF *) ->
        let i = Array.unsafe_get ireg (Array.unsafe_get code (pc + 1)) in
        let n = Array.unsafe_get code (pc + 2) in
        if i >= 1 && i <= n then leaf (Array.unsafe_get code (pc + 2 + i))
        else leaf (Array.unsafe_get code (pc + 3 + n))
    | 70 (* EDGEA eidx nid cost dst *) ->
        leaf (edgea a code edge_counts execs samples pc)
    | 72 (* FSQRT fd fa *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        if x < 0.0 then pc
        else begin
          Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (sqrt x);
          leaf (pc + 3)
        end
    | 79 (* FABS fd fa *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (Float.abs (Array.unsafe_get freg (Array.unsafe_get code (pc + 2))));
        leaf (pc + 3)
    | 80 (* IABS rd ra *) ->
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1))
          (abs (Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))));
        leaf (pc + 3)
    | 83 (* IMOD rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        if y = 0 then pc
        else begin
          Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (x mod y);
          leaf (pc + 4)
        end
    | 84 (* IMAX rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (if y > x then y else x);
        leaf (pc + 4)
    | 85 (* IMIN rd ra rb *) ->
        let x = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get ireg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (if y < x then y else x);
        leaf (pc + 4)
    | (87 | 93) as op (* LATCH/LATCHT ri k e1 n1 c1 ft e2 n2 c2 hpc *) ->
        let ri = Array.unsafe_get code (pc + 1) in
        Array.unsafe_set ireg ri (Array.unsafe_get ireg ri + Array.unsafe_get code (pc + 2));
        let e = Array.unsafe_get code (pc + 3) in
        Array.unsafe_set edge_counts e (Array.unsafe_get edge_counts e + 1);
        account a execs samples (Array.unsafe_get code (pc + 4)) (Array.unsafe_get code (pc + 5));
        let ft = Array.unsafe_get code (pc + 6) in
        let t = Array.unsafe_get freg ft -. 1.0 in
        Array.unsafe_set freg ft t;
        let e = Array.unsafe_get code (pc + 7) in
        Array.unsafe_set edge_counts e (Array.unsafe_get edge_counts e + 1);
        account a execs samples (Array.unsafe_get code (pc + 8)) (Array.unsafe_get code (pc + 9));
        let hpc = Array.unsafe_get code (pc + 10) in
        if int_of_float t <= 0 then leaf (Array.unsafe_get code (hpc + 3))
        else if op = op_latch then leaf (Array.unsafe_get code (hpc + 2))
        else leaf (edgea a code edge_counts execs samples (Array.unsafe_get code (hpc + 2)))
    | 88 (* STAIE slot ro ra, EDGEA *) -> (
        let d = Array.unsafe_get ints (Array.unsafe_get code (pc + 1)) in
        if Array.length d > 0 then begin
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))) <-
            Array.unsafe_get ireg (Array.unsafe_get code (pc + 3));
          leaf (edgea a code edge_counts execs samples (pc + 4))
        end
        else pc)
    | 89 (* STAFE slot ro fa, EDGEA *) -> (
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 1)) in
        if Array.length d > 0 then begin
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 2))) <-
            Array.unsafe_get freg (Array.unsafe_get code (pc + 3));
          leaf (edgea a code edge_counts execs samples (pc + 4))
        end
        else pc)
    (* one arm per fused float op: an arm shared by the three, branching
       on the opcode, cost about 4% of a Table-1 run *)
    | 90 (* A2FADD: LDA2F's operands, then FADD fd fa t *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          let y = Array.unsafe_get d (i0 - 1 + ((i1 - 1) * d0)) in
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 11)) in
          Array.unsafe_set freg (Array.unsafe_get code (pc + 10))
            (x +. y);
          leaf (pc + 13)
        end
        else pc)
    | 91 (* A2FSUB: LDA2F's operands, then FSUB fd fa t *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          let y = Array.unsafe_get d (i0 - 1 + ((i1 - 1) * d0)) in
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 11)) in
          Array.unsafe_set freg (Array.unsafe_get code (pc + 10))
            (x -. y);
          leaf (pc + 13)
        end
        else pc)
    | 92 (* A2FMUL: LDA2F's operands, then FMUL fd fa t *) -> (
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          let y = Array.unsafe_get d (i0 - 1 + ((i1 - 1) * d0)) in
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 11)) in
          Array.unsafe_set freg (Array.unsafe_get code (pc + 10))
            (x *. y);
          leaf (pc + 13)
        end
        else pc)
    | 94 (* AOFF2L rd slot d0 d1 ra rb ka kb, then LDA2F fd ... *) ->
        let d0 = Array.unsafe_get code (pc + 3) in
        let i0 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 5))
          + Array.unsafe_get code (pc + 7)
        in
        let i1 =
          Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))
          + Array.unsafe_get code (pc + 8)
        in
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 2)) in
        if
          Array.length d > 0
          && (i0 - 1) lor (d0 - i0) lor (i1 - 1) lor (Array.unsafe_get code (pc + 4) - i1) >= 0
        then begin
          let off = i0 - 1 + ((i1 - 1) * d0) in
          Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) off;
          Array.unsafe_set freg (Array.unsafe_get code (pc + 10)) (Array.unsafe_get d off);
          leaf (pc + 18)
        end
        else pc
    | 95 (* FADDST: FADD's operands, then STAFE slot ro fd *) ->
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 5)) in
        if Array.length d > 0 then begin
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
          let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))) <- x +. y;
          leaf (edgea a code edge_counts execs samples (pc + 8))
        end
        else pc
    | 96 (* FSUBST: FSUB's operands, then STAFE slot ro fd *) ->
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 5)) in
        if Array.length d > 0 then begin
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
          let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))) <- x -. y;
          leaf (edgea a code edge_counts execs samples (pc + 8))
        end
        else pc
    | 97 (* FMULST: FMUL's operands, then STAFE slot ro fd *) ->
        let d = Array.unsafe_get reals (Array.unsafe_get code (pc + 5)) in
        if Array.length d > 0 then begin
          let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
          let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
          d.(Array.unsafe_get ireg (Array.unsafe_get code (pc + 6))) <- x *. y;
          leaf (edgea a code edge_counts execs samples (pc + 8))
        end
        else pc
    | _ -> pc
  in
  (* the ops the leaf loop leaves: each returns its next pc, or -1 when
     the activation returns.  IDIV, FDIV, IMOD and FSQRT come here only
     when their operand fails, so their arms raise. *)
  let slow pc =
    match Array.unsafe_get code pc with
    | 4 (* RET *) ->
        store_regs c.all_promoted venv ireg freg;
        -1
    | 6 (* FALLBACK fi *) -> (
        p.fb_execs <- p.fb_execs + 1;
        let fb = c.fallbacks.(Array.unsafe_get code (pc + 1)) in
        store_regs fb.fb_sync venv ireg freg;
        let next = Eval.step p.rt p.layout venv fb.fb_ir in
        load_regs fb.fb_sync venv ireg freg;
        match next with
        | Some l -> fb.fb_edges.(Eval.successor fb.fb_dispatch l ~node:fb.fb_node p.layout)
        | None ->
            store_regs c.all_promoted venv ireg freg;
            -1)
    | 7 (* PROBE counter, saturated *) ->
        a.cycles <- a.cycles + a.c_counter;
        counter_incr a (Array.unsafe_get code (pc + 1));
        pc + 2
    | 8 (* PROBE_ADD counter ra *) ->
        counter_add a (Array.unsafe_get code (pc + 1))
          (Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)));
        pc + 3
    | (95 | 96 | 97) as op (* FADDST/FSUBST/FMULST: the ALU op alone, then its STAFE *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        let y = Array.unsafe_get freg (Array.unsafe_get code (pc + 3)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (if op = op_faddst then x +. y else if op = op_fsubst then x -. y else x *. y);
        pc + 4
    | 14 (* IDIV *) -> Value.err "INTEGER division by zero"
    | 24 (* FDIV *) -> Value.err "REAL division by zero"
    | 32 | 33 (* LDCI/LDCF *) -> load_cell_cold names venv code ireg freg pc
    | 34 | 35 (* STCI/STCF *) -> store_cell_cold names venv code ireg freg pc
    | 36 | 37 | 40 (* LDA1I/LDA1F/AOFF1 *) -> array1_cold names venv code ireg freg pc
    | 38 | 39 | 41 | 90 | 91 | 92 | 94 (* LDA2I/LDA2F/AOFF2, A2FADD/A2FSUB/A2FMUL, AOFF2L *) ->
        array2_cold names venv code ireg freg pc
    | 42 | 43 | 88 | 89 (* STAI/STAF/STAIE/STAFE *) ->
        store_array_cold names venv code ireg freg pc
    | 71 (* EDGEPA eidx gid nid cost dst *) ->
        let e = Array.unsafe_get code (pc + 1) in
        Array.unsafe_set edge_counts e (Array.unsafe_get edge_counts e + 1);
        let g = c.groups.(Array.unsafe_get code (pc + 2)) in
        for i = 0 to Array.length g - 1 do
          a.cycles <- a.cycles + a.c_counter;
          counter_incr a g.(i)
        done;
        account a execs samples (Array.unsafe_get code (pc + 3)) (Array.unsafe_get code (pc + 4));
        Array.unsafe_get code (pc + 5)
    | 72 (* FSQRT *) ->
        Value.err "SQRT of negative value %g"
          (Array.unsafe_get freg (Array.unsafe_get code (pc + 2)))
    | (73 | 75 | 76 | 77 | 78) as op (* FEXP/FSIN/FCOS/FTAN/FATAN fd fa *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1))
          (if op = op_fexp then exp x
           else if op = op_fsin then sin x
           else if op = op_fcos then cos x
           else if op = op_ftan then tan x
           else atan x);
        pc + 3
    | 74 (* FLOG fd fa *) ->
        let x = Array.unsafe_get freg (Array.unsafe_get code (pc + 2)) in
        if x <= 0.0 then Value.err "LOG of non-positive value %g" x;
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (log x);
        pc + 3
    | 81 (* RAND fd *) ->
        Array.unsafe_set freg (Array.unsafe_get code (pc + 1)) (S89_util.Prng.float p.rt.Eval.rng);
        pc + 2
    | 82 (* IRAND rd ra *) ->
        let n = Array.unsafe_get ireg (Array.unsafe_get code (pc + 2)) in
        if n <= 0 then Value.err "IRAND bound must be positive";
        Array.unsafe_set ireg (Array.unsafe_get code (pc + 1)) (1 + S89_util.Prng.int p.rt.Eval.rng n);
        pc + 3
    | 83 (* IMOD *) -> Value.err "MOD by zero"
    | op -> Value.err "corrupt bytecode: opcode %d at pc %d" op pc
  in
  let rec run pc =
    let next = slow (leaf pc) in
    if next >= 0 then run next
  in
  run c.entry_pc
