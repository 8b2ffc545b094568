(** The MF77 virtual machine: a cycle-accounting interpreter over the
    statement-level CFGs — the stand-in for the paper's IBM 3090 testbed.

    Alongside executing the program it maintains, for free, "oracle"
    counts of every node execution and edge traversal (ground truth for
    the profiling machinery), fires instrumentation probes (charging
    [c_counter] cycles each — the Table 1 overhead), and can simulate a
    PC-sampling profiler. *)

module Program = S89_frontend.Program
open S89_cfg

(** The step budget was exhausted (runaway program). *)
exception Out_of_fuel

(** The cycle budget ([max_cycles]) was exhausted. *)
exception Out_of_cycles

(** Recursion exceeded [max_call_depth] (runaway recursion). *)
exception Call_depth_exceeded of int

(** Execution backend.  [Bytecode] (the default, and the fastest engine)
    compiles each procedure to a flat register bytecode with a single
    dispatch loop ({!Bytecode}, {!Emit}); nodes it cannot type statically
    escape through a FALLBACK op to the reference evaluator {!Eval}.
    [Compiled] is a lowering mode of the same engine: every node is a
    FALLBACK and no scalar is promoted to a register.  [Tree] is a plain
    driver loop that runs every node through {!Eval}, kept as the
    semantic reference for differential testing.  Every engine runs over
    slot-resolved frames ({!Env}), shares all accounting (cycles, oracle
    counts, probes, sampling) and must be observationally identical. *)
type backend = Tree | Compiled | Bytecode

type config = {
  cost_model : Cost_model.t;
  instr : Probe.t;  (** instrumentation ({!Probe.empty} = none) *)
  seed : int;  (** PRNG seed for RAND()/IRAND() *)
  max_steps : int;  (** fuel: statements executed before {!Out_of_fuel} *)
  max_cycles : int;  (** cycle fuel ([max_int] = unlimited, the default) *)
  max_call_depth : int;  (** recursion guard ({!Call_depth_exceeded}) *)
  sample_interval : int option;  (** simulated PC sampling every N cycles *)
  backend : backend;  (** execution engine (default [Bytecode]) *)
}

val default_config : config

type t

(** One layer of a {!cache}: [layer ~salt p compute] returns a value
    equal to [compute ()].  A store keys it by [p]'s body fingerprint
    mixed with [salt], which {!create} makes carry every other input of
    the value, so a hit may return a value computed for an earlier
    program version, or under another procedure name. *)
type 'a cache_layer = salt:string -> Program.proc -> (unit -> 'a) -> 'a

(** What {!create} builds per procedure that outlives one VM: slot
    layouts, and the bytecode {!Emit.emit_proc} produces ([Compiled] and
    [Bytecode] backends).  Both are immutable; a layout from the store
    is rebound to the current procedure, and the per-run state (oracle
    counts, invocations, FALLBACK execs, the run's {!Eval.rt}) is
    attached afresh to every VM. *)
type cache = { layouts : Env.layout cache_layer; codes : Bytecode.code cache_layer }

(** Compile a program for execution under a configuration.  [?cache]
    ([S89_core.Memo.vm_cache]) lets procedures whose layout and code
    inputs are unchanged reuse the ones built before: an edit of one
    procedure re-emits that procedure, and the callees whose dummy
    types it changed.  Without it every procedure is laid out and
    emitted here; either way the VM behaves identically. *)
val create : ?cache:cache -> ?config:config -> Program.t -> t

type outcome =
  | Normal_stop  (** a STOP statement executed *)
  | Fell_off_end  (** the main program returned *)

(** Execute the main program.
    @raise Out_of_fuel when [max_steps] is exceeded
    @raise S89_vm.Value.Runtime_error on runtime errors *)
val run : t -> outcome

(** Simulated cycles charged so far (including probe costs). *)
val cycles : t -> int

(** Statements executed so far. *)
val steps : t -> int

(** Accumulated PRINT output. *)
val output : t -> string

(** The main program's arrays, by name in slot order, as they stand when
    its run ended, normally or not ([[]] before {!run}).  Arrays are
    never held in registers, so every engine shows the same values. *)
val main_arrays : t -> (string * Value.t array) list

(** Snapshot of the instrumentation counters. *)
val counters : t -> int array

(** Number of invocations of a procedure. *)
val invocations : t -> string -> int

(** Oracle: executions of a CFG node. *)
val node_execs : t -> string -> int -> int

(** Oracle: traversals of the CFG edge [(node, label)]. *)
val edge_count : t -> string -> int -> Label.t -> int

(** PC-sampling hits attributed to a node (0 unless sampling is on). *)
val node_samples : t -> string -> int -> int

(** FALLBACK escapes executed across all bytecode procedures.  Perf
    telemetry: each escape syncs promoted registers around a run of the
    reference evaluator.  It is 0 under [Tree], which runs no bytecode, and equals
    {!steps} under [Compiled], where every node is a FALLBACK (unless a
    guard trips between a node's accounting and its FALLBACK). *)
val fallback_execs : t -> int

(** Instrumentation counters that saturated at [max_int] during the run
    (ascending, no duplicates).  A saturated counter holds [max_int]
    rather than a silently wrapped value. *)
val counter_overflowed : t -> int list

(** Warnings accumulated during the run (one [RUN005] per saturated
    counter). *)
val diagnostics : t -> S89_diag.Diag.t list

(** Like {!run}, but guard trips and runtime errors come back as a
    structured diagnostic ([RUN001]..[RUN004], [FLT001]) instead of an
    exception. *)
val run_result : t -> (outcome, S89_diag.Diag.t) result
