(** The reference evaluator: MF77 expressions and IR nodes walked as ASTs
    over {!Env.slots} frames, on boxed {!Value.t}s.  It is the VM's only
    generic evaluator.  The [Tree] engine runs every node with it; the
    bytecode engine runs the nodes {!Emit} cannot type statically (its
    FALLBACK op), and every node under [Compiled]. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Prng = S89_util.Prng
open S89_cfg

(** A STOP statement executed (unwinds every frame). *)
exception Stopped

(** Run-wide state of one VM instance.  [call] is tied to the engine's
    procedure-call driver once the VM is built. *)
type rt = {
  prog : Program.t;
  rng : Prng.t;
  out : Buffer.t;
  mutable call : Program.proc -> Env.binding list -> Value.t option;
}

val make_rt : prog:Program.t -> rng:Prng.t -> out:Buffer.t -> rt

(** Evaluate an expression in a frame of the given layout.
    @raise Value.Runtime_error at the first failing operation *)
val eval : rt -> Env.layout -> Env.slots -> Ast.expr -> Value.t

(** [trip_step v e] is [Some step] when [v = e] is the trip count that
    lowering assigns at a DO loop's entry, [%TRIPk = MAX0((hi - I +
    step) / step, 0)] (optimized too, while the division stands).  There
    {!step} reports a zero step as ["P: DO I has a zero step"] at the
    point where the division would fail. *)
val trip_step : string -> Ast.expr -> Ast.expr option

(** Execute one node: the label of the edge to take, [None] after
    RETURN.
    @raise Stopped after STOP *)
val step : rt -> Env.layout -> Env.slots -> Ir.node -> Label.t option

(** First successor index per edge label of a node. *)
type dispatch

val dispatch : Label.t array -> dispatch

(** [successor d l ~node lay] is the index of the first successor
    labelled [l].
    @raise Value.Runtime_error when node [node] of [lay]'s procedure has
    no such successor *)
val successor : dispatch -> Label.t -> node:int -> Env.layout -> int
