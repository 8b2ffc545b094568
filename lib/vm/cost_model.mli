(** Architectural cost model: COST(u) by instruction counting (§4), in
    abstract cycles.  The {!optimized}/{!unoptimized} presets model the
    paper's "compiler optimization ON/OFF" axis (registers and
    strength-reduced subscripts vs. memory traffic everywhere). *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir

type t = {
  name : string;
  c_const : int;  (** literal operand *)
  c_var : int;  (** scalar access *)
  c_assign : int;  (** scalar store *)
  c_index : int;  (** per-dimension subscript arithmetic *)
  c_elem : int;  (** array element load/store *)
  c_add : int;
  c_mul : int;
  c_div : int;
  c_pow : int;
  c_rel : int;
  c_logic : int;
  c_neg : int;
  c_branch : int;  (** conditional branch *)
  c_goto : int;  (** unconditional jump *)
  c_call : int;  (** call/return linkage per invocation *)
  c_intrinsic_cheap : int;
  c_intrinsic_moderate : int;
  c_intrinsic_expensive : int;
  c_print : int;
  c_counter : int;  (** one profiling counter update: load+add+store *)
}

(** "Compiler optimization ON". *)
val optimized : t

(** "Compiler optimization OFF". *)
val unoptimized : t

(** Static cost of evaluating an expression (exact: MF77 has no
    short-circuit evaluation).  A user-function call costs its argument
    evaluation plus [c_call] linkage; its body is charged by the VM when
    it runs and by the estimator's rule 2 ([S89_core.Cost]). *)
val expr_cost : t -> Ast.expr -> int

(** Cost of the store side of an assignment target. *)
val lvalue_cost : t -> Ast.lvalue -> int

(** Local cost of one execution of a CFG node — the paper's COST(u),
    minus callee bodies. *)
val node_cost : t -> Ir.node -> int
