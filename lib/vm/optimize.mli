(** Scalar optimizer over statement-level CFGs: constant folding and
    algebraic simplification, local constant propagation (conservative
    around calls and parameter aliasing), dead scalar-assignment
    elimination and no-op elision.  Together with the two
    {!Cost_model} presets it models Table 1's "compiler optimization
    ON/OFF" axis.  RAND/IRAND are treated as side-effecting so profiled
    frequencies stay comparable across optimization levels. *)

module Program = S89_frontend.Program
module Ir = S89_frontend.Ir

(** Whether an expression may have effects (user calls, RAND/IRAND). *)
val expr_impure : Program.t option -> S89_frontend.Ast.expr -> bool

(** Fold one expression. *)
val fold : Program.t option -> S89_frontend.Ast.expr -> S89_frontend.Ast.expr

(** Optimize one procedure's CFG into a new one; the procedure's own
    CFG is left untouched. *)
val optimize_cfg : ?program:Program.t -> Program.proc -> Ir.info S89_cfg.Cfg.t

(** Whole-program optimization; the input program is left untouched. *)
val program : Program.t -> Program.t
