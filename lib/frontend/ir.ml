(* Statement-level CFG node payloads.

   The paper permits CFG nodes to be "basic blocks, statements, operations
   or instructions"; we lower MF77 to one node per simple statement, which
   matches the statement-level CFG of the paper's Figure 1.  Basic blocks
   are recovered from this graph when the naive profiling scheme needs them
   (see s89_profiling.Blocks). *)

type do_meta = {
  trip_var : string; (* compiler temp holding the remaining trip count *)
  static_trip : int option; (* trip count if lo/hi/step were constants *)
  do_var : string; (* the user's DO variable (for reporting) *)
}

type node =
  | Entry (* procedure entry marker; never has predecessors *)
  | Nop of string (* CONTINUE or a materialized GOTO; text for display *)
  | Assign of Ast.lvalue * Ast.expr
  | Branch of Ast.expr (* out-edges T / F *)
  | Do_test of do_meta (* header of a DO loop: T = body, F = exit;
                          semantically tests trip_var > 0 *)
  | Select of Ast.expr * int (* computed GOTO with n arms: Case 1..n, F = fallthrough *)
  | Call of string * Ast.expr list
  | Return
  | Stop
  | Print of Ast.expr list

type info = {
  ir : node;
  src_label : int option; (* the statement's numeric label, if any *)
}

(* one line per node: arguments are separated by [", "], never by a
   break hint *)
let add_node b = function
  | Entry -> Buffer.add_string b "ENTRY"
  | Nop s -> Buffer.add_string b s
  | Assign (lv, e) ->
      Ast.add_lvalue b lv;
      Buffer.add_string b " = ";
      Ast.add_expr b e
  | Branch e ->
      Buffer.add_string b "IF (";
      Ast.add_expr b e;
      Buffer.add_char b ')'
  | Do_test d ->
      Buffer.add_string b "DO-TEST ";
      Buffer.add_string b d.do_var;
      Buffer.add_string b " [";
      Buffer.add_string b d.trip_var;
      Buffer.add_string b " > 0]"
  | Select (e, n) ->
      Buffer.add_string b "GOTO(";
      S89_util.Decimal.add_int b n;
      Buffer.add_string b "-way), ";
      Ast.add_expr b e
  | Call (s, []) ->
      Buffer.add_string b "CALL ";
      Buffer.add_string b s
  | Call (s, args) ->
      Buffer.add_string b "CALL ";
      Ast.add_app b s args
  | Return -> Buffer.add_string b "RETURN"
  | Stop -> Buffer.add_string b "STOP"
  | Print es ->
      Buffer.add_string b "PRINT *, ";
      Ast.add_list b Ast.add_expr es

let add_info b { ir; src_label } =
  (match src_label with
  | Some l ->
      S89_util.Decimal.add_int b l;
      Buffer.add_char b ' '
  | None -> ());
  add_node b ir

let pp_node = Ast.pp_via add_node
let pp_info = Ast.pp_via add_info

(* Expressions evaluated when this node executes (used by the cost model
   and by the interprocedural scan for function calls). *)
let exprs_of = function
  | Entry | Nop _ | Return | Stop -> []
  | Assign (Lvar _, e) -> [ e ]
  | Assign (Larr (_, idx), e) -> idx @ [ e ]
  | Branch e -> [ e ]
  | Do_test _ -> [] (* the trip test is charged as a branch by the cost model *)
  | Select (e, _) -> [ e ]
  | Call (_, args) -> args
  | Print es -> es

(* [exprs_of] without building the list *)
let iter_exprs f = function
  | Entry | Nop _ | Return | Stop | Do_test _ -> ()
  | Assign (Lvar _, e) | Branch e | Select (e, _) -> f e
  | Assign (Larr (_, idx), e) ->
      List.iter f idx;
      f e
  | Call (_, es) | Print es -> List.iter f es
