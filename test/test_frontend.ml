(* Tests for s89_frontend: Lexer, Parser, Sema, Lower, Program. *)

open S89_frontend
module Cfg = S89_cfg.Cfg
module Label = S89_cfg.Label

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let toks src =
  let t = Lexer.tokenize src in
  List.init (Lexer.length t) (Lexer.token t)

(* ---------------- Lexer ---------------- *)

let lexer_basics () =
  check cb "ids + ops" true
    (toks "X = Y + 2 * Z\n"
    = [ Lexer.ID "X"; EQUALS; ID "Y"; PLUS; INT 2; STAR; ID "Z"; NEWLINE; EOF ]);
  check cb "case folding" true (toks "foo\n" = [ Lexer.ID "FOO"; NEWLINE; EOF ]);
  check cb "power vs star" true
    (toks "A ** B * C\n"
    = [ Lexer.ID "A"; POW; ID "B"; STAR; ID "C"; NEWLINE; EOF ])

let lexer_numbers () =
  check cb "int" true (toks "42\n" = [ Lexer.INT 42; NEWLINE; EOF ]);
  check cb "real" true (toks "3.25\n" = [ Lexer.REALLIT 3.25; NEWLINE; EOF ]);
  check cb "real exp" true (toks "1.5E2\n" = [ Lexer.REALLIT 150.0; NEWLINE; EOF ]);
  check cb "d exponent" true (toks "1D1\n" = [ Lexer.REALLIT 10.0; NEWLINE; EOF ]);
  check cb "leading dot" true (toks ".5\n" = [ Lexer.REALLIT 0.5; NEWLINE; EOF ]);
  check cb "trailing dot" true (toks "2.\n" = [ Lexer.REALLIT 2.0; NEWLINE; EOF ])

let lexer_dotted () =
  check cb "relational" true
    (toks "A .LT. B\n" = [ Lexer.ID "A"; DOTOP "LT"; ID "B"; NEWLINE; EOF ]);
  check cb "logical constants" true
    (toks ".TRUE. .FALSE.\n" = [ Lexer.DOTOP "TRUE"; DOTOP "FALSE"; NEWLINE; EOF ]);
  (* the classic ambiguity: 1.AND. must not eat the dot into the number *)
  check cb "1.AND." true
    (toks "1 .EQ. 1.AND.X\n"
    = [ Lexer.INT 1; DOTOP "EQ"; INT 1; DOTOP "AND"; ID "X"; NEWLINE; EOF ])

let lexer_comments_continuation () =
  check cb "comment" true (toks "X = 1 ! set x\nY = 2\n"
    = [ Lexer.ID "X"; EQUALS; INT 1; NEWLINE; ID "Y"; EQUALS; INT 2; NEWLINE; EOF ]);
  (* trailing-& and leading-& continuations *)
  check cb "trailing continuation" true
    (toks "X = 1 + &\n 2\n" = [ Lexer.ID "X"; EQUALS; INT 1; PLUS; INT 2; NEWLINE; EOF ]);
  check cb "leading continuation" true
    (toks "X = 1 +\n     & 2\n"
    = [ Lexer.ID "X"; EQUALS; INT 1; PLUS; INT 2; NEWLINE; EOF ]);
  check cb "blank lines collapse" true (toks "\n\n\nX = 1\n\n\n"
    = [ Lexer.ID "X"; EQUALS; INT 1; NEWLINE; EOF ])

let lexer_errors () =
  (try
     ignore (Lexer.tokenize "X = #\n");
     Alcotest.fail "expected lexer error"
   with Lexer.Error (_, line) -> check ci "error line" 1 line);
  (try
     ignore (Lexer.tokenize "X = .\n");
     Alcotest.fail "expected stray dot error"
   with Lexer.Error (_, _) -> ())

(* ---------------- Parser ---------------- *)

let parse1 src =
  match Parser.parse_program src with
  | [ u ] -> u
  | _ -> Alcotest.fail "expected one unit"

let wrap stmts = Printf.sprintf "      PROGRAM T\n%s      END\n" stmts

let parser_statements () =
  let u = parse1 (wrap "      X = 1\n      CALL FOO(X, 2)\n      RETURN\n") in
  check ci "three statements" 3 (List.length u.Ast.body);
  check cs "program name" "T" u.Ast.name;
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Assign (Ast.Lvar "X", Ast.Int 1) -> ()
  | _ -> Alcotest.fail "bad assign");
  match (List.nth u.Ast.body 1).Ast.stmt with
  | Ast.Call_stmt ("FOO", [ Ast.Var "X"; Ast.Int 2 ]) -> ()
  | _ -> Alcotest.fail "bad call"

let parser_expressions () =
  let u = parse1 (wrap "      X = A + B * C ** 2 ** N\n") in
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Assign
      ( _,
        Ast.Binop
          ( Ast.Add,
            Ast.Var "A",
            Ast.Binop
              ( Ast.Mul,
                Ast.Var "B",
                Ast.Binop (Ast.Pow, Ast.Var "C", Ast.Binop (Ast.Pow, Ast.Int 2, Ast.Var "N"))
              ) ) ) ->
      () (* ** is right-associative and binds tighter than * *)
  | _ -> Alcotest.fail "precedence wrong");
  let u = parse1 (wrap "      L = A .LT. B .AND. .NOT. C .GT. D\n") in
  match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Assign
      ( _,
        Ast.Binop
          ( Ast.And,
            Ast.Binop (Ast.Lt, _, _),
            Ast.Unop (Ast.Not, Ast.Binop (Ast.Gt, _, _)) ) ) ->
      ()
  | _ -> Alcotest.fail "logical precedence wrong"

let parser_unary_minus () =
  let u = parse1 (wrap "      X = -A ** 2\n      Y = A ** -2\n") in
  (* Fortran: -A**2 = -(A**2) *)
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Assign (_, Ast.Unop (Ast.Neg, Ast.Binop (Ast.Pow, _, _))) -> ()
  | _ -> Alcotest.fail "-A**2 parsed wrong");
  match (List.nth u.Ast.body 1).Ast.stmt with
  | Ast.Assign (_, Ast.Binop (Ast.Pow, _, Ast.Unop (Ast.Neg, Ast.Int 2))) -> ()
  | _ -> Alcotest.fail "A**-2 parsed wrong"

let parser_if_forms () =
  let u =
    parse1
      (wrap
         "      IF (A .GT. 0) GOTO 10\n\
          \      IF (A .GT. 1) THEN\n\
          \        X = 1\n\
          \      ELSE IF (A .GT. 2) THEN\n\
          \        X = 2\n\
          \      ELSEIF (A .GT. 3) THEN\n\
          \        X = 3\n\
          \      ELSE\n\
          \        X = 4\n\
          \      END IF\n\
          10    CONTINUE\n")
  in
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.If_logical (_, Ast.Goto 10) -> ()
  | _ -> Alcotest.fail "logical IF");
  match (List.nth u.Ast.body 1).Ast.stmt with
  | Ast.If_block (arms, Some [ _ ]) -> check ci "three arms" 3 (List.length arms)
  | _ -> Alcotest.fail "block IF"

let parser_do_forms () =
  let u =
    parse1
      (wrap
         "      DO I = 1, 10\n\
          \        X = X + 1\n\
          \      END DO\n\
          \      DO 20 J = 1, 5, 2\n\
          \        Y = Y + 1\n\
          20    CONTINUE\n")
  in
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Do { do_var = "I"; do_step = None; do_body = [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "ENDDO form");
  match (List.nth u.Ast.body 1).Ast.stmt with
  | Ast.Do { do_var = "J"; do_step = Some (Ast.Int 2); do_body; _ } ->
      check ci "body incl terminator" 2 (List.length do_body)
  | _ -> Alcotest.fail "labeled form"

let parser_shared_do_terminator () =
  let u =
    parse1
      (wrap
         "      DO 10 I = 1, 3\n\
          \      DO 10 J = 1, 3\n\
          \        X = X + 1\n\
          10    CONTINUE\n\
          \      Y = 1\n")
  in
  check ci "two top-level statements" 2 (List.length u.Ast.body);
  match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Do { do_body = [ { Ast.stmt = Ast.Do { do_body = inner; _ }; _ } ]; _ } ->
      check ci "inner body has terminator" 2 (List.length inner)
  | _ -> Alcotest.fail "shared terminator structure"

let parser_computed_goto () =
  let u = parse1 (wrap "      GO TO (10, 20, 30), K\n10    CONTINUE\n20    CONTINUE\n30    CONTINUE\n") in
  match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Cgoto ([ 10; 20; 30 ], Ast.Var "K") -> ()
  | _ -> Alcotest.fail "computed goto"

let parser_units () =
  let p =
    Parser.parse_program
      "      PROGRAM M\n      CALL S\n      END\n\n      SUBROUTINE S\n      RETURN\n      END\n\n      REAL FUNCTION F(X)\n      F = X\n      END\n\n      FUNCTION G(Y)\n      G = Y\n      END\n"
  in
  check ci "four units" 4 (List.length p);
  (match (List.nth p 2).Ast.kind with
  | Ast.Function (Some Ast.Treal) -> ()
  | _ -> Alcotest.fail "typed function");
  match (List.nth p 3).Ast.kind with
  | Ast.Function None -> ()
  | _ -> Alcotest.fail "untyped function"

let parser_decls () =
  let u =
    parse1
      "      PROGRAM T\n      INTEGER A, B(10), C(4, 5)\n      REAL X(*)\n      PARAMETER (N = 100, M = N + 1)\n      A = 1\n      END\n"
  in
  check ci "three decls" 3 (List.length u.Ast.decls);
  match u.Ast.decls with
  | [ Ast.Dvar (Ast.Tint, [ ("A", []); ("B", [ 10 ]); ("C", [ 4; 5 ]) ]);
      Ast.Dvar (Ast.Treal, [ ("X", [ -1 ]) ]); Ast.Dparam [ ("N", _); ("M", _) ] ] ->
      ()
  | _ -> Alcotest.fail "decl shapes"

let parser_errors () =
  let expect_error src =
    match Parser.parse_program src with
    | exception Parser.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_error "      PROGRAM T\n      IF (X .GT. 0) THEN\n      X = 1\n      END\n";
  expect_error "      PROGRAM T\n      DO I = 1, 10\n      X = 1\n      END\n";
  expect_error "      PROGRAM T\n      DO 10 I = 1, 10\n      X = 1\n      END\n";
  expect_error "      PROGRAM T\n      X = \n      END\n";
  expect_error "      X = 1\n"

(* round-trip: parse (to_source ast) = ast, on random programs *)
let parser_roundtrip_prop =
  QCheck.Test.make ~count:120 ~name:"parse(print(ast)) = ast"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let ast = Gen_prog.gen_ast seed in
      let src = Ast.to_source ast in
      Parser.parse_program src = ast)

(* ---------------- Sema ---------------- *)

let sema_errors () =
  let expect_error src =
    match Sema.parse_and_analyze src with
    | exception Sema.Error _ -> ()
    | _ -> Alcotest.failf "expected sema error for %S" src
  in
  expect_error (wrap "      X = NOSUCH(1)\n"); (* unknown function *)
  expect_error (wrap "      CALL NOSUCH\n");
  expect_error "      PROGRAM T\n      INTEGER A(5)\n      X = A(1, 2)\n      END\n";
  expect_error "      PROGRAM T\n      RETURN\n      END\n"; (* RETURN in program *)
  expect_error "      PROGRAM T\n      GOTO 99\n      END\n"; (* unknown label *)
  expect_error "      PROGRAM T\n10    X = 1\n10    Y = 2\n      END\n"; (* dup label *)
  expect_error (wrap "      IF (X) Y = 1\n"); (* non-logical condition *)
  expect_error (wrap "      DO X = 1, 5\n      ENDDO\n"); (* real DO var *)
  expect_error "      PROGRAM T\n      PARAMETER (N = 3)\n      N = 4\n      END\n";
  expect_error "      PROGRAM T\n      END\n      PROGRAM U\n      END\n";
  expect_error "      SUBROUTINE ONLY\n      END\n" (* no PROGRAM *)

let sema_rewrites () =
  let env =
    Sema.parse_and_analyze
      "      PROGRAM T\n      REAL A(5)\n      PARAMETER (N = 3)\n      A(N) = SQRT(2.0)\n      K = N + 1\n      END\n"
  in
  let u = (Hashtbl.find env.Sema.by_name "T").Sema.unit_ in
  (match (List.hd u.Ast.body).Ast.stmt with
  | Ast.Assign (Ast.Larr ("A", [ Ast.Int 3 ]), Ast.Call ("SQRT", _)) ->
      () (* Call -> Larr resolved; PARAMETER substituted *)
  | _ -> Alcotest.fail "array/parameter rewrite");
  match (List.nth u.Ast.body 1).Ast.stmt with
  | Ast.Assign (Ast.Lvar "K", Ast.Int 4) -> () (* constant-folded *)
  | _ -> Alcotest.fail "constant folding of N + 1"

let sema_types () =
  let env =
    Sema.parse_and_analyze
      "      PROGRAM T\n      INTEGER X\n      LOGICAL FLAG\n      X = 1\n      FLAG = .TRUE.\n      Y = 1.0\n      END\n"
  in
  let vars = (Hashtbl.find env.Sema.by_name "T").Sema.vars in
  (match Hashtbl.find vars "X" with
  | Sema.Scalar Ast.Tint -> ()
  | _ -> Alcotest.fail "declared int");
  match Hashtbl.find_opt vars "Y" with
  | None -> () (* implicit: not in the table, typed on demand *)
  | Some (Sema.Scalar Ast.Treal) -> ()
  | _ -> Alcotest.fail "Y type"

(* ---------------- Lower ---------------- *)

let lower_fig1_shape () =
  let prog = Program.of_source (S89_workloads.Demos.fig1 ()) in
  let p = Program.find prog "FIG1" in
  let cfg = p.Program.cfg in
  (* ENTRY, M=, N=, IF(M), IF(NLT), IF(NGE), CALL, CONT, STOP *)
  check ci "node count" 9 (Cfg.num_nodes cfg);
  (match (Cfg.info cfg 3).Ir.ir with
  | Ir.Branch _ -> ()
  | _ -> Alcotest.fail "node 3 is the loop IF");
  check cb "labels of IF" true (Cfg.out_labels cfg 3 = [ Label.T; Label.F ]);
  (* GOTO 10 is an edge, not a node *)
  check cb "call loops back" true
    (List.exists (fun (e : Label.t S89_graph.Digraph.edge) -> e.dst = 3)
       (Cfg.succ_edges cfg 6));
  check cb "src_label kept" true ((Cfg.info cfg 3).Ir.src_label = Some 10)

let lower_do_structure () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      DO 10 I = 1, 10\n        X = X + 1.0\n10    CONTINUE\n      END\n"
  in
  let p = Program.find prog "T" in
  let cfg = p.Program.cfg in
  let header = ref (-1) in
  Cfg.iter_nodes
    (fun n ->
      match (Cfg.info cfg n).Ir.ir with
      | Ir.Do_test meta ->
          header := n;
          check cb "static trip" true (meta.Ir.static_trip = Some 10);
          check cs "do var" "I" meta.Ir.do_var
      | _ -> ())
    cfg;
  check cb "header found" true (!header >= 0);
  check cb "T and F out" true (Cfg.out_labels cfg !header = [ Label.T; Label.F ])

let lower_dynamic_trip () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      N = IRAND(5)\n      DO I = 1, N\n        X = X + 1.0\n      ENDDO\n      END\n"
  in
  let p = Program.find prog "T" in
  Cfg.iter_nodes
    (fun n ->
      match (Cfg.info p.Program.cfg n).Ir.ir with
      | Ir.Do_test meta -> check cb "dynamic trip" true (meta.Ir.static_trip = None)
      | _ -> ())
    p.Program.cfg

let lower_prunes_unreachable () =
  let prog =
    Program.of_source
      "      PROGRAM T\n      GOTO 10\n      X = 1\n      Y = 2\n10    CONTINUE\n      END\n"
  in
  let p = Program.find prog "T" in
  (* ENTRY, CONT, STOP: the two dead assigns pruned *)
  check ci "pruned nodes" 3 (Cfg.num_nodes p.Program.cfg)

let lower_irreducible_split () =
  let prog = Program.of_source (S89_workloads.Demos.irreducible ()) in
  let p = Program.main_proc prog in
  (* reducible after node splitting, so the full pipeline works *)
  check cb "valid" true (Cfg.validate p.Program.cfg = Ok ());
  ignore (S89_cfg.Intervals.compute p.Program.cfg);
  ignore (S89_profiling.Analysis.of_proc p)

let lower_multiple_exits () =
  let prog =
    Program.of_source
      "      SUBROUTINE S(X)\n      IF (X .GT. 0.0) RETURN\n      X = -X\n      RETURN\n      END\n\n      PROGRAM T\n      CALL S(Y)\n      END\n"
  in
  let p = Program.find prog "S" in
  check ci "two exits" 2 (List.length (Cfg.exits p.Program.cfg))

(* ---------------- Program ---------------- *)

let program_call_graph () =
  let prog =
    Program.of_source
      "      PROGRAM M\n      CALL A\n      X = F(1.0)\n      END\n\n      SUBROUTINE A\n      CALL B\n      END\n\n      SUBROUTINE B\n      RETURN\n      END\n\n      REAL FUNCTION F(Y)\n      F = Y + G(Y)\n      END\n\n      REAL FUNCTION G(Y)\n      G = Y\n      END\n"
  in
  check cs "main" "M" prog.Program.main;
  check cb "not recursive" false (Program.is_recursive prog);
  let callees p = List.sort compare (Program.callees prog (Program.find prog p)) in
  check (Alcotest.list cs) "M calls" [ "A"; "F" ] (callees "M");
  check (Alcotest.list cs) "A calls" [ "B" ] (callees "A");
  check (Alcotest.list cs) "F calls" [ "G" ] (callees "F");
  (* bottom-up: callees before callers *)
  let order = List.map (fun (p : Program.proc) -> p.Program.name) (Program.bottom_up prog) in
  let pos x = Option.get (List.find_index (String.equal x) order) in
  check cb "B before A" true (pos "B" < pos "A");
  check cb "A before M" true (pos "A" < pos "M");
  check cb "G before F" true (pos "G" < pos "F")

let program_recursion_detect () =
  let prog = Program.of_source (S89_workloads.Demos.recursive ()) in
  check cb "recursive" true (Program.is_recursive prog)

let suite =
  [
    Alcotest.test_case "lexer basics" `Quick lexer_basics;
    Alcotest.test_case "lexer numbers" `Quick lexer_numbers;
    Alcotest.test_case "lexer dotted ops" `Quick lexer_dotted;
    Alcotest.test_case "lexer comments/continuation" `Quick lexer_comments_continuation;
    Alcotest.test_case "lexer errors" `Quick lexer_errors;
    Alcotest.test_case "parser statements" `Quick parser_statements;
    Alcotest.test_case "parser expressions" `Quick parser_expressions;
    Alcotest.test_case "parser unary minus" `Quick parser_unary_minus;
    Alcotest.test_case "parser IF forms" `Quick parser_if_forms;
    Alcotest.test_case "parser DO forms" `Quick parser_do_forms;
    Alcotest.test_case "parser shared DO terminator" `Quick parser_shared_do_terminator;
    Alcotest.test_case "parser computed goto" `Quick parser_computed_goto;
    Alcotest.test_case "parser program units" `Quick parser_units;
    Alcotest.test_case "parser declarations" `Quick parser_decls;
    Alcotest.test_case "parser errors" `Quick parser_errors;
    QCheck_alcotest.to_alcotest parser_roundtrip_prop;
    Alcotest.test_case "sema errors" `Quick sema_errors;
    Alcotest.test_case "sema rewrites" `Quick sema_rewrites;
    Alcotest.test_case "sema types" `Quick sema_types;
    Alcotest.test_case "lower fig1 shape" `Quick lower_fig1_shape;
    Alcotest.test_case "lower DO structure" `Quick lower_do_structure;
    Alcotest.test_case "lower dynamic trip" `Quick lower_dynamic_trip;
    Alcotest.test_case "lower prunes unreachable" `Quick lower_prunes_unreachable;
    Alcotest.test_case "lower splits irreducible" `Quick lower_irreducible_split;
    Alcotest.test_case "lower multiple exits" `Quick lower_multiple_exits;
    Alcotest.test_case "program call graph" `Quick program_call_graph;
    Alcotest.test_case "program recursion" `Quick program_recursion_detect;
  ]

(* ---------------- intrinsics registry & IR helpers ---------------- *)

let intrinsics_registry () =
  check cb "SQRT known" true (Intrinsics.is_intrinsic "SQRT");
  check cb "unknown" false (Intrinsics.is_intrinsic "FROBNICATE");
  (match Intrinsics.lookup "MIN" with
  | Some info ->
      check ci "min arity" 2 info.Intrinsics.min_arity;
      check cb "variadic" true (info.Intrinsics.max_arity = max_int)
  | None -> Alcotest.fail "MIN missing");
  (match Intrinsics.lookup "SQRT" with
  | Some info -> check cb "expensive" true (info.Intrinsics.cost = Intrinsics.Expensive)
  | None -> Alcotest.fail "SQRT missing");
  check cb "IABS result int" true
    (Intrinsics.result_type "IABS" [ Ast.Treal ] = Ast.Tint);
  check cb "ABS generic" true
    (Intrinsics.result_type "ABS" [ Ast.Treal ] = Ast.Treal
    && Intrinsics.result_type "ABS" [ Ast.Tint ] = Ast.Tint)

let ir_exprs_of () =
  let e1 = Ast.Var "X" and e2 = Ast.Int 3 in
  check ci "assign lvar" 1 (List.length (Ir.exprs_of (Ir.Assign (Ast.Lvar "Y", e1))));
  check ci "assign larr" 2
    (List.length (Ir.exprs_of (Ir.Assign (Ast.Larr ("A", [ e2 ]), e1))));
  check ci "branch" 1 (List.length (Ir.exprs_of (Ir.Branch e1)));
  check ci "entry none" 0 (List.length (Ir.exprs_of Ir.Entry));
  check ci "return none" 0 (List.length (Ir.exprs_of Ir.Return));
  check ci "call args" 2
    (List.length (Ir.exprs_of (Ir.Call ("F", [ e1; e2 ]))));
  (* Do_test reads its trip var implicitly; no expression surfaces *)
  check ci "do_test none" 0
    (List.length
       (Ir.exprs_of
          (Ir.Do_test { Ir.trip_var = "%TRIP1"; static_trip = None; do_var = "I" })))

let sema_whole_array_args () =
  (* regression for the whole-array-by-reference fix *)
  let prog =
    Program.of_source
      "      PROGRAM T\n      REAL A(4)\n      CALL FILL(A)\n      PRINT *, A(2)\n      END\n\n      SUBROUTINE FILL(X)\n      REAL X(*)\n      X(2) = 7.0\n      END\n"
  in
  ignore prog;
  (* and it must still reject whole arrays in ordinary expressions *)
  match
    Sema.parse_and_analyze
      "      PROGRAM T\n      REAL A(4)\n      X = A + 1.0\n      END\n"
  with
  | exception Sema.Error _ -> ()
  | _ -> Alcotest.fail "whole array in arithmetic should be rejected"

let suite =
  suite
  @ [
      Alcotest.test_case "intrinsics registry" `Quick intrinsics_registry;
      Alcotest.test_case "ir exprs_of" `Quick ir_exprs_of;
      Alcotest.test_case "sema whole-array args" `Quick sema_whole_array_args;
    ]

(* ---------------- frontend goldens ---------------- *)

module Codec = S89_util.Codec
module Digraph = S89_graph.Digraph

(* One line per node of a lowered CFG: its node type, its statement, and
   its out- and in-edges in stored order; then the entry and the exits. *)
let add_cfg b cfg =
  Cfg.iter_nodes
    (fun n ->
      Printf.bprintf b "%d %s " n (S89_cfg.Node_type.to_string (Cfg.node_type cfg n));
      Ir.add_info b (Cfg.info cfg n);
      Buffer.add_string b " >";
      List.iter
        (fun (e : Label.t Digraph.edge) ->
          Printf.bprintf b " %d%s" e.dst (Label.to_string e.label))
        (Cfg.succ_edges cfg n);
      Buffer.add_string b " <";
      List.iter
        (fun (e : Label.t Digraph.edge) ->
          Printf.bprintf b " %d%s" e.src (Label.to_string e.label))
        (Cfg.pred_edges cfg n);
      Buffer.add_char b '\n')
    cfg;
  Printf.bprintf b "entry %d exits" (Cfg.entry cfg);
  List.iter (Printf.bprintf b " %d") (Cfg.exits cfg);
  Buffer.add_char b '\n'

(* Per procedure: the digest of its AST, marshalled without sharing as
   the memo's body fingerprint does, and of its CFG's rendering. *)
let frontend_digest sources =
  let b = Buffer.create 4096 and procs = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun (p : Program.proc) ->
          incr procs;
          let ast = Marshal.to_string p.Program.env.Sema.unit_ [ Marshal.No_sharing ] in
          let cfg = Buffer.create 1024 in
          add_cfg cfg p.Program.cfg;
          Printf.bprintf b "%s %s %s\n" p.Program.name
            (Digest.to_hex (Digest.string ast))
            (Digest.to_hex (Digest.string (Buffer.contents cfg))))
        (Program.procs (Program.of_source src)))
    sources;
  (Codec.fnv64_hex (Buffer.contents b), !procs)

let golden_sources () =
  let open S89_workloads in
  [ Demos.fig1 (); Demos.branchy (); Demos.chunky (); Demos.nested_random ();
    Demos.recursive (); Demos.irreducible (); Demos.computed_goto ();
    Demos.sort (); Demos.sieve (); Livermore.source;
    Simple_code.source ~n:16 ~cycles:2 (); Linpack_like.source ();
    Gen_prog.gen_wide_cfg_source ~nodes:1100 ();
    Gen_prog.gen_wide_cfg_source ~nodes:4400 () ]
  @ List.init 100 (fun i -> Gen_prog.gen_source (i + 1))
  @ List.init 25 (fun i -> Gen_prog.gen_call_mix_source (3 + (4 * i)))
  @ [ Gen_prog.gen_incremental_source ~size:8 ~consts:(Array.init 50 Fun.id) 401 ]

(* The lexer, parser, sema and lowering may change how they work, but
   not a byte of what they produce.  In-edges are the transpose of the
   out-edges, by source then slot, in node-split procedures too. *)
let golden_frontend () =
  check Alcotest.(pair string int) "ASTs and CFGs" ("55f52d6b529031ee", 436)
    (frontend_digest (golden_sources ()))

(* (code, line, message) of every rejected fuzz input: the fuzzer's
   line mutations and byte flips of generated programs, seeds 1-500,
   then an INT literal and a statement label past [max_int], and DO
   steps of 0 and -0.  An exception that escapes the diagnostic shim is
   pinned too. *)
let golden_diagnostics () =
  let b = Buffer.create 4096 and rejected = ref 0 in
  let add input =
    match Program.of_source_result input with
    | Ok _ -> Buffer.add_string b "ok\n"
    | Error (d : S89_diag.Diag.t) ->
        incr rejected;
        Printf.bprintf b "%s %s %s\n" d.code
          (match d.line with Some l -> string_of_int l | None -> "-")
          d.message
    | exception e -> Printf.bprintf b "exn %s\n" (Printexc.to_string e)
  in
  for seed = 1 to 500 do
    let src = Gen_prog.gen_source seed in
    List.iter add [ Gen_prog.mutate seed src; Gen_prog.corrupt seed src ]
  done;
  List.iter add
    [ "      PROGRAM A\n      I = 99999999999999999999\n      END\n";
      "      PROGRAM A\n      X = 1.0\n99999999999999999999 CONTINUE\n      END\n";
      "      PROGRAM A\n      DO 10 I = 1, 10, 0\n      X = 1.0\n10    CONTINUE\n      END\n";
      "      PROGRAM A\n      DO 10 I = 1, 10, -0\n      X = 1.0\n10    CONTINUE\n      END\n" ];
  check Alcotest.(pair string int) "diagnostics" ("753436f1a77f7da8", 897)
    (Codec.fnv64_hex (Buffer.contents b), !rejected)

(* One line per ECFG node: its type, its out-edges in stored order and
   its in-edges as a sorted multiset (their order is the graph's
   transpose, not a property of the construction); then START and STOP. *)
let add_ecfg b (ecfg : _ S89_cfg.Ecfg.t) =
  let ext = S89_cfg.Ecfg.cfg ecfg in
  let edge_str v l = string_of_int v ^ Label.to_string l in
  Cfg.iter_nodes
    (fun n ->
      Printf.bprintf b "%d %s >" n (S89_cfg.Node_type.to_string (Cfg.node_type ext n));
      List.iter
        (fun (e : Label.t Digraph.edge) -> Printf.bprintf b " %s" (edge_str e.dst e.label))
        (Cfg.succ_edges ext n);
      Buffer.add_string b " <";
      List.map (fun (e : Label.t Digraph.edge) -> edge_str e.src e.label) (Cfg.pred_edges ext n)
      |> List.sort compare
      |> List.iter (Printf.bprintf b " %s");
      Buffer.add_char b '\n')
    ext;
  Printf.bprintf b "start %d stop %d\n" (S89_cfg.Ecfg.start ecfg) (S89_cfg.Ecfg.stop ecfg)

(* Preheader, postexit, START and STOP ids and every edge the ECFG
   construction redirects, for every procedure of the frontend golden. *)
let golden_ecfg () =
  let b = Buffer.create 4096 and procs = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun (p : Program.proc) ->
          incr procs;
          let e = Buffer.create 1024 in
          add_ecfg e (S89_cfg.Ecfg.extend ~empty:Lower.dummy_info p.Program.cfg);
          Printf.bprintf b "%s %s\n" p.Program.name (Digest.to_hex (Digest.string (Buffer.contents e))))
        (Program.procs (Program.of_source src)))
    (golden_sources ());
  check Alcotest.(pair string int) "ECFGs" ("d289fcf3851175b0", 436) (Codec.fnv64_hex (Buffer.contents b), !procs)

let suite =
  suite
  @ [
      Alcotest.test_case "golden: frontend ASTs and CFGs" `Quick golden_frontend;
      Alcotest.test_case "golden: frontend diagnostics" `Quick golden_diagnostics;
      Alcotest.test_case "golden: ECFGs" `Quick golden_ecfg;
    ]

(* ---------------- frontend allocation ---------------- *)

(* Bytes allocated by [f ()], counted exactly after a warm-up call:
   minor-heap words plus direct major-heap allocations (major words
   minus promotions), as the analysis allocation guard counts them. *)
let alloc_bytes f =
  let major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  ignore (Sys.opaque_identity (f ()));
  let m0 = Gc.minor_words () and j0 = major () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. m0 +. (major () -. j0)) *. float_of_int (Sys.word_size / 8)

(* Work, not wall time: on the 50 x 8 incremental program (0.42 MB) the
   lexer allocates per token, not per character (a lexer that built a
   record, a list cell and a string copy per token took 21 bytes per
   source byte), and the whole frontend allocates at most 0.6x the
   28.2 MB that frontend took. *)
let frontend_allocation () =
  let src = Gen_prog.gen_incremental_source ~size:8 ~consts:(Array.init 50 Fun.id) 401 in
  let lex = alloc_bytes (fun () -> Lexer.tokenize src) in
  let per_byte = lex /. float_of_int (String.length src) in
  if per_byte > 10.0 then
    Alcotest.failf "lexer: %.2f bytes per source byte, ceiling 10" per_byte;
  let total = alloc_bytes (fun () -> Program.of_source src) in
  if total > 0.6 *. 28.2e6 then
    Alcotest.failf "Program.of_source: %.2f MB, ceiling %.2f MB" (total /. 1e6)
      (0.6 *. 28.2)

(* The same program's lowering, every unit: each CFG goes through an
   append-only builder sized from the unit's statement count and is
   frozen once.  With the mutable list graph it took 4.37 MB; the
   ceiling is the exact count this lowering reaches, so any growth
   fails.  It is a no-regression pin, not a target: the 0.5x (2.18 MB)
   aimed for is not reached. *)
let lowering_allocation () =
  let src = Gen_prog.gen_incremental_source ~size:8 ~consts:(Array.init 50 Fun.id) 401 in
  let units = (Sema.parse_and_analyze src).Sema.units in
  let lower =
    alloc_bytes (fun () ->
        List.iter (fun env -> ignore (Sys.opaque_identity (Lower.lower_unit env))) units)
  in
  if lower > 3_328_600. then
    Alcotest.failf "Lower.lower_unit: %.0f bytes, ceiling 3328600" lower

let suite =
  suite
  @ [
      Alcotest.test_case "frontend allocation per token" `Quick frontend_allocation;
      Alcotest.test_case "lowering allocation" `Quick lowering_allocation;
    ]

(* Lowering runs the Hecht–Ullman test on the DFS it prunes with and
   splits nodes only when that test fails: every CFG it returns must pass
   the forward-part definition, including those with a GOTO into a DO
   body (a second entry to the loop) or a backward GOTO. *)
let lower_always_reducible () =
  let reducible src =
    match Program.of_source_result src with
    | Error _ -> true
    | Ok prog ->
        List.for_all
          (fun (p : Program.proc) ->
            let cfg = p.Program.cfg in
            S89_graph.Reducibility.is_reducible (Cfg.graph cfg) ~root:(Cfg.entry cfg))
          (Program.procs prog)
  in
  let into_do =
    "      PROGRAM T\n      I = IRAND(2)\n      IF (I .EQ. 1) GOTO 20\n\
    \      DO 30 J = 1, 3\n      X = 1.0\n20    Y = 2.0\n30    CONTINUE\n      END\n"
  in
  let into_nested =
    "      PROGRAM T\n      DO 40 K = 1, 2\n      IF (K .EQ. 1) GOTO 20\n\
    \      DO 30 J = 1, 3\n      X = 1.0\n20    Y = 2.0\n30    CONTINUE\n40    CONTINUE\n      END\n"
  in
  let backward =
    "      PROGRAM T\n      I = 0\n10    I = I + 1\n      IF (I .LT. 5) GOTO 10\n      END\n"
  in
  List.iter
    (fun (name, src) -> check cb name true (reducible src))
    [ ("GOTO into a DO body", into_do); ("GOTO into a nested DO body", into_nested);
      ("backward GOTO", backward) ];
  (* the GOTO into the DO body is a second entry: splitting copied the
     statement labelled 20 *)
  let cfg = (Program.main_proc (Program.of_source into_do)).Program.cfg in
  let copies = ref 0 in
  Cfg.iter_nodes
    (fun n -> if (Cfg.info cfg n).Ir.src_label = Some 20 then incr copies)
    cfg;
  check cb "label 20 split" true (!copies > 1);
  for seed = 1 to 300 do
    let src = Gen_prog.gen_source seed in
    if not (reducible (Gen_prog.mutate seed src)) then
      Alcotest.failf "seed %d: mutated program lowered to an irreducible CFG" seed
  done

let suite =
  suite
  @ [ Alcotest.test_case "lower: every CFG reducible (GOTOs into DO bodies, mutants)" `Quick
        lower_always_reducible ]
