(* Random MF77 program generator for property-based testing.

   Generated programs are:
   - terminating: every loop is a bounded DO; GOTOs only jump forward
     (conditional loop exits included, via EXIT-style forward GOTOs);
   - reducible by construction (backward edges come only from DO latches),
     which matches the paper's assumption;
   - runnable: variables are initialized before use, subscripts stay in
     bounds, RAND()/IRAND() make branch outcomes and trip counts vary with
     the VM seed.

   The generator produces an AST (so parser round-trip tests can compare
   structurally) and the matching source text comes from Ast.pp_program. *)

module Ast = S89_frontend.Ast
module Prng = S89_util.Prng

type ctx = {
  rng : Prng.t;
  mutable next_label : int;
  mutable depth : int; (* nesting depth, to bound program size *)
  mutable stmts_left : int; (* budget *)
  mutable exit_labels : int list; (* labels of enclosing-loop exits *)
}

let scalars = [ "X"; "Y"; "Z"; "W" ] (* REAL by implicit typing *)
let ints = [ "I"; "J"; "K"; "M" ] (* INTEGER by implicit typing *)
let array_name = "A"
let array_size = 32

let pick ctx xs = List.nth xs (Prng.int ctx.rng (List.length xs))

let fresh_label ctx =
  ctx.next_label <- ctx.next_label + 10;
  ctx.next_label

(* integer expression in a small safe range *)
let rec gen_int_expr ctx depth : Ast.expr =
  if depth <= 0 || Prng.int ctx.rng 3 = 0 then
    match Prng.int ctx.rng 3 with
    | 0 -> Ast.Int (1 + Prng.int ctx.rng 5)
    | 1 -> Ast.Var (pick ctx ints)
    | _ -> Ast.Call ("IRAND", [ Ast.Int (2 + Prng.int ctx.rng 6) ])
  else
    match Prng.int ctx.rng 3 with
    | 0 -> Ast.Binop (Ast.Add, gen_int_expr ctx (depth - 1), gen_int_expr ctx (depth - 1))
    | 1 -> Ast.Call ("MAX0", [ gen_int_expr ctx (depth - 1); Ast.Int 1 ])
    | _ -> Ast.Call ("MIN0", [ gen_int_expr ctx (depth - 1); Ast.Int 9 ])

(* bounded-index array subscript: 1 + MOD(|ie|, size) *)
let safe_subscript ctx =
  Ast.Binop
    ( Ast.Add,
      Ast.Int 1,
      Ast.Call ("MOD", [ Ast.Call ("IABS", [ gen_int_expr ctx 1 ]); Ast.Int array_size ])
    )

let rec gen_real_expr ctx depth : Ast.expr =
  if depth <= 0 || Prng.int ctx.rng 3 = 0 then
    match Prng.int ctx.rng 4 with
    | 0 -> Ast.Real (float_of_int (Prng.int ctx.rng 100) /. 10.0)
    | 1 -> Ast.Var (pick ctx scalars)
    | 2 -> Ast.Call ("RAND", [])
    | _ ->
        (* parser-level AST: array refs in expressions are unresolved Calls *)
        Ast.Call (array_name, [ safe_subscript ctx ])
  else
    match Prng.int ctx.rng 5 with
    | 0 ->
        Ast.Binop (Ast.Add, gen_real_expr ctx (depth - 1), gen_real_expr ctx (depth - 1))
    | 1 ->
        Ast.Binop (Ast.Mul, gen_real_expr ctx (depth - 1), gen_real_expr ctx (depth - 1))
    | 2 -> Ast.Call ("ABS", [ gen_real_expr ctx (depth - 1) ])
    | 3 -> Ast.Call ("SQRT", [ Ast.Call ("ABS", [ gen_real_expr ctx (depth - 1) ]) ])
    | _ ->
        Ast.Binop (Ast.Sub, gen_real_expr ctx (depth - 1), gen_real_expr ctx (depth - 1))

let gen_cond ctx : Ast.expr =
  let rel = pick ctx [ Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
  if Prng.bool ctx.rng then Ast.Binop (rel, gen_real_expr ctx 1, gen_real_expr ctx 1)
  else Ast.Binop (rel, gen_int_expr ctx 1, gen_int_expr ctx 1)

let gen_assign ctx : Ast.stmt =
  match Prng.int ctx.rng 4 with
  | 0 -> Ast.Assign (Ast.Lvar (pick ctx ints), gen_int_expr ctx 2)
  | 1 | 2 -> Ast.Assign (Ast.Lvar (pick ctx scalars), gen_real_expr ctx 2)
  | _ -> Ast.Assign (Ast.Larr (array_name, [ safe_subscript ctx ]), gen_real_expr ctx 2)

let rec gen_stmt ctx : Ast.lstmt list =
  ctx.stmts_left <- ctx.stmts_left - 1;
  let simple s = [ { Ast.label = None; stmt = s } ] in
  let choice = Prng.int ctx.rng 11 in
  if ctx.stmts_left <= 0 || ctx.depth >= 3 then simple (gen_assign ctx)
  else
    match choice with
    | 0 | 1 | 2 | 3 -> simple (gen_assign ctx)
    | 4 | 5 ->
        (* IF block, possibly with ELSE *)
        let arms = [ (gen_cond ctx, gen_block ctx (1 + Prng.int ctx.rng 3)) ] in
        let arms =
          if Prng.int ctx.rng 3 = 0 then
            arms @ [ (gen_cond ctx, gen_block ctx (1 + Prng.int ctx.rng 2)) ]
          else arms
        in
        let els =
          if Prng.bool ctx.rng then Some (gen_block ctx (1 + Prng.int ctx.rng 2))
          else None
        in
        simple (Ast.If_block (arms, els))
    | 6 | 7 ->
        (* bounded DO loop, constant or variable trip count *)
        let var = pick ctx ints in
        let lo = Ast.Int 1 in
        let hi =
          if Prng.bool ctx.rng then Ast.Int (1 + Prng.int ctx.rng 6)
          else Ast.Call ("IRAND", [ Ast.Int (1 + Prng.int ctx.rng 6) ])
        in
        ctx.depth <- ctx.depth + 1;
        let exit_label = fresh_label ctx in
        let saved = ctx.exit_labels in
        ctx.exit_labels <- exit_label :: saved;
        let body = gen_block ctx (1 + Prng.int ctx.rng 4) in
        ctx.exit_labels <- saved;
        ctx.depth <- ctx.depth - 1;
        [ { Ast.label = None;
            stmt = Ast.Do { do_var = var; do_lo = lo; do_hi = hi; do_step = None;
                            do_body = body } };
          (* landing pad for conditional exits out of this loop *)
          { Ast.label = Some exit_label; stmt = Ast.Continue } ]
    | 8 ->
        (* conditional loop exit (forward GOTO), if inside a loop *)
        (match ctx.exit_labels with
        | l :: _ -> simple (Ast.If_logical (gen_cond ctx, Ast.Goto l))
        | [] -> simple (gen_assign ctx))
    | 9 ->
        (* call the auxiliary subroutine *)
        simple (Ast.Call_stmt ("HELPER", [ Ast.Var (pick ctx scalars) ]))
    | _ ->
        (* computed GOTO dispatcher with forward targets only *)
        let l1 = fresh_label ctx in
        let l2 = fresh_label ctx in
        let lend = fresh_label ctx in
        [ { Ast.label = None; stmt = Ast.Cgoto ([ l1; l2 ], gen_int_expr ctx 1) };
          (* out-of-range selector falls through here *)
          { Ast.label = None; stmt = gen_assign ctx };
          { Ast.label = None; stmt = Ast.Goto lend };
          { Ast.label = Some l1; stmt = gen_assign ctx };
          { Ast.label = None; stmt = Ast.Goto lend };
          { Ast.label = Some l2; stmt = gen_assign ctx };
          { Ast.label = Some lend; stmt = Ast.Continue } ]

and gen_block ctx n : Ast.block =
  if n <= 0 then [ { Ast.label = None; stmt = gen_assign ctx } ]
  else List.concat (List.init n (fun _ -> gen_stmt ctx))

let helper_unit : Ast.program_unit =
  {
    kind = Ast.Subroutine;
    name = "HELPER";
    params = [ "V" ];
    decls = [];
    body =
      [
        { Ast.label = None;
          stmt =
            Ast.If_block
              ( [ ( Ast.Binop (Ast.Gt, Ast.Var "V", Ast.Real 0.5),
                    [ { Ast.label = None;
                        stmt = Ast.Assign (Ast.Lvar "V", Ast.Binop (Ast.Mul, Ast.Var "V", Ast.Real 0.5)) } ] )
                ],
                Some
                  [ { Ast.label = None;
                      stmt = Ast.Assign (Ast.Lvar "V", Ast.Binop (Ast.Add, Ast.Var "V", Ast.Real 0.25)) } ] )
        };
      ];
  }

(* generate a full program AST from a seed *)
(* initialize everything the generator may read *)
let prelude () =
  List.map
    (fun v -> { Ast.label = None; stmt = Ast.Assign (Ast.Lvar v, Ast.Int 1) })
    ints
  @ List.map
      (fun v ->
        { Ast.label = None; stmt = Ast.Assign (Ast.Lvar v, Ast.Call ("RAND", [])) })
      scalars
  @ [ { Ast.label = None;
        stmt =
          Ast.Do
            { do_var = "I"; do_lo = Ast.Int 1; do_hi = Ast.Int array_size;
              do_step = None;
              do_body =
                [ { Ast.label = None;
                    stmt =
                      Ast.Assign
                        (Ast.Larr (array_name, [ Ast.Var "I" ]), Ast.Call ("RAND", []))
                  } ] } } ]

let gen_ast ?(size = 14) seed : Ast.program =
  let ctx =
    { rng = Prng.create ~seed; next_label = 100; depth = 0; stmts_left = size;
      exit_labels = [] }
  in
  let body = prelude () @ gen_block ctx (3 + Prng.int ctx.rng 4) in
  let main =
    {
      Ast.kind = Ast.Program;
      name = "RANDPROG";
      params = [];
      decls = [ Ast.Dvar (Ast.Treal, [ (array_name, [ array_size ]) ]) ];
      body;
    }
  in
  [ main; helper_unit ]

let gen_source ?size seed : string = Ast.to_source (gen_ast ?size seed)

let gen_program ?size seed : S89_frontend.Program.t =
  S89_frontend.Program.of_source (gen_source ?size seed)

(* ---------------- irreducible programs (node splitting) ---------------- *)

(* A [gen_ast]-style main program with a second entry into a DO body: a
   conditional GOTO either from before the loop into its body, or from
   the body of one loop into the body of the next.  Such a loop has two
   entries, so its CFG is irreducible and lowering splits nodes.  A jump
   into a body skips the loop's trip-count initialization; the latch then
   finds no positive count and leaves the loop, so the program still
   terminates.  Its own random stream: [gen_ast]'s programs do not move. *)
let gen_irreducible_ast seed : Ast.program =
  let ctx =
    { rng = Prng.create ~seed; next_label = 100; depth = 1; stmts_left = 8;
      exit_labels = [] }
  in
  let do_loop body =
    { Ast.label = None;
      stmt =
        Ast.Do
          { do_var = pick ctx ints; do_lo = Ast.Int 1;
            do_hi = Ast.Int (1 + Prng.int ctx.rng 5); do_step = None; do_body = body } }
  in
  let target = fresh_label ctx in
  let jump = { Ast.label = None; stmt = Ast.If_logical (gen_cond ctx, Ast.Goto target) } in
  let before = gen_block ctx 1 in
  let landing = { Ast.label = Some target; stmt = gen_assign ctx } in
  let entered = do_loop (before @ [ landing ] @ gen_block ctx 1) in
  let fragment =
    if Prng.bool ctx.rng then [ jump; entered ]
    else [ do_loop (gen_block ctx 1 @ [ jump ] @ gen_block ctx 1); entered ]
  in
  let body =
    prelude () @ gen_block ctx (1 + Prng.int ctx.rng 2) @ fragment
    @ gen_block ctx (1 + Prng.int ctx.rng 2)
  in
  [ { Ast.kind = Ast.Program; name = "IRRPROG"; params = [];
      decls = [ Ast.Dvar (Ast.Treal, [ (array_name, [ array_size ]) ]) ]; body };
    helper_unit ]

let gen_irreducible_source seed : string = Ast.to_source (gen_irreducible_ast seed)

(* ---------------- scale generators (incremental benchmarks) -------- *)

let proc_name i = Printf.sprintf "P%d" i

(* One randomly-generated subroutine: the shared prelude, a random body
   with the [gen_ast] statement distribution, then an editable constant
   update and (optionally) a call to [call] — the call-DAG edges the
   incremental-analysis benchmarks rely on.  The body depends only on
   [seed] and [const], so bumping one procedure's constant regenerates a
   program identical everywhere else. *)
let gen_unit ?(size = 3) ~seed ~name ?call ~const () : Ast.program_unit =
  let ctx =
    { rng = Prng.create ~seed; next_label = 100; depth = 0; stmts_left = 12 * size;
      exit_labels = [] }
  in
  let tail =
    { Ast.label = None;
      stmt =
        Ast.Assign
          (Ast.Lvar "X", Ast.Binop (Ast.Add, Ast.Var "X", Ast.Real (float_of_int const)))
    }
    ::
    (match call with
    | None -> []
    | Some callee ->
        [ { Ast.label = None; stmt = Ast.Call_stmt (callee, [ Ast.Var "X" ]) } ])
  in
  { Ast.kind = Ast.Subroutine; name; params = [ "X" ];
    decls = [ Ast.Dvar (Ast.Treal, [ (array_name, [ array_size ]) ]) ];
    body = prelude () @ gen_block ctx (size + Prng.int ctx.rng 3) @ tail }

(* A multi-procedure program for incremental-analysis benchmarks: MAIN
   calls [P0..P<k-1>]; each [P<i>] additionally calls [P<i+fan>], so the
   dirty cone of an edit to [P<j>] is its caller chain
   [{P<j>, P<j-fan>, ..., MAIN}].  [consts.(i)] is [P<i>]'s editable
   constant: bump one slot and regenerate to model a procedure-local
   edit. *)
let gen_incremental_ast ?size ?(fan = 3) ~consts seed : Ast.program =
  let k = Array.length consts in
  let main =
    { Ast.kind = Ast.Program; name = "DRIVER"; params = []; decls = [];
      body =
        { Ast.label = None; stmt = Ast.Assign (Ast.Lvar "X", Ast.Real 0.0) }
        :: List.init k (fun i ->
               { Ast.label = None;
                 stmt = Ast.Call_stmt (proc_name i, [ Ast.Var "X" ]) }) }
  in
  let units =
    List.init k (fun i ->
        gen_unit ?size
          ~seed:(seed lxor ((i + 1) * 0x9e3779))
          ~name:(proc_name i)
          ?call:(if i + fan < k then Some (proc_name (i + fan)) else None)
          ~const:consts.(i) ())
  in
  (main :: units) @ [ helper_unit ]

let gen_incremental_source ?size ?fan ~consts seed : string =
  Ast.to_source (gen_incremental_ast ?size ?fan ~consts seed)

(* A single-procedure program whose statement-level CFG has roughly
   [nodes] nodes: repeated DO loops of branch diamonds with conditional
   exits — long postdominator chains crossed by loop-exit edges, the
   shape that punishes ancestor-walk control-dependence construction. *)
let gen_wide_cfg_source ?(nodes = 100_000) () : string =
  let diamonds = 40 in
  (* statements per block: loop header/footer + exit + 4 per diamond *)
  let per_block = (4 * diamonds) + 5 in
  let blocks = max 1 ((nodes + per_block - 1) / per_block) in
  let b = Buffer.create (nodes * 32) in
  Buffer.add_string b "      PROGRAM WIDE\n      X = RAND()\n";
  for blk = 0 to blocks - 1 do
    let l = 100 + (10 * blk) in
    Printf.bprintf b "      DO %d I = 1, 3\n" l;
    for _ = 1 to diamonds do
      Buffer.add_string b "      IF (X .GT. 0.5) THEN\n";
      Buffer.add_string b "      X = X * 0.5\n";
      Buffer.add_string b "      ELSE\n";
      Buffer.add_string b "      X = X + 0.25\n";
      Buffer.add_string b "      ENDIF\n"
    done;
    Printf.bprintf b "      IF (X .GT. 0.9) GOTO %d\n" (l + 5);
    Printf.bprintf b "%d    CONTINUE\n" l;
    Printf.bprintf b "%d    CONTINUE\n" (l + 5)
  done;
  Buffer.add_string b "      END\n";
  Buffer.contents b

(* ---------------- call mixes (dummy-argument typing) ---------------- *)

(* A program whose helpers take 1-3 scalar dummies, some declared INTEGER
   or REAL and some typed implicitly, and whose call sites pass INTEGER
   and REAL locals, literals, expressions, array elements and forwarded
   dummies, so that sites often disagree on a dummy's binding type.
   Helper [H<k>] calls only helpers [H<m>], m > k, and the function
   [FM], so there is no recursion; no subscript leaves its bounds and no
   division is by a variable, so every program runs to completion. *)
let gen_call_mix_ast seed : Ast.program =
  let rng = Prng.create ~seed in
  let pick xs = List.nth xs (Prng.int rng (List.length xs)) in
  let n_helpers = 2 + Prng.int rng 4 in
  let st s = { Ast.label = None; stmt = s } in
  let helper_name k = Printf.sprintf "H%d" k in
  (* dummies: names that type implicitly either way, some declared *)
  let dummies =
    Array.init n_helpers (fun k ->
        List.init (1 + Prng.int rng 3) (fun d ->
            let name = Printf.sprintf "%s%d%d" (pick [ "N"; "A" ]) k d in
            (name, pick [ None; None; Some Ast.Tint; Some Ast.Treal ])))
  in
  let elem () =
    Ast.Call (pick [ "IA"; "RA" ], [ Ast.Int (1 + Prng.int rng 4) ])
  in
  (* an actual argument in a unit whose scalars are [vars] *)
  let actual vars =
    match Prng.int rng 6 with
    | 0 | 1 -> Ast.Var (pick vars)
    | 2 -> pick [ Ast.Int (1 + Prng.int rng 5); Ast.Real (0.5 *. float_of_int (Prng.int rng 7)) ]
    | 3 ->
        Ast.Binop
          (pick [ Ast.Add; Ast.Mul ], Ast.Var (pick vars),
           pick [ Ast.Int (1 + Prng.int rng 3); Ast.Real 0.5 ])
    | _ -> elem ()
  in
  let call_to vars m =
    Ast.Call_stmt (helper_name m, List.map (fun _ -> actual vars) dummies.(m))
  in
  let fm vars = Ast.Call ("FM", [ actual vars ]) in
  let helper k =
    let names = List.map fst dummies.(k) in
    let d () = pick names in
    let update () =
      match Prng.int rng 5 with
      | 0 -> Ast.Assign (Ast.Lvar (d ()), Ast.Binop (Ast.Add, Ast.Var (d ()), Ast.Var (d ())))
      | 1 ->
          Ast.If_logical
            ( Ast.Binop (Ast.Gt, Ast.Var (d ()), Ast.Int (2 + Prng.int rng 6)),
              Ast.Assign (Ast.Lvar (d ()), Ast.Binop (Ast.Sub, Ast.Var (d ()), Ast.Real 1.5)) )
      | 2 -> Ast.Assign (Ast.Lvar (d ()), Ast.Binop (Ast.Mul, Ast.Var (d ()), Ast.Real 0.75))
      | 3 -> Ast.Assign (Ast.Lvar (d ()), Ast.Binop (Ast.Add, fm names, Ast.Int 1))
      | _ ->
          if k + 1 < n_helpers then call_to names (k + 1 + Prng.int rng (n_helpers - k - 1))
          else Ast.Assign (Ast.Lvar (d ()), Ast.Call ("ABS", [ Ast.Var (d ()) ]))
    in
    (* local arrays, so that helpers pass array elements too *)
    let decls =
      [ Ast.Dvar (Ast.Tint, [ ("IA", [ 4 ]) ]); Ast.Dvar (Ast.Treal, [ ("RA", [ 4 ]) ]) ]
      @ List.filter_map
          (fun (name, ty) -> Option.map (fun ty -> Ast.Dvar (ty, [ (name, []) ])) ty)
          dummies.(k)
    in
    { Ast.kind = Ast.Subroutine; name = helper_name k; params = names; decls;
      body = List.init (2 + Prng.int rng 3) (fun _ -> st (update ())) }
  in
  let fm_unit =
    { Ast.kind = Ast.Function (Some Ast.Treal); name = "FM"; params = [ "Q" ]; decls = [];
      body = [ st (Ast.Assign (Ast.Lvar "FM", Ast.Binop (Ast.Add, Ast.Binop (Ast.Mul, Ast.Var "Q", Ast.Real 0.5), Ast.Int 1))) ] }
  in
  let locals = [ "I"; "J"; "X"; "Y" ] in
  let main =
    { Ast.kind = Ast.Program; name = "CMIX"; params = [];
      decls =
        [ Ast.Dvar (Ast.Tint, [ ("I", []); ("J", []); ("L", []); ("IA", [ 4 ]) ]);
          Ast.Dvar (Ast.Treal, [ ("X", []); ("Y", []); ("RA", [ 4 ]) ]) ];
      body =
        [ st (Ast.Assign (Ast.Lvar "I", Ast.Int 3)); st (Ast.Assign (Ast.Lvar "J", Ast.Int 2));
          st (Ast.Assign (Ast.Lvar "X", Ast.Real 1.25));
          st (Ast.Assign (Ast.Lvar "Y", Ast.Real 0.5));
          st
            (Ast.Do
               { do_var = "L"; do_lo = Ast.Int 1; do_hi = Ast.Int 4; do_step = None;
                 do_body =
                   [ st (Ast.Assign (Ast.Larr ("IA", [ Ast.Var "L" ]), Ast.Binop (Ast.Mul, Ast.Var "L", Ast.Int 2)));
                     st (Ast.Assign (Ast.Larr ("RA", [ Ast.Var "L" ]), Ast.Binop (Ast.Mul, Ast.Var "L", Ast.Real 0.25))) ] }) ]
        @ List.concat
            (List.init (2 + Prng.int rng 4) (fun _ ->
                 [ st (call_to locals (Prng.int rng n_helpers));
                   st (Ast.Assign (Ast.Lvar "Y", Ast.Binop (Ast.Add, Ast.Var "Y", fm locals))) ]))
        @ [ st
              (Ast.Print
                 [ Ast.Var "I"; Ast.Var "J"; Ast.Var "X"; Ast.Var "Y"; elem (); elem () ]) ] }
  in
  (main :: List.init n_helpers helper) @ [ fm_unit ]

let gen_call_mix_source seed : string = Ast.to_source (gen_call_mix_ast seed)

(* ---------------- malformed inputs ---------------- *)

(* The fuzzer's malformed inputs, shared with the frontend diagnostics
   golden.  [mutate]: a few line-level mutations (a line dropped,
   duplicated, swapped, spliced with a token fragment or truncated);
   [corrupt]: random byte flips. *)
let splice_tokens =
  [| "DO 10 I = 1, 3"; "END"; "GOTO 999"; "IF ("; "CALL NOPE(X)"; ")"; "= +";
     "ELSE"; "CONTINUE"; "PROGRAM Q" |]

let mutate seed src =
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let lines = Array.of_list (String.split_on_char '\n' src) in
  let n = Array.length lines in
  let ops = 1 + Prng.int rng 3 in
  for _ = 1 to ops do
    let i = Prng.int rng n in
    match Prng.int rng 5 with
    | 0 -> lines.(i) <- "" (* drop a line *)
    | 1 -> lines.(i) <- lines.(Prng.int rng n) (* duplicate another line *)
    | 2 ->
        let j = Prng.int rng n in
        let tmp = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- tmp
    | 3 ->
        lines.(i) <-
          lines.(i) ^ " " ^ splice_tokens.(Prng.int rng (Array.length splice_tokens))
    | _ ->
        let l = String.length lines.(i) in
        if l > 0 then lines.(i) <- String.sub lines.(i) 0 (Prng.int rng l)
  done;
  String.concat "\n" (Array.to_list lines)

let corrupt seed src =
  let rng = Prng.create ~seed:(seed lxor 0xbad) in
  let b = Bytes.of_string src in
  let n = Bytes.length b in
  let flips = 1 + Prng.int rng 8 in
  for _ = 1 to flips do
    Bytes.set b (Prng.int rng n) (Char.chr (Prng.int rng 256))
  done;
  Bytes.to_string b
