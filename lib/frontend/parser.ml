(* Hand-written recursive-descent parser for MF77 (menhir is not available
   in this environment, and the grammar is line-oriented anyway).

   Notable Fortran-isms handled here:
   - statement labels: a leading integer on a line;
   - labeled DO loops ("DO 10 I = 1, N ... 10 CONTINUE"), including several
     DO loops sharing one terminator, threaded through the parser state via
     [consumed_label];
   - logical IF vs. block IF disambiguated by the token after the closing
     parenthesis;
   - computed GOTO "GOTO (10, 20, 30), I".

   The parser reads the lexer's token arrays in place.  Token kinds are
   immediate constructors, so matching and comparing them is integer
   work; keywords are matched by their fixed name ids. *)

open Ast
module K = Lexer.Kind

exception Parse_error of string * int

type state = {
  toks : Lexer.tokens;
  mutable pos : int;
  mutable consumed_label : int option;
      (* label of the most recently consumed labeled-DO terminator, so an
         enclosing DO sharing the label can terminate too *)
}

(* name id of a keyword (see Lexer.keywords) *)
let kw name =
  let rec find k = if String.equal Lexer.keywords.(k) name then k else find (k + 1) in
  find 0

let kw_if = kw "IF"
let kw_then = kw "THEN"
let kw_else = kw "ELSE"
let kw_elseif = kw "ELSEIF"
let kw_endif = kw "ENDIF"
let kw_do = kw "DO"
let kw_enddo = kw "ENDDO"
let kw_goto = kw "GOTO"
let kw_go = kw "GO"
let kw_call = kw "CALL"
let kw_return = kw "RETURN"
let kw_stop = kw "STOP"
let kw_continue = kw "CONTINUE"
let kw_print = kw "PRINT"
let kw_program = kw "PROGRAM"
let kw_subroutine = kw "SUBROUTINE"
let kw_function = kw "FUNCTION"
let kw_end = kw "END"
let kw_integer = kw "INTEGER"
let kw_real = kw "REAL"
let kw_logical = kw "LOGICAL"
let kw_parameter = kw "PARAMETER"

let is_keyword id = id < Array.length Lexer.keywords

let peek st = Lexer.kind st.toks st.pos
let peek2 st =
  if st.pos + 1 < Lexer.length st.toks then Lexer.kind st.toks (st.pos + 1) else K.EOF

let arg st = Lexer.arg st.toks st.pos
let name st = Lexer.name st.toks st.pos
let line st = Lexer.line st.toks st.pos
let advance st = st.pos <- st.pos + 1

(* [K.t] is immediate: this [=] compiles to an integer comparison *)
let at st (k : K.t) = peek st = k

let at_kw st kw = match peek st with K.ID -> arg st = kw | _ -> false

(* is the token after the current one the keyword [kw]? *)
let at_kw2 st kw = match peek2 st with K.ID -> Lexer.arg st.toks (st.pos + 1) = kw | _ -> false

let found st = Lexer.token_str (Lexer.token st.toks st.pos)

let fail st msg = raise (Parse_error (msg, line st))

let expect st k =
  if at st k then advance st
  else fail st (Printf.sprintf "expected %s, found %s" (Lexer.kind_str k) (found st))

let expect_id st =
  match peek st with
  | K.ID ->
      let s = name st in
      advance st;
      s
  | _ -> fail st (Printf.sprintf "expected identifier, found %s" (found st))

let expect_int st =
  match peek st with
  | K.INT ->
      let i = arg st in
      advance st;
      i
  | _ -> fail st (Printf.sprintf "expected integer, found %s" (found st))

let expect_kw st kw =
  if at_kw st kw then advance st
  else fail st (Printf.sprintf "expected %s, found %s" Lexer.keywords.(kw) (found st))

let skip_newlines st =
  while at st K.NEWLINE do
    advance st
  done

let end_of_stmt st =
  match peek st with
  | K.NEWLINE -> advance st
  | K.EOF -> ()
  | _ -> fail st (Printf.sprintf "trailing tokens: %s" (found st))

(* ---------------- expressions ---------------- *)

(* precedence climbing; levels match Ast.binop_prec *)
let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while at st K.OR do
    advance st;
    let rhs = parse_and st in
    lhs := Binop (Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while at st K.AND do
    advance st;
    let rhs = parse_not st in
    lhs := Binop (And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  if at st K.NOT then begin
    advance st;
    Unop (Not, parse_not st)
  end
  else parse_rel st

and parse_rel st =
  let lhs = parse_add st in
  match peek st with
  | (K.LT | K.LE | K.GT | K.GE | K.EQ | K.NE) as k ->
      advance st;
      let rhs = parse_add st in
      let op =
        match k with K.LT -> Lt | K.LE -> Le | K.GT -> Gt | K.GE -> Ge | K.EQ -> Eq | _ -> Ne
      in
      Binop (op, lhs, rhs)
  | _ -> lhs

and parse_add st =
  (* unary +/- bind at additive level, looser than ** (Fortran rule) *)
  let first =
    match peek st with
    | K.MINUS ->
        advance st;
        Unop (Neg, parse_mul st)
    | K.PLUS ->
        advance st;
        parse_mul st
    | _ -> parse_mul st
  in
  let lhs = ref first in
  let more = ref true in
  while !more do
    match peek st with
    | K.PLUS ->
        advance st;
        lhs := Binop (Add, !lhs, parse_mul st)
    | K.MINUS ->
        advance st;
        lhs := Binop (Sub, !lhs, parse_mul st)
    | _ -> more := false
  done;
  !lhs

and parse_mul st =
  let lhs = ref (parse_pow st) in
  let more = ref true in
  while !more do
    match peek st with
    | K.STAR ->
        advance st;
        lhs := Binop (Mul, !lhs, parse_pow st)
    | K.SLASH ->
        advance st;
        lhs := Binop (Div, !lhs, parse_pow st)
    | _ -> more := false
  done;
  !lhs

and parse_pow st =
  let base = parse_primary st in
  if at st K.POW then begin
    advance st;
    (* right-associative; exponent may be signed: X ** -2 *)
    let exp =
      match peek st with
      | K.MINUS ->
          advance st;
          Unop (Neg, parse_pow st)
      | _ -> parse_pow st
    in
    Binop (Pow, base, exp)
  end
  else base

and parse_primary st =
  match peek st with
  | K.INT ->
      let i = arg st in
      advance st;
      Int i
  | K.REAL ->
      let r = Lexer.real st.toks st.pos in
      advance st;
      Real r
  | K.TRUE -> advance st; Bool true
  | K.FALSE -> advance st; Bool false
  | K.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st K.RPAREN;
      e
  | K.ID ->
      let name = name st in
      advance st;
      if at st K.LPAREN then begin
        advance st;
        let args =
          if at st K.RPAREN then [] (* zero-argument call, e.g. RAND() *)
          else parse_expr_list st
        in
        expect st K.RPAREN;
        (* array reference or function call: resolved by Sema *)
        Call (name, args)
      end
      else Var name
  | _ -> fail st (Printf.sprintf "expected expression, found %s" (found st))

and parse_expr_list st =
  let e = parse_expr st in
  if at st K.COMMA then begin
    advance st;
    e :: parse_expr_list st
  end
  else [ e ]

(* ---------------- statements ---------------- *)

(* GOTO or GO TO, positioned after it *)
let try_goto st =
  if at_kw st kw_goto then begin
    advance st;
    true
  end
  else if
    at_kw st kw_go
    && (match peek2 st with
       | K.ID -> String.equal (Lexer.name st.toks (st.pos + 1)) "TO"
       | _ -> false)
  then begin
    advance st;
    advance st;
    true
  end
  else false

let rec parse_simple_stmt st : stmt =
  (* statements legal as the body of a logical IF *)
  if try_goto st then parse_goto_tail st
  else if at_kw st kw_call then parse_call st
  else if at_kw st kw_return then (advance st; Return)
  else if at_kw st kw_stop then (advance st; Stop)
  else if at_kw st kw_continue then (advance st; Continue)
  else if at_kw st kw_print then parse_print st
  else begin
    match peek st with
    | K.ID when not (is_keyword (arg st)) ->
        let name = name st in
        advance st;
        let lhs =
          if at st K.LPAREN then begin
            advance st;
            let idx = parse_expr_list st in
            expect st K.RPAREN;
            Larr (name, idx)
          end
          else Lvar name
        in
        expect st K.EQUALS;
        let rhs = parse_expr st in
        Assign (lhs, rhs)
    | _ -> fail st (Printf.sprintf "expected statement, found %s" (found st))
  end

and parse_goto_tail st : stmt =
  match peek st with
  | K.INT -> Goto (expect_int st)
  | K.LPAREN ->
      advance st;
      let rec labels () =
        let l = expect_int st in
        if at st K.COMMA then begin
          advance st;
          l :: labels ()
        end
        else [ l ]
      in
      let ls = labels () in
      expect st K.RPAREN;
      if at st K.COMMA then advance st;
      let e = parse_expr st in
      Cgoto (ls, e)
  | _ -> fail st (Printf.sprintf "expected label after GOTO, found %s" (found st))

and parse_call st : stmt =
  expect_kw st kw_call;
  let name = expect_id st in
  if at st K.LPAREN then begin
    advance st;
    if at st K.RPAREN then begin
      advance st;
      Call_stmt (name, [])
    end
    else begin
      let args = parse_expr_list st in
      expect st K.RPAREN;
      Call_stmt (name, args)
    end
  end
  else Call_stmt (name, [])

and parse_print st : stmt =
  expect_kw st kw_print;
  expect st K.STAR;
  if at st K.COMMA then begin
    advance st;
    Print (parse_expr_list st)
  end
  else Print []

(* Is the upcoming line "END" / "ENDIF" / "ELSE" / "ENDDO" / "END IF" ... ?
   Used as a block terminator test; tolerates a leading label (F77 allows
   labels on END etc., though we only use them on real statements). *)
let block_end_kw id =
  id = kw_endif || id = kw_enddo || id = kw_else || id = kw_elseif || id = kw_end

let rec at_block_end st =
  match peek st with
  | K.ID -> block_end_kw (arg st)
  | K.INT -> (
      match peek2 st with
      | K.ID -> block_end_kw (Lexer.arg st.toks (st.pos + 1))
      | _ -> false)
  | K.EOF -> true
  | _ -> false

(* Parse one (possibly labeled) statement. *)
and parse_lstmt st : lstmt =
  let label =
    match peek st with
    | K.INT when (match peek2 st with K.EQUALS -> false | _ -> true) ->
        let l = arg st in
        advance st;
        Some l
    | _ -> None
  in
  let stmt = parse_stmt st in
  { label; stmt }

and parse_stmt st : stmt =
  if at_kw st kw_if then begin
    advance st;
    expect st K.LPAREN;
    let cond = parse_expr st in
    expect st K.RPAREN;
    if at_kw st kw_then then begin
      advance st;
      end_of_stmt st;
      parse_if_block st [ (cond, parse_block st) ]
    end
    else begin
      let s = parse_simple_stmt st in
      end_of_stmt st;
      If_logical (cond, s)
    end
  end
  else if at_kw st kw_do then parse_do st
  else begin
    let s = parse_simple_stmt st in
    end_of_stmt st;
    s
  end

(* after "IF (c) THEN <NL> block", positioned at ELSE/ELSEIF/ENDIF *)
and parse_if_block st arms : stmt =
  skip_newlines st;
  if at_kw st kw_elseif || (at_kw st kw_else && at_kw2 st kw_if) then begin
    if at_kw st kw_elseif then advance st
    else begin
      advance st;
      advance st
    end;
    expect st K.LPAREN;
    let cond = parse_expr st in
    expect st K.RPAREN;
    expect_kw st kw_then;
    end_of_stmt st;
    parse_if_block st ((cond, parse_block st) :: arms)
  end
  else if at_kw st kw_else then begin
    advance st;
    end_of_stmt st;
    let blk = parse_block st in
    skip_newlines st;
    parse_endif st;
    If_block (List.rev arms, Some blk)
  end
  else begin
    parse_endif st;
    If_block (List.rev arms, None)
  end

and parse_endif st =
  if at_kw st kw_endif then advance st
  else if at_kw st kw_end && at_kw2 st kw_if then begin
    advance st;
    advance st
  end
  else fail st "expected ENDIF";
  end_of_stmt st

and parse_do st : stmt =
  expect_kw st kw_do;
  let term_label =
    match peek st with K.INT -> Some (expect_int st) | _ -> None
  in
  let var = expect_id st in
  expect st K.EQUALS;
  let lo = parse_expr st in
  expect st K.COMMA;
  let hi = parse_expr st in
  let step =
    if at st K.COMMA then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  end_of_stmt st;
  let body =
    match term_label with
    | None ->
        let blk = parse_block st in
        skip_newlines st;
        if at_kw st kw_enddo then advance st
        else if at_kw st kw_end && at_kw2 st kw_do then begin
          advance st;
          advance st
        end
        else fail st "expected ENDDO";
        end_of_stmt st;
        blk
    | Some target -> parse_labeled_do_body st target
  in
  Do { do_var = var; do_lo = lo; do_hi = hi; do_step = step; do_body = body }

(* Body of "DO <label> ..." — statements up to and including the statement
   labeled <label>.  A nested DO sharing the terminator consumes it and
   signals through [consumed_label]. *)
and parse_labeled_do_body st target : block =
  skip_newlines st;
  if at st K.EOF then fail st (Printf.sprintf "missing DO terminator %d" target)
  else begin
    let ls = parse_lstmt st in
    let terminated_here = ls.label = Some target in
    let terminated_inner = st.consumed_label = Some target in
    if terminated_here then begin
      st.consumed_label <- Some target;
      [ ls ]
    end
    else if terminated_inner then [ ls ] (* nested DO consumed our terminator *)
    else ls :: parse_labeled_do_body st target
  end

and parse_block st : block =
  skip_newlines st;
  if at_block_end st then []
  else begin
    let ls = parse_lstmt st in
    ls :: parse_block st
  end

(* ---------------- declarations & program units ---------------- *)

let parse_typ st =
  if at_kw st kw_integer then (advance st; Tint)
  else if at_kw st kw_real then (advance st; Treal)
  else if at_kw st kw_logical then (advance st; Tlogical)
  else fail st "expected type"

let at_typ st = at_kw st kw_integer || at_kw st kw_real || at_kw st kw_logical

let parse_dims st =
  if at st K.LPAREN then begin
    advance st;
    let rec dims () =
      let d =
        match peek st with
        | K.STAR ->
            advance st;
            -1 (* assumed-size *)
        | _ -> expect_int st
      in
      if at st K.COMMA then begin
        advance st;
        d :: dims ()
      end
      else [ d ]
    in
    let ds = dims () in
    expect st K.RPAREN;
    ds
  end
  else []

let parse_decl st : decl option =
  if at_typ st && not (at_kw2 st kw_function) then begin
    let ty = parse_typ st in
    let rec names () =
      let n = expect_id st in
      let dims = parse_dims st in
      if at st K.COMMA then begin
        advance st;
        (n, dims) :: names ()
      end
      else [ (n, dims) ]
    in
    let ns = names () in
    end_of_stmt st;
    Some (Dvar (ty, ns))
  end
  else if at_kw st kw_parameter then begin
    advance st;
    expect st K.LPAREN;
    let rec pairs () =
      let n = expect_id st in
      expect st K.EQUALS;
      let e = parse_expr st in
      if at st K.COMMA then begin
        advance st;
        (n, e) :: pairs ()
      end
      else [ (n, e) ]
    in
    let ps = pairs () in
    expect st K.RPAREN;
    end_of_stmt st;
    Some (Dparam ps)
  end
  else None

let parse_params st =
  if at st K.LPAREN then begin
    advance st;
    if at st K.RPAREN then begin
      advance st;
      []
    end
    else begin
      let rec ps () =
        let p = expect_id st in
        if at st K.COMMA then begin
          advance st;
          p :: ps ()
        end
        else [ p ]
      in
      let ps = ps () in
      expect st K.RPAREN;
      ps
    end
  end
  else []

let parse_unit st : program_unit =
  skip_newlines st;
  let kind, name, params =
    if at_kw st kw_program then begin
      advance st;
      let n = expect_id st in
      end_of_stmt st;
      (Program, n, [])
    end
    else if at_kw st kw_subroutine then begin
      advance st;
      let n = expect_id st in
      let ps = parse_params st in
      end_of_stmt st;
      (Subroutine, n, ps)
    end
    else if at_kw st kw_function then begin
      advance st;
      let n = expect_id st in
      let ps = parse_params st in
      end_of_stmt st;
      (Function None, n, ps)
    end
    else if at_typ st && at_kw2 st kw_function then begin
      let ty = parse_typ st in
      expect_kw st kw_function;
      let n = expect_id st in
      let ps = parse_params st in
      end_of_stmt st;
      (Function (Some ty), n, ps)
    end
    else fail st "expected PROGRAM, SUBROUTINE or FUNCTION"
  in
  skip_newlines st;
  let decls = ref [] in
  let rec decl_loop () =
    skip_newlines st;
    match parse_decl st with
    | Some d ->
        decls := d :: !decls;
        decl_loop ()
    | None -> ()
  in
  decl_loop ();
  let body = parse_block st in
  skip_newlines st;
  (* plain END (not ENDIF/ENDDO, which at_block_end also accepts) *)
  if at_kw st kw_end && not (at_kw2 st kw_if) && not (at_kw2 st kw_do) then begin
    advance st;
    end_of_stmt st
  end
  else fail st "expected END";
  { kind; name; params; decls = List.rev !decls; body }

let parse_program (src : string) : program =
  let st = { toks = Lexer.tokenize src; pos = 0; consumed_label = None } in
  let units = ref [] in
  skip_newlines st;
  while not (at st K.EOF) do
    units := parse_unit st :: !units;
    skip_newlines st
  done;
  List.rev !units
