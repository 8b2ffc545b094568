(* Hand-written lexer for MF77.

   Free-format tokens with Fortran flavour: case-insensitive identifiers
   (canonicalized to upper case), dotted operators (.LT., .AND., ...),
   '!' comments, newline-terminated statements, '&' continuation at end of
   line.  The classic "1.AND.2" ambiguity is resolved by looking ahead for
   a known dotted word before committing the '.' to a numeric literal.

   One pass over the source writes each token into three flat arrays
   (kind, int payload, line), sized from the source length and doubled
   if a source is denser than that guess.  Identifiers are interned in an
   open-addressing table that hashes and compares them in place, case
   folded, so only the first occurrence of a name allocates its
   upper-case string. *)

module Kind = struct
  type t =
    | ID
    | INT
    | REAL
    | LT
    | LE
    | GT
    | GE
    | EQ
    | NE
    | AND
    | OR
    | NOT
    | TRUE
    | FALSE
    | LPAREN
    | RPAREN
    | COMMA
    | EQUALS
    | PLUS
    | MINUS
    | STAR
    | SLASH
    | POW
    | NEWLINE
    | EOF
end

(* [line_toks]/[line_nos] list (first token index, line) at every change
   of line, in token order *)
type tokens = {
  length : int;
  kinds : Kind.t array;
  args : int array;
  line_toks : int array;
  line_nos : int array;
  lines : int;
  names : string array;
  reals : float array;
}

type token =
  | ID of string
  | INT of int
  | REALLIT of float
  | DOTOP of string (* LT LE GT GE EQ NE AND OR NOT TRUE FALSE *)
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POW (* ** *)
  | NEWLINE
  | EOF

exception Error of string * int (* message, line *)

let keywords =
  [| "IF"; "THEN"; "ELSE"; "ELSEIF"; "ENDIF"; "DO"; "ENDDO"; "GOTO"; "GO";
     "CALL"; "RETURN"; "STOP"; "CONTINUE"; "PRINT"; "PROGRAM"; "SUBROUTINE";
     "FUNCTION"; "END"; "INTEGER"; "REAL"; "LOGICAL"; "PARAMETER" |]

let dotted =
  [| ("LT", Kind.LT); ("LE", LE); ("GT", GT); ("GE", GE); ("EQ", EQ); ("NE", NE);
     ("AND", AND); ("OR", OR); ("NOT", NOT); ("TRUE", TRUE); ("FALSE", FALSE) |]

let token_str = function
  | ID s -> s
  | INT i -> string_of_int i
  | REALLIT r -> string_of_float r
  | DOTOP s -> "." ^ s ^ "."
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | EQUALS -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | POW -> "**"
  | NEWLINE -> "<newline>"
  | EOF -> "<eof>"

let dotted_name (k : Kind.t) =
  let rec find i = if snd dotted.(i) = k then fst dotted.(i) else find (i + 1) in
  find 0

let length t = t.length
let kind t i = t.kinds.(i)
let arg t i = t.args.(i)
let name t i = t.names.(t.args.(i))
let real t i = t.reals.(t.args.(i))

(* the line of the last change at or before token [i] *)
let line t i =
  let lo = ref 0 and hi = ref (t.lines - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.line_toks.(mid) <= i then lo := mid else hi := mid - 1
  done;
  t.line_nos.(!lo)

let token t i : token =
  match kind t i with
  | Kind.ID -> ID (name t i)
  | INT -> INT (arg t i)
  | REAL -> REALLIT (real t i)
  | (LT | LE | GT | GE | EQ | NE | AND | OR | NOT | TRUE | FALSE) as k ->
      DOTOP (dotted_name k)
  | LPAREN -> LPAREN
  | RPAREN -> RPAREN
  | COMMA -> COMMA
  | EQUALS -> EQUALS
  | PLUS -> PLUS
  | MINUS -> MINUS
  | STAR -> STAR
  | SLASH -> SLASH
  | POW -> POW
  | NEWLINE -> NEWLINE
  | EOF -> EOF

let kind_str : Kind.t -> string = function
  | ID -> "identifier"
  | INT -> "integer"
  | REAL -> "real"
  | (LT | LE | GT | GE | EQ | NE | AND | OR | NOT | TRUE | FALSE) as k ->
      token_str (DOTOP (dotted_name k))
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | EQUALS -> "="
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | POW -> "**"
  | NEWLINE -> "<newline>"
  | EOF -> "<eof>"

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_ident_char c = is_alpha c || is_digit c || c = '_' || c = '%'

(* Does [s.[i .. i+len-1]], case folded, spell the upper-case [w]?  The
   helpers below are closed functions, so a lookup allocates nothing. *)
let rec spells_from s i len w k =
  k = len || (Char.uppercase_ascii s.[i + k] = w.[k] && spells_from s i len w (k + 1))

let spells s i len w = String.length w = len && spells_from s i len w 0

let rec find_dotted s i len w =
  if w = Array.length dotted then -1
  else if spells s i len (fst dotted.(w)) then w
  else find_dotted s i len (w + 1)

(* Index in [dotted] of the known dotted word starting at [i] (just past a
   '.') and closed by a '.', or -1. *)
let dotted_word_at s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && is_alpha s.[!j] do
    incr j
  done;
  if !j < n && s.[!j] = '.' && !j > i then find_dotted s i (!j - i) 0 else -1

(* ---------------- name interning ---------------- *)

(* Open addressing over name ids; [slots] holds id + 1, 0 when free, and
   is kept at most half full. *)
type names = {
  mutable slots : int array;
  mutable strs : string array; (* by name id *)
  mutable count : int;
}

let hash s i len =
  let h = ref 0 in
  for k = i to i + len - 1 do
    h := (!h * 31) + Char.code (Char.uppercase_ascii s.[k])
  done;
  !h land max_int

let rec probe tbl s i len p =
  let id = tbl.slots.(p) - 1 in
  if id < 0 || spells s i len tbl.strs.(id) then p
  else probe tbl s i len ((p + 1) land (Array.length tbl.slots - 1))

(* the slot holding [s.[i .. i+len-1]]'s id, or the free slot for it *)
let slot_of tbl s i len = probe tbl s i len (hash s i len land (Array.length tbl.slots - 1))

let grow_slots tbl =
  let old = tbl.slots in
  tbl.slots <- Array.make (2 * Array.length old) 0;
  Array.iter
    (fun v ->
      if v > 0 then begin
        let w = tbl.strs.(v - 1) in
        tbl.slots.(slot_of tbl w 0 (String.length w)) <- v
      end)
    old

(* The name id of [s.[i .. i+len-1]], upper-cased. *)
let intern tbl s i len =
  let p = slot_of tbl s i len in
  let id = tbl.slots.(p) - 1 in
  if id >= 0 then id
  else begin
    let id = tbl.count in
    if id = Array.length tbl.strs then begin
      let strs = Array.make (2 * id) "" in
      Array.blit tbl.strs 0 strs 0 id;
      tbl.strs <- strs
    end;
    let b = Bytes.create len in
    for k = 0 to len - 1 do
      Bytes.unsafe_set b k (Char.uppercase_ascii s.[i + k])
    done;
    tbl.strs.(id) <- Bytes.unsafe_to_string b;
    tbl.count <- id + 1;
    tbl.slots.(p) <- id + 1;
    if 2 * tbl.count > Array.length tbl.slots then grow_slots tbl;
    id
  end

let new_names () =
  let tbl =
    { slots = Array.make 256 0; strs = Array.make 64 ""; count = 0 }
  in
  Array.iter (fun w -> ignore (intern tbl w 0 (String.length w))) keywords;
  tbl

(* ---------------- the token arrays ---------------- *)

(* A growable int array *)
type ivec = { mutable a : int array; mutable n : int }

let ivec cap = { a = Array.make cap 0; n = 0 }

let ipush v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

type buf = {
  mutable kinds_ : Kind.t array;
  args_ : ivec; (* its [n] is the token count *)
  line_toks_ : ivec;
  line_nos_ : ivec;
  mutable reals_ : float array;
  mutable nreals : int;
}

let add_real b r =
  if b.nreals = Array.length b.reals_ then begin
    let a = Array.make (2 * b.nreals) 0.0 in
    Array.blit b.reals_ 0 a 0 b.nreals;
    b.reals_ <- a
  end;
  b.reals_.(b.nreals) <- r;
  b.nreals <- b.nreals + 1;
  b.nreals - 1

(* Decimal digits [s.[i .. j-1]] as an int; a value past [max_int] is a
   lexical error on [line]. *)
let int_in_place s i j ~line =
  let v = ref 0 in
  for k = i to j - 1 do
    let d = Char.code s.[k] - Char.code '0' in
    if !v > (max_int - d) / 10 then raise (Error ("integer constant out of range", line));
    v := (!v * 10) + d
  done;
  !v

let tokenize (src : string) : tokens =
  let n = String.length src in
  (* generated and hand-written MF77 runs 5-6 source bytes per token *)
  let cap = (n / 4) + 16 in
  let b =
    {
      kinds_ = Array.make cap Kind.EOF;
      args_ = ivec cap;
      line_toks_ = ivec 64;
      line_nos_ = ivec 64;
      reals_ = Array.make 16 0.0;
      nreals = 0;
    }
  in
  let names = new_names () in
  let line = ref 1 and last_line = ref 0 in
  let push kind arg =
    let i = b.args_.n in
    if i = Array.length b.kinds_ then begin
      let k = Array.make (2 * i) Kind.EOF in
      Array.blit b.kinds_ 0 k 0 i;
      b.kinds_ <- k
    end;
    b.kinds_.(i) <- kind;
    ipush b.args_ arg;
    if !line <> !last_line then begin
      ipush b.line_toks_ i;
      ipush b.line_nos_ !line;
      last_line := !line
    end
  in
  let after_newline () =
    let n = b.args_.n in
    n = 0 || match b.kinds_.(n - 1) with Kind.NEWLINE -> true | _ -> false
  in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '!' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '\n' then begin
      (* '&' just before the newline means continuation: drop both *)
      if not (after_newline ()) then push Kind.NEWLINE 0 (* blank lines collapse *);
      incr line;
      incr i
    end
    else if c = '&' then begin
      (* continuation marker: either at end of line (skip it and the
         newline), or at start of a line (retract the previous NEWLINE) *)
      incr i;
      let j = ref !i in
      while !j < n && (src.[!j] = ' ' || src.[!j] = '\t' || src.[!j] = '\r') do
        incr j
      done;
      if !j < n && src.[!j] = '\n' then begin
        incr line;
        i := !j + 1
      end
      else if b.args_.n > 0 && after_newline () then b.args_.n <- b.args_.n - 1
      else raise (Error ("misplaced '&'", !line))
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      (* numeric literal; watch for dotted-op lookahead *)
      let start = !i in
      let is_real = ref false in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      (* "1.AND." : stop the number before the dot *)
      if !i < n && src.[!i] = '.' && dotted_word_at src (!i + 1) < 0 then begin
        is_real := true;
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done
      end;
      (if !i < n && (src.[!i] = 'e' || src.[!i] = 'E' || src.[!i] = 'd' || src.[!i] = 'D')
       then
         let j = ref (!i + 1) in
         if !j < n && (src.[!j] = '+' || src.[!j] = '-') then incr j;
         if !j < n && is_digit src.[!j] then begin
           is_real := true;
           incr j;
           while !j < n && is_digit src.[!j] do
             incr j
           done;
           i := !j
         end);
      if !is_real then begin
        let text = String.sub src start (!i - start) in
        let text = String.map (function 'd' | 'D' -> 'e' | ch -> ch) text in
        push Kind.REAL (add_real b (float_of_string text))
      end
      else push Kind.INT (int_in_place src start !i ~line:!line)
    end
    else if c = '.' then begin
      let w = dotted_word_at src (!i + 1) in
      if w < 0 then raise (Error ("stray '.'", !line));
      let word, kind = dotted.(w) in
      push kind 0;
      i := !i + String.length word + 2
    end
    else if is_alpha c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      push Kind.ID (intern names src start (!i - start))
    end
    else begin
      match c with
      | '(' -> push Kind.LPAREN 0; incr i
      | ')' -> push Kind.RPAREN 0; incr i
      | ',' -> push Kind.COMMA 0; incr i
      | '=' -> push Kind.EQUALS 0; incr i
      | '+' -> push Kind.PLUS 0; incr i
      | '-' -> push Kind.MINUS 0; incr i
      | '*' ->
          if !i + 1 < n && src.[!i + 1] = '*' then begin
            push Kind.POW 0;
            i := !i + 2
          end
          else begin
            push Kind.STAR 0;
            incr i
          end
      | '/' -> push Kind.SLASH 0; incr i
      | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  if not (after_newline ()) then push Kind.NEWLINE 0;
  push Kind.EOF 0;
  {
    length = b.args_.n;
    kinds = b.kinds_;
    args = b.args_.a;
    line_toks = b.line_toks_.a;
    line_nos = b.line_nos_.a;
    lines = b.line_toks_.n;
    names = Array.sub names.strs 0 names.count;
    reals = Array.sub b.reals_ 0 b.nreals;
  }
