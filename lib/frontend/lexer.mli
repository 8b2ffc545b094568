(** Hand-written lexer for MF77: case-insensitive identifiers
    (canonicalized to upper case), dotted operators (.LT., .AND., ...),
    '!' comments, newline-terminated statements, '&' continuations
    (both at end of line and Fortran-style at start of the next).

    One pass writes the tokens into flat arrays: a kind (an immediate
    value) and an unboxed int payload per token, and a (token, line)
    entry per source line that has tokens.  Identifiers are upper-cased
    once per distinct name and interned for the call, so a token costs
    two words and nothing else; INT literals are read in place, and only
    REAL literals go through [float_of_string]. *)

(** Token kinds.  [LT] .. [FALSE] are the dotted words. *)
module Kind : sig
  type t =
    | ID  (** payload: name id *)
    | INT  (** payload: the value *)
    | REAL  (** payload: index into the REAL literals *)
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
    | POW  (** ** *)
    | NEWLINE
    | EOF
end

(** The tokens of one source, indexed from 0. *)
type tokens

val length : tokens -> int
val kind : tokens -> int -> Kind.t

(** The int payload: a name id ([ID]), the value ([INT]), an index into
    the REAL literals ([REAL]); 0 for other kinds. *)
val arg : tokens -> int -> int

(** The upper-case name of an [ID] token. *)
val name : tokens -> int -> string

(** The value of a [REAL] token. *)
val real : tokens -> int -> float

(** The source line of a token (a binary search over the lines that
    have tokens: messages only). *)
val line : tokens -> int -> int

(** Statement keywords.  Every call interns them first, in this order,
    so keyword [keywords.(k)] has name id [k] and any name id of at least
    [Array.length keywords] is an ordinary identifier. *)
val keywords : string array

(** A token as a value, for messages and tests. *)
type token =
  | ID of string  (** upper-cased identifier or keyword *)
  | INT of int
  | REALLIT of float
  | DOTOP of string  (** LT LE GT GE EQ NE AND OR NOT TRUE FALSE *)
  | LPAREN
  | RPAREN
  | COMMA
  | EQUALS
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | POW  (** ** *)
  | NEWLINE
  | EOF

(** Lexical error: message and line. *)
exception Error of string * int

(** Tokenize a whole source file.  Always ends with [EOF]; blank lines
    collapse; a trailing [NEWLINE] is guaranteed before [EOF] when the
    input has any tokens. *)
val tokenize : string -> tokens

(** Token [i] as a value. *)
val token : tokens -> int -> token

(** Render a token for error messages. *)
val token_str : token -> string

(** Render a kind, as {!token_str} renders its tokens (payload kinds
    name their class). *)
val kind_str : Kind.t -> string
