(** Abstract syntax of MF77, the Fortran-77-flavoured language this
    reproduction profiles.  The language deliberately includes
    unstructured control flow — GOTO, computed GOTO, conditional loop
    exits — because the paper's framework targets unstructured programs
    via control dependence rather than lexical nesting. *)

type typ = Tint | Treal | Tlogical

val pp_typ : Format.formatter -> typ -> unit

type unop = Neg | Not

type binop =
  | Add | Sub | Mul | Div | Pow
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type expr =
  | Int of int
  | Real of float
  | Bool of bool
  | Var of string
  | Index of string * expr list
      (** array element, 1-based, column-major (resolved by Sema) *)
  | Call of string * expr list  (** intrinsic, user FUNCTION, or — before
      Sema — an unresolved array reference *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type lvalue = Lvar of string | Larr of string * expr list

(** Statements carry optional numeric labels (GOTO targets / DO
    terminators). *)
type stmt =
  | Assign of lvalue * expr
  | Goto of int
  | Cgoto of int list * expr  (** computed GOTO [(l1,...,ln), e] *)
  | If_logical of expr * stmt  (** logical IF: [IF (e) simple-stmt] *)
  | If_block of (expr * block) list * block option
      (** IF / ELSE IF ... / ELSE / ENDIF chain *)
  | Do of do_loop
  | Call_stmt of string * expr list
  | Return
  | Stop
  | Continue  (** no-op, usually a label target *)
  | Print of expr list

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;  (** default 1 *)
  do_body : block;
}

and lstmt = { label : int option; stmt : stmt }
and block = lstmt list

type decl =
  | Dvar of typ * (string * int list) list
      (** [INTEGER A, B(10), C(10,20)]: names with dimensions ([[]] =
          scalar, [-1] = assumed-size [*]) *)
  | Dparam of (string * expr) list  (** [PARAMETER (N = 100, ...)] *)

type unit_kind = Program | Subroutine | Function of typ option

type program_unit = {
  kind : unit_kind;
  name : string;
  params : string list;
  decls : decl list;
  body : block;
}

type program = program_unit list

val unop_str : unop -> string
val binop_str : binop -> string

(** Operator precedence (used by the printer's parenthesization). *)
val binop_prec : binop -> int

(** {1 Printing}

    Expressions and lvalues have one printer, which appends to a
    [Buffer.t] and never breaks a line; [pp_expr] and [pp_lvalue] wrap
    it as a single [Format] string. *)

(** [add_list b add xs] appends [xs] with [add], separated by [", "]. *)
val add_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** Appends [e], parenthesized by {!binop_prec}. *)
val add_expr : Buffer.t -> expr -> unit

val add_lvalue : Buffer.t -> lvalue -> unit

(** [add_app b name args] appends [name(arg1, ..., argn)]. *)
val add_app : Buffer.t -> string -> expr list -> unit

(** [pp_via add] prints what [add] appends as one [Format] string. *)
val pp_via : (Buffer.t -> 'a -> unit) -> Format.formatter -> 'a -> unit

val pp_expr : Format.formatter -> expr -> unit
val pp_lvalue : Format.formatter -> lvalue -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp_lstmt : Format.formatter -> lstmt -> unit
val pp_decl : Format.formatter -> decl -> unit
val pp_unit : Format.formatter -> program_unit -> unit
val pp_program : Format.formatter -> program -> unit

(** Render as reparsable source (statements stay on one line):
    [Parser.parse_program (to_source p) = p] is property-tested. *)
val to_source : program -> string

(** Default Fortran implicit typing: I..N are INTEGER, the rest REAL. *)
val implicit_type : string -> typ
