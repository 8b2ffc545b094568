(* Abstract syntax of MF77, the Fortran-77-flavoured language this
   reproduction profiles (the paper's experiments ran Fortran through the
   IBM VS Fortran compiler; MF77 plays that role here).

   The language deliberately includes unstructured control flow — GOTO,
   computed GOTO, conditional loop exits — because the whole point of the
   paper's framework is to handle unstructured programs via control
   dependence rather than lexical nesting. *)

type typ = Tint | Treal | Tlogical

let pp_typ fmt = function
  | Tint -> Fmt.string fmt "INTEGER"
  | Treal -> Fmt.string fmt "REAL"
  | Tlogical -> Fmt.string fmt "LOGICAL"

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
  | Index of string * expr list (* array element, 1-based, column-major *)
  | Call of string * expr list (* intrinsic or user FUNCTION *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

type lvalue = Lvar of string | Larr of string * expr list

(* Statements carry optional numeric labels (GOTO targets / DO terminators). *)
type stmt =
  | Assign of lvalue * expr
  | Goto of int
  | Cgoto of int list * expr (* computed GOTO (l1,...,ln), e *)
  | If_logical of expr * stmt (* logical IF: IF (e) simple-stmt *)
  | If_block of (expr * block) list * block option
      (* IF/ELSE IF.../ELSE/ENDIF chain *)
  | Do of do_loop
  | Call_stmt of string * expr list
  | Return
  | Stop
  | Continue (* no-op, usually a label target *)
  | Print of expr list

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option; (* default 1 *)
  do_body : block;
}

and lstmt = { label : int option; stmt : stmt }
and block = lstmt list

type decl =
  | Dvar of typ * (string * int list) list
      (* INTEGER A, B(10), C(10,20): name with dimensions ([] = scalar) *)
  | Dparam of (string * expr) list (* PARAMETER (N = 100, ...) *)

type unit_kind = Program | Subroutine | Function of typ option

type program_unit = {
  kind : unit_kind;
  name : string;
  params : string list;
  decls : decl list;
  body : block;
}

type program = program_unit list

(* ------------------------------------------------------------------ *)
(* Pretty printing (round-trip-ability is tested)                      *)
(* ------------------------------------------------------------------ *)

(* separator without a break hint: statements must stay on one line even
   inside the enclosing vertical box *)
let csep = Fmt.any ", "

let unop_str = function Neg -> "-" | Not -> ".NOT."

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**"
  | Lt -> ".LT." | Le -> ".LE." | Gt -> ".GT." | Ge -> ".GE."
  | Eq -> ".EQ." | Ne -> ".NE." | And -> ".AND." | Or -> ".OR."

(* precedence: Or < And < Not < rel < add < mul < pow < unary-neg *)
let binop_prec = function
  | Or -> 1 | And -> 2
  | Lt | Le | Gt | Ge | Eq | Ne -> 4
  | Add | Sub -> 5
  | Mul | Div -> 6
  | Pow -> 7

(* [add_list b add xs] appends [xs] separated by [", "] *)
let add_list b add = function
  | [] -> ()
  | x :: xs ->
      add b x;
      List.iter
        (fun x ->
          Buffer.add_string b ", ";
          add b x)
        xs

(* an operator of precedence [p] inside a context of precedence [prec]
   is parenthesized when [p < prec] *)
let open_paren b ~prec p = if p < prec then Buffer.add_char b '('
let close_paren b ~prec p = if p < prec then Buffer.add_char b ')'

let rec add_expr_prec prec b e =
  match e with
  | Int i -> S89_util.Decimal.add_int b i
  | Real r ->
      let s = S89_util.Decimal.format_float "%.17g" r in
      Buffer.add_string b s;
      if not (String.contains s '.' || String.contains s 'e' || String.contains s 'n')
      then Buffer.add_string b ".0"
  | Bool true -> Buffer.add_string b ".TRUE."
  | Bool false -> Buffer.add_string b ".FALSE."
  | Var v -> Buffer.add_string b v
  | Index (a, idx) | Call (a, idx) -> add_app b a idx
  | Unop (op, e) ->
      let p = match op with Neg -> 8 | Not -> 3 in
      open_paren b ~prec p;
      Buffer.add_string b (unop_str op);
      add_expr_prec p b e;
      close_paren b ~prec p
  | Binop (op, l, r) ->
      let p = binop_prec op in
      open_paren b ~prec p;
      add_expr_prec p b l;
      Buffer.add_char b ' ';
      Buffer.add_string b (binop_str op);
      Buffer.add_char b ' ';
      add_expr_prec (p + 1) b r;
      close_paren b ~prec p

(* [name(e1, ..., en)] *)
and add_app b name args =
  Buffer.add_string b name;
  Buffer.add_char b '(';
  add_list b (add_expr_prec 0) args;
  Buffer.add_char b ')'

let add_expr b e = add_expr_prec 0 b e

let add_lvalue b = function
  | Lvar v -> Buffer.add_string b v
  | Larr (a, idx) -> add_app b a idx

let pp_via add fmt x =
  let b = Buffer.create 32 in
  add b x;
  Format.pp_print_string fmt (Buffer.contents b)

let pp_expr = pp_via add_expr
let pp_lvalue = pp_via add_lvalue

let rec pp_stmt fmt = function
  | Assign (lv, e) -> Fmt.pf fmt "%a = %a" pp_lvalue lv pp_expr e
  | Goto l -> Fmt.pf fmt "GOTO %d" l
  | Cgoto (ls, e) ->
      Fmt.pf fmt "GOTO (%a), %a" Fmt.(list ~sep:csep int) ls pp_expr e
  | If_logical (c, s) -> Fmt.pf fmt "IF (%a) %a" pp_expr c pp_stmt s
  | If_block (arms, else_) ->
      List.iteri
        (fun i (c, blk) ->
          if i = 0 then Fmt.pf fmt "@[<v>IF (%a) THEN" pp_expr c
          else Fmt.pf fmt "@,ELSE IF (%a) THEN" pp_expr c;
          pp_block fmt blk)
        arms;
      (match else_ with
      | Some blk ->
          Fmt.pf fmt "@,ELSE";
          pp_block fmt blk
      | None -> ());
      Fmt.pf fmt "@,ENDIF@]"
  | Do d ->
      Fmt.pf fmt "@[<v>DO %s = %a, %a%a" d.do_var pp_expr d.do_lo pp_expr d.do_hi
        (Fmt.option (fun fmt e -> Fmt.pf fmt ", %a" pp_expr e))
        d.do_step;
      pp_block fmt d.do_body;
      Fmt.pf fmt "@,ENDDO@]"
  | Call_stmt (n, []) -> Fmt.pf fmt "CALL %s" n
  | Call_stmt (n, args) ->
      Fmt.pf fmt "CALL %s(%a)" n Fmt.(list ~sep:csep pp_expr) args
  | Return -> Fmt.string fmt "RETURN"
  | Stop -> Fmt.string fmt "STOP"
  | Continue -> Fmt.string fmt "CONTINUE"
  | Print es -> Fmt.pf fmt "PRINT *, %a" Fmt.(list ~sep:csep pp_expr) es

and pp_lstmt fmt { label; stmt } =
  (match label with
  | Some l -> Fmt.pf fmt "%-5d " l
  | None -> Fmt.string fmt "      ");
  pp_stmt fmt stmt

and pp_block fmt blk = List.iter (fun ls -> Fmt.pf fmt "@,  %a" pp_lstmt ls) blk

let pp_decl fmt = function
  | Dvar (ty, names) ->
      Fmt.pf fmt "%a %a" pp_typ ty
        Fmt.(
          list ~sep:csep (fun fmt (n, dims) ->
              match dims with
              | [] -> string fmt n
              | _ -> pf fmt "%s(%a)" n (list ~sep:csep int) dims))
        names
  | Dparam ps ->
      Fmt.pf fmt "PARAMETER (%a)"
        Fmt.(list ~sep:csep (fun fmt (n, e) -> pf fmt "%s = %a" n pp_expr e))
        ps

let pp_unit fmt (u : program_unit) =
  (match u.kind with
  | Program -> Fmt.pf fmt "@[<v>PROGRAM %s" u.name
  | Subroutine ->
      Fmt.pf fmt "@[<v>SUBROUTINE %s(%a)" u.name Fmt.(list ~sep:csep string) u.params
  | Function ty ->
      Fmt.pf fmt "@[<v>%aFUNCTION %s(%a)"
        (Fmt.option (fun fmt t -> Fmt.pf fmt "%a " pp_typ t))
        ty u.name
        Fmt.(list ~sep:csep string)
        u.params);
  List.iter (fun d -> Fmt.pf fmt "@,  %a" pp_decl d) u.decls;
  pp_block fmt u.body;
  Fmt.pf fmt "@,END@]"

let pp_program fmt (p : program) =
  Fmt.pf fmt "@[<v>%a@]" (Fmt.list ~sep:(Fmt.any "@,@,") pp_unit) p

(* Render as reparsable source: statements are newline-terminated, so the
   margin is made effectively infinite to keep each on one line. *)
let to_source (p : program) : string =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Format.pp_set_geometry fmt ~max_indent:999_998 ~margin:999_999;
  pp_program fmt p;
  Format.pp_print_newline fmt ();
  Buffer.contents buf

(* Default Fortran implicit typing: names starting with I..N are INTEGER,
   the rest REAL. *)
let implicit_type name =
  match name.[0] with
  | 'I' .. 'N' | 'i' .. 'n' -> Tint
  | _ -> Treal
