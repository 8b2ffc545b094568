(** Slot-resolved variable environments for the VM.

    A procedure's variables are resolved to dense integer slots once, at
    compile time; a frame is then just a [binding array] and every
    variable access on the hot path is an array read — no string hashing.
    Every engine runs on these frames: the reference evaluator
    ({!Eval}) and the bytecode's native ops alike. *)

module Ast = S89_frontend.Ast
module Sema = S89_frontend.Sema
module Program = S89_frontend.Program

(** Array storage, monomorphized by element type: INTEGER and REAL
    arrays hold unboxed machine values, so numeric element access never
    allocates; LOGICAL arrays fall back to boxed values. *)
type adata =
  | Ints of int array
  | Reals of float array
  | Values of Value.t array

type array_obj = { data : adata; dims : int array; elt : Ast.typ }

type binding =
  | Cell of { mutable v : Value.t; ty : Ast.typ }  (** scalar storage *)
  | Arr of array_obj  (** whole array (by reference) *)
  | Elem of array_obj * int  (** one element (by reference) *)
  | Poison of string
      (** unusable storage (assumed-size array that is not a dummy
          argument); raises the recorded message on first use *)

(** A compiled frame: one binding per slot of the procedure's layout. *)
type slots = binding array

(** Allocate a zero-initialized array; column-major, 1-based. *)
val alloc_array : Ast.typ -> int list -> array_obj

(** Number of elements. *)
val size : array_obj -> int

(** Read element [off] (0-based flat offset) as a boxed value. *)
val get : array_obj -> int -> Value.t

(** [get] composed with {!Value.to_int} / {!Value.to_float}, without the
    intermediate box. *)
val get_int : array_obj -> int -> int

val get_float : array_obj -> int -> float

(** Store at flat offset [off], coercing to the element type exactly as
    {!Value.coerce} would. *)
val set : array_obj -> int -> Value.t -> unit

(** Fresh local storage for a declared or implicitly-typed variable. *)
val binding_of_kind : string -> Sema.var_kind -> binding

(** Flat offset of a subscript list (bounds-checked).
    @raise Value.Runtime_error on rank mismatch or out-of-bounds *)
val offset : string -> array_obj -> int list -> int

(** {2 Slot access}

    The one match on a binding's shape.  [names] maps slots to variable
    names for the error messages.
    @raise Value.Runtime_error when the binding is a [Poison], an [Arr]
    used as a scalar, or a scalar used as an array *)

(** The scalar in a slot (a [Cell]'s value or an [Elem]'s element). *)
val read : string array -> int -> slots -> Value.t

(** [read] composed with {!Value.to_int} / {!Value.to_float}, without the
    intermediate box. *)
val read_int : string array -> int -> slots -> int

val read_float : string array -> int -> slots -> float

(** Store into a scalar slot, coercing to the storage's type. *)
val write : string array -> int -> slots -> Value.t -> unit

(** The array bound to a slot. *)
val get_arr : string array -> int -> slots -> array_obj

(** Compile-time slot assignment for one procedure: dummy arguments first
    (slots [0 .. n_params-1], in order), then declared variables, then
    every other name the body mentions. *)
type layout = {
  lproc : Program.proc;
  names : string array;  (** slot -> variable name *)
  kinds : Sema.var_kind array;  (** slot -> kind, implicit typing resolved *)
  param_tys : Ast.typ option array;
      (** per dummy argument: declared scalar type (drives copy-in
          coercion), [None] when undeclared or non-scalar *)
  n_params : int;
  result_slot : int option;  (** for FUNCTIONs: slot of the result var *)
  index : (string, int) Hashtbl.t;  (** name -> slot; compile-time only *)
  calls : (string * Ast.expr list) list;
      (** every call in the body, intrinsic or user, with its actual
          arguments: node by node, a CALL statement first, then the
          calls in its expressions, each before those in its arguments;
          compile-time only *)
}

val layout : Program.proc -> layout

(** Slot of a name; total for every name the procedure can mention.
    @raise Invalid_argument for names absent from the layout (compiler bug) *)
val slot : layout -> string -> int

val n_slots : layout -> int

(** Fresh frame with local storage in every non-parameter slot; parameter
    slots hold [Poison] until the caller binds the arguments. *)
val make_frame : layout -> slots

(** A fresh frame with the actual arguments bound to the dummy slots in
    order.  A [Cell] bound to a dummy of declared scalar type is replaced
    by a copy coerced to that type when the types differ.
    @raise Value.Runtime_error on an arity mismatch *)
val bind_frame : layout -> binding list -> slots
