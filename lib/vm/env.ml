(* Slot-resolved variable environments: compile-time name -> slot maps so
   frames are dense binding arrays, and the one match on a binding's
   shape that every engine reads and writes slots through. *)

module Ast = S89_frontend.Ast
module Ir = S89_frontend.Ir
module Sema = S89_frontend.Sema
module Program = S89_frontend.Program
open S89_cfg

(* Array storage is monomorphized by element type: INTEGER and REAL
   arrays hold unboxed machine values (OCaml specializes [float array]),
   so numeric element access never allocates.  Only LOGICAL arrays fall
   back to boxed values. *)
type adata =
  | Ints of int array
  | Reals of float array
  | Values of Value.t array

type array_obj = { data : adata; dims : int array; elt : Ast.typ }

type binding =
  | Cell of { mutable v : Value.t; ty : Ast.typ }
  | Arr of array_obj
  | Elem of array_obj * int
  | Poison of string

type slots = binding array

let alloc_array (elt : Ast.typ) (dims : int list) =
  let size = List.fold_left ( * ) 1 dims in
  let data =
    match elt with
    | Ast.Tint -> Ints (Array.make size 0)
    | Ast.Treal -> Reals (Array.make size 0.0)
    | Ast.Tlogical -> Values (Array.make size (Value.Bool false))
  in
  { data; dims = Array.of_list dims; elt }

let size (a : array_obj) =
  match a.data with
  | Ints d -> Array.length d
  | Reals d -> Array.length d
  | Values d -> Array.length d

(* element accessors, mirroring scalar semantics exactly: [get]/[set]
   behave like reading/[Value.coerce]-then-writing a boxed element *)
let get (a : array_obj) off =
  match a.data with
  | Ints d -> Value.Int d.(off)
  | Reals d -> Value.Real d.(off)
  | Values d -> d.(off)

let get_int (a : array_obj) off =
  match a.data with
  | Ints d -> d.(off)
  | Reals d -> int_of_float d.(off)
  | Values d -> Value.to_int d.(off)

let get_float (a : array_obj) off =
  match a.data with
  | Ints d -> float_of_int d.(off)
  | Reals d -> d.(off)
  | Values d -> Value.to_float d.(off)

let set (a : array_obj) off v =
  match a.data with
  | Ints d -> (
      match v with
      | Value.Int i -> d.(off) <- i
      | Value.Real r -> d.(off) <- int_of_float r
      | Value.Bool _ -> Value.err "cannot store LOGICAL in arithmetic variable")
  | Reals d -> (
      match v with
      | Value.Real r -> d.(off) <- r
      | Value.Int i -> d.(off) <- float_of_int i
      | Value.Bool _ -> Value.err "cannot store LOGICAL in arithmetic variable")
  | Values d -> d.(off) <- Value.coerce a.elt v

let binding_of_kind name (k : Sema.var_kind) =
  match k with
  | Sema.Scalar ty -> Cell { v = Value.zero_of ty; ty }
  | Sema.Const c -> (
      (* a bad PARAMETER must fail at first use, not at frame creation *)
      match c with
      | Ast.Int i -> Cell { v = Value.Int i; ty = Ast.Tint }
      | Ast.Real r -> Cell { v = Value.Real r; ty = Ast.Treal }
      | Ast.Bool b -> Cell { v = Value.Bool b; ty = Ast.Tlogical }
      | _ -> Poison (Fmt.str "PARAMETER %s is not a literal" name))
  | Sema.Array (elt, dims) ->
      if List.mem (-1) dims then
        Poison (Fmt.str "assumed-size array %s must be a dummy argument" name)
      else Arr (alloc_array elt dims)

let offset name (a : array_obj) (idx : int list) =
  (* column-major, 1-based; assumed-size arrays check the flat bound only *)
  if Array.length a.dims = 1 && a.dims.(0) = -1 then begin
    match idx with
    | [ i ] ->
        if i < 1 || i > size a then
          Value.err "%s(%d): out of bounds (size %d)" name i (size a)
        else i - 1
    | _ -> Value.err "%s: assumed-size arrays are 1-dimensional" name
  end
  else begin
    if List.length idx <> Array.length a.dims then
      Value.err "%s: rank mismatch" name;
    let off = ref 0 and stride = ref 1 in
    List.iteri
      (fun k i ->
        let d = a.dims.(k) in
        if i < 1 || i > d then
          Value.err "%s: subscript %d of dimension %d out of bounds [1,%d]" name i
            (k + 1) d;
        off := !off + ((i - 1) * !stride);
        stride := !stride * d)
      idx;
    !off
  end

(* ---- slot access: the one match on a binding's shape ----

   Every engine reads, writes and indexes frame slots through these, so
   each misuse raises one message wherever it happens. *)

let not_scalar (names : string array) s = function
  | Poison m -> Value.err "%s" m
  | _ -> Value.err "array %s used as a scalar" names.(s)

let read names s (venv : slots) =
  match venv.(s) with
  | Cell c -> c.v
  | Elem (a, off) -> get a off
  | b -> not_scalar names s b

let read_int names s (venv : slots) =
  match venv.(s) with
  | Cell c -> Value.to_int c.v
  | Elem (a, off) -> get_int a off
  | b -> not_scalar names s b

let read_float names s (venv : slots) =
  match venv.(s) with
  | Cell c -> Value.to_float c.v
  | Elem (a, off) -> get_float a off
  | b -> not_scalar names s b

let write (names : string array) s (venv : slots) v =
  match venv.(s) with
  | Cell c -> c.v <- Value.coerce c.ty v
  | Elem (a, off) -> set a off v
  | Arr _ -> Value.err "assignment to whole array %s" names.(s)
  | Poison m -> Value.err "%s" m

let get_arr (names : string array) s (venv : slots) =
  match venv.(s) with
  | Arr a -> a
  | Cell _ | Elem _ -> Value.err "%s is not an array" names.(s)
  | Poison m -> Value.err "%s" m

(* ---- compile-time layouts ---- *)

type layout = {
  lproc : Program.proc;
  names : string array;
  kinds : Sema.var_kind array;
  param_tys : Ast.typ option array;
  n_params : int;
  result_slot : int option;
  index : (string, int) Hashtbl.t;  (* compile-time only *)
  calls : (string * Ast.expr list) list;  (* compile-time only *)
}

let layout (p : Program.proc) : layout =
  let env = p.Program.env in
  let index = Hashtbl.create 32 in
  let rev_names = ref [] and n = ref 0 in
  let add name =
    if not (Hashtbl.mem index name) then begin
      Hashtbl.replace index name !n;
      rev_names := name :: !rev_names;
      incr n
    end
  in
  (* dummy arguments own slots 0 .. n_params-1 in order, even when a name
     repeats (the later occurrence wins name lookups, as with hash frames) *)
  List.iter
    (fun prm ->
      Hashtbl.replace index prm !n;
      rev_names := prm :: !rev_names;
      incr n)
    p.Program.params;
  let n_params = !n in
  Hashtbl.iter (fun name _ -> add name) env.Sema.vars;
  (match env.Sema.result_var with Some rv -> add rv | None -> ());
  (* then every name the body can touch at runtime, in order of first
     occurrence: a node's expressions left to right, then its targets;
     the same walk collects the call sites *)
  let calls = ref [] in
  let rec add_expr (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Real _ | Ast.Bool _ -> ()
    | Ast.Var v -> add v
    | Ast.Index (name, idx) ->
        add name;
        List.iter add_expr idx
    | Ast.Call (f, args) ->
        calls := (f, args) :: !calls;
        List.iter add_expr args
    | Ast.Unop (_, e) -> add_expr e
    | Ast.Binop (_, a, b) ->
        add_expr a;
        add_expr b
  in
  Cfg.iter_nodes
    (fun i ->
      let ir = (Cfg.info p.Program.cfg i).Ir.ir in
      (match ir with Ir.Call (f, args) -> calls := (f, args) :: !calls | _ -> ());
      Ir.iter_exprs add_expr ir;
      match ir with
      | Ir.Assign (Ast.Lvar v, _) -> add v
      | Ir.Assign (Ast.Larr (name, _), _) -> add name
      | Ir.Do_test d ->
          add d.Ir.do_var;
          add d.Ir.trip_var
      | _ -> ())
    p.Program.cfg;
  let names = Array.of_list (List.rev !rev_names) in
  let kind_of name =
    match Hashtbl.find_opt env.Sema.vars name with
    | Some k -> k
    | None -> Sema.Scalar (Ast.implicit_type name)
  in
  let kinds = Array.map kind_of names in
  let param_tys =
    Array.init n_params (fun i ->
        match Hashtbl.find_opt env.Sema.vars names.(i) with
        | Some (Sema.Scalar ty) -> Some ty
        | _ -> None)
  in
  let result_slot =
    match env.Sema.result_var with
    | Some rv -> Hashtbl.find_opt index rv
    | None -> None
  in
  { lproc = p; names; kinds; param_tys; n_params; result_slot; index; calls = List.rev !calls }

let slot (l : layout) name =
  match Hashtbl.find l.index name with
  | i -> i
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Env.slot: %s has no slot in %s" name l.lproc.Program.name)

let n_slots (l : layout) = Array.length l.names

let make_frame (l : layout) : slots =
  let n = Array.length l.names in
  Array.init n (fun i ->
      if i < l.n_params then Poison (Fmt.str "unbound dummy argument %s" l.names.(i))
      else binding_of_kind l.names.(i) l.kinds.(i))

let bind_frame (l : layout) (args : binding list) : slots =
  let venv = make_frame l in
  let arity () = Value.err "arity mismatch calling %s" l.lproc.Program.name in
  let rec bind i = function
    | [] -> if i <> l.n_params then arity ()
    | b :: rest ->
        if i >= l.n_params then arity ();
        venv.(i) <-
          (match (b, l.param_tys.(i)) with
          | Cell c, Some ty when c.ty <> ty -> Cell { v = Value.coerce ty c.v; ty }
          | _ -> b);
        bind (i + 1) rest
  in
  bind 0 args;
  venv
