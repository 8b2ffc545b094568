(* Growable arrays.

   OCaml 5.1 predates [Dynarray] (added in 5.2), so we carry a small,
   dependency-free resizable vector.  The graph builders grow their node
   payloads in it, node by node during CFG construction. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* placeholder stored in unused slots *)
}

let create ~capacity ~dummy = { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let push t x =
  if t.len = Array.length t.data then begin
    let data = Array.make (2 * t.len) t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(* a full vector hands over its array: a later [push] grows into a new one *)
let to_array t = if t.len = Array.length t.data then t.data else Array.sub t.data 0 t.len
