(* Growable arrays.

   OCaml 5.1 predates [Dynarray] (added in 5.2), so we carry a small,
   dependency-free resizable vector.  It is used pervasively by the graph
   structures, which grow node by node during CFG construction. *)

type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a; (* placeholder stored in unused slots *)
}

let create ~dummy = { data = Array.make 8 dummy; len = 0; dummy }

let make n x ~dummy =
  let data = Array.make (max n 8) dummy in
  Array.fill data 0 n x;
  { data; len = n; dummy }

let length t = t.len

let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of bounds";
  t.data.(i) <- x

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (Array.length t.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap t.dummy in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop: empty";
  t.len <- t.len - 1;
  let x = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  x

let top t =
  if t.len = 0 then invalid_arg "Vec.top: empty";
  t.data.(t.len - 1)

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (t.data.(i) :: acc) in
  go (t.len - 1) []

let to_array t = Array.sub t.data 0 t.len

(* room for half as many again before the first regrowth *)
let copy t =
  let data = Array.make (t.len + (t.len / 2) + 8) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  { t with data }

let of_list xs ~dummy =
  let t = create ~dummy in
  List.iter (push t) xs;
  t

let map f t ~dummy =
  let r = create ~dummy in
  iter (fun x -> push r (f x)) t;
  r

let filter p t =
  let r = create ~dummy:t.dummy in
  iter (fun x -> if p x then push r x) t;
  r
