(* Least common ancestors in a rooted forest given as a parent array.

   Used for HDR_LCA over the interval-header tree (paper §2) and for
   dominance over dominator trees.  One preorder numbering with subtree
   sizes makes the ancestor test O(1) (a range check); [lca] itself is a
   depth-balanced walk, which is plenty fast on header trees (one node per
   loop header). *)

type t = {
  parent : int array; (* -1 for roots; the caller's array, not a copy *)
  depth : int array;
  pre : int array; (* forest preorder: roots by id, children by id *)
  size : int array; (* subtree sizes: v's subtree is [pre v, pre v + size v) *)
}

let of_parents parent =
  let n = Array.length parent in
  (* children in CSR form, each node's children in increasing id order:
     count into off.(p), prefix-sum to range ends, then place back to
     front so that off.(p) ends at the start of p's range *)
  let off = Array.make (n + 1) 0 in
  Array.iter (fun p -> if p >= 0 then off.(p) <- off.(p) + 1) parent;
  for v = 1 to n - 1 do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  if n > 0 then off.(n) <- off.(n - 1);
  let kids = Array.make (max 1 off.(n)) 0 in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then begin
      off.(p) <- off.(p) - 1;
      kids.(off.(p)) <- v
    end
  done;
  let depth = Array.make n 0 and pre = Array.make n 0 and size = Array.make n 1 in
  let order = Array.make n 0 in
  (* [order] doubles as the DFS stack: entries below [clock] are the
     finished preorder, the stack grows down from the top *)
  let clock = ref 0 and sp = ref n in
  let push v =
    decr sp;
    order.(!sp) <- v
  in
  for r = 0 to n - 1 do
    if parent.(r) < 0 then begin
      push r;
      while !sp < n do
        let v = order.(!sp) in
        incr sp;
        pre.(v) <- !clock;
        order.(!clock) <- v;
        incr clock;
        (* push children last-first so the smallest id is visited first *)
        for i = off.(v + 1) - 1 downto off.(v) do
          let c = kids.(i) in
          depth.(c) <- depth.(v) + 1;
          push c
        done
      done
    end
  done;
  for i = n - 1 downto 0 do
    let v = order.(i) in
    if parent.(v) >= 0 then size.(parent.(v)) <- size.(parent.(v)) + size.(v)
  done;
  { parent; depth; pre; size }

let depth t v = t.depth.(v)

let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)

let children t v =
  let acc = ref [] in
  for c = Array.length t.parent - 1 downto 0 do
    if t.parent.(c) = v then acc := c :: !acc
  done;
  !acc

let preorder t v = t.pre.(v)

let subtree_size t v = t.size.(v)

let is_ancestor t u v = t.pre.(u) <= t.pre.(v) && t.pre.(v) < t.pre.(u) + t.size.(u)

let lca t u v =
  let rec lift x d = if t.depth.(x) > d then lift t.parent.(x) d else x in
  let u = lift u t.depth.(v) and v = lift v t.depth.(u) in
  let rec meet u v =
    if u = v then u
    else if t.parent.(u) < 0 || t.parent.(v) < 0 then raise Not_found
    else meet t.parent.(u) t.parent.(v)
  in
  meet u v

let lca_opt t u v = try Some (lca t u v) with Not_found -> None
