(* Extended control flow graph (paper §2, the six-step construction).

   Starting from a reducible CFG and its interval structure we build ECFG:

   1. take the CFG's nodes, ids preserved;
   2. give every interval a fresh PREHEADER node and redirect interval
      entries to it (the paper's step 2(b)i prints "(ph,u,l)", an obvious
      typo for (u,ph,l));
   3. split every interval exit (u,v,l) into (u,pe,l), (pe,v,U) through a
      fresh POSTEXIT node, and add a never-taken pseudo edge from the
      exited interval's preheader to pe;
   4-5. add START/STOP nodes wired to the first/last nodes;
   6. add the pseudo edge START -> STOP.

   The extended graph is built once, through a Cfg.Builder: each
   redirected edge is added where removing it and adding it back would
   put it, last among its source's out-edges (see [extend]).

   The pseudo edges guarantee that in the control dependence graph computed
   next, every node of an interval hangs (directly or transitively) under
   that interval's preheader, and everything hangs under START.

   Deviations from the letter of the paper, both recorded in DESIGN.md:
   - exits that leave several nested intervals at once are cascaded, one
     POSTEXIT per level, so that each level's exit frequency is attributed
     to that level's preheader;
   - START/STOP are added before the exit splitting so that a RETURN inside
     a loop is also treated as an interval exit. *)

open S89_graph

exception Nonterminating_interval of int
(* a loop with no exit edges cannot reach STOP; the paper assumes all
   executions terminate normally *)

exception Invalid_cfg of Cfg.error

type 'a t = {
  ext : 'a Cfg.t; (* the extended graph; original ids are preserved *)
  start : int;
  stop : int;
  orig_count : int; (* ids < orig_count are original CFG nodes *)
  intervals : Intervals.t; (* interval structure of the ORIGINAL cfg *)
  ivl : int Vec.t; (* per extended node: its interval (header id or root) *)
  preheader : (int, int) Hashtbl.t; (* header -> preheader *)
  header_of : (int, int) Hashtbl.t; (* preheader -> header *)
  exits_of_pe : (int, int) Hashtbl.t; (* postexit -> header of exited interval *)
  mutable postexits : int list; (* in creation order *)
}

let body_label = Label.U
(* the label connecting a preheader to its header node (Definition 3 case 1) *)

let extend ?(empty : 'a option) (cfg : 'a Cfg.t) : 'a t =
  (match Cfg.validate cfg with Ok () -> () | Error e -> raise (Invalid_cfg e));
  let intervals = Intervals.compute cfg in
  (* every interval must have a way out *)
  let n_exit_edges =
    List.fold_left
      (fun acc h ->
        match Intervals.exit_edges intervals h with
        | [] -> raise (Nonterminating_interval h)
        | es -> acc + List.length es)
      0 (Intervals.headers intervals)
  in
  let c = Cfg.graph cfg and orig_count = Cfg.num_nodes cfg in
  let empty = match empty with Some e -> e | None -> Cfg.info cfg (Cfg.entry cfg) in
  let headers = Intervals.headers intervals and root = Intervals.root intervals in
  let encloses = Intervals.encloses intervals in
  let parent_of i =
    if i = root then root
    else match Intervals.hdr_parent intervals i with Some p -> p | None -> root
  in
  (* a preheader and its edge per header, START and STOP with three
     edges, and (cascades aside) a postexit and two more edges per exit *)
  let nh = List.length headers and n_exits = List.length (Cfg.exits cfg) in
  let nodes = orig_count + nh + 2 + n_exit_edges in
  let edges = Digraph.num_edges c + nh + 2 + n_exits + (2 * n_exit_edges) in
  let ext = Cfg.Builder.create ~nodes ~edges ~dummy:empty () in
  let ivl = Vec.create ~capacity:nodes ~dummy:(-1) in
  let add_node ty info iv =
    Vec.push ivl iv;
    Cfg.Builder.add_node ~ty ext info
  in
  let add_edge src dst label = Cfg.Builder.add_edge ext ~src ~dst ~label in
  let pseudo_ctr = ref 0 in
  let fresh_pseudo () =
    incr pseudo_ctr;
    Label.Pseudo !pseudo_ctr
  in
  (* --- step 1: the original nodes, ids preserved --- *)
  for v = 0 to orig_count - 1 do
    let ty = if Intervals.is_header intervals v then Node_type.Header else Cfg.node_type cfg v in
    ignore (add_node ty (Cfg.info cfg v) (Intervals.hdr intervals v))
  done;
  (* --- step 2: preheaders, outermost intervals first --- *)
  let preheader = Hashtbl.create 8 and header_of = Hashtbl.create 8 in
  List.iter
    (fun h ->
      let ph = add_node Node_type.Preheader empty (parent_of h) in
      Hashtbl.replace preheader h ph;
      Hashtbl.replace header_of ph h;
      add_edge ph h body_label)
    headers;
  (* --- steps 4-6: START / STOP / pseudo START->STOP --- *)
  let start = add_node Node_type.Start empty root in
  let stop = add_node Node_type.Stop empty root in
  add_edge start (Cfg.entry cfg) Label.U;
  add_edge start stop (fresh_pseudo ());
  let to_stop = Array.make orig_count 0 in
  List.iter (fun x -> to_stop.(x) <- to_stop.(x) + 1) (Cfg.exits cfg);
  (* --- step 3: interval exits, cascaded one level at a time --- *)
  let exits_of_pe = Hashtbl.create 8 in
  let postexits = ref [] in
  (* the edge (src, dst) leaves interval [ivl src]: route it through a
     fresh postexit, which may leave its own interval in turn *)
  let rec leave src label dst =
    let i = Vec.get ivl src in
    let pe = add_node Node_type.Postexit empty (parent_of i) in
    Hashtbl.replace exits_of_pe pe i;
    postexits := pe :: !postexits;
    add_edge src pe label;
    add_edge (Hashtbl.find preheader i) pe (fresh_pseudo ());
    if encloses (parent_of i) (Vec.get ivl dst) then add_edge pe dst Label.U
    else leave pe Label.U dst
  in
  (* The construction as edits would remove an edge and add its
     replacement last among its source's out-edges: first each interval
     entry, redirected to the preheader (outermost interval first, which
     is preheader id order), then each interval exit, redirected to a
     postexit.  Exits are taken from the highest source down and from
     each source's last edge back, so a source's exits end up last and
     in reverse order.  Only original nodes have entering or exit edges. *)
  let entering iu v = Intervals.is_header intervals v && not (encloses v iu) in
  let leaves iu v = not (encloses iu (Vec.get ivl v)) in
  for u = orig_count - 1 downto 0 do
    let iu = Vec.get ivl u and lo = c.succ_off.(u) and hi = c.succ_off.(u + 1) in
    let kept = ref [] and moved = ref [] in
    for k = hi - 1 downto lo do
      let v = c.succ_dst.(k) and l = c.succ_lbl.(k) in
      if entering iu v then moved := (Hashtbl.find preheader v, l) :: !moved
      else kept := (v, l) :: !kept
    done;
    let moved = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) !moved in
    let edges = !kept @ moved @ List.init to_stop.(u) (fun _ -> (stop, Label.U)) in
    List.iter (fun (v, l) -> if not (leaves iu v) then add_edge u v l) edges;
    List.iter (fun (v, l) -> if leaves iu v then leave u l v) (List.rev edges)
  done;
  Cfg.Builder.set_entry ext start;
  Cfg.Builder.set_exits ext [ stop ];
  {
    ext = Cfg.Builder.freeze ext;
    start;
    stop;
    orig_count;
    intervals;
    ivl;
    preheader;
    header_of;
    exits_of_pe;
    postexits = List.rev !postexits;
  }

let cfg t = t.ext
let start t = t.start
let stop t = t.stop
let intervals t = t.intervals
let orig_count t = t.orig_count
let is_original t n = n < t.orig_count
let interval_of t n = Vec.get t.ivl n

let preheader_of_header t h =
  match Hashtbl.find_opt t.preheader h with
  | Some ph -> ph
  | None -> invalid_arg (Printf.sprintf "Ecfg.preheader_of_header: %d" h)

let header_of_preheader t ph =
  match Hashtbl.find_opt t.header_of ph with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Ecfg.header_of_preheader: %d" ph)

let is_preheader t n = Hashtbl.mem t.header_of n
let is_postexit t n = Hashtbl.mem t.exits_of_pe n

let exited_interval t pe =
  match Hashtbl.find_opt t.exits_of_pe pe with
  | Some h -> h
  | None -> invalid_arg (Printf.sprintf "Ecfg.exited_interval: %d" pe)

let postexits t = t.postexits
let headers t = Intervals.headers t.intervals

(* Back-edge conditions of a header in the extended graph: in-edges of [h]
   other than the preheader's — exactly the branches that "transfer control
   back to the loop header" in §3's second optimization. *)
let latch_edges t h =
  let ph = preheader_of_header t h in
  List.filter
    (fun (e : Label.t Digraph.edge) -> e.src <> ph)
    (Cfg.pred_edges t.ext h)

(* Postexit nodes of a given interval (the loop's exits in FCDG). *)
let postexits_of_header t h =
  List.filter (fun pe -> Hashtbl.find t.exits_of_pe pe = h) t.postexits

let pp ?pp_info fmt t =
  Fmt.pf fmt "@[<v>ECFG (START=%d, STOP=%d):@," t.start t.stop;
  Cfg.pp ?pp_info fmt t.ext;
  Fmt.pf fmt "@]"
