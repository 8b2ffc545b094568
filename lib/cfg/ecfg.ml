(* Extended control flow graph (paper §2, the six-step construction).

   Starting from a reducible CFG and its interval structure we build ECFG:

   1. copy the CFG;
   2. give every interval a fresh PREHEADER node and redirect interval
      entries to it (the paper's step 2(b)i prints "(ph,u,l)", an obvious
      typo for (u,ph,l));
   3. split every interval exit (u,v,l) into (u,pe,l), (pe,v,U) through a
      fresh POSTEXIT node, and add a never-taken pseudo edge from the
      exited interval's preheader to pe;
   4-5. add START/STOP nodes wired to the first/last nodes;
   6. add the pseudo edge START -> STOP.

   The finished graph is frozen (Cfg.freeze): every later reader gets
   array reads and prebuilt edge lists.

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
  List.iter
    (fun h ->
      if Intervals.exit_edges intervals h = [] then raise (Nonterminating_interval h))
    (Intervals.headers intervals);
  let orig_count = Cfg.num_nodes cfg in
  let empty = match empty with Some e -> e | None -> Cfg.info cfg (Cfg.entry cfg) in
  let ext = Cfg.copy ~dummy:empty cfg in
  let ivl = Vec.make orig_count (-1) ~dummy:(-1) in
  for n = 0 to orig_count - 1 do
    Vec.set ivl n (Intervals.hdr intervals n)
  done;
  let root = Intervals.root intervals in
  let parent_of i =
    if i = root then root
    else match Intervals.hdr_parent intervals i with Some p -> p | None -> root
  in
  let pseudo_ctr = ref 0 in
  let fresh_pseudo () =
    incr pseudo_ctr;
    Label.Pseudo !pseudo_ctr
  in
  let preheader = Hashtbl.create 8 and header_of = Hashtbl.create 8 in
  let exits_of_pe = Hashtbl.create 8 in
  let postexits = ref [] in
  (* --- step 2: preheaders, outermost intervals first --- *)
  List.iter
    (fun h ->
      let ph = Cfg.add_node ~ty:Node_type.Preheader ext empty in
      Vec.push ivl (parent_of h);
      Hashtbl.replace preheader h ph;
      Hashtbl.replace header_of ph h;
      Cfg.set_node_type ext h Node_type.Header;
      let entering =
        List.filter
          (fun (e : Label.t Digraph.edge) ->
            (* interval entry: HDR_LCA(HDR(u), h) <> h *)
            not (Intervals.encloses intervals h (Vec.get ivl e.src)))
          (Cfg.pred_edges ext h)
      in
      List.iter
        (fun (e : Label.t Digraph.edge) ->
          Digraph.remove_edge (Cfg.graph ext) e;
          Cfg.add_edge ext ~src:e.src ~dst:ph ~label:e.label)
        entering;
      Cfg.add_edge ext ~src:ph ~dst:h ~label:body_label)
    (Intervals.headers intervals);
  (* --- steps 4-6: START / STOP / pseudo START->STOP --- *)
  let start = Cfg.add_node ~ty:Node_type.Start ext empty in
  Vec.push ivl root;
  let stop = Cfg.add_node ~ty:Node_type.Stop ext empty in
  Vec.push ivl root;
  Cfg.add_edge ext ~src:start ~dst:(Cfg.entry cfg) ~label:Label.U;
  List.iter (fun x -> Cfg.add_edge ext ~src:x ~dst:stop ~label:Label.U) (Cfg.exits cfg);
  Cfg.add_edge ext ~src:start ~dst:stop ~label:(fresh_pseudo ());
  Cfg.set_entry ext start;
  Cfg.set_exits ext [ stop ];
  (* --- step 3: interval exits, cascaded one level at a time --- *)
  let worklist = ref [] in
  Cfg.iter_edges (fun e -> worklist := e :: !worklist) ext;
  while !worklist <> [] do
    match !worklist with
    | [] -> assert false
    | e :: rest ->
        worklist := rest;
        let iu = Vec.get ivl e.src and iv = Vec.get ivl e.dst in
        (* interval exit: HDR_LCA(HDR(u), HDR(v)) <> HDR(u) *)
        if not (Intervals.encloses intervals iu iv) then begin
          let pe = Cfg.add_node ~ty:Node_type.Postexit ext empty in
          Vec.push ivl (parent_of iu);
          Hashtbl.replace exits_of_pe pe iu;
          postexits := pe :: !postexits;
          Digraph.remove_edge (Cfg.graph ext) e;
          Cfg.add_edge ext ~src:e.src ~dst:pe ~label:e.label;
          Cfg.add_edge ext ~src:pe ~dst:e.dst ~label:Label.U;
          let ph = Hashtbl.find preheader iu in
          Cfg.add_edge ext ~src:ph ~dst:pe ~label:(fresh_pseudo ());
          (* only the outgoing half may still cross interval levels *)
          List.iter
            (fun (e' : Label.t Digraph.edge) -> worklist := e' :: !worklist)
            (Cfg.succ_edges ext pe)
        end
  done;
  Cfg.freeze ext;
  {
    ext;
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
