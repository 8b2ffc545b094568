(* Tests for s89_cfg: Label, Node_type, Cfg, Intervals, Ecfg. *)

open S89_cfg
module Digraph = S89_graph.Digraph

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cil = Alcotest.(list int)

(* ---------------- Label / Node_type ---------------- *)

let label_strings () =
  check Alcotest.string "T" "T" (Label.to_string Label.T);
  check Alcotest.string "F" "F" (Label.to_string Label.F);
  check Alcotest.string "U" "U" (Label.to_string Label.U);
  check Alcotest.string "case" "C3" (Label.to_string (Label.Case 3));
  check Alcotest.string "pseudo" "Z2" (Label.to_string (Label.Pseudo 2));
  check cb "pseudo flag" true (Label.is_pseudo (Label.Pseudo 1));
  check cb "not pseudo" false (Label.is_pseudo Label.T);
  check cb "equal" true (Label.equal (Label.Case 2) (Label.Case 2));
  check cb "not equal" false (Label.equal (Label.Case 2) (Label.Case 3));
  check cb "compare" true (Label.compare Label.T Label.F <> 0)

let node_type_strings () =
  List.iter
    (fun (t, s) -> check Alcotest.string s s (Node_type.to_string t))
    [ (Node_type.Start, "START"); (Node_type.Stop, "STOP");
      (Node_type.Header, "HEADER"); (Node_type.Preheader, "PREHEADER");
      (Node_type.Postexit, "POSTEXIT"); (Node_type.Other, "OTHER") ]

(* ---------------- Cfg ---------------- *)

(* a CFG with one node per payload, the given edges, entry and exits *)
let cfg_of ~dummy payloads edges ~entry ~exits =
  let b = Cfg.Builder.create ~dummy () in
  List.iter (fun x -> ignore (Cfg.Builder.add_node b x)) payloads;
  List.iter (fun (u, v, l) -> Cfg.Builder.add_edge b ~src:u ~dst:v ~label:l) edges;
  Cfg.Builder.set_entry b entry;
  Cfg.Builder.set_exits b exits;
  Cfg.Builder.freeze b

(* the same with [n] unit payloads *)
let unit_cfg n edges ~entry ~exits = cfg_of ~dummy:() (List.init n ignore) edges ~entry ~exits

(* the paper's Figure 1 graph, hand-built with string payloads *)
let fig1_cfg () =
  let entry, if_m, if_nlt, if_nge, call, cont = (0, 1, 2, 3, 4, 5) in
  let cfg =
    cfg_of ~dummy:""
      [ "ENTRY"; "10 IF(M.GE.0)"; "IF(N.LT.0)"; "IF(N.GE.0)"; "CALL FOO"; "20 CONTINUE" ]
      [ (entry, if_m, Label.U); (if_m, if_nlt, Label.T); (if_m, if_nge, Label.F);
        (if_nlt, cont, Label.T); (if_nlt, call, Label.F); (if_nge, cont, Label.T);
        (if_nge, call, Label.F); (call, if_m, Label.U) ]
      ~entry ~exits:[ cont ]
  in
  (cfg, (entry, if_m, if_nlt, if_nge, call, cont))

let cfg_basics () =
  let cfg, (entry, if_m, _, _, _, cont) = fig1_cfg () in
  check ci "nodes" 6 (Cfg.num_nodes cfg);
  check ci "entry" entry (Cfg.entry cfg);
  check cil "exits" [ cont ] (Cfg.exits cfg);
  check Alcotest.string "payload" "ENTRY" (Cfg.info cfg entry);
  let cfg' = Cfg.map_info (fun n x -> if n = entry then "E2" else x) cfg in
  check Alcotest.string "mapped payload" "E2" (Cfg.info cfg' entry);
  check Alcotest.string "original payload" "ENTRY" (Cfg.info cfg entry);
  check cb "graph shared" true (Cfg.graph cfg' == Cfg.graph cfg);
  check cb "type default" true (Node_type.equal (Cfg.node_type cfg if_m) Node_type.Other);
  check cb "validate ok" true (Cfg.validate cfg = Ok ())

let cfg_out_labels () =
  let cfg, (_, if_m, _, _, call, _) = fig1_cfg () in
  check cb "branch labels" true (Cfg.out_labels cfg if_m = [ Label.T; Label.F ]);
  check cb "uncond labels" true (Cfg.out_labels cfg call = [ Label.U ])

let cfg_validate_errors () =
  let validate n edges ~entry ~exits = Cfg.validate (unit_cfg n edges ~entry ~exits) in
  check cb "no entry" true (validate 0 [] ~entry:(-1) ~exits:[] = Error Cfg.No_entry);
  check cb "no exit" true (validate 1 [] ~entry:0 ~exits:[] = Error Cfg.No_exit);
  check cb "dangling exit" true
    (validate 1 [] ~entry:0 ~exits:[ 9 ] = Error (Cfg.Dangling_exit 9));
  (match validate 2 [] ~entry:0 ~exits:[ 1 ] with
  | Error (Cfg.Unreachable [ n ]) -> check ci "unreachable b" 1 n
  | _ -> Alcotest.fail "expected Unreachable");
  check cb "now valid" true (validate 2 [ (0, 1, Label.U) ] ~entry:0 ~exits:[ 1 ] = Ok ());
  check cb "exit with successor" true
    (validate 2 [ (0, 1, Label.U); (1, 0, Label.U) ] ~entry:0 ~exits:[ 1 ]
    = Error (Cfg.Exit_has_successor 1))

(* ---------------- Intervals ---------------- *)

let intervals_fig1 () =
  let cfg, (entry, if_m, if_nlt, if_nge, call, cont) = fig1_cfg () in
  let iv = Intervals.compute cfg in
  check ci "root is entry" entry (Intervals.root iv);
  check cil "one header" [ if_m ] (Intervals.headers iv);
  check cb "is_header" true (Intervals.is_header iv if_m);
  check cb "entry not header" false (Intervals.is_header iv entry);
  check ci "hdr of body" if_m (Intervals.hdr iv call);
  check ci "hdr of header" if_m (Intervals.hdr iv if_m);
  check ci "hdr outside" entry (Intervals.hdr iv cont);
  check cb "hdr_parent of loop = root" true
    (Intervals.hdr_parent iv if_m = Some entry);
  check cb "hdr_parent of root" true (Intervals.hdr_parent iv entry = None);
  check ci "hdr_lca" entry (Intervals.hdr_lca iv if_m entry);
  check ci "depth" 1 (Intervals.interval_depth iv if_m);
  check cb "encloses root->loop" true (Intervals.encloses iv entry if_m);
  check cb "not encloses loop->root" false (Intervals.encloses iv if_m entry);
  let members = List.sort compare (Array.to_list (Intervals.members iv if_m)) in
  check cil "members" (List.sort compare [ if_m; if_nlt; if_nge; call ]) members;
  check cil "back edge sources" [ call ] (Intervals.back_edge_sources iv if_m);
  check ci "exit edges" 2 (List.length (Intervals.exit_edges iv if_m))

let intervals_nested () =
  (* entry -> h1 -> h2 -> b -> h2(back) ; b -> l1 -> h1(back); l1 -> exit *)
  let e, h1, h2, b, l1, x = (0, 1, 2, 3, 4, 5) in
  let cfg =
    unit_cfg 6
      [ (e, h1, Label.U); (h1, h2, Label.U); (h2, b, Label.U); (b, h2, Label.T);
        (b, l1, Label.F); (l1, h1, Label.T); (l1, x, Label.F) ]
      ~entry:e ~exits:[ x ]
  in
  let iv = Intervals.compute cfg in
  check cil "headers outermost first" [ h1; h2 ] (Intervals.headers iv);
  check ci "hdr b innermost" h2 (Intervals.hdr iv b);
  check ci "hdr l1" h1 (Intervals.hdr iv l1);
  check cb "parent h2 = h1" true (Intervals.hdr_parent iv h2 = Some h1);
  check ci "lca h2 h1" h1 (Intervals.hdr_lca iv h2 h1);
  check ci "depth h2" 2 (Intervals.interval_depth iv h2);
  check cb "h1 encloses h2" true (Intervals.encloses iv h1 h2);
  check cb "h2 members subset h1" true
    (Array.for_all (Intervals.mem iv h1) (Intervals.members iv h2))

let intervals_entry_preds () =
  let a = 0 in
  let cfg = unit_cfg 2 [ (0, 1, Label.U); (1, 0, Label.U) ] ~entry:a ~exits:[ 1 ] in
  (try
     ignore (Intervals.compute cfg);
     Alcotest.fail "expected Entry_has_preds"
   with Intervals.Entry_has_preds n -> check ci "offender" a n)

let intervals_irreducible () =
  let e, a, b = (0, 1, 2) in
  let cfg =
    unit_cfg 3
      [ (e, a, Label.T); (e, b, Label.F); (a, b, Label.U); (b, a, Label.U) ]
      ~entry:e ~exits:[]
  in
  (try
     ignore (Intervals.compute cfg);
     Alcotest.fail "expected Irreducible"
   with Intervals.Irreducible w -> check cb "witness nonempty" true (w <> []))

let cfg_split_irreducible () =
  let e, a, b, x = (0, 1, 2, 3) in
  let cfg =
    cfg_of ~dummy:"n" [ "e"; "a"; "b"; "x" ]
      [ (e, a, Label.T); (e, b, Label.F); (a, b, Label.T); (b, a, Label.T);
        (a, x, Label.F); (b, x, Label.F) ]
      ~entry:e ~exits:[ x ]
  in
  let split, splits = Cfg.split_irreducible cfg in
  check cb "splits happened" true (splits <> []);
  List.iter
    (fun (orig, copy) ->
      check Alcotest.string "payload copied" (Cfg.info split orig) (Cfg.info split copy))
    splits;
  check cil "exits" [ x ] (Cfg.exits split);
  check ci "input untouched" 4 (Cfg.num_nodes cfg);
  ignore (Intervals.compute split) (* must not raise now *)

(* ---------------- Ecfg ---------------- *)

let ecfg_fig1 () =
  let cfg, (entry, if_m, if_nlt, if_nge, call, cont) = fig1_cfg () in
  let e = Ecfg.extend ~empty:"." cfg in
  let ext = Ecfg.cfg e in
  let start = Ecfg.start e and stop = Ecfg.stop e in
  check ci "orig preserved" 6 (Ecfg.orig_count e);
  check cb "original flag" true (Ecfg.is_original e call);
  check cb "start synthetic" false (Ecfg.is_original e start);
  (* node types *)
  check cb "start type" true (Node_type.equal (Cfg.node_type ext start) Node_type.Start);
  check cb "stop type" true (Node_type.equal (Cfg.node_type ext stop) Node_type.Stop);
  check cb "header type" true (Node_type.equal (Cfg.node_type ext if_m) Node_type.Header);
  let ph = Ecfg.preheader_of_header e if_m in
  check cb "preheader type" true
    (Node_type.equal (Cfg.node_type ext ph) Node_type.Preheader);
  check ci "header_of_preheader" if_m (Ecfg.header_of_preheader e ph);
  check cb "is_preheader" true (Ecfg.is_preheader e ph);
  (* entry edge redirected to the preheader *)
  check cb "entry->ph" true
    (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = ph)
       (Cfg.succ_edges ext entry));
  check cb "entry not direct to header" false
    (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = if_m)
       (Cfg.succ_edges ext entry));
  (* back edge unredirected *)
  check cb "latch kept" true
    (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = if_m)
       (Cfg.succ_edges ext call));
  check ci "latch edges" 1 (List.length (Ecfg.latch_edges e if_m));
  (* two postexits, one per exit edge, pseudo edges from the preheader *)
  let pes = Ecfg.postexits_of_header e if_m in
  check ci "two postexits" 2 (List.length pes);
  List.iter
    (fun pe ->
      check cb "postexit flagged" true (Ecfg.is_postexit e pe);
      check ci "exited interval" if_m (Ecfg.exited_interval e pe);
      check cb "pseudo from preheader" true
        (List.exists
           (fun (ed : Label.t Digraph.edge) ->
             ed.src = ph && Label.is_pseudo ed.label)
           (Cfg.pred_edges ext pe));
      check cb "forwards to cont" true
        (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = cont)
           (Cfg.succ_edges ext pe)))
    pes;
  (* START -> entry, exit -> STOP, pseudo START -> STOP *)
  check cb "start->entry" true
    (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = entry)
       (Cfg.succ_edges ext start));
  check cb "start->stop pseudo" true
    (List.exists
       (fun (ed : Label.t Digraph.edge) -> ed.dst = stop && Label.is_pseudo ed.label)
       (Cfg.succ_edges ext start));
  check cb "cont->stop" true
    (List.exists (fun (ed : Label.t Digraph.edge) -> ed.dst = stop)
       (Cfg.succ_edges ext cont));
  (* intervals of nodes *)
  check ci "interval of call" if_m (Ecfg.interval_of e call);
  check ci "interval of ph = root" entry (Ecfg.interval_of e ph);
  check ci "interval of if_nlt" if_m (Ecfg.interval_of e if_nlt);
  check ci "interval of if_nge" if_m (Ecfg.interval_of e if_nge)

(* exits that leave two nested intervals at once must cascade: one postexit
   per level, each with a pseudo edge from that level's preheader *)
let ecfg_cascade () =
  let e, h1, h2, b, l1, x = (0, 1, 2, 3, 4, 5) in
  let cfg =
    unit_cfg 6
      [ (e, h1, Label.U); (h1, h2, Label.U); (h2, b, Label.U); (b, h2, Label.T);
        (b, x, Label.Case 1) (* two-level exit! *); (b, l1, Label.F);
        (l1, h1, Label.T); (l1, x, Label.F) ]
      ~entry:e ~exits:[ x ]
  in
  let ec = Ecfg.extend ~empty:() cfg in
  let pes_inner = Ecfg.postexits_of_header ec h2 in
  let pes_outer = Ecfg.postexits_of_header ec h1 in
  (* inner level: the Case-1 two-level exit AND the normal F exit to l1;
     outer level: the Case-1 cascade plus l1's own F exit *)
  check ci "inner postexits" 2 (List.length pes_inner);
  check ci "outer postexits" 2 (List.length pes_outer);
  let ext = Ecfg.cfg ec in
  (* the two-level exit cascades: b -> pe_inner -> pe_outer -> x *)
  check cb "cascade chains through both levels" true
    (List.exists
       (fun pe_i ->
         match Cfg.succ_edges ext pe_i with
         | [ ed ] -> List.mem ed.dst pes_outer
         | _ -> false)
       pes_inner);
  (* b's exits are redirected last among its out-edges, the last one
     (F to l1) first: b -> h2 (T), then the F exit, then the Case-1 exit *)
  check cb "b's out-edge order" true
    (List.map (fun (ed : Label.t Digraph.edge) -> ed.label) (Cfg.succ_edges ext b)
    = [ Label.T; Label.F; Label.Case 1 ])

let ecfg_nonterminating () =
  let e, h, x = (0, 1, 2) in
  let cfg =
    unit_cfg 3 [ (e, h, Label.T); (e, x, Label.F); (h, h, Label.U) ] ~entry:e ~exits:[ x ]
  in
  (try
     ignore (Ecfg.extend ~empty:() cfg);
     Alcotest.fail "expected Nonterminating_interval"
   with Ecfg.Nonterminating_interval n -> check ci "offending header" h n)

(* structural invariants on every demo program *)
let ecfg_invariants () =
  List.iter
    (fun src ->
      let prog = S89_frontend.Program.of_source src in
      List.iter
        (fun (p : S89_frontend.Program.proc) ->
          let ec = Ecfg.extend p.S89_frontend.Program.cfg in
          let ext = Ecfg.cfg ec in
          (* unique entry START with no preds; unique exit STOP with no succs *)
          check ci "start no preds" 0 (List.length (Cfg.pred_edges ext (Ecfg.start ec)));
          check ci "stop no succs" 0 (List.length (Cfg.succ_edges ext (Ecfg.stop ec)));
          check cb "valid" true (Cfg.validate ext = Ok ());
          (* every header has exactly one preheader edge *)
          List.iter
            (fun h ->
              let ph = Ecfg.preheader_of_header ec h in
              check cb "ph -> h" true
                (List.exists
                   (fun (ed : Label.t Digraph.edge) ->
                     ed.src = ph && Label.equal ed.label Ecfg.body_label)
                   (Cfg.pred_edges ext h));
              check cb "header has postexits" true
                (Ecfg.postexits_of_header ec h <> []))
            (Ecfg.headers ec);
          (* pseudo edges originate only at START or preheaders *)
          Digraph.iter_edges
            (fun ed ->
              if Label.is_pseudo ed.label then
                check cb "pseudo source" true
                  (ed.src = Ecfg.start ec || Ecfg.is_preheader ec ed.src))
            (Cfg.graph ext))
        (S89_frontend.Program.procs prog))
    [ S89_workloads.Demos.fig1 (); S89_workloads.Demos.branchy ();
      S89_workloads.Demos.chunky (); S89_workloads.Demos.nested_random ();
      S89_workloads.Demos.computed_goto (); S89_workloads.Demos.irreducible () ]

let suite =
  [
    Alcotest.test_case "label strings" `Quick label_strings;
    Alcotest.test_case "node type strings" `Quick node_type_strings;
    Alcotest.test_case "cfg basics" `Quick cfg_basics;
    Alcotest.test_case "cfg out_labels" `Quick cfg_out_labels;
    Alcotest.test_case "cfg validate errors" `Quick cfg_validate_errors;
    Alcotest.test_case "intervals: fig1" `Quick intervals_fig1;
    Alcotest.test_case "intervals: nested" `Quick intervals_nested;
    Alcotest.test_case "intervals: entry preds" `Quick intervals_entry_preds;
    Alcotest.test_case "intervals: irreducible" `Quick intervals_irreducible;
    Alcotest.test_case "cfg split_irreducible" `Quick cfg_split_irreducible;
    Alcotest.test_case "ecfg: fig1 structure" `Quick ecfg_fig1;
    Alcotest.test_case "ecfg: multi-level exit cascade" `Quick ecfg_cascade;
    Alcotest.test_case "ecfg: nonterminating interval" `Quick ecfg_nonterminating;
    Alcotest.test_case "ecfg: invariants on demos" `Quick ecfg_invariants;
  ]

(* ECFG structural invariants on randomly generated programs *)
let ecfg_invariants_random_prop =
  QCheck.Test.make ~count:50 ~name:"ECFG invariants (random programs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let prog = Gen_prog.gen_program seed in
      List.for_all
        (fun (p : S89_frontend.Program.proc) ->
          let ec = Ecfg.extend p.S89_frontend.Program.cfg in
          let ext = Ecfg.cfg ec in
          (* valid, START source-only, STOP sink-only *)
          Cfg.validate ext = Ok ()
          && Cfg.pred_edges ext (Ecfg.start ec) = []
          && Cfg.succ_edges ext (Ecfg.stop ec) = []
          (* every header: exactly one preheader edge, >=1 postexit, >=1 latch *)
          && List.for_all
               (fun h ->
                 let ph = Ecfg.preheader_of_header ec h in
                 List.length
                   (List.filter
                      (fun (e : Label.t S89_graph.Digraph.edge) -> e.src = ph)
                      (Cfg.pred_edges ext h))
                 = 1
                 && Ecfg.postexits_of_header ec h <> []
                 && Ecfg.latch_edges ec h <> [])
               (Ecfg.headers ec)
          (* after the exit cascade no edge jumps between sibling
             intervals: the endpoints' intervals are always tree-related,
             and exits step out exactly one level at a time *)
          && (let iv = Ecfg.intervals ec in
              let ok = ref true in
              Digraph.iter_edges
                (fun e ->
                  let a = Ecfg.interval_of ec e.src
                  and b = Ecfg.interval_of ec e.dst in
                  if not (Intervals.encloses iv a b || Intervals.encloses iv b a)
                  then ok := false;
                  (* an outward edge (exit) may only climb one level *)
                  if
                    Intervals.encloses iv b a && a <> b
                    && Intervals.interval_depth iv a
                       - Intervals.interval_depth iv b
                       > 1
                  then ok := false)
                (Cfg.graph ext);
              !ok))
        (S89_frontend.Program.procs prog))

(* ---------------- loop-forest oracle ---------------- *)

(* The interval structure by brute force, straight from the definitions:
   [h] dominates [s] iff no entry-to-[s] path avoids [h]; a back edge is
   an edge whose target dominates its source; the natural loop of a back
   edge (s, h) is h plus every node that reaches s without passing
   through h; loops with the same header are merged; HDR(v) is the
   smallest merged loop containing v (the entry when there is none), and
   a header's parent is the smallest other merged loop containing it. *)
type 'a brute = {
  b_headers : int list; (* outermost-first, then by id *)
  b_hdr : int array;
  b_parent : (int * int option) list;
  b_members : (int * int list) list; (* sorted *)
  b_back : (int * int list) list; (* sources, edge order *)
  b_exits : (int * (int * int * Label.t) list) list;
}

let brute_intervals (cfg : 'a Cfg.t) =
  let n = Cfg.num_nodes cfg and entry = Cfg.entry cfg in
  let succs u = List.map (fun (e : Label.t Digraph.edge) -> e.dst) (Cfg.succ_edges cfg u) in
  let preds u = List.map (fun (e : Label.t Digraph.edge) -> e.src) (Cfg.pred_edges cfg u) in
  (* nodes reachable from [src] along [next], never entering [avoid] *)
  let closure next src ~avoid =
    let seen = Array.make n false in
    let rec go u =
      if u <> avoid && not seen.(u) then begin
        seen.(u) <- true;
        List.iter go (next u)
      end
    in
    go src;
    seen
  in
  let dominates h s = h = s || not (closure succs entry ~avoid:h).(s) in
  let edges = ref [] in
  for u = n - 1 downto 0 do
    List.iter
      (fun (e : Label.t Digraph.edge) -> edges := (u, e.dst, e.label) :: !edges)
      (List.rev (Cfg.succ_edges cfg u))
  done;
  let back = List.filter (fun (s, h, _) -> dominates h s) !edges in
  let headers = List.sort_uniq compare (List.map (fun (_, h, _) -> h) back) in
  let loop h =
    let inl = Array.make n false in
    inl.(h) <- true;
    List.iter
      (fun (s, h', _) ->
        if h' = h && s <> h then
          Array.iteri (fun v r -> if r then inl.(v) <- true) (closure preds s ~avoid:h))
      back;
    inl
  in
  let loops = List.map (fun h -> (h, loop h)) headers in
  let size (_, inl) = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inl in
  let smallest cands =
    match List.sort (fun a b -> compare (size a) (size b)) cands with
    | (h, _) :: _ -> Some h
    | [] -> None
  in
  let b_hdr =
    Array.init n (fun v ->
        Option.value ~default:entry (smallest (List.filter (fun (_, inl) -> inl.(v)) loops)))
  in
  let parent h =
    Option.value ~default:entry
      (smallest (List.filter (fun (h', inl) -> h' <> h && inl.(h)) loops))
  in
  let depth h = List.length (List.filter (fun (_, inl) -> inl.(h)) loops) in
  let members inl = List.filter (fun v -> inl.(v)) (List.init n Fun.id) in
  {
    b_headers = List.stable_sort (fun a b -> compare (depth a) (depth b)) headers;
    b_hdr;
    b_parent = List.map (fun h -> (h, Some (parent h))) headers;
    b_members = List.map (fun (h, inl) -> (h, members inl)) loops;
    b_back =
      List.map
        (fun h -> (h, List.filter_map (fun (s, h', _) -> if h' = h then Some s else None) back))
        headers;
    b_exits =
      List.map
        (fun (h, inl) -> (h, List.filter (fun (u, v, _) -> inl.(u) && not inl.(v)) !edges))
        loops;
  }

(* Intervals against the brute force; every node must be reachable *)
let intervals_match_brute (cfg : 'a Cfg.t) =
  let iv = Intervals.compute cfg and b = brute_intervals cfg in
  let n = Cfg.num_nodes cfg in
  let sorted a = List.sort compare (Array.to_list a) in
  let edge_triples =
    List.map (fun (e : Label.t Digraph.edge) -> (e.src, e.dst, e.label))
  in
  Intervals.headers iv = b.b_headers
  && Array.for_all (fun v -> Intervals.hdr iv v = b.b_hdr.(v)) (Array.init n Fun.id)
  && List.for_all (fun (h, p) -> Intervals.hdr_parent iv h = p) b.b_parent
  && List.for_all (fun (h, ms) -> sorted (Intervals.members iv h) = ms) b.b_members
  && sorted (Intervals.members iv (Intervals.root iv)) = List.init n Fun.id
  && List.for_all
       (fun (h, ms) ->
         List.for_all (fun v -> Intervals.mem iv h v = List.mem v ms) (List.init n Fun.id))
       b.b_members
  && List.for_all (fun (h, srcs) -> Intervals.back_edge_sources iv h = srcs) b.b_back
  && List.for_all
       (fun (h, exits) -> edge_triples (Intervals.exit_edges iv h) = exits)
       b.b_exits

(* a random CFG on [nodes] nodes, all reachable from node 0 (each node
   gets an edge from a lower one), with [extra] random edges on top;
   then a fresh entry node with one edge to node 0, so the entry has no
   predecessors *)
let random_cfg seed ~nodes ~extra =
  let rng = S89_util.Prng.create ~seed in
  let b = Cfg.Builder.create ~dummy:() () in
  for _ = 0 to nodes do
    ignore (Cfg.Builder.add_node b ())
  done;
  let label () = List.nth [ Label.T; Label.F; Label.U ] (S89_util.Prng.int rng 3) in
  for v = 1 to nodes - 1 do
    Cfg.Builder.add_edge b ~src:(S89_util.Prng.int rng v) ~dst:v ~label:(label ())
  done;
  for _ = 1 to extra do
    let u = S89_util.Prng.int rng nodes and v = S89_util.Prng.int rng nodes in
    Cfg.Builder.add_edge b ~src:u ~dst:v ~label:(label ())
  done;
  Cfg.Builder.add_edge b ~src:nodes ~dst:0 ~label:Label.U;
  Cfg.Builder.set_entry b nodes;
  Cfg.Builder.freeze b

let loop_forest_programs_prop =
  QCheck.Test.make ~count:30 ~name:"loop forest = brute force (generated programs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      List.for_all
        (fun (p : S89_frontend.Program.proc) -> intervals_match_brute p.S89_frontend.Program.cfg)
        (S89_frontend.Program.procs (Gen_prog.gen_program seed)))

let loop_forest_split_prop =
  QCheck.Test.make ~count:150 ~name:"loop forest = brute force (split random graphs)"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let cfg = random_cfg seed ~nodes:9 ~extra:9 in
      match Cfg.split_irreducible cfg with
      | exception S89_graph.Node_split.Gave_up _ -> QCheck.assume_fail ()
      | split, _ -> intervals_match_brute split)

let irreducible_witness_prop =
  QCheck.Test.make ~count:200 ~name:"Irreducible carries the offending edges"
    QCheck.(int_range 0 100000)
    (fun seed ->
      let cfg = random_cfg seed ~nodes:7 ~extra:7 in
      let g = Cfg.graph cfg and root = Cfg.entry cfg in
      if S89_graph.Reducibility.is_reducible g ~root then intervals_match_brute cfg
      else
        let expected =
          List.map
            (fun (e : Label.t Digraph.edge) -> (e.src, e.dst))
            (S89_graph.Reducibility.offending_edges g ~root)
        in
        match Intervals.compute cfg with
        | _ -> false
        | exception Intervals.Irreducible w -> w = expected && w <> [])

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [ ecfg_invariants_random_prop; loop_forest_programs_prop;
        loop_forest_split_prop; irreducible_witness_prop ]
