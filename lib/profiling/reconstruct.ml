(* Reconstruction: recover TOTAL_FREQ for every control condition from the
   reduced counter set of a smart placement, by replaying the plan's
   derivations numerically (the same conservation laws, now with numbers).

   The key correctness property — tested extensively — is
       reconstruct (smart counters) = oracle totals,
   i.e. the optimized profile loses no information. *)

open S89_cdg

type cond = Analysis.cond

exception Unsolvable of string * cond list

(* NODE_TOTAL(x): sum of the totals of x's real FCDG parent conditions;
   START is executed once per invocation, i.e. its own (START,U) total. *)
let node_total (a : Analysis.t) (values : (cond, int) Hashtbl.t) x =
  let fcdg = a.Analysis.fcdg in
  if x = Fcdg.start fcdg then Hashtbl.find_opt values (x, S89_cfg.Label.U)
  else
    List.fold_left
      (fun acc c ->
        match (acc, Hashtbl.find_opt values c) with
        | Some s, Some v -> Some (s + v)
        | _ -> None)
      (Some 0) (Fcdg.parent_conditions fcdg x)

let term_value a values = function
  | Placement.Tcond c -> Hashtbl.find_opt values c
  | Placement.Tnode_total x -> node_total a values x

let sum_opt xs =
  List.fold_left
    (fun acc x -> match (acc, x) with Some s, Some v -> Some (s + v) | _ -> None)
    (Some 0) xs

let proc_totals (plan : Placement.t) ~counters (name : string) : (cond, int) Hashtbl.t =
  let pp = Placement.proc_plan plan name in
  let a = pp.Placement.analysis in
  let values = Hashtbl.create 64 in
  (* pseudo conditions never fire *)
  List.iter
    (fun c ->
      if Analysis.site_of_condition a c = Analysis.Never then Hashtbl.replace values c 0)
    a.Analysis.conditions;
  List.iter
    (fun (c, id, _) -> Hashtbl.replace values c counters.(id))
    pp.Placement.measured;
  let try_solve (c, deriv) =
    if Hashtbl.mem values c then true
    else begin
      let v =
        match deriv with
        | Placement.Node_balance { node; others } -> (
            match
              ( node_total a values node,
                sum_opt (List.map (fun c -> Hashtbl.find_opt values c) others) )
            with
            | Some nt, Some os -> Some (nt - os)
            | _ -> None)
        | Placement.Exit_balance { ph; others } -> (
            match
              ( node_total a values ph,
                sum_opt (List.map (fun c -> Hashtbl.find_opt values c) others) )
            with
            | Some nt, Some os -> Some (nt - os)
            | _ -> None)
        | Placement.Latch_balance { ph; header_cond; others } -> (
            match
              ( Hashtbl.find_opt values header_cond,
                node_total a values ph,
                sum_opt (List.map (term_value a values) others) )
            with
            | Some h, Some nt, Some os -> Some (h - nt - os)
            | _ -> None)
        | Placement.Header_from_latches { ph; latches } -> (
            match
              (node_total a values ph, sum_opt (List.map (term_value a values) latches))
            with
            | Some nt, Some ls -> Some (nt + ls)
            | _ -> None)
        | Placement.Static_trip { ph; trip } -> (
            match node_total a values ph with
            | Some nt -> Some ((trip + 1) * nt)
            | _ -> None)
        | Placement.Static_body { ph; trip } -> (
            match node_total a values ph with
            | Some nt -> Some (trip * nt)
            | _ -> None)
      in
      match v with
      | Some v ->
          Hashtbl.replace values c v;
          true
      | None -> false
    end
  in
  let remaining = ref pp.Placement.derived in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    remaining :=
      List.filter
        (fun d ->
          if try_solve d then begin
            progress := true;
            false
          end
          else true)
        !remaining
  done;
  if !remaining <> [] then
    raise (Unsolvable (name, List.map fst !remaining));
  values

(* totals for every procedure *)
let totals (plan : Placement.t) ~counters : (string, (cond, int) Hashtbl.t) Hashtbl.t =
  let out = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.replace out name (proc_totals plan ~counters name))
    (Placement.proc_names plan);
  out

(* E[F²] of the loop frequency per loop entry, for the loops the plan
   tracked second moments for (exit-free DO loops).  Returns
   (header, E[F²]) pairs; loops entered zero times are omitted. *)
let loop_second_moments (plan : Placement.t) ~counters (name : string)
    (proc_totals : (cond, int) Hashtbl.t) : (int * float) list =
  let pp = Placement.proc_plan plan name in
  let a = pp.Placement.analysis in
  List.filter_map
    (fun (h, id, static) ->
      let ph = S89_cfg.Ecfg.preheader_of_header a.Analysis.ecfg h in
      match node_total a proc_totals ph with
      | Some entries when entries > 0 ->
          let sum_sq =
            match static with
            | Some k -> (k + 1) * (k + 1) * entries
            | None -> counters.(id)
          in
          Some (h, float_of_int sum_sq /. float_of_int entries)
      | _ -> None)
    pp.Placement.second_moment
