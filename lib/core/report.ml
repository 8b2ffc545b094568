(* Figure-3-style reports: the FCDG annotated with <FREQ, TOTAL_FREQ> per
   edge and [COST, TIME, E[TIME²], VAR, STD_DEV] per node, as text or DOT. *)

module Ir = S89_frontend.Ir
module Program = S89_frontend.Program
module Analysis = S89_profiling.Analysis
module Freq = S89_profiling.Freq
open S89_cfg
open S89_cdg

module Decimal = S89_util.Decimal

(* Every printer below appends to one [Buffer.t]; [Format] appears only
   in the [pp] wrappers, so no break hint can split a line. *)

let add_node (a : Analysis.t) b u =
  let ecfg = a.Analysis.ecfg in
  let marker name n =
    Buffer.add_string b name;
    Buffer.add_char b '(';
    Decimal.add_int b n;
    Buffer.add_char b ')'
  in
  if u = Ecfg.start ecfg then Buffer.add_string b "START"
  else if u = Ecfg.stop ecfg then Buffer.add_string b "STOP"
  else if Ecfg.is_preheader ecfg u then
    marker "PREHEADER" (Ecfg.header_of_preheader ecfg u)
  else if Ecfg.is_postexit ecfg u then marker "POSTEXIT" (Ecfg.exited_interval ecfg u)
  else Ir.add_info b (Cfg.info (Ecfg.cfg ecfg) u)

let describe_node a u =
  let b = Buffer.create 32 in
  add_node a b u;
  Buffer.contents b

(* ["%.0f"] when integer-valued and below 1e15, ["%.4g"] otherwise *)
let add_number b x =
  if Float.is_integer x && Float.abs x < 1e15 then Decimal.add_f0 b x
  else Decimal.add_g4 b x

let number x =
  let b = Buffer.create 16 in
  add_number b x;
  Buffer.contents b

let add_spaces b n =
  for _ = 1 to n do
    Buffer.add_char b ' '
  done

(* per node in topological order [  %3d %-34s [COST, TIME, E[T²], VAR,
   STD_DEV]] and per out-edge [        -L-> v  <FREQ, TOTAL_FREQ>], each
   on a line of its own *)
let add_body b (est : Interproc.proc_est) =
  let a = est.Interproc.analysis in
  let fcdg = a.Analysis.fcdg in
  let g = Fcdg.graph fcdg in
  let freq = est.Interproc.freq and time = est.Interproc.time in
  let var = est.Interproc.variance in
  let add_value x =
    Buffer.add_string b ", ";
    add_number b x
  in
  Array.iter
    (fun u ->
      Buffer.add_string b "\n  ";
      add_spaces b (3 - Decimal.width u);
      Decimal.add_int b u;
      Buffer.add_char b ' ';
      let start = Buffer.length b in
      add_node a b u;
      add_spaces b (34 - (Buffer.length b - start));
      Buffer.add_string b " [";
      add_number b (Time_est.cost time u);
      add_value (Time_est.time time u);
      add_value (Variance.e2 var u);
      add_value (Variance.var var u);
      add_value (Variance.std_dev var u);
      Buffer.add_char b ']';
      for k = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
        Buffer.add_string b "\n        -";
        Label.add b g.succ_lbl.(k);
        Buffer.add_string b "-> ";
        Decimal.add_int b g.succ_dst.(k);
        Buffer.add_string b "  <";
        let c = (u, g.succ_lbl.(k)) in
        Decimal.add_g4 b (Freq.freq freq c);
        Buffer.add_string b ", ";
        Decimal.add_int b (Freq.total freq c);
        Buffer.add_char b '>'
      done)
    (Fcdg.topological fcdg)

(* [procedure NAME: TIME(START)=.. STD_DEV(START)=..], then the body.
   The header is always rendered: a memo hit may bind the estimate to
   another name.  The body of a memo-held estimate is rendered once and
   then copied from its cell. *)
let add_proc b (est : Interproc.proc_est) =
  let a = est.Interproc.analysis in
  Buffer.add_string b "procedure ";
  Buffer.add_string b a.Analysis.proc.Program.name;
  Buffer.add_string b ": TIME(START)=";
  add_number b (Time_est.total_time est.Interproc.time a);
  Buffer.add_string b " STD_DEV(START)=";
  add_number b (Variance.total_std_dev est.Interproc.variance a);
  match est.Interproc.rendered with
  | None -> add_body b est
  | Some cell -> (
      match Atomic.get cell with
      | Some text -> Buffer.add_string b text
      | None ->
          let start = Buffer.length b in
          add_body b est;
          ignore
            (Atomic.compare_and_set cell None
               (Some (Buffer.sub b start (Buffer.length b - start)))))

let to_string (t : Interproc.t) =
  (* about 64 bytes a node line and 32 an edge line: one allocation on
     typical reports instead of a doubling series *)
  let size =
    Hashtbl.fold
      (fun _ (pe : Interproc.proc_est) n ->
        let g = Fcdg.graph pe.Interproc.analysis.Analysis.fcdg in
        n + 128
        + (64 * S89_graph.Digraph.num_nodes g)
        + (32 * S89_graph.Digraph.num_edges g))
      t.Interproc.per_proc 128
  in
  let b = Buffer.create size in
  Buffer.add_string b "program estimate: TIME=";
  add_number b (Interproc.program_time t);
  Buffer.add_string b " STD_DEV=";
  add_number b (Interproc.program_std_dev t);
  Hashtbl.fold (fun k _ acc -> k :: acc) t.Interproc.per_proc []
  |> List.sort compare
  |> List.iter (fun name ->
         Buffer.add_string b "\n\n";
         add_proc b (Interproc.proc_est t name));
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* DOT rendering of the annotated FCDG (one procedure) *)
let fcdg_dot (est : Interproc.proc_est) : string =
  let a = est.Interproc.analysis in
  let fcdg = a.Analysis.fcdg in
  let freq = est.Interproc.freq in
  S89_graph.Dot.to_string ~name:"fcdg"
    ~node_attrs:(fun u ->
      [
        ( "label",
          Fmt.str "%s\n[%s, %s, %s]" (describe_node a u)
            (number (Time_est.cost est.Interproc.time u))
            (number (Time_est.time est.Interproc.time u))
            (number (Variance.var est.Interproc.variance u)) );
      ])
    ~edge_attrs:(fun e ->
      let style = if Label.is_pseudo e.S89_graph.Digraph.label then "dashed" else "solid" in
      [
        ( "label",
          Fmt.str "%s <%.3g, %d>"
            (Label.to_string e.S89_graph.Digraph.label)
            (Freq.freq freq (e.src, e.label))
            (Freq.total freq (e.src, e.label)) );
        ("style", style);
      ])
    (Fcdg.graph fcdg)

(* DOT rendering of an ECFG (Figure 2 style) *)
let ecfg_dot (a : Analysis.t) : string =
  let ecfg = a.Analysis.ecfg in
  let cfg = Ecfg.cfg ecfg in
  S89_graph.Dot.to_string ~name:"ecfg"
    ~node_attrs:(fun u ->
      let shape =
        match Cfg.node_type cfg u with
        | Node_type.Start | Node_type.Stop -> "ellipse"
        | Node_type.Preheader | Node_type.Postexit -> "hexagon"
        | _ -> "box"
      in
      [ ("label", describe_node a u); ("shape", shape) ])
    ~edge_attrs:(fun e ->
      let style = if Label.is_pseudo e.S89_graph.Digraph.label then "dashed" else "solid" in
      [ ("label", Label.to_string e.S89_graph.Digraph.label); ("style", style) ])
    (Cfg.graph cfg)

(* DOT rendering of an original CFG (Figure 1 style) *)
let cfg_dot (p : Program.proc) : string =
  let cfg = p.Program.cfg in
  S89_graph.Dot.to_string ~name:"cfg"
    ~node_attrs:(fun u -> [ ("label", Fmt.str "%a" Ir.pp_info (Cfg.info cfg u)) ])
    ~edge_attrs:(fun e -> [ ("label", Label.to_string e.S89_graph.Digraph.label) ])
    (Cfg.graph cfg)

(* gprof-style flat profile (the paper cites Graham–Kessler–McKusick's
   gprof as the model for per-procedure reporting): per procedure the
   number of calls, average TIME and STD_DEV per call, and the cumulative
   share of the whole program (self + descendants, rule-2 style). *)
let flat_profile fmt (t : Interproc.t) =
  let total = Interproc.program_time t *. 1.0 in
  let rows =
    Hashtbl.fold
      (fun name (pe : Interproc.proc_est) acc ->
        let a = pe.Interproc.analysis in
        let calls = Freq.invocations pe.Interproc.freq in
        let time = Time_est.total_time pe.Interproc.time a in
        let sd = Variance.total_std_dev pe.Interproc.variance a in
        (name, calls, time, sd) :: acc)
      t.Interproc.per_proc []
    |> List.sort (fun (_, c1, t1, _) (_, c2, t2, _) ->
           compare (float_of_int c2 *. t2, c2) (float_of_int c1 *. t1, c1))
  in
  let main_calls =
    match List.find_opt (fun (n, _, _, _) -> n = t.Interproc.main) rows with
    | Some (_, c, _, _) -> max c 1
    | None -> 1
  in
  Fmt.pf fmt "@[<v>%-12s %10s %14s %14s %9s@," "procedure" "calls" "TIME/call"
    "STD_DEV/call" "cum.%";
  List.iter
    (fun (name, calls, time, sd) ->
      let cum =
        if total <= 0.0 then 0.0
        else
          100.0 *. (float_of_int calls /. float_of_int main_calls) *. time /. total
      in
      Fmt.pf fmt "%-12s %10d %14.1f %14.1f %8.1f%%@," name calls time sd cum)
    rows;
  Fmt.pf fmt "@]"

(* per-node estimates as CSV, for downstream tooling *)
let csv (t : Interproc.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "procedure,node,kind,cost,time,e_t2,var,std_dev,node_freq\n";
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) t.Interproc.per_proc [] |> List.sort compare
  in
  List.iter
    (fun name ->
      let pe = Interproc.proc_est t name in
      let a = pe.Interproc.analysis in
      Array.iter
        (fun u ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%s,%g,%g,%g,%g,%g,%g\n" name u
               (String.map (function ',' -> ' ' | c -> c) (describe_node a u))
               (Time_est.cost pe.Interproc.time u)
               (Time_est.time pe.Interproc.time u)
               (Variance.e2 pe.Interproc.variance u)
               (Variance.var pe.Interproc.variance u)
               (Variance.std_dev pe.Interproc.variance u)
               (Freq.node_freq pe.Interproc.freq u)))
        (Fcdg.topological a.Analysis.fcdg))
    names;
  Buffer.contents buf

(* Statement-level hotspots: time attributed to a statement =
   COST(u) × NODE_FREQ(u) × invocations, per main-program run — the
   per-statement frequency listing that §6 traces back to Knuth's
   empirical Fortran study, computed from estimates.  For call sites,
   COST includes the callee's TIME (rule 2), so those rows are
   self-plus-descendants and are marked as such. *)
let hotspots ?(top = 10) (t : Interproc.t) =
  let rows = ref [] in
  (* membership test for user procedures (call-site marking) *)
  let t_by_name : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter (fun k _ -> Hashtbl.replace t_by_name k ()) t.Interproc.per_proc;
  let main_calls =
    max 1 (Freq.invocations (Interproc.main_est t).Interproc.freq)
  in
  Hashtbl.iter
    (fun name (pe : Interproc.proc_est) ->
      let a = pe.Interproc.analysis in
      Array.iter
        (fun u ->
          if S89_cfg.Ecfg.is_original a.Analysis.ecfg u then begin
            let self =
              Time_est.cost pe.Interproc.time u
              *. Freq.node_freq pe.Interproc.freq u
              *. (float_of_int (Freq.invocations pe.Interproc.freq)
                 /. float_of_int main_calls)
            in
            if self > 0.0 then begin
              let d = describe_node a u in
              let d =
                if
                  Cost.call_sites t_by_name
                    (S89_cfg.Cfg.info (S89_cfg.Ecfg.cfg a.Analysis.ecfg) u)
                  <> []
                then d ^ " [incl. callees]"
                else d
              in
              rows := (name, u, d, self) :: !rows
            end
          end)
        (Fcdg.topological a.Analysis.fcdg))
    t.Interproc.per_proc;
  let total = Interproc.program_time t in
  let sorted =
    List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) !rows
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  List.map
    (fun (name, u, d, self) ->
      (name, u, d, self, if total > 0.0 then 100.0 *. self /. total else 0.0))
    (take top sorted)

let pp_hotspots ?top fmt t =
  Fmt.pf fmt "@[<v>%-10s %5s  %-40s %14s %7s@," "procedure" "node" "statement"
    "self time" "share";
  List.iter
    (fun (name, u, d, self, share) ->
      let d = if String.length d > 40 then String.sub d 0 40 else d in
      Fmt.pf fmt "%-10s %5d  %-40s %14.1f %6.2f%%@," name u d self share)
    (hotspots ?top t);
  Fmt.pf fmt "@]"
