(* Spans recorded from the benchmark's own code around calls into the
   library's layers.  Disabled (the default), [span] is a plain call.

   Enabled, every span records its name, start, end, parent and the id
   of the input or job it belongs to, plus the bytes the calling domain
   allocated while it ran.  Spans stay in memory until [write_chrome].

   A public call that wraps several layers (Pipeline.profile_smart wraps
   placement, the VM and reconstruction) is timed whole; [replay] then
   re-runs the wrapped calls on the same inputs, and their durations are
   subtracted from the wrapper's self time, leaving its remainder.
   Replay spans themselves belong to no layer: their cost shows up as
   tracing overhead (traced wall minus untraced wall). *)

type span = {
  id : int;
  parent : int; (* -1 = root *)
  name : string;
  group : int; (* input or job id; spans of one op share it *)
  tid : int;
  t0 : float;
  t1 : float;
  alloc : float; (* bytes allocated by this domain while it ran *)
  wraps : int; (* replay spans: the wrapper span they replay; else -1 *)
}

let enabled = ref false
let mu = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let group = ref 0

(* parent stack of the main thread; threads record flat spans with [add] *)
let stack : int list ref = ref []

let now = Unix.gettimeofday

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let fresh_id () =
  locked (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let push s = locked (fun () -> spans := s :: !spans)

let run ~name ~wraps f =
  let id = fresh_id () in
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let alloc = Gc.allocated_bytes () -. a0 in
    stack := List.tl !stack;
    push { id; parent; name; group = !group; tid = 0; t0; t1; alloc; wraps }
  in
  match f () with
  | v ->
      finish ();
      (v, id)
  | exception e ->
      finish ();
      raise e

let span_id name f = if !enabled then run ~name ~wraps:(-1) f else (f (), -1)
let span name f = fst (span_id name f)

(* re-run the calls wrapped by span [wraps], each under its own [span] *)
let replay ~wraps f =
  if !enabled && wraps >= 0 then ignore (run ~name:"replay" ~wraps f)

(* a flat span from another thread, or an interval measured elsewhere *)
let add ?(tid = 1) ~group:g name t0 t1 =
  if !enabled then
    push
      { id = fresh_id (); parent = -1; name; group = g; tid; t0; t1; alloc = 0.0;
        wraps = -1 }

(* ---------------- counters ---------------- *)

let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if !enabled then
    locked (fun () ->
        Hashtbl.replace counts name
          (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name)))

let set name v = locked (fun () -> Hashtbl.replace counts name v)
let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* ---------------- self times ---------------- *)

type layer = { mutable self_s : float; mutable calls : int; mutable alloc_b : float }

(* Self time of a span: its duration minus its children's durations and,
   for a wrapper, minus the durations of the calls its replays re-ran.
   Roots (the ops) are not layers: their self time is uncovered wall. *)
let layers () : (string * layer) list * float * float =
  let all = !spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let self = Hashtbl.create 1024 and self_alloc = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      Hashtbl.replace self s.id (s.t1 -. s.t0);
      Hashtbl.replace self_alloc s.id s.alloc)
    all;
  let take id (c : span) =
    Hashtbl.replace self id (Hashtbl.find self id -. (c.t1 -. c.t0));
    Hashtbl.replace self_alloc id (Hashtbl.find self_alloc id -. c.alloc)
  in
  List.iter
    (fun c ->
      if c.parent >= 0 && Hashtbl.mem self c.parent then begin
        take c.parent c;
        match Hashtbl.find_opt by_id c.parent with
        | Some r when r.wraps >= 0 && c.wraps < 0 && Hashtbl.mem self r.wraps ->
            take r.wraps c
        | _ -> ()
      end)
    all;
  let tbl = Hashtbl.create 32 in
  let root_wall = ref 0.0 and root_gap = ref 0.0 in
  List.iter
    (fun s ->
      if s.parent < 0 && s.tid = 0 then begin
        root_wall := !root_wall +. (s.t1 -. s.t0);
        root_gap := !root_gap +. Hashtbl.find self s.id
      end
      else if s.wraps < 0 then begin
        let l =
          match Hashtbl.find_opt tbl s.name with
          | Some l -> l
          | None ->
              let l = { self_s = 0.0; calls = 0; alloc_b = 0.0 } in
              Hashtbl.replace tbl s.name l;
              l
        in
        l.self_s <- l.self_s +. Hashtbl.find self s.id;
        l.alloc_b <- l.alloc_b +. Hashtbl.find self_alloc s.id;
        l.calls <- l.calls + 1
      end)
    all;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  (List.sort compare rows, !root_wall, !root_gap)

(* ---------------- Chrome trace-event JSON ---------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path ~meta =
  let all = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      let cat = match String.index_opt s.name '.' with
        | Some j -> String.sub s.name 0 j
        | None -> s.name
      in
      Printf.fprintf oc
        "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"group\":%d,\"alloc_bytes\":%.0f,\"replays\":%d}}\n"
        (if i = 0 then "" else ",")
        (json_string s.name) (json_string cat) s.tid
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.group s.alloc s.wraps)
    all;
  Printf.fprintf oc "],\"displayTimeUnit\":\"ms\",\"otherData\":{%s}}\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%s" (json_string k) (json_string v)) meta))
