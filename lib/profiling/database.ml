(* Program database (the PTRAN-style store of §1/§3): accumulates
   TOTAL_FREQ values over multiple executions — "it is a good idea to
   accumulate the TOTAL_FREQ values (as a sum ...) from different program
   executions in the program database, so as to get a more representative
   set of frequency values."

   On-disk format (version 2): a line-oriented text file,
       s89-profile-db 2
       run-count N
       total <proc> <node> <label> <sum>
       checksum <16 hex digits>
   which keeps the database human-inspectable and trivially mergeable.
   The trailing checksum ({!S89_util.Codec}'s trailer: FNV-1a/64 of
   every byte before it) detects truncated or bit-flipped files at load
   time.  Header-less version-1 files (no magic, no checksum) are still
   read. *)

open S89_cfg
module Fault = S89_util.Fault
module Codec = S89_util.Codec

type cond = Analysis.cond

type t = {
  mutable runs : int;
  sums : (string, (cond, int) Hashtbl.t) Hashtbl.t; (* per procedure *)
}

let create () = { runs = 0; sums = Hashtbl.create 64 }

let runs t = t.runs

let sums_of t proc =
  match Hashtbl.find_opt t.sums proc with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.sums proc tbl;
      tbl

let add_sum tbl cond v =
  let prev = match Hashtbl.find_opt tbl cond with Some p -> p | None -> 0 in
  Hashtbl.replace tbl cond (prev + v)

(* fold one run's per-procedure totals into the database *)
let accumulate t (per_proc : (string, (cond, int) Hashtbl.t) Hashtbl.t) =
  t.runs <- t.runs + 1;
  Hashtbl.iter
    (fun proc tbl ->
      let into = sums_of t proc in
      Hashtbl.iter (add_sum into) tbl)
    per_proc

(* accumulated totals of one procedure, for feeding Freq.compute; since
   FREQ only uses ratios, sums over runs work directly (§3).  Entries are
   inserted in sorted key order so the result's iteration order does not
   depend on how [t.sums] was populated (snapshot replay vs live
   accumulation) — byte-identical estimates across resumes rely on it. *)
let proc_totals t proc : (cond, int) Hashtbl.t =
  let entries =
    match Hashtbl.find_opt t.sums proc with
    | None -> []
    | Some tbl ->
        Hashtbl.fold (fun cond v acc -> (cond, v) :: acc) tbl [] |> List.sort compare
  in
  let out = Hashtbl.create 64 in
  List.iter (fun (cond, v) -> Hashtbl.replace out cond v) entries;
  out

let merge ~into:(a : t) (b : t) =
  a.runs <- a.runs + b.runs;
  Hashtbl.iter
    (fun proc tbl ->
      let into = sums_of a proc in
      Hashtbl.iter (add_sum into) tbl)
    b.sums

(* ---------------- (de)serialization ---------------- *)

exception Load_error of { line : int; msg : string }

let magic = "s89-profile-db"
let format_version = 2

let label_to_db = Label.to_string

let label_of_string s : Label.t option =
  match s with
  | "T" -> Some Label.T
  | "F" -> Some Label.F
  | "U" -> Some Label.U
  | _ ->
      let tagged tag mk =
        if String.length s >= 2 && s.[0] = tag then
          Option.map mk (int_of_string_opt (String.sub s 1 (String.length s - 1)))
        else None
      in
      (match tagged 'C' (fun i -> Label.Case i) with
      | Some _ as r -> r
      | None -> tagged 'Z' (fun i -> Label.Pseudo i))

(* the full v2 file image, checksum line included — [save] writes exactly
   this, and the WAL store uses it as its atomic snapshot encoding *)
let to_string t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s %d\n" magic format_version;
  Printf.bprintf buf "run-count %d\n" t.runs;
  let entries =
    Hashtbl.fold
      (fun proc tbl acc ->
        Hashtbl.fold (fun cond v acc -> ((proc, cond), v) :: acc) tbl acc)
      t.sums []
    |> List.sort compare
  in
  List.iter
    (fun ((proc, (node, label)), v) ->
      Printf.bprintf buf "total %s %d %s %d\n" proc node (label_to_db label) v)
    entries;
  Codec.seal (Buffer.contents buf)

let save t path =
  let full = to_string t in
  (* fault injection: simulate a writer dying mid-write (the checksum is
     what lets [load] catch the resulting half-file) *)
  let full =
    match Fault.active () with
    | Some sp
      when Fault.fires sp Fault.Db_truncate ~key:(Fault.string_key path) ~attempt:0
      ->
        String.sub full 0 (String.length full / 2)
    | _ -> full
  in
  let oc = open_out path in
  output_string oc full;
  close_out oc

(* Parse one content row into [t]; [Error (line, msg)] on a bad row. *)
let parse_row t lineno line : (unit, int * string) result =
  match String.split_on_char ' ' (String.trim line) with
  | [ "run-count"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
          t.runs <- n;
          Ok ()
      | _ -> Error (lineno, "bad run-count: " ^ n))
  | [ "total"; proc; node; label; v ] -> (
      match (int_of_string_opt node, label_of_string label, int_of_string_opt v) with
      | Some node, Some label, Some v ->
          Hashtbl.replace (sums_of t proc) (node, label) v;
          Ok ()
      | _ -> Error (lineno, "bad total row: " ^ line))
  | [] | [ "" ] -> Ok ()
  | _ -> Error (lineno, "unrecognized line: " ^ line)

let load ?(repair = false) path =
  let image =
    match open_in_bin path with
    | exception Sys_error msg -> raise (Load_error { line = 0; msg })
    | ic ->
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        really_input_string ic (in_channel_length ic)
  in
  let t = create () in
  (* parse rows in order, stopping at the first problem; under
     [~repair:true] the rows parsed before the problem (the valid
     prefix) are kept, otherwise the problem becomes a [Load_error] *)
  let finish : (unit, int * string) result -> t = function
    | Ok () -> t
    | Error (line, msg) -> if repair then t else raise (Load_error { line; msg })
  in
  let rec rows lineno = function
    | [] -> Ok ()
    | line :: rest -> (
        match parse_row t lineno line with
        | Ok () -> rows (lineno + 1) rest
        | Error _ as e -> e)
  in
  match Codec.lines image with
  | [] ->
      if repair then t else raise (Load_error { line = 0; msg = "empty database file" })
  | first :: _ as lines -> (
      match String.split_on_char ' ' (String.trim first) with
      | [ m; v ] when m = magic -> (
          match int_of_string_opt v with
          | Some n when n = format_version ->
              (* rows first, so a bad row is reported at its own line
                 even when the trailer is also wrong *)
              let body, trailer = Codec.unseal ~what:"database" image in
              finish (Result.bind (rows 2 (List.tl body)) (fun () -> trailer))
          | Some n ->
              finish
                (Error (1, Printf.sprintf "unsupported database format version %d" n))
          | None -> finish (Error (1, "bad database format version: " ^ v)))
      | _ -> finish (rows 1 lines) (* header-less version 1: no checksum *))
