(* Feedback profiles: the PGO loop's on-disk interchange format.

   A feedback file carries the per-procedure node frequencies of one
   profiled run, keyed by an FNV-1a fingerprint of the exact source text
   it was collected from.  Frequencies index CFG nodes positionally, so
   feeding a profile of program A into a reoptimization of program B
   would silently misattribute every count — the fingerprint check makes
   that a structured PGO001 error instead (same identity discipline as
   the batch store's DB004 check).

   Format (line-oriented, sealed with {!S89_util.Codec}'s checksum
   trailer like the profile database):

     s89-feedback 1
     source-fnv <16 hex digits>
     seed <int>
     proc <name> <n> <e0> ... <e(n-1)>
     ...
     checksum <16 hex digits>
*)

module Diag = S89_diag.Diag
module Codec = S89_util.Codec

type t = {
  fingerprint : string;  (* FNV-1a/64 of the source text, 16 hex digits *)
  seed : int;
  freq : (string * int array) list;
}

exception Load_error of { line : int; msg : string }

let magic = "s89-feedback"
let format_version = 1
let fingerprint_of_source = Codec.fnv64_hex

let make ~source ~seed freq = { fingerprint = fingerprint_of_source source; seed; freq }

let check t ~source : (unit, Diag.t) result =
  let got = fingerprint_of_source source in
  if String.equal t.fingerprint got then Ok ()
  else
    Error
      (Diag.errorf ~code:"PGO001"
         ~hint:"re-profile with 'ptranc pgo --profile-out' on this exact source"
         "feedback profile fingerprint %s does not match program %s: node \
          frequencies index CFG nodes positionally and cannot be applied \
          across source changes"
         t.fingerprint got)

let to_string t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "%s %d\n" magic format_version;
  Printf.bprintf buf "source-fnv %s\n" t.fingerprint;
  Printf.bprintf buf "seed %d\n" t.seed;
  List.iter
    (fun (name, execs) ->
      Printf.bprintf buf "proc %s %d" name (Array.length execs);
      Array.iter (fun e -> Printf.bprintf buf " %d" e) execs;
      Buffer.add_char buf '\n')
    t.freq;
  Codec.seal (Buffer.contents buf)

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let of_string (s : string) : t =
  let err line msg = raise (Load_error { line; msg }) in
  let body, trailer = Codec.unseal ~what:"feedback file" s in
  let fingerprint = ref "" and seed = ref 0 and freq = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let row = String.trim line in
      match String.split_on_char ' ' row with
      | [ m; v ] when m = magic ->
          if int_of_string_opt v <> Some format_version then
            err lineno ("unsupported feedback format version: " ^ v)
      | [ "source-fnv"; hex ] -> fingerprint := String.lowercase_ascii hex
      | [ "seed"; n ] -> (
          match int_of_string_opt n with
          | Some n -> seed := n
          | None -> err lineno ("bad seed: " ^ n))
      | "proc" :: name :: n :: counts -> (
          match int_of_string_opt n with
          | Some n when n >= 0 && List.length counts = n ->
              let execs =
                Array.of_list
                  (List.map
                     (fun c ->
                       match int_of_string_opt c with
                       | Some v when v >= 0 -> v
                       | _ -> err lineno ("bad count: " ^ c))
                     counts)
              in
              freq := (name, execs) :: !freq
          | _ -> err lineno ("bad proc row: " ^ row))
      | [] | [ "" ] -> ()
      | _ -> err lineno ("unrecognized line: " ^ row))
    body;
  (match trailer with Ok () -> () | Error (line, msg) -> err line msg);
  if !fingerprint = "" then err 0 "missing source-fnv line";
  { fingerprint = !fingerprint; seed = !seed; freq = List.rev !freq }

let load path =
  let ic =
    try open_in path with Sys_error msg -> raise (Load_error { line = 0; msg })
  in
  let len = in_channel_length ic in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic len)
  in
  of_string s
