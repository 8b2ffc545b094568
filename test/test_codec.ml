(* The record codec: FNV-1a/64 test vectors and golden bytes for every
   format built on it.  The literal images were produced by the encoders
   that predate [Codec]; a change to any of them would orphan existing
   stores, memo records, databases or clients, and a
   change to the hash would move memo fingerprints, shard placement and
   seeded fault decisions. *)

module Codec = S89_util.Codec
module Fault = S89_util.Fault
module Wal = S89_store.Wal
module Proto = S89_net.Proto
module Database = S89_profiling.Database
module Memo = S89_core.Memo
module Label = S89_cfg.Label

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string

let source = "      PROGRAM P\n      END\n"

let with_file contents f =
  let p = Filename.temp_file "s89codec" ".db" in
  Fun.protect ~finally:(fun () -> Sys.remove p) @@ fun () ->
  let oc = open_out_bin p in
  output_string oc contents;
  close_out oc;
  f p

(* ---------------- hash vectors ---------------- *)

let fnv_vectors () =
  check cs "fnv64 \"\"" "cbf29ce484222325" (Codec.fnv64_hex "");
  check cs "fnv64 \"a\"" "af63dc4c8601ec8c" (Codec.fnv64_hex "a");
  check cs "fnv64 source (shard 0xb6)" "42763149792f9ab6"
    (Codec.fnv64_hex source);
  check ci "fault key \"\"" 860922984064492325 (Fault.string_key "");
  check ci "fault key \"a\"" 3414815163700866188 (Fault.string_key "a");
  check ci "fault key path" 2121499719154059660 (Fault.string_key "/tmp/x.db");
  check cs "memo mix" "2f40a1c66372e8c4"
    (Printf.sprintf "%016Lx" (Memo.mix "salt" [ 1L; 0xdeadbeefL ]))

(* ---------------- golden images ---------------- *)

let golden_wal () =
  let image = "rec 22 022e61f2295740ae\nrun 3\ntotal MAIN 0 U 7\n" in
  check cs "record bytes" image (Wal.frame "run 3\ntotal MAIN 0 U 7");
  check cs "empty record bytes" "rec 0 cbf29ce484222325\n\n" (Wal.frame "");
  let r = Wal.recover_string (image ^ "rec 5 00") in
  check (Alcotest.list cs) "decodes" [ "run 3\ntotal MAIN 0 U 7" ] r.Wal.payloads;
  check ci "valid prefix" (String.length image) r.Wal.valid_bytes

let submit =
  Proto.Submit
    { tenant = "acme"; job = "j-1"; runs = 3; seed = 42; deadline = 1.5; source }

let golden_net () =
  let image =
    "s89 51 b45a5a8aa4add1c9\nsubmit acme j-1 3 42 1.5\n      PROGRAM P\n      END\n"
  in
  check cs "request frame bytes" image (Proto.frame (Proto.encode_request submit));
  check cs "response frame bytes" "s89 15 2c0315e0c3716391\nstatus done 3 3"
    (Proto.frame
       (Proto.encode_response
          (Proto.Job_status { state = "done"; completed = 3; total = 3 })));
  match Result.bind (Proto.unframe image) Proto.decode_request with
  | Ok r -> check cb "decodes" true (r = submit)
  | Error e -> Alcotest.failf "golden frame rejected: %s" e

let golden_tbl () =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) -> Hashtbl.replace tbl k v)
    [ ((0, Label.U), 2); ((1, Label.T), 5); ((1, Label.F), 3);
      ((2, Label.Case 3), 1); ((4, Label.Pseudo 1), 9) ];
  tbl

let db_image =
  "s89-profile-db 2\nrun-count 2\ntotal MAIN 0 U 4\ntotal MAIN 1 T 10\n\
   total MAIN 1 F 6\ntotal MAIN 2 C3 2\ntotal MAIN 4 Z1 18\ntotal SUB 0 U 8\n\
   checksum 138deb462a21d4a7\n"

let golden_database () =
  let tbl = golden_tbl () in
  check cs "memo totals fingerprint" "2cd47791b0874953"
    (Printf.sprintf "%016Lx" (Memo.totals_fp tbl));
  let sub = Hashtbl.create 1 in
  Hashtbl.replace sub (0, Label.U) 4;
  let per = Hashtbl.create 2 in
  Hashtbl.replace per "MAIN" tbl;
  Hashtbl.replace per "SUB" sub;
  let db = Database.create () in
  Database.accumulate db per;
  Database.accumulate db per;
  check cs "v2 bytes" db_image (Database.to_string db);
  with_file db_image @@ fun p ->
  check cs "loads and re-encodes" db_image (Database.to_string (Database.load p))

(* ---------------- trailer verdicts ---------------- *)

let db_error image =
  with_file image @@ fun p ->
  match Database.load p with
  | exception Database.Load_error { line; msg } -> (line, msg)
  | _ -> Alcotest.failf "loaded %S" image

let trailer_errors () =
  let line_msg = Alcotest.(pair int string) in
  (* a changed sum that still parses: only the trailer can catch it *)
  let edited =
    let row = "total MAIN 0 U 4" in
    let i = 29 in
    assert (String.sub db_image i (String.length row) = row);
    String.sub db_image 0 i ^ "total MAIN 0 U 5"
    ^ String.sub db_image (i + String.length row)
        (String.length db_image - i - String.length row)
  in
  check line_msg "database mismatch at the trailer"
    (9, "checksum mismatch (corrupt database?)")
    (db_error edited);
  check line_msg "database content after the trailer"
    (11, "content after the checksum line")
    (db_error (db_image ^ "\ntotal X 0 U 1\n"));
  let cut = String.sub db_image 0 (String.length db_image - 26) in
  check line_msg "database truncated at a line boundary"
    (8, "missing checksum (truncated file?)") (db_error cut);
  check line_msg "a bad row wins over a bad trailer" (3, "bad total row: total MAIN 0 U x")
    (db_error
       (String.concat "\n"
          [ "s89-profile-db 2"; "run-count 2"; "total MAIN 0 U x";
            "checksum 0000000000000000\n" ]))

let suite =
  [
    Alcotest.test_case "fnv64 vectors (memo, shard, fault keys)" `Quick fnv_vectors;
    Alcotest.test_case "golden WAL record" `Quick golden_wal;
    Alcotest.test_case "golden net frame" `Quick golden_net;
    Alcotest.test_case "golden v2 database" `Quick golden_database;
    Alcotest.test_case "trailer errors are located" `Quick trailer_errors;
  ]
