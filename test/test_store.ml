(* PR-5 surface: the crash-safe store (WAL framing + recovery, epoch'd
   snapshot compaction), the supervision layer (restart/backoff/circuit
   breaker, deterministic jitter), and the checkpointed batch service
   (kill-and-resume byte-identity).

   The recovery properties are exercised over RANDOM truncation and
   corruption offsets: the recovered prefix must be exactly the records
   whose frames are intact and checksum-valid, never more, never fewer. *)

module Wal = S89_store.Wal
module Store = S89_store.Store
module Database = S89_profiling.Database
module Supervise = S89_exec.Supervise
module Pipeline = S89_core.Pipeline
module Service = S89_core.Service
module Diag = S89_diag.Diag
module Fault = S89_util.Fault
module Label = S89_cfg.Label

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let csl = Alcotest.(list string)

let spec_of s =
  match Fault.parse s with Ok sp -> sp | Error m -> Alcotest.fail m

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "s89store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ()) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ---------------- WAL framing + recovery ---------------- *)

let wal_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  let payloads = [ "alpha"; ""; "with space"; "multi\nline\npayload"; "rec 3 fake\nheader-lookalike" ] in
  let w, r0 = Wal.open_ ~fsync:false path in
  check ci "fresh file has no records" 0 (List.length r0.Wal.payloads);
  List.iter (Wal.append w) payloads;
  check ci "records counted" (List.length payloads) (Wal.records w);
  Wal.close w;
  let w2, r = Wal.open_ ~fsync:false path in
  check csl "recovered = appended" payloads r.Wal.payloads;
  check ci "nothing dropped" 0 r.Wal.dropped_bytes;
  Wal.close w2

(* payloads drawn from a seeded stdlib PRNG: newlines, spaces and
   header-lookalike bytes included on purpose *)
let random_payloads st =
  let n = Random.State.int st 8 in
  List.init n (fun _ ->
      String.init (Random.State.int st 30) (fun _ ->
          match Random.State.int st 6 with
          | 0 -> '\n'
          | 1 -> ' '
          | 2 -> 'r'
          | _ -> Char.chr (32 + Random.State.int st 95)))

(* byte offset just past record [k]'s frame, for each k *)
let frame_ends payloads =
  List.fold_left
    (fun acc p ->
      let last = match acc with e :: _ -> e | [] -> 0 in
      (last + String.length (Wal.frame p)) :: acc)
    [] payloads
  |> List.rev

let wal_truncation_prop =
  QCheck.Test.make ~count:300 ~name:"WAL recovery after truncation = intact-frame prefix"
    QCheck.(pair (int_range 0 100000) (int_range 0 100000))
    (fun (seed, cut_seed) ->
      let st = Random.State.make [| seed |] in
      let payloads = random_payloads st in
      let full = String.concat "" (List.map Wal.frame payloads) in
      let cut = Random.State.make [| cut_seed |] |> fun st -> Random.State.int st (String.length full + 1) in
      let r = Wal.recover_string (String.sub full 0 cut) in
      let ends = frame_ends payloads in
      let expect_n = List.length (List.filter (fun e -> e <= cut) ends) in
      let expect_valid = List.nth_opt (0 :: ends) expect_n |> Option.get in
      r.Wal.payloads = List.filteri (fun i _ -> i < expect_n) payloads
      && r.Wal.valid_bytes = expect_valid
      && r.Wal.dropped_bytes = cut - expect_valid)

let wal_corruption_prop =
  QCheck.Test.make ~count:300
    ~name:"WAL recovery after a byte flip = records before the corrupt one"
    QCheck.(triple (int_range 0 100000) (int_range 0 100000) (int_range 1 255))
    (fun (seed, pos_seed, mask) ->
      (* mask 0x20 only flips ASCII case, which the checksum-hex compare
         deliberately tolerates — every other mask must invalidate *)
      QCheck.assume (mask land 0xff <> 0x20);
      let st = Random.State.make [| seed |] in
      let payloads = random_payloads st in
      QCheck.assume (payloads <> []);
      let full = String.concat "" (List.map Wal.frame payloads) in
      let pos = Random.State.make [| pos_seed |] |> fun st -> Random.State.int st (String.length full) in
      let corrupted = Bytes.of_string full in
      Bytes.set corrupted pos (Char.chr (Char.code full.[pos] lxor mask));
      let r = Wal.recover_string (Bytes.to_string corrupted) in
      (* index of the record whose frame contains the flipped byte *)
      let k = List.length (List.filter (fun e -> e <= pos) (frame_ends payloads)) in
      r.Wal.payloads = List.filteri (fun i _ -> i < k) payloads)

let wal_open_truncates_torn_tail () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  let w, _ = Wal.open_ ~fsync:false path in
  Wal.append w "one";
  Wal.append w "two";
  Wal.close w;
  let intact = read_file path in
  write_file path (intact ^ String.sub (Wal.frame "three") 0 7);
  let w2, r = Wal.open_ ~fsync:false path in
  check csl "torn tail dropped" [ "one"; "two" ] r.Wal.payloads;
  check cb "dropped bytes reported" true (r.Wal.dropped_bytes > 0);
  check cs "file truncated to the valid prefix" intact (read_file path);
  Wal.append w2 "three";
  Wal.close w2;
  let w3, r3 = Wal.open_ ~fsync:false path in
  check csl "append after recovery lands cleanly" [ "one"; "two"; "three" ]
    r3.Wal.payloads;
  Wal.close w3

let wal_torn_fault_injection () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "w.log" in
  let w, _ = Wal.open_ ~fsync:false path in
  Wal.append w "before";
  (* wal_torn:1.0 fires on the next append: half the record is written,
     then the injected crash *)
  (match
     Fault.with_spec (Some (spec_of "wal_torn:1.0,seed:5")) (fun () ->
         Wal.append w "doomed")
   with
  | () -> Alcotest.fail "expected the injected torn write to raise"
  | exception Fault.Injected _ -> ());
  Wal.close w;
  let w2, r = Wal.open_ ~fsync:false path in
  check csl "torn record dropped, prior record intact" [ "before" ] r.Wal.payloads;
  check cb "torn bytes present before recovery" true (r.Wal.dropped_bytes > 0);
  Wal.close w2

(* ---------------- Database v2 repair property ---------------- *)

let random_db st =
  let db = Database.create () in
  let per_proc = Hashtbl.create 4 in
  let n = 1 + Random.State.int st 4 in
  for p = 0 to n - 1 do
    let tbl = Hashtbl.create 4 in
    for node = 0 to Random.State.int st 5 do
      Hashtbl.replace tbl (node, (if Random.State.bool st then Label.T else Label.F))
        (Random.State.int st 1000)
    done;
    Hashtbl.replace per_proc (Printf.sprintf "P%d" p) tbl
  done;
  Database.accumulate db per_proc;
  db

let db_repair_prop =
  QCheck.Test.make ~count:200
    ~name:"Database ~repair absorbs any truncation/corruption offset"
    QCheck.(triple (int_range 0 100000) (int_range 0 100000) (int_range 1 255))
    (fun (seed, off_seed, mask) ->
      QCheck.assume (mask land 0xff <> 0x20);
      let st = Random.State.make [| seed |] in
      let db = random_db st in
      let full = Database.to_string db in
      let ost = Random.State.make [| off_seed |] in
      let mangled =
        if Random.State.bool ost then
          (* truncation at a random byte offset *)
          String.sub full 0 (Random.State.int ost (String.length full))
        else begin
          (* single byte flip at a random offset *)
          let pos = Random.State.int ost (String.length full) in
          let b = Bytes.of_string full in
          Bytes.set b pos (Char.chr (Char.code full.[pos] lxor mask));
          Bytes.to_string b
        end
      in
      QCheck.assume (mangled <> full);
      with_tmp_dir @@ fun dir ->
      let path = Filename.concat dir "m.db" in
      write_file path mangled;
      let strict_sound =
        (* strict load must reject, except for semantically invisible
           mangling (e.g. truncating only the final newline — the
           line-based parser cannot see it) where it must round-trip *)
        match Database.load path with
        | loaded -> Database.to_string loaded = full
        | exception Database.Load_error _ -> true
      in
      let repaired_loads =
        match Database.load ~repair:true path with
        | (_ : Database.t) -> true
        | exception _ -> false
      in
      strict_sound && repaired_loads)

(* ---------------- store semantics ---------------- *)

let totals_of proc rows =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (cond, v) -> Hashtbl.replace tbl cond v) rows;
  let per_proc = Hashtbl.create 1 in
  Hashtbl.replace per_proc proc tbl;
  per_proc

let store_basic_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.set_meta s [ ("base-seed", "11"); ("runs", "3") ];
  Store.append_event s "ana MAIN ok";
  Store.append_event s "ana MAIN ok";
  Store.append_run s ~seed:11 (totals_of "MAIN" [ ((1, Label.T), 5) ]);
  Store.append_run s ~seed:12 (totals_of "MAIN" [ ((1, Label.T), 7) ]);
  check ci "runs accumulate" 2 (Store.runs s);
  Store.close s;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check ci "runs recovered" 2 (Store.runs s2);
  check (Alcotest.option cs) "meta recovered" (Some "11")
    (Store.meta_find s2 "base-seed");
  check csl "events deduplicated" [ "ana MAIN ok" ] (Store.events s2);
  check ci "sums merged" 12
    (Hashtbl.fold (fun _ v acc -> acc + v)
       (Database.proc_totals (Store.database s2) "MAIN")
       0);
  check csl "clean recovery has no diags" []
    (List.map Diag.to_string (Store.recovery_diags s2));
  Store.close s2

let store_compaction_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~compact_threshold:2 ~dir () in
  Store.set_meta s [ ("k", "v") ];
  Store.append_event s "ana A ok";
  for r = 0 to 4 do
    Store.append_run s ~seed:r (totals_of "A" [ ((1, Label.T), 1) ])
  done;
  check cb "auto-compaction advanced the epoch" true (Store.epoch s > 0);
  Store.close s;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check ci "all runs survive compaction" 5 (Store.runs s2);
  check (Alcotest.option cs) "meta carried across epochs" (Some "v")
    (Store.meta_find s2 "k");
  check csl "journal carried across epochs" [ "ana A ok" ] (Store.events s2);
  check ci "sum preserved" 5
    (Hashtbl.fold (fun _ v acc -> acc + v)
       (Database.proc_totals (Store.database s2) "A")
       0);
  Store.close s2

(* crash window 1: the next epoch's WAL was written but the snapshot
   rename never happened — the uncommitted WAL must be discarded and the
   old epoch replayed in full (nothing double-counted, nothing lost) *)
let store_uncommitted_compaction_discarded () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.append_run s ~seed:2 (totals_of "A" [ ((1, Label.T), 4) ]);
  let epoch0 = Store.epoch s in
  Store.close s;
  (* simulate the crashed compaction's step 1 *)
  let w, _ = Wal.open_ ~fsync:false (Filename.concat dir "wal-000001.log") in
  Wal.append w "meta\nk v";
  Wal.close w;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check ci "stays on the committed epoch" epoch0 (Store.epoch s2);
  check ci "no run lost" 2 (Store.runs s2);
  check (Alcotest.option cs) "uncommitted meta discarded" None
    (Store.meta_find s2 "k");
  check cb "stale next-epoch WAL removed" false
    (Sys.file_exists (Filename.concat dir "wal-000001.log"));
  Store.close s2

(* crash window 2: the snapshot rename committed but the old epoch's
   files were never deleted — replaying the stale old WAL on top of the
   snapshot would double-count *)
let store_committed_compaction_ignores_stale_wal () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.compact s;
  let epoch1 = Store.epoch s in
  Store.close s;
  (* resurrect a stale pre-compaction WAL holding the same run *)
  let w, _ = Wal.open_ ~fsync:false (Filename.concat dir "wal-000000.log") in
  Wal.append w "run 1\ntotal A 1 T 3";
  Wal.close w;
  let s2 = Store.open_ ~fsync:false ~dir () in
  check ci "snapshot epoch wins" epoch1 (Store.epoch s2);
  check ci "run not double-counted" 1 (Store.runs s2);
  check ci "sum not double-counted" 3
    (Hashtbl.fold (fun _ v acc -> acc + v)
       (Database.proc_totals (Store.database s2) "A")
       0);
  Store.close s2

let store_torn_tail_reported () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.close s;
  let wal = Filename.concat dir "wal-000000.log" in
  write_file wal (read_file wal ^ "rec 999 0123456789abcdef\nhalf");
  let s2 = Store.open_ ~fsync:false ~dir () in
  check ci "intact records replayed" 1 (Store.runs s2);
  (match Store.recovery_diags s2 with
  | [ d ] -> check cs "torn tail diagnosed" "DB002" d.Diag.code
  | ds -> Alcotest.failf "expected exactly DB002, got %d diags" (List.length ds));
  Store.close s2

let store_corrupt_snapshot_falls_back () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.compact s;
  Store.close s;
  let snap = Filename.concat dir "snapshot-000001.db" in
  let content = read_file snap in
  write_file snap (String.sub content 0 (String.length content / 2));
  let s2 = Store.open_ ~fsync:false ~dir () in
  check cb "open survives a rotted snapshot" true (Store.runs s2 >= 0);
  check cb "DB003 reported" true
    (List.exists (fun d -> d.Diag.code = "DB003") (Store.recovery_diags s2));
  Store.close s2

let store_foreign_record_rejected () =
  with_tmp_dir @@ fun dir ->
  let s = Store.open_ ~fsync:false ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.close s;
  let w, _ = Wal.open_ ~fsync:false (Filename.concat dir "wal-000000.log") in
  Wal.append w "gibberish that frames and checksums fine";
  Wal.close w;
  match Store.open_ ~fsync:false ~dir () with
  | _ -> Alcotest.fail "expected Store.Corrupt"
  | exception Store.Corrupt _ -> ()

(* ---------------- supervision ---------------- *)

let fast_policy =
  { Supervise.default_policy with base_backoff = 1e-6; max_backoff = 1e-5 }

let supervise_retry_then_success () =
  let events = ref [] in
  let t =
    Supervise.create ~policy:fast_policy
      ~on_event:(fun e -> events := e :: !events)
      ()
  in
  let calls = ref 0 in
  let v =
    Supervise.protect t ~key:"K" (fun ~attempt ->
        check ci "attempt numbered" !calls attempt;
        incr calls;
        if !calls < 3 then failwith "transient";
        !calls)
  in
  check ci "succeeded on the final restart" 3 v;
  check ci "restart events" 2
    (List.length
       (List.filter (function Supervise.Restarted _ -> true | _ -> false) !events));
  check ci "success resets the breaker" 0 (Supervise.failure_count t ~key:"K")

let supervise_breaker_trips () =
  let tripped = ref 0 in
  let t =
    Supervise.create ~policy:{ fast_policy with breaker_threshold = 2 }
      ~on_event:(function Supervise.Tripped _ -> incr tripped | _ -> ())
      ()
  in
  let boom () = Supervise.protect t ~key:"K" (fun ~attempt:_ -> failwith "always") in
  (match boom () with _ -> () | exception Failure _ -> ());
  (match boom () with _ -> () | exception Failure _ -> ());
  check cb "breaker open after threshold" true (Supervise.breaker_open t ~key:"K");
  check ci "tripped exactly once" 1 !tripped;
  let ran = ref false in
  (match
     Supervise.protect t ~key:"K" (fun ~attempt:_ ->
         ran := true;
         ())
   with
  | () -> Alcotest.fail "open circuit must reject"
  | exception Supervise.Circuit_open k -> check cs "names the key" "K" k);
  check cb "rejected work never ran" false !ran;
  check cb "other keys unaffected" false (Supervise.breaker_open t ~key:"L")

let supervise_pre_trip () =
  let t = Supervise.create ~policy:fast_policy () in
  Supervise.trip t ~key:"P";
  match Supervise.protect t ~key:"P" (fun ~attempt:_ -> ()) with
  | () -> Alcotest.fail "pre-tripped key must reject"
  | exception Supervise.Circuit_open _ -> ()

(* the full breaker cycle under a fake clock: closed → tripped → open
   (rejecting) → half-open after cooldown → failed probe re-opens →
   successful probe closes and resets; during a probe every other call
   is still rejected *)
let supervise_half_open_transitions () =
  let now = ref 0.0 in
  let events = ref [] in
  let policy =
    { fast_policy with max_restarts = 0; breaker_threshold = 2; cooldown = 10.0 }
  in
  let t =
    Supervise.create ~policy
      ~on_event:(fun e -> events := e :: !events)
      ~clock:(fun () -> !now) ()
  in
  let fail_once () =
    try Supervise.protect t ~key:"T" (fun ~attempt:_ -> failwith "down")
    with Failure _ -> ()
  in
  fail_once ();
  fail_once ();
  check cb "tripped at threshold" true (Supervise.breaker_open t ~key:"T");
  (match Supervise.breaker_state t ~key:"T" with
  | Supervise.Breaker_open { remaining } ->
      check cb "remaining cooldown reported" true
        (remaining > 0.0 && remaining <= 10.0)
  | _ -> Alcotest.fail "expected Breaker_open");
  (match Supervise.protect t ~key:"T" (fun ~attempt:_ -> ()) with
  | () -> Alcotest.fail "open circuit must reject before cooldown"
  | exception Supervise.Circuit_open _ -> ());
  now := 11.0;
  check cb "half-open once cooldown elapses" true
    (Supervise.breaker_state t ~key:"T" = Supervise.Breaker_half_open);
  (* failing probe re-opens for another cooldown window *)
  fail_once ();
  (match Supervise.breaker_state t ~key:"T" with
  | Supervise.Breaker_open _ -> ()
  | _ -> Alcotest.fail "failed probe must re-open");
  now := 22.0;
  (* successful probe closes; a second call DURING the probe rejects *)
  Supervise.protect t ~key:"T" (fun ~attempt:_ ->
      match Supervise.protect t ~key:"T" (fun ~attempt:_ -> ()) with
      | () -> Alcotest.fail "concurrent call during probe must reject"
      | exception Supervise.Circuit_open _ -> ());
  check cb "closed after successful probe" true
    (Supervise.breaker_state t ~key:"T" = Supervise.Breaker_closed);
  check ci "failure count reset" 0 (Supervise.failure_count t ~key:"T");
  let tags =
    List.rev_map
      (function
        | Supervise.Tripped _ -> "tripped"
        | Supervise.Rejected_open _ -> "rejected"
        | Supervise.Half_opened _ -> "half-open"
        | Supervise.Closed _ -> "closed"
        | Supervise.Restarted _ -> "restarted")
      !events
  in
  check csl "event sequence"
    [ "tripped"; "rejected"; "half-open"; "half-open"; "rejected"; "closed" ]
    tags

(* trips arriving concurrently from worker domains serving different
   tenants: each tenant trips exactly once, independently, and the
   per-key backoff schedules are identical whether computed before,
   inside the domains, or after — golden determinism under contention *)
let supervise_concurrent_tenant_trips () =
  let policy =
    { fast_policy with max_restarts = 2; breaker_threshold = 3; seed = 5 }
  in
  let mu = Mutex.create () in
  let tripped = ref [] in
  let t =
    Supervise.create ~policy
      ~on_event:(function
        | Supervise.Tripped { key; _ } ->
            Mutex.lock mu;
            tripped := key :: !tripped;
            Mutex.unlock mu
        | _ -> ())
      ()
  in
  let tenants = [| "acme"; "bravo"; "corp"; "dyn" |] in
  let before =
    Array.map
      (fun k -> Supervise.backoff_schedule policy ~key:(Fault.string_key k))
      tenants
  in
  let domains =
    Array.map
      (fun tenant ->
        Domain.spawn (fun () ->
            for _ = 1 to policy.Supervise.breaker_threshold do
              try Supervise.protect t ~key:tenant (fun ~attempt:_ -> failwith tenant)
              with Failure _ | Supervise.Circuit_open _ -> ()
            done;
            Supervise.backoff_schedule policy ~key:(Fault.string_key tenant)))
      tenants
  in
  let inside = Array.map Domain.join domains in
  Array.iteri
    (fun i tenant ->
      check cb "schedule stable across domains" true (inside.(i) = before.(i));
      check cb "schedule stable after the trips" true
        (Supervise.backoff_schedule policy ~key:(Fault.string_key tenant)
        = before.(i));
      check cb "tenant tripped" true (Supervise.breaker_open t ~key:tenant))
    tenants;
  check csl "each tenant tripped exactly once"
    (List.sort compare (Array.to_list tenants))
    (List.sort compare !tripped);
  (* distinct keys draw distinct deterministic jitter *)
  check cb "schedules differ across tenants" true
    (List.sort_uniq compare (Array.to_list (Array.map (fun l -> l) before))
     |> List.length > 1)

(* golden vectors pin the (seed, site, key, attempt) decision stream:
   any process, any scheduling, any platform must reproduce these
   exactly — this is what makes fault-injected runs and backoff
   schedules replayable from just the seed *)
let fault_golden_vectors () =
  let sp = Fault.with_seed 42 in
  let cases =
    [ (Fault.Wal_torn, 0, 0, 0.24783933341408426);
      (Fault.Wal_torn, 1, 0, 0.57306591970632959);
      (Fault.Wal_torn, 7, 2, 0.63674451660440901);
      (Fault.Wal_torn, 1000, 5, 0.19306023796764138);
      (Fault.Backoff, 0, 0, 0.26825905238603898);
      (Fault.Backoff, 1, 0, 0.18669102300772844);
      (Fault.Backoff, 7, 2, 0.044454601929756477);
      (Fault.Backoff, 1000, 5, 0.48432526449589863) ]
  in
  List.iter
    (fun (site, key, attempt, expect) ->
      check (Alcotest.float 1e-15) "uniform draw" expect
        (Fault.uniform sp site ~key ~attempt))
    cases;
  (* a parsed spec with the same seed agrees with the golden stream *)
  let parsed = spec_of "wal_torn:0.5,seed:42" in
  check (Alcotest.float 1e-15) "parsed spec, same stream" 0.24783933341408426
    (Fault.uniform parsed Fault.Wal_torn ~key:0 ~attempt:0);
  check cb "fires iff uniform < probability" true
    (Fault.fires parsed Fault.Wal_torn ~key:0 ~attempt:0);
  check cb "does not fire above threshold" false
    (Fault.fires parsed Fault.Wal_torn ~key:1 ~attempt:0)

let backoff_schedule_deterministic () =
  let policy = { Supervise.default_policy with seed = 42; max_restarts = 4 } in
  let golden =
    [ 0.001026825905238604; 0.0020207501244364195; 0.0041057812272752561;
      0.008114270063023005 ]
  in
  (* the golden and the repeatability check pin the policy-seeded path,
     so they run with no fault spec active: Supervise.jitter_spec
     prefers an ambient S89_FAULTS spec by design *)
  Fault.with_spec None (fun () ->
      check (Alcotest.list (Alcotest.float 1e-15)) "golden schedule, key 0" golden
        (Supervise.backoff_schedule policy ~key:0);
      check cb "repeatable" true
        (Supervise.backoff_schedule policy ~key:3
        = Supervise.backoff_schedule policy ~key:3));
  (* an active S89_FAULTS spec with the same seed yields the same
     schedule: the jitter rides the fault decision stream *)
  let under_spec =
    Fault.with_spec (Some (spec_of "seed:42")) (fun () ->
        Supervise.backoff_schedule policy ~key:0)
  in
  check (Alcotest.list (Alcotest.float 1e-15)) "spec seed = policy seed" golden
    under_spec;
  List.iter
    (fun d ->
      check cb "within ceiling + jitter" true
        (d <= policy.Supervise.max_backoff *. (1.0 +. policy.Supervise.jitter)))
    (Supervise.backoff_schedule policy ~key:7)

(* ---------------- pipeline hooks ---------------- *)

let two_proc_src =
  "PROGRAM M\n  DO I = 1, 5\n    CALL A()\n  ENDDO\nEND\nSUBROUTINE A()\n  X = X + 1.0\nEND\n"

let pipeline_journal_lines () =
  let lines = ref [] in
  let t = Pipeline.of_source ~journal:(fun l -> lines := l :: !lines) two_proc_src in
  check ci "no degradation" 0 (List.length (Pipeline.diagnostics t));
  check csl "one ok line per procedure, in order" [ "ana M ok"; "ana A ok" ]
    (List.rev !lines)

let pipeline_pretripped_key_degrades () =
  let sup = Supervise.create ~policy:fast_policy () in
  Supervise.trip sup ~key:"A";
  let lines = ref [] in
  let t =
    Pipeline.of_source ~supervisor:sup
      ~journal:(fun l -> lines := l :: !lines)
      two_proc_src
  in
  (match Pipeline.diagnostics t with
  | [ d ] ->
      check cs "SRV002 diagnostic" "SRV002" d.Diag.code;
      check (Alcotest.option cs) "names the procedure" (Some "A") d.Diag.proc
  | ds -> Alcotest.failf "expected one SRV002, got %d" (List.length ds));
  check cb "failure journaled" true (List.mem "ana A failed SRV002" !lines);
  (* the tripped procedure degrades to the opaque-callee path: the rest
     of the program still profiles and estimates *)
  let profile = Pipeline.profile_smart ~runs:2 t in
  let est = Pipeline.estimate_profiled t profile in
  check cb "estimate still produced" true
    (S89_core.Interproc.program_time est > 0.0)

(* ---------------- batch service: checkpoint / resume ---------------- *)

let fig1 = S89_workloads.Demos.fig1 ()

let ok = function
  | Ok v -> v
  | Error d -> Alcotest.failf "batch failed: %s" (Diag.to_string d)

let batch_completes () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  match ok (Service.batch ~fsync:false ~resume:false ~runs:4 ~seed:11 ~dir fig1) with
  | Service.Interrupted _ -> Alcotest.fail "uninterrupted batch must complete"
  | Service.Completed { runs; report } ->
      check ci "all runs done" 4 runs;
      check cb "report rendered" true (String.length report > 0);
      (* idempotent: resuming a finished batch reproduces the report *)
      (match
         ok (Service.batch ~fsync:false ~resume:true ~runs:4 ~seed:11 ~dir fig1)
       with
      | Service.Completed { runs = r2; report = rep2 } ->
          check ci "no extra runs" 4 r2;
          check cs "identical report" report rep2
      | Service.Interrupted _ -> Alcotest.fail "finished batch must stay finished")

let batch_refuses_unmarked_resume () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  ignore (ok (Service.batch ~fsync:false ~resume:false ~runs:2 ~seed:1 ~dir fig1));
  match Service.batch ~fsync:false ~resume:false ~runs:2 ~seed:1 ~dir fig1 with
  | Ok _ -> Alcotest.fail "non-empty store without --resume must be refused"
  | Error d -> check cs "DB005" "DB005" d.Diag.code

let batch_refuses_mismatched_resume () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  ignore (ok (Service.batch ~fsync:false ~resume:false ~runs:2 ~seed:1 ~dir fig1));
  match Service.batch ~fsync:false ~resume:true ~runs:2 ~seed:99 ~dir fig1 with
  | Ok _ -> Alcotest.fail "a different base seed must be refused"
  | Error d -> check cs "DB004" "DB004" d.Diag.code

(* The acceptance bar: >= 20 seeded kill points.  Each kill point k
   stops the batch after k mod (runs+1) completed runs (simulating
   SIGKILL between appends), then mangles the WAL tail with a k-seeded
   truncation or garbage append (simulating SIGKILL mid-append), then
   resumes.  Every variant must converge to the byte-identical report
   and exported database of the uninterrupted reference, with a
   loadable (checksum-valid) export and no lost completed runs. *)
let kill_resume_byte_identity () =
  with_tmp_dir @@ fun root ->
  let runs = 6 and seed = 11 in
  let export_of dir = Filename.concat root (Filename.basename dir ^ ".db") in
  let ref_dir = Filename.concat root "ref" in
  let ref_report =
    match
      ok
        (Service.batch ~fsync:false ~export:(export_of ref_dir) ~resume:false
           ~runs ~seed ~dir:ref_dir fig1)
    with
    | Service.Completed { report; _ } -> report
    | Service.Interrupted _ -> Alcotest.fail "reference must complete"
  in
  let ref_db = read_file (export_of ref_dir) in
  for k = 0 to 24 do
    let dir = Filename.concat root (Printf.sprintf "kill%02d" k) in
    let stop_after = k mod (runs + 1) in
    let completed = ref 0 in
    let should_stop () =
      (* one run finishes per poll-to-poll interval *)
      let stop = !completed >= stop_after in
      incr completed;
      stop
    in
    (match
       ok
         (Service.batch ~fsync:false ~should_stop ~resume:false ~runs ~seed ~dir
            fig1)
     with
    | Service.Interrupted { completed; total; _ } ->
        check ci "nothing beyond the kill point" stop_after completed;
        check ci "total preserved" runs total
    | Service.Completed _ -> check ci "only past-the-end kills complete" runs stop_after);
    (* mangle the WAL tail, seeded by the kill point *)
    let st = Random.State.make [| k |] in
    (match
       List.filter
         (fun f -> String.length f >= 4 && String.sub f 0 4 = "wal-")
         (Array.to_list (Sys.readdir dir))
     with
    | wal :: _ ->
        let path = Filename.concat dir wal in
        let bytes = read_file path in
        if Random.State.bool st then
          (* SIGKILL mid-append: garbage after the last durable record *)
          write_file path
            (bytes ^ String.init (Random.State.int st 40) (fun _ -> 'x'))
        else
          (* lost un-fsync'd tail: drop up to 40 trailing bytes *)
          write_file path
            (String.sub bytes 0
               (max 0 (String.length bytes - Random.State.int st 40)))
    | [] -> ());
    match
      ok
        (Service.batch ~fsync:false ~export:(export_of dir) ~resume:true ~runs
           ~seed ~dir fig1)
    with
    | Service.Interrupted _ -> Alcotest.failf "kill point %d failed to resume" k
    | Service.Completed { runs = r; report } ->
        check ci (Printf.sprintf "kill %d: run count" k) runs r;
        check cs (Printf.sprintf "kill %d: byte-identical report" k) ref_report
          report;
        check cs (Printf.sprintf "kill %d: byte-identical database" k) ref_db
          (read_file (export_of dir));
        (* the export is a valid checksummed v2 database *)
        check ci
          (Printf.sprintf "kill %d: export loads" k)
          runs
          (Database.runs (Database.load (export_of dir)))
  done

(* a seeded torn-append fault mid-batch, then a clean resume: the
   single-crash chaos scenario end to end *)
let batch_torn_append_then_resume () =
  with_tmp_dir @@ fun root ->
  let runs = 5 and seed = 3 in
  let ref_dir = Filename.concat root "ref" in
  let ref_report =
    match ok (Service.batch ~fsync:false ~resume:false ~runs ~seed ~dir:ref_dir fig1) with
    | Service.Completed { report; _ } -> report
    | Service.Interrupted _ -> Alcotest.fail "reference must complete"
  in
  let dir = Filename.concat root "torn" in
  let crashed =
    (* the injected torn write can surface as a raised [Fault.Injected]
       (mid-run-loop) or as an FLT001 diagnostic (mid-journal); either
       way the store is left with a torn tail for resume to drop *)
    match
      Fault.with_spec (Some (spec_of "wal_torn:0.4,seed:9")) (fun () ->
          Service.batch ~fsync:false ~resume:false ~runs ~seed ~dir fig1)
    with
    | Ok _ -> false
    | Error d when d.Diag.code = "FLT001" -> true
    | Error d -> Alcotest.failf "unexpected diagnostic: %s" (Diag.to_string d)
    | exception Fault.Injected _ -> true
  in
  let resume = Sys.file_exists dir && Array.length (Sys.readdir dir) > 0 in
  match
    ok (Service.batch ~fsync:false ~resume ~runs ~seed ~dir fig1)
  with
  | Service.Interrupted _ -> Alcotest.fail "resume must complete"
  | Service.Completed { report; _ } ->
      check cb "fault fired or batch completed clean" true
        (crashed || report = ref_report);
      check cs "byte-identical after the crash" ref_report report

(* a dir_fsync fault (the directory-entry durability point of the
   atomic-rename commit) kills the compaction mid-commit; recovery must
   fall back to the WAL and lose nothing *)
let store_dir_fsync_fault () =
  with_tmp_dir @@ fun dir ->
  let sp = spec_of "dir_fsync:1,seed:3" in
  let s = Store.open_ ~fsync:true ~dir () in
  Store.append_run s ~seed:1 (totals_of "A" [ ((1, Label.T), 3) ]);
  Store.append_run s ~seed:2 (totals_of "A" [ ((1, Label.T), 4) ]);
  (match Fault.with_spec (Some sp) (fun () -> Store.compact s) with
  | () -> Alcotest.fail "dir_fsync fault must fire during compaction"
  | exception Fault.Injected _ -> ());
  Store.close s;
  let s2 = Store.open_ ~fsync:true ~dir () in
  check ci "runs survive the failed dir fsync" 2 (Store.runs s2);
  check ci "sums intact" 7
    (Hashtbl.fold (fun _ v acc -> acc + v)
       (Database.proc_totals (Store.database s2) "A")
       0);
  Store.close s2

let suite =
  [
    Alcotest.test_case "WAL roundtrip" `Quick wal_roundtrip;
    Alcotest.test_case "WAL open truncates torn tail" `Quick wal_open_truncates_torn_tail;
    Alcotest.test_case "WAL torn-write fault injection" `Quick wal_torn_fault_injection;
    QCheck_alcotest.to_alcotest wal_truncation_prop;
    QCheck_alcotest.to_alcotest wal_corruption_prop;
    QCheck_alcotest.to_alcotest db_repair_prop;
    Alcotest.test_case "store roundtrip" `Quick store_basic_roundtrip;
    Alcotest.test_case "store compaction roundtrip" `Quick store_compaction_roundtrip;
    Alcotest.test_case "uncommitted compaction discarded" `Quick
      store_uncommitted_compaction_discarded;
    Alcotest.test_case "committed compaction ignores stale WAL" `Quick
      store_committed_compaction_ignores_stale_wal;
    Alcotest.test_case "torn WAL tail reported (DB002)" `Quick store_torn_tail_reported;
    Alcotest.test_case "corrupt snapshot falls back (DB003)" `Quick
      store_corrupt_snapshot_falls_back;
    Alcotest.test_case "foreign record rejected" `Quick store_foreign_record_rejected;
    Alcotest.test_case "supervise: retry then success" `Quick supervise_retry_then_success;
    Alcotest.test_case "supervise: breaker trips and rejects" `Quick
      supervise_breaker_trips;
    Alcotest.test_case "supervise: pre-tripped key rejects" `Quick supervise_pre_trip;
    Alcotest.test_case "supervise: half-open probe transitions" `Quick
      supervise_half_open_transitions;
    Alcotest.test_case "supervise: concurrent multi-tenant trips" `Quick
      supervise_concurrent_tenant_trips;
    Alcotest.test_case "fault decision golden vectors" `Quick fault_golden_vectors;
    Alcotest.test_case "backoff schedule deterministic" `Quick
      backoff_schedule_deterministic;
    Alcotest.test_case "pipeline journals per procedure" `Quick pipeline_journal_lines;
    Alcotest.test_case "pre-tripped procedure degrades (SRV002)" `Quick
      pipeline_pretripped_key_degrades;
    Alcotest.test_case "batch completes and is idempotent" `Quick batch_completes;
    Alcotest.test_case "batch refuses unmarked resume (DB005)" `Quick
      batch_refuses_unmarked_resume;
    Alcotest.test_case "batch refuses mismatched resume (DB004)" `Quick
      batch_refuses_mismatched_resume;
    Alcotest.test_case "torn-append fault then clean resume" `Quick
      batch_torn_append_then_resume;
    Alcotest.test_case "dir-fsync fault fires during compaction" `Quick
      store_dir_fsync_fault;
    Alcotest.test_case "25 seeded kill points resume byte-identically" `Quick
      kill_resume_byte_identity;
  ]
