(* PR-9 surface: the multi-tenant TCP service — wire protocol codecs
   (roundtrip + garbage rejection), bounded per-tenant admission with
   deterministic SWRR weighted-fair dequeue, the fixed-bucket latency
   histogram, and the server end-to-end over loopback: submit/status/
   result against a direct Service.batch reference, NET001 overflow
   rejection at saturation, SRV004 deadline expiry with partial
   results, and graceful stop → restart → byte-identical resume.

   PR-10 surface: resource governance — the token-bucket/quota gate
   (QCheck window bound + NET004 end-to-end), mid-stream SWRR
   reweighting, store GC (retention, size bound, tombstone sweep on
   recovery), the SRV007 disk-pressure breaker under injected ENOSPC,
   the slowloris frame deadline, and the client backoff schedule. *)

module Proto = S89_net.Proto
module Admission = S89_net.Admission
module Quota = S89_net.Quota
module Server = S89_net.Server
module Histogram = S89_exec.Histogram
module Service = S89_core.Service
module Diag = S89_diag.Diag
module Fault = S89_util.Fault
module Codec = S89_util.Codec

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cs = Alcotest.string
let csl = Alcotest.(list string)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_tmp_dir f =
  let dir = Filename.temp_file "s89net" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let fig1 = S89_workloads.Demos.fig1 ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------------- wire protocol ---------------- *)

let proto_roundtrip () =
  let reqs =
    [ Proto.Submit
        { tenant = "acme"; job = "j-1"; runs = 40; seed = 7; deadline = 2.5;
          source = fig1 };
      Proto.Submit
        { tenant = "a"; job = "b"; runs = 1; seed = 0; deadline = 0.0;
          source = "" };
      Proto.Status { tenant = "acme"; job = "j-1" };
      Proto.Result { tenant = "t.x"; job = "y_2" }; Proto.Metrics ]
  in
  List.iter
    (fun r ->
      match Proto.decode_request (Proto.encode_request r) with
      | Ok r' -> check cb "request roundtrips" true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    reqs;
  let resps =
    [ Proto.Accepted { job = "j-1" };
      Proto.Rejected { retry_after = 1.5; reason = "NET001 queue full" };
      Proto.Job_status { state = "running"; completed = 3; total = 10 };
      Proto.Job_result { state = "done"; body = "line1\nline2\n" };
      Proto.Metrics_text "s89_jobs_done 4\n";
      Proto.Error_resp { code = "NET002"; message = "bad frame" } ]
  in
  List.iter
    (fun r ->
      match Proto.decode_response (Proto.encode_response r) with
      | Ok r' -> check cb "response roundtrips" true (r = r')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    resps;
  (* framing roundtrip, including payloads that look like headers *)
  List.iter
    (fun p ->
      match Proto.unframe (Proto.frame p) with
      | Ok p' -> check cs "frame roundtrips" p p'
      | Error e -> Alcotest.failf "unframe failed: %s" e)
    [ ""; "x"; "s89 3 abc\nxyz"; String.make 4096 'q' ]

let proto_rejects_garbage () =
  let bad_frames =
    [ ""; "junk"; "s89 5 zz\nhello"; "s89 -1 0000000000000000\n";
      "s89 999999999999 0000000000000000\npayload";
      Printf.sprintf "s89 %d 0000000000000000\n%s" (Proto.max_frame + 1) "x";
      (* right length, wrong checksum *)
      "s89 3 0000000000000000\nabc";
      (* truncated payload *)
      (let f = Proto.frame "hello world" in String.sub f 0 (String.length f - 3))
    ]
  in
  List.iter
    (fun raw ->
      match Proto.unframe raw with
      | Ok _ -> Alcotest.failf "accepted garbage frame %S" raw
      | Error _ -> ())
    bad_frames;
  let bad_reqs =
    [ ""; "launch x y"; "submit onlytenant"; "submit te nant job 1 2 3";
      "submit ../evil job 5 1 0\nsrc"; "submit t j notanint 1 0\nsrc";
      "submit t j 0 1 0\nsrc"; "submit t j 5 1 -2\nsrc";
      "submit t j 5 1 nan\nsrc"; "status only"; "metrics extra" ]
  in
  List.iter
    (fun p ->
      match Proto.decode_request p with
      | Ok _ -> Alcotest.failf "accepted garbage request %S" p
      | Error _ -> ())
    bad_reqs;
  check cb "oversized name rejected" false (Proto.name_ok (String.make 65 'a'));
  check cb "path traversal rejected" false (Proto.name_ok "../x");
  check cb "slash rejected" false (Proto.name_ok "a/b")

(* the encoder must never build a frame its own decoder rejects: a
   payload at the cap roundtrips, one byte over is refused up front *)
let proto_frame_cap () =
  let at_cap = String.make Proto.max_frame 'r' in
  (match Proto.unframe (Proto.frame at_cap) with
  | Ok p -> check cb "payload at the cap roundtrips" true (p = at_cap)
  | Error e -> Alcotest.failf "frame at the cap rejected: %s" e);
  match Proto.frame (at_cap ^ "r") with
  | exception Codec.Too_large { size; cap } ->
      check ci "size reported" (Proto.max_frame + 1) size;
      check ci "cap reported" Proto.max_frame cap
  | f ->
      Alcotest.failf "built a %d-byte frame over the cap (decoder says %s)"
        (String.length f)
        (match Proto.unframe f with Ok _ -> "ok" | Error e -> e)

(* ---------------- admission ---------------- *)

let admission_bounds () =
  let a = Admission.create ~capacity:2 ~weights:[] () in
  check cb "first submit ok" true (Admission.submit a ~tenant:"t" 1 = Ok 1);
  check cb "second submit ok" true (Admission.submit a ~tenant:"t" 2 = Ok 2);
  (match Admission.submit a ~tenant:"t" 3 with
  | Error (`Full d) -> check ci "overflow reports depth" 2 d
  | _ -> Alcotest.fail "third submit must overflow");
  check cb "force bypasses the bound" true
    (Admission.submit ~force:true a ~tenant:"t" 4 = Ok 3);
  check ci "depth" 3 (Admission.depth a ~tenant:"t");
  check cb "other tenants unaffected" true (Admission.submit a ~tenant:"u" 9 = Ok 1);
  Admission.close a;
  check cb "closed refuses" true (Admission.submit a ~tenant:"t" 5 = Error `Closed);
  (* queued work still drains after close, then takers get None *)
  let drained = ref [] in
  let rec drain () =
    match Admission.take a with
    | Some (_, v) ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  check ci "close drains the backlog" 4 (List.length !drained)

(* the SWRR golden order: A at weight 2, B and C at weight 1, all
   backlogged — the service pattern must be A B C A A B C A *)
let admission_swrr_golden () =
  let a = Admission.create ~capacity:8 ~weights:[ ("A", 2); ("B", 1); ("C", 1) ] () in
  List.iter (fun t -> ignore (Admission.submit a ~tenant:t t)) [ "A"; "A"; "A"; "A" ];
  List.iter (fun t -> ignore (Admission.submit a ~tenant:t t)) [ "B"; "B" ];
  List.iter (fun t -> ignore (Admission.submit a ~tenant:t t)) [ "C"; "C" ];
  Admission.close a;
  let rec drain acc =
    match Admission.take a with
    | Some (tenant, _) -> drain (tenant :: acc)
    | None -> List.rev acc
  in
  check csl "weighted-fair order" [ "A"; "B"; "C"; "A"; "A"; "B"; "C"; "A" ]
    (drain [])

(* ---------------- histogram ---------------- *)

let histogram_quantiles () =
  let h = Histogram.create ~lo:0.001 ~hi:10.0 ~buckets_per_decade:1 () in
  List.iter (Histogram.observe h) [ 0.0005; 0.005; 0.05; 0.5; 5.0 ];
  check ci "count" 5 (Histogram.count h);
  check (Alcotest.float 1e-9) "p50 = bucket upper bound" 0.1
    (Histogram.quantile h 0.5);
  check (Alcotest.float 1e-9) "p100" 10.0 (Histogram.quantile h 1.0);
  Histogram.observe h 50.0;
  check (Alcotest.float 1e-9) "overflow answers max observed" 50.0
    (Histogram.quantile h 1.0);
  check cb "mean tracks the sum" true
    (abs_float (Histogram.mean h -. (55.5555 /. 6.0)) < 1e-3);
  Histogram.reset h;
  check ci "reset clears count" 0 (Histogram.count h);
  check (Alcotest.float 1e-9) "reset clears quantiles" 0.0
    (Histogram.quantile h 0.99)

(* ---------------- server end-to-end ---------------- *)

let quick_config =
  { Server.default_config with Server.fsync = false; workers = 2 }

let with_server ?(config = quick_config) f =
  with_tmp_dir @@ fun root ->
  let t = Server.start ~config ~store_root:(Filename.concat root "jobs") () in
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f root t)

let rpc t req =
  let fd = Server.Client.connect ~port:(Server.port t) () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  match Server.Client.rpc fd req with
  | Ok r -> r
  | Error m -> Alcotest.failf "rpc failed: %s" m

let poll_state ?(tries = 2000) t ~tenant ~job pred =
  let rec go n last =
    if n = 0 then Alcotest.failf "timed out polling job (last state %s)" last
    else
      match rpc t (Proto.Status { tenant; job }) with
      | Proto.Job_status { state; _ } when pred state -> state
      | Proto.Job_status { state; _ } ->
          Thread.delay 0.005;
          go (n - 1) state
      | _ -> Alcotest.fail "status request must answer Job_status"
  in
  go tries "?"

let reference_report ~runs ~seed =
  with_tmp_dir @@ fun root ->
  match
    Service.batch ~fsync:false ~resume:false ~runs ~seed
      ~dir:(Filename.concat root "store") fig1
  with
  | Ok (Service.Completed { report; _ }) -> report
  | Ok (Service.Interrupted _) -> Alcotest.fail "reference must complete"
  | Error d -> Alcotest.failf "reference batch failed: %s" (Diag.to_string d)

let server_end_to_end () =
  let expected = reference_report ~runs:25 ~seed:3 in
  with_server @@ fun _root t ->
  (match
     rpc t
       (Proto.Submit
          { tenant = "alice"; job = "j1"; runs = 25; seed = 3; deadline = 0.0;
            source = fig1 })
   with
  | Proto.Accepted { job } -> check cs "acked job name" "j1" job
  | r -> Alcotest.failf "submit rejected: %s" (Proto.encode_response r));
  ignore (poll_state t ~tenant:"alice" ~job:"j1" (fun s -> s = "done"));
  (match rpc t (Proto.Status { tenant = "alice"; job = "j1" }) with
  | Proto.Job_status { state; completed; total } ->
      check cs "done" "done" state;
      check ci "completed" 25 completed;
      check ci "total" 25 total
  | _ -> Alcotest.fail "expected Job_status");
  (match rpc t (Proto.Result { tenant = "alice"; job = "j1" }) with
  | Proto.Job_result { state; body } ->
      check cs "result state" "done" state;
      check cs "TCP result = direct batch report" expected body
  | _ -> Alcotest.fail "expected Job_result");
  (* idempotent resubmit of a finished job re-acks *)
  (match
     rpc t
       (Proto.Submit
          { tenant = "alice"; job = "j1"; runs = 25; seed = 3; deadline = 0.0;
            source = fig1 })
   with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "resubmit of finished job must re-ack");
  (match rpc t (Proto.Status { tenant = "alice"; job = "nope" }) with
  | Proto.Job_status { state; _ } -> check cs "unknown job" "unknown" state
  | _ -> Alcotest.fail "expected Job_status");
  match rpc t Proto.Metrics with
  | Proto.Metrics_text text ->
      check cb "metrics counts the job" true (contains text "s89_jobs_done 1");
      check cb "metrics reports latency" true
        (contains text "s89_job_latency_seconds_count 1")
  | _ -> Alcotest.fail "expected Metrics_text"

(* A valid job and a non-MF77 one through the same server: the first
   ends done with exactly Service.batch's report, the second ends failed
   with Service.batch's diagnostic as its result body. *)
let server_good_and_bad_jobs () =
  let expected = reference_report ~runs:2 ~seed:1 in
  let bad_source = "NOT FORTRAN AT ALL" in
  let expected_err =
    with_tmp_dir @@ fun root ->
    match
      Service.batch ~fsync:false ~resume:false ~runs:2 ~seed:1
        ~dir:(Filename.concat root "store") bad_source
    with
    | Error d -> Diag.to_string d ^ "\n"
    | Ok _ -> Alcotest.fail "a non-MF77 source must fail"
  in
  with_server @@ fun _root t ->
  List.iter
    (fun (job, source) ->
      match
        rpc t
          (Proto.Submit
             { tenant = "spool"; job; runs = 2; seed = 1; deadline = 0.0; source })
      with
      | Proto.Accepted _ -> ()
      | r -> Alcotest.failf "submit %s rejected: %s" job (Proto.encode_response r))
    [ ("good", fig1); ("bad", bad_source) ];
  let finished s = s = "done" || s = "failed" in
  check cs "good job done" "done" (poll_state t ~tenant:"spool" ~job:"good" finished);
  check cs "bad job failed" "failed" (poll_state t ~tenant:"spool" ~job:"bad" finished);
  (match rpc t (Proto.Result { tenant = "spool"; job = "good" }) with
  | Proto.Job_result { state = "done"; body } ->
      check cs "report = Service.batch" expected body
  | r -> Alcotest.failf "unexpected result: %s" (Proto.encode_response r));
  match rpc t (Proto.Result { tenant = "spool"; job = "bad" }) with
  | Proto.Job_result { state = "failed"; body } ->
      check cs "diagnostic in the result body" expected_err body
  | r -> Alcotest.failf "unexpected result: %s" (Proto.encode_response r)

(* A report over the frame cap (a program of a few hundred generated
   subroutines renders one) must come back as a structured NET002
   naming its size and the cap, not as a frame the client cannot read.
   The job runs normally; its report file is then grown past the cap,
   which is much cheaper than generating and analysing such a
   program. *)
let server_oversized_result () =
  with_server @@ fun root t ->
  (match
     rpc t
       (Proto.Submit
          { tenant = "big"; job = "r"; runs = 1; seed = 1; deadline = 0.0;
            source = fig1 })
   with
  | Proto.Accepted _ -> ()
  | r -> Alcotest.failf "submit rejected: %s" (Proto.encode_response r));
  ignore (poll_state t ~tenant:"big" ~job:"r" (fun s -> s = "done"));
  let shard =
    Printf.sprintf "shard-%02Lx" (Int64.logand (Codec.fnv64 fig1) 0xFFL)
  in
  let report =
    List.fold_left Filename.concat root [ "jobs"; shard; "big__r"; "report" ]
  in
  check cb "report sharded by source fingerprint" true (Sys.file_exists report);
  let oc = open_out_bin report in
  output_string oc (String.make (Proto.max_frame + 1) 'r');
  close_out oc;
  let fd = Server.Client.connect ~port:(Server.port t) () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  (match Server.Client.rpc fd (Proto.Result { tenant = "big"; job = "r" }) with
  | Ok (Proto.Error_resp { code; message }) ->
      check cs "NET002" "NET002" code;
      let payload = String.length "result done\n" + Proto.max_frame + 1 in
      check cb "message gives the size" true
        (contains message (string_of_int payload));
      check cb "message gives the cap" true
        (contains message (string_of_int Proto.max_frame))
  | Ok r -> Alcotest.failf "expected NET002, got %s" (Proto.encode_response r)
  | Error e -> Alcotest.failf "unreadable answer: %s" e);
  (* the frame stream is intact: the same connection keeps working *)
  match Server.Client.rpc fd (Proto.Status { tenant = "big"; job = "r" }) with
  | Ok (Proto.Job_status { state; _ }) -> check cs "still done" "done" state
  | _ -> Alcotest.fail "connection unusable after the oversized result"

let server_overload_rejects () =
  let config = { quick_config with Server.workers = 1; queue_capacity = 1 } in
  with_server ~config @@ fun _root t ->
  let submit job runs =
    rpc t
      (Proto.Submit
         { tenant = "busy"; job; runs; seed = 1; deadline = 0.0; source = fig1 })
  in
  (* a long job occupies the single worker... *)
  (match submit "long" 500_000 with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "long job must be accepted");
  ignore (poll_state t ~tenant:"busy" ~job:"long" (fun s -> s = "running"));
  (* ...the next fills the queue (capacity 1)... *)
  (match submit "queued" 5 with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "second job must queue");
  (* ...and the third is shed immediately with NET001 + retry-after *)
  (match submit "shed" 5 with
  | Proto.Rejected { retry_after; reason } ->
      check cb "positive retry-after" true (retry_after > 0.0);
      check cb "reason names NET001" true
        (String.length reason >= 6 && String.sub reason 0 6 = "NET001")
  | r -> Alcotest.failf "third job must be rejected, got %s" (Proto.encode_response r));
  match rpc t Proto.Metrics with
  | Proto.Metrics_text text ->
      check cb "rejection counted" true (contains text "s89_jobs_rejected 1");
      check cb "queue depth visible" true
        (contains text "s89_queue_depth{tenant=\"busy\"} 1")
  | _ -> Alcotest.fail "expected Metrics_text"

let server_deadline_expires () =
  with_server @@ fun _root t ->
  (match
     rpc t
       (Proto.Submit
          { tenant = "dl"; job = "slow"; runs = 5_000_000; seed = 1;
            deadline = 0.15; source = fig1 })
   with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "submit must be accepted");
  ignore (poll_state t ~tenant:"dl" ~job:"slow" (fun s -> s = "expired"));
  (match rpc t (Proto.Status { tenant = "dl"; job = "slow" }) with
  | Proto.Job_status { state; completed; total } ->
      check cs "expired" "expired" state;
      check cb "partial progress recorded" true (completed > 0 && completed < total)
  | _ -> Alcotest.fail "expected Job_status");
  match rpc t (Proto.Result { tenant = "dl"; job = "slow" }) with
  | Proto.Job_result { state; body } ->
      check cs "result state" "expired" state;
      check cb "partial estimate preserved" true
        (String.length body > 0
        && String.sub body 0 16 = "program estimate")
  | _ -> Alcotest.fail "expected Job_result"

let server_restart_resumes () =
  let expected = reference_report ~runs:4000 ~seed:5 in
  with_tmp_dir @@ fun root ->
  let store_root = Filename.concat root "jobs" in
  let config = { quick_config with Server.workers = 1 } in
  let t1 = Server.start ~config ~store_root () in
  (match
     rpc t1
       (Proto.Submit
          { tenant = "r"; job = "big"; runs = 4000; seed = 5; deadline = 0.0;
            source = fig1 })
   with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "submit must be accepted");
  ignore (poll_state t1 ~tenant:"r" ~job:"big" (fun s -> s = "running"));
  (* graceful stop mid-batch: completed runs are durable in the WAL *)
  Server.stop t1;
  let t2 = Server.start ~config ~store_root () in
  Fun.protect ~finally:(fun () -> Server.stop t2) @@ fun () ->
  ignore (poll_state t2 ~tenant:"r" ~job:"big" (fun s -> s = "done"));
  match rpc t2 (Proto.Result { tenant = "r"; job = "big" }) with
  | Proto.Job_result { body; _ } ->
      check cs "resumed report byte-identical to uninterrupted run" expected body
  | _ -> Alcotest.fail "expected Job_result"

(* ---------------- quota (PR-10) ---------------- *)

(* the token-bucket window bound: over ANY schedule of admissions and
   clock advances of total length T, a tenant is admitted at most
   burst + rate*T times — the defining property of a token bucket *)
let quota_window_prop =
  QCheck.Test.make ~count:300 ~name:"token bucket: admissions <= burst + rate*T"
    QCheck.(
      triple (int_range 1 5) (int_range 1 20)
        (small_list (pair (int_range 0 500) (int_range 0 5))))
    (fun (rate_i, burst, steps) ->
      let rate = float_of_int rate_i in
      let now = ref 0.0 in
      let q =
        Quota.create ~clock:(fun () -> !now)
          { Quota.rate; burst; max_bytes = 0; max_jobs = 0 }
      in
      let admitted = ref 0 in
      let total_dt = ref 0.0 in
      List.iter
        (fun (dt_ms, tries) ->
          let dt = float_of_int dt_ms /. 1000.0 in
          now := !now +. dt;
          total_dt := !total_dt +. dt;
          for _ = 1 to tries do
            match Quota.admit q ~tenant:"t" ~bytes:0 with
            | Ok () -> incr admitted
            | Error (Quota.Rate_limited { retry_after }) ->
                if retry_after <= 0.0 then
                  QCheck.Test.fail_report "retry_after must be positive"
            | Error _ -> QCheck.Test.fail_report "only rate rejections possible"
          done)
        steps;
      float_of_int !admitted
      <= float_of_int burst +. (rate *. !total_dt) +. 1e-6)

let quota_ledgers () =
  let q =
    Quota.create
      { Quota.rate = 0.0; burst = 0; max_bytes = 100; max_jobs = 2 }
  in
  check cb "first admit ok" true (Quota.admit q ~tenant:"a" ~bytes:40 = Ok ());
  check cb "second admit ok" true (Quota.admit q ~tenant:"a" ~bytes:40 = Ok ());
  (* job quota runs out before the byte quota here *)
  (match Quota.admit q ~tenant:"a" ~bytes:1 with
  | Error (Quota.Jobs_exceeded { used; limit }) ->
      check ci "jobs used" 2 used;
      check ci "jobs limit" 2 limit
  | _ -> Alcotest.fail "third job must exceed the job quota");
  (* release one job but keep its bytes: now bytes block *)
  Quota.charge q ~tenant:"a" ~bytes:0 ~jobs:(-1);
  (match Quota.admit q ~tenant:"a" ~bytes:40 with
  | Error (Quota.Bytes_exceeded { used; limit }) ->
      check ci "bytes used" 80 used;
      check ci "bytes limit" 100 limit
  | _ -> Alcotest.fail "byte quota must refuse");
  check cb "within bytes ok" true (Quota.admit q ~tenant:"a" ~bytes:20 = Ok ());
  (* a rejection must consume nothing *)
  check cb "usage" true (Quota.usage q ~tenant:"a" = (100, 2));
  (* other tenants have their own ledgers *)
  check cb "tenant isolation" true (Quota.admit q ~tenant:"b" ~bytes:99 = Ok ());
  (* charge clamps at zero *)
  Quota.charge q ~tenant:"b" ~bytes:(-1000) ~jobs:(-1000);
  check cb "clamped" true (Quota.usage q ~tenant:"b" = (0, 0))

(* ---------------- mid-stream reweighting ---------------- *)

(* SWRR golden order across a weight change: A at 3 vs B at 1 serves
   A A B A; after set_weight A 1 the pattern flips to strict
   alternation.  Hand-computed from the SWRR credit algebra. *)
let admission_set_weight_golden () =
  let a = Admission.create ~capacity:8 ~weights:[ ("A", 3); ("B", 1) ] () in
  for i = 1 to 5 do
    ignore (Admission.submit a ~tenant:"A" i)
  done;
  for i = 1 to 3 do
    ignore (Admission.submit a ~tenant:"B" i)
  done;
  let take_n n =
    List.init n (fun _ ->
        match Admission.take a with
        | Some (tenant, _) -> tenant
        | None -> Alcotest.fail "queue must not be drained yet")
  in
  check csl "before reweight: 3:1 service" [ "A"; "A"; "B"; "A" ] (take_n 4);
  check ci "weight getter" 3 (Admission.weight a ~tenant:"A");
  Admission.set_weight a ~tenant:"A" 1;
  check ci "weight updated" 1 (Admission.weight a ~tenant:"A");
  check csl "after reweight: alternation" [ "A"; "B"; "A"; "B" ] (take_n 4);
  (* downgrading clamps accumulated credit: a tenant that banked credit
     at a high weight cannot spend it after the downgrade *)
  let b = Admission.create ~capacity:8 ~weights:[ ("X", 5); ("Y", 1) ] () in
  for i = 1 to 4 do
    ignore (Admission.submit b ~tenant:"X" i);
    ignore (Admission.submit b ~tenant:"Y" i)
  done;
  (* one pick: Y accrues +1 credit while X (winner) pays the total *)
  (match Admission.take b with
  | Some ("X", _) -> ()
  | _ -> Alcotest.fail "X must win the first pick at weight 5");
  Admission.set_weight b ~tenant:"X" 1;
  let rec drain acc =
    match
      if Admission.depth b ~tenant:"X" + Admission.depth b ~tenant:"Y" = 0 then
        None
      else Admission.take b
    with
    | Some (tenant, _) -> drain (tenant :: acc)
    | None -> List.rev acc
  in
  let rest = drain [] in
  let count t = List.length (List.filter (( = ) t) rest) in
  (* equal weights from here: service must stay balanced, never letting
     X spend pre-downgrade credit to burst ahead *)
  check ci "X served exactly its remainder" 3 (count "X");
  check ci "Y served exactly its remainder" 4 (count "Y");
  (* X (downgraded, 3 left) must never be served twice in a row *)
  let rec no_double = function
    | "X" :: "X" :: _ -> false
    | _ :: rest -> no_double rest
    | [] -> true
  in
  check cb "no X double-service after downgrade" true (no_double rest)

(* ---------------- rate limit / quota end-to-end ---------------- *)

let submit_req ?(tenant = "t") ?(runs = 5) job =
  Proto.Submit { tenant; job; runs; seed = 1; deadline = 0.0; source = fig1 }

let server_rate_limit_net004 () =
  let config =
    { quick_config with
      Server.quota =
        { Quota.rate = 0.5; burst = 1; max_bytes = 0; max_jobs = 0 } }
  in
  with_server ~config @@ fun _root t ->
  (match rpc t (submit_req "j1") with
  | Proto.Accepted _ -> ()
  | r -> Alcotest.failf "first submit must pass: %s" (Proto.encode_response r));
  (match rpc t (submit_req "j2") with
  | Proto.Rejected { retry_after; reason } ->
      check cb "NET004 rate reason" true (contains reason "NET004");
      check cb "rate named" true (contains reason "rate limit");
      check cb "retry-after from refill" true
        (retry_after > 0.0 && retry_after <= 2.0 +. 1e-6)
  | r -> Alcotest.failf "second submit must be rate-limited: %s"
           (Proto.encode_response r));
  (* an idempotent resubmit of the accepted job needs no token *)
  match rpc t (submit_req "j1") with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "idempotent resubmit must not need a token"

let server_quota_then_gc () =
  let config =
    { quick_config with
      Server.quota = { Quota.rate = 0.0; burst = 0; max_bytes = 0; max_jobs = 1 };
      retain_done = 0.0; gc_interval = 0.0 (* tests drive gc_now *) }
  in
  with_server ~config @@ fun root t ->
  (match rpc t (submit_req "j1") with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "first job must be admitted");
  (* the live job holds the only quota slot *)
  (match rpc t (submit_req "j2") with
  | Proto.Rejected { reason; _ } ->
      check cb "NET004 job quota" true (contains reason "NET004");
      check cb "job quota named" true (contains reason "job quota")
  | _ -> Alcotest.fail "second job must exceed the job quota");
  ignore (poll_state t ~tenant:"t" ~job:"j1" (fun s -> s = "done"));
  Thread.delay 0.02;
  (* retention 0: the finished job is collectable; GC frees its slot *)
  check ci "gc collects the finished job" 1 (Server.gc_now t);
  (match rpc t (Proto.Status { tenant = "t"; job = "j1" }) with
  | Proto.Job_status { state; _ } -> check cs "collected = unknown" "unknown" state
  | _ -> Alcotest.fail "expected Job_status");
  (* the collected job's directory is gone from the store *)
  let job_dirs =
    Sys.readdir (Filename.concat root "jobs")
    |> Array.to_list
    |> List.concat_map (fun shard ->
           let d = Filename.concat (Filename.concat root "jobs") shard in
           if Sys.is_directory d then Array.to_list (Sys.readdir d) else [])
  in
  check cb "job dir deleted" false (List.mem "t__j1" job_dirs);
  (match rpc t (submit_req "j2") with
  | Proto.Accepted _ -> ()
  | r ->
      Alcotest.failf "slot must be free after GC: %s" (Proto.encode_response r));
  ignore (poll_state t ~tenant:"t" ~job:"j2" (fun s -> s = "done"));
  (* a resubmit of the collected job is a FRESH job and runs again *)
  Server.gc_now t |> ignore;
  (match rpc t (submit_req "j1") with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "collected job must be resubmittable");
  ignore (poll_state t ~tenant:"t" ~job:"j1" (fun s -> s = "done"));
  match rpc t Proto.Metrics with
  | Proto.Metrics_text text ->
      check cb "gc collections counted" true (contains text "s89_gc_collected")
  | _ -> Alcotest.fail "expected Metrics_text"

let server_gc_size_bound () =
  let config =
    { quick_config with Server.max_store_bytes = 1; gc_interval = 0.0 }
  in
  with_server ~config @@ fun _root t ->
  (match rpc t (submit_req "j1") with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "submit must pass");
  ignore (poll_state t ~tenant:"t" ~job:"j1" (fun s -> s = "done"));
  Thread.delay 0.02;
  (* retention is forever, but the size bound forces eviction *)
  check ci "size bound evicts the finished job" 1 (Server.gc_now t);
  match rpc t (Proto.Status { tenant = "t"; job = "j1" }) with
  | Proto.Job_status { state; _ } -> check cs "evicted" "unknown" state
  | _ -> Alcotest.fail "expected Job_status"

let server_tomb_sweep_on_recovery () =
  with_tmp_dir @@ fun root ->
  let store_root = Filename.concat root "jobs" in
  let dir = Filename.concat (Filename.concat store_root "shard-07") "t__dead" in
  let write p s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  let rec mkdir_p d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  mkdir_p dir;
  write (Filename.concat dir "source.mf") fig1;
  write (Filename.concat dir "job.meta") "tenant t\njob dead\nruns 5\nseed 1\n";
  write (Filename.concat dir "job.tomb") "tomb\n";
  let t = Server.start ~config:quick_config ~store_root () in
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  check cb "tombed dir swept, not resurrected" false (Sys.file_exists dir);
  match rpc t (Proto.Status { tenant = "t"; job = "dead" }) with
  | Proto.Job_status { state; _ } -> check cs "tombed = unknown" "unknown" state
  | _ -> Alcotest.fail "expected Job_status"

(* ---------------- disk pressure (SRV007) ---------------- *)

let server_disk_pressure () =
  let config =
    { quick_config with Server.disk_probe_interval = 0.02; gc_interval = 0.05 }
  in
  with_server ~config @@ fun _root t ->
  Fun.protect ~finally:(fun () -> Fault.set None) @@ fun () ->
  (* a job admitted on a healthy disk... *)
  (match rpc t (submit_req ~runs:20_000 "inflight") with
  | Proto.Accepted _ -> ()
  | _ -> Alcotest.fail "submit must pass on a healthy disk");
  ignore (poll_state t ~tenant:"t" ~job:"inflight" (fun s -> s = "running"));
  (* ...then every durable write starts failing with ENOSPC *)
  (match Fault.parse "enospc:1.0,seed:3" with
  | Ok sp -> Fault.set (Some sp)
  | Error m -> Alcotest.fail m);
  (* new admissions are shed with SRV007 *)
  (match rpc t (submit_req "shed") with
  | Proto.Rejected { retry_after; reason } ->
      check cb "SRV007 named" true (contains reason "SRV007");
      check cb "positive retry-after" true (retry_after > 0.0)
  | r -> Alcotest.failf "submit under disk pressure must shed: %s"
           (Proto.encode_response r));
  (* the in-flight job still finishes — from memory *)
  ignore (poll_state t ~tenant:"t" ~job:"inflight" (fun s -> s = "done"));
  (match rpc t (Proto.Result { tenant = "t"; job = "inflight" }) with
  | Proto.Job_result { state; body } ->
      check cs "done under pressure" "done" state;
      check cb "report served from memory" true
        (String.length body > 16 && String.sub body 0 16 = "program estimate")
  | _ -> Alcotest.fail "expected Job_result");
  (* disk recovers: a probe clears the breaker and admissions resume *)
  Fault.set None;
  let rec resubmit n =
    if n = 0 then Alcotest.fail "admissions must resume after recovery"
    else
      match rpc t (submit_req "after") with
      | Proto.Accepted _ -> ()
      | Proto.Rejected _ ->
          Thread.delay 0.03;
          resubmit (n - 1)
      | _ -> Alcotest.fail "unexpected response"
  in
  resubmit 200;
  ignore (poll_state t ~tenant:"t" ~job:"after" (fun s -> s = "done"));
  match rpc t Proto.Metrics with
  | Proto.Metrics_text text ->
      check cb "pressure cleared" true (contains text "s89_disk_pressure 0");
      check cb "exactly one pressure window" true
        (contains text "s89_disk_pressure_windows 1")
  | _ -> Alcotest.fail "expected Metrics_text"

(* ---------------- slowloris frame deadline ---------------- *)

let proto_read_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* drip a partial header, then stall forever *)
  ignore (Unix.write_substring b "s89 10" 0 6 : int);
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. 0.2 in
  (match Proto.read_frame ~deadline a with
  | exception Proto.Timed_out -> ()
  | Ok _ | Error _ -> Alcotest.fail "a stalled frame must time out");
  let elapsed = Unix.gettimeofday () -. t0 in
  check cb "cut off near the deadline" true (elapsed >= 0.15 && elapsed < 2.0);
  (* a whole frame arriving in time is unaffected by the deadline *)
  let payload = Proto.encode_request Proto.Metrics in
  ignore
    (Unix.write_substring b (Proto.frame payload) 0
       (String.length (Proto.frame payload))
      : int);
  match Proto.read_frame ~deadline:(Unix.gettimeofday () +. 5.0) a with
  | Ok p -> check cs "frame delivered" payload p
  | Error e -> Alcotest.failf "frame rejected: %s" e

(* ---------------- client backoff schedule ---------------- *)

let client_retry_delay_golden () =
  let cf = Alcotest.float 1e-9 in
  let d ~attempt ~retry_after ~jitter =
    Server.Client.retry_delay ~attempt ~retry_after ~jitter
  in
  check cf "attempt 0 base" 0.1 (d ~attempt:0 ~retry_after:0.0 ~jitter:0.0);
  check cf "exponential growth" 0.8 (d ~attempt:3 ~retry_after:0.0 ~jitter:0.0);
  check cf "capped at 5s" 5.0 (d ~attempt:10 ~retry_after:0.0 ~jitter:0.0);
  check cf "server floor wins" 2.0 (d ~attempt:0 ~retry_after:2.0 ~jitter:0.0);
  check cf "jitter spreads up to +25%" 0.125
    (d ~attempt:0 ~retry_after:0.0 ~jitter:1.0);
  (* the schedule is pure: same inputs, same delay *)
  check cf "deterministic"
    (d ~attempt:5 ~retry_after:1.3 ~jitter:0.5)
    (d ~attempt:5 ~retry_after:1.3 ~jitter:0.5)

let suite =
  [
    Alcotest.test_case "proto: codecs roundtrip" `Quick proto_roundtrip;
    Alcotest.test_case "proto: garbage rejected (NET002)" `Quick proto_rejects_garbage;
    Alcotest.test_case "proto: no frame over the cap is built" `Quick proto_frame_cap;
    Alcotest.test_case "admission: bounded per tenant" `Quick admission_bounds;
    Alcotest.test_case "admission: SWRR golden order" `Quick admission_swrr_golden;
    Alcotest.test_case "histogram: bucketed quantiles" `Quick histogram_quantiles;
    Alcotest.test_case "server: submit/status/result = direct batch" `Quick
      server_end_to_end;
    Alcotest.test_case "server: overflow shed with NET001" `Quick
      server_overload_rejects;
    Alcotest.test_case "server: deadline expiry keeps partial (SRV004)" `Quick
      server_deadline_expires;
    Alcotest.test_case "server: restart resumes byte-identically" `Quick
      server_restart_resumes;
    QCheck_alcotest.to_alcotest quota_window_prop;
    Alcotest.test_case "quota: byte/job ledgers" `Quick quota_ledgers;
    Alcotest.test_case "admission: mid-stream reweight golden" `Quick
      admission_set_weight_golden;
    Alcotest.test_case "server: rate limit shed with NET004" `Quick
      server_rate_limit_net004;
    Alcotest.test_case "server: job quota frees after GC" `Quick
      server_quota_then_gc;
    Alcotest.test_case "server: GC size bound evicts" `Quick server_gc_size_bound;
    Alcotest.test_case "server: tombstone swept on recovery" `Quick
      server_tomb_sweep_on_recovery;
    Alcotest.test_case "server: disk pressure sheds + recovers (SRV007)" `Quick
      server_disk_pressure;
    Alcotest.test_case "proto: frame deadline cuts slowloris" `Quick
      proto_read_deadline;
    Alcotest.test_case "client: retry backoff schedule" `Quick
      client_retry_delay_golden;
    Alcotest.test_case "server: good = batch, non-MF77 fails" `Quick
      server_good_and_bad_jobs;
    Alcotest.test_case "server: oversized result is NET002" `Quick
      server_oversized_result;
  ]
