(* The serve-open workload: `ptranc serve --tcp` in its own process, fed
   by an open loop (one sender thread on a fixed schedule, one poller
   thread watching every accepted job until it is done). *)

module Proto = S89_net.Proto
module Server = S89_net.Server
module Service = S89_core.Service
module Store = S89_store.Store
module Database = S89_profiling.Database
module Reconstruct = S89_profiling.Reconstruct
module Pipeline = S89_core.Pipeline
module Prng = S89_util.Prng
module Demos = S89_workloads.Demos

let now = Unix.gettimeofday
let cost_model = Server.default_config.Server.cost_model

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* ---------------- the server process ---------------- *)

type server = { pid : int; out : in_channel; port : int; root : string }

let live : int list ref = ref []

let kill_live () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !live;
  live := []

let () = at_exit kill_live

let rpc fd req =
  match Server.Client.rpc fd req with
  | Ok r -> r
  | Error msg -> failwith ("bad server response: " ^ msg)

let stop_server s =
  (try Unix.kill s.pid Sys.sigint with Unix.Unix_error _ -> ());
  let deadline = now () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  live := List.filter (( <> ) s.pid) !live;
  close_in_noerr s.out;
  rm_rf s.root

(* spawn, read the bound port, and wait for the first answered request *)
let start_server ~ptranc ~workers ~root =
  rm_rf root;
  mkdir_p root;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile (root ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process ptranc
      [| ptranc; "serve"; "--tcp"; "0"; "--workers"; string_of_int workers;
         "--store-root"; Filename.concat root "store" |]
      null out_w log
  in
  live := pid :: !live;
  List.iter Unix.close [ out_w; log; null ];
  let out = Unix.in_channel_of_descr out_r in
  let port =
    match input_line out with
    | line -> (
        match String.rindex_opt line ':' with
        | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        | None -> None)
    | exception End_of_file -> None
  in
  match port with
  | None ->
      stop_server { pid; out; port = 0; root };
      failwith "ptranc serve did not report a port"
  | Some port ->
      let fd = Server.Client.connect ~port () in
      Fun.protect ~finally:(fun () -> Server.Client.close fd) (fun () ->
          match rpc fd Proto.Metrics with
          | Proto.Metrics_text _ -> ()
          | _ -> failwith "unexpected metrics answer");
      { pid; out; port; root }

(* peak resident set of a process, MB (Linux /proc) *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> 0.0
      in
      go ()

(* ---------------- the job mix ---------------- *)

type job = {
  name : string;
  tenant : string;
  demo : string;
  source : string;
  runs : int;
  jseed : int;
  sched : float; (* seconds after the load starts *)
  mutable acked : float; (* when the submit answer arrived *)
  mutable accepted : bool;
  mutable t_running : float;
  mutable t_done : float;
  mutable final : string; (* "" while live *)
}

let demos ~tiny =
  if tiny then
    [ ("FIG1", Demos.fig1 ()); ("BRANCHY", Demos.branchy ~n:50 ());
      ("SORT", Demos.sort ~n:10 ()); ("SIEVE", Demos.sieve ~n:100 ());
      ("CHUNKY", Demos.chunky ~iters:20 ()) ]
  else
    [ ("FIG1", Demos.fig1 ()); ("BRANCHY", Demos.branchy ()); ("SORT", Demos.sort ());
      ("SIEVE", Demos.sieve ()); ("CHUNKY", Demos.chunky ()) ]

(* Jobs come in blocks of 20: each demo four times, once at the high run
   count and three times at the low one, in a seeded order.  Seeds change
   the order and the draws, not the amount of work or its mix. *)
let job_mix ~tiny ~seed ~rate ~seconds =
  let rng = Prng.create ~seed:((seed * 31) + 7) in
  let ds = Array.of_list (demos ~tiny) in
  let low, high = if tiny then (2, 5) else (10, 100) in
  let block =
    Array.concat
      (List.init (Array.length ds) (fun d -> [| (d, high); (d, low); (d, low); (d, low) |]))
  in
  let n = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let order = ref [||] in
  Array.init n (fun i ->
      let b = Array.length block in
      if i mod b = 0 then begin
        order := Array.copy block;
        for k = b - 1 downto 1 do
          let j = Prng.int rng (k + 1) in
          let t = !order.(k) in
          !order.(k) <- !order.(j);
          !order.(j) <- t
        done
      end;
      let d, runs = !order.(i mod b) in
      let demo, source = ds.(d) in
      { name = Printf.sprintf "j%05d" i;
        tenant = Printf.sprintf "t%d" (Prng.int rng 3);
        demo; source; runs;
        jseed = 1 + Prng.int rng 3;
        sched = float_of_int i /. rate;
        acked = 0.0; accepted = false; t_running = 0.0; t_done = 0.0; final = "" })

(* ---------------- the open loop ---------------- *)

type load = {
  t_start : float;
  t_end : float; (* last completion seen *)
  late : float list; (* send time minus scheduled time *)
  rejected : int;
}

let run_load ~port ~(jobs : job array) ~drain =
  let t_start = now () +. 0.05 in
  let sender_done = ref false in
  let late = ref [] and rejected = ref 0 in
  let sender () =
    let fd = Server.Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
    Array.iteri
      (fun i j ->
        let due = t_start +. j.sched in
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait;
        let t0 = now () in
        late := (t0 -. due) :: !late;
        let resp =
          Proto.Submit
            { tenant = j.tenant; job = j.name; runs = j.runs; seed = j.jseed;
              deadline = 0.0; source = j.source }
          |> rpc fd
        in
        let t1 = now () in
        j.acked <- t1;
        Trace.add ~tid:1 ~group:i "net.submit_rpc" t0 t1;
        match resp with
        | Proto.Accepted _ -> j.accepted <- true
        | _ ->
            incr rejected;
            j.final <- "rejected")
      jobs;
    sender_done := true
  in
  let last_due = Array.fold_left (fun m j -> Float.max m j.sched) 0.0 jobs in
  let hard_deadline = t_start +. last_due +. drain in
  let poller () =
    let fd = Server.Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
    let live () = List.filter (fun j -> j.accepted && j.final = "") (Array.to_list jobs) in
    let rec loop () =
      let pending = live () in
      if (!sender_done && pending = []) || now () > hard_deadline then ()
      else begin
        (* one sweep per 5 ms: fine enough for 5-150 ms jobs
           without the poller competing with the server for a core *)
        Thread.delay 0.005;
        List.iter
          (fun j ->
            let t0 = now () in
            let resp = rpc fd (Proto.Status { tenant = j.tenant; job = j.name }) in
            let t1 = now () in
            Trace.add ~tid:2 ~group:0 "net.status_rpc" t0 t1;
            match resp with
            | Proto.Job_status { state = "running"; _ } ->
                if j.t_running = 0.0 then j.t_running <- t1
            | Proto.Job_status { state = "queued"; _ } -> ()
            | Proto.Job_status { state = "done"; _ } ->
                j.t_done <- t1;
                j.final <- "done"
            | Proto.Job_status { state; _ } -> j.final <- state
            | _ -> j.final <- "bad-status")
          pending;
        loop ()
      end
    in
    loop ()
  in
  let ts = Thread.create sender () and tp = Thread.create poller () in
  Thread.join ts;
  Thread.join tp;
  Array.iteri
    (fun i j ->
      if j.accepted && j.t_running > 0.0 then
        Trace.add ~tid:3 ~group:i "net.queue_wait" j.acked j.t_running)
    jobs;
  let t_end = Array.fold_left (fun m j -> Float.max m j.t_done) t_start jobs in
  { t_start; t_end; late = !late; rejected = !rejected }

(* ---------------- output oracle ---------------- *)

(* Expected results: for every (demo, runs, seed) in the mix, the report
   of an in-process Service.batch of the same source, seed and runs, and
   the simulated Mcycles of its instrumented runs. *)
let expected ~dir (jobs : job array) =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun j ->
      let key = (j.demo, j.runs, j.jseed) in
      if not (Hashtbl.mem tbl key) then begin
        let d = Filename.concat dir (Printf.sprintf "oracle-%s-%d-%d" j.demo j.runs j.jseed) in
        rm_rf d;
        let report =
          match
            Service.batch ~fsync:false ~cost_model ~resume:false ~runs:j.runs ~seed:j.jseed
              ~dir:d j.source
          with
          | Ok (Service.Completed { report; _ }) -> Some report
          | _ -> None
        in
        rm_rf d;
        let p =
          Pipeline.profile_smart ~cost_model ~runs:j.runs ~seed:j.jseed
            (Pipeline.create (S89_frontend.Program.of_source j.source))
        in
        Hashtbl.replace tbl key (report, Ops.mcycles p)
      end)
    jobs;
  tbl

(* fetch every finished job's result and compare it with the expected one *)
let check_results ~port ~expected (jobs : job array) =
  let fd = Server.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Server.Client.close fd) @@ fun () ->
  Array.map
    (fun j ->
      if j.final <> "done" then (false, 0.0)
      else
        let expect, mc = Hashtbl.find expected (j.demo, j.runs, j.jseed) in
        match rpc fd (Proto.Result { tenant = j.tenant; job = j.name }) with
        | Proto.Job_result { state = "done"; body } -> (Some body = expect, mc)
        | _ -> (false, 0.0))
    jobs

(* ---------------- in-process job cost (traced runs) ---------------- *)

(* Service.batch as the server runs it (fsync on), then — traced — a
   replay of the calls it wraps: frontend, analysis, placement, one
   instrumented run + reconstruction + WAL append per run, the estimate
   and report, and the server's three durable writes. *)
let service_job ~dir j =
  let d = Filename.concat dir "job" in
  rm_rf d;
  let ok, w =
    Trace.span_id "core.service_batch" (fun () ->
        match
          Service.batch ~fsync:true ~cost_model ~resume:true ~runs:j.runs ~seed:j.jseed
            ~dir:(Filename.concat d "store") j.source
        with
        | Ok (Service.Completed _) -> true
        | _ -> false)
  in
  Trace.replay ~wraps:w (fun () ->
      let r = Filename.concat dir "replay" in
      rm_rf r;
      mkdir_p r;
      let prog = Ops.frontend j.source in
      let t = Ops.analysis prog in
      let plan = Ops.placement t in
      let store = Store.open_ ~fsync:true ~dir:(Filename.concat r "store") () in
      for k = 0 to j.runs - 1 do
        let counters = Ops.instrumented_run ~cost_model ~plan ~seed:(j.jseed + k) prog in
        let totals =
          Ops.span "profiling.reconstruct" (fun () -> Reconstruct.totals plan ~counters)
        in
        Ops.span "store.append_run" (fun () ->
            Store.append_run store ~seed:(j.jseed + k) totals)
      done;
      let est = Ops.estimate_totals ~cost_model t (Database.proc_totals (Store.database store)) in
      let report = Ops.report est in
      Store.close store;
      List.iter
        (fun (f, content) ->
          Ops.span "store.write_atomic" (fun () ->
              Store.write_atomic ~fsync:true (Filename.concat r f) content))
        [ ("source.mf", j.source); ("job.meta", j.name ^ "\n"); ("report", report) ];
      rm_rf r);
  rm_rf d;
  ok
