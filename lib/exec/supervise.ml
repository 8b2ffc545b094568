(* Supervision for keyed work: restart-with-backoff and circuit
   breaking (with half-open recovery probes).  The TCP service and
   [Service.batch] run their work under these policies:

   - [protect] runs one keyed piece of work and, on failure, restarts it
     up to [max_restarts] times with exponential backoff.  The backoff
     delays carry DETERMINISTIC jitter: the jitter draws come from the
     same (seed, site, key, attempt) decision stream as fault injection
     ([Fault.uniform] on the [Backoff] site), so a supervised run under
     [S89_FAULTS] replays the exact same schedule every time;
   - a per-key CIRCUIT BREAKER counts protect-level failures (i.e.
     failures that survived all restarts); at [breaker_threshold] the
     key's circuit opens and further work for it fails fast with
     [Circuit_open] instead of burning retries.  An open circuit stays
     open for [cooldown] seconds (infinite by default — the pre-PR-9
     behavior), after which the next [protect] call is admitted as a
     single HALF-OPEN probe: one attempt, no restarts.  A successful
     probe closes the circuit ([Closed] event); a failed probe re-opens
     it for another cooldown window.  At most one probe is in flight per
     key, so a thundering herd of tenants cannot stampede a recovering
     resource.  The pipeline maps an open circuit to its ANA003
     opaque-callee degradation path, a resumed batch pre-trips the keys
     its journal recorded as failed, and the TCP service keys breakers
     by TENANT so load-shedding is per tenant, never global.

   Events are plain variants (no diagnostics dependency); service layers
   convert them to SRV diagnostics at their boundary.  All breaker state
   transitions are mutex-guarded: trips may arrive concurrently from
   worker domains serving different tenants. *)

module Fault = S89_util.Fault

type policy = {
  max_restarts : int;
  base_backoff : float;
  max_backoff : float;
  jitter : float;
  breaker_threshold : int;
  cooldown : float;
  seed : int;
}

let default_policy =
  { max_restarts = 2; base_backoff = 0.001; max_backoff = 0.05; jitter = 0.1;
    breaker_threshold = 3; cooldown = infinity; seed = 1 }

type event =
  | Restarted of { key : string; attempt : int; delay : float; error : string }
  | Tripped of { key : string; failures : int }
  | Rejected_open of { key : string }
  | Half_opened of { key : string }
  | Closed of { key : string }

type breaker_state =
  | Breaker_closed
  | Breaker_open of { remaining : float }
  | Breaker_half_open

exception Circuit_open of string

type t = {
  policy : policy;
  on_event : event -> unit;
  clock : unit -> float;
  mu : Mutex.t;
  failures : (string, int) Hashtbl.t; (* consecutive protect-level failures *)
  tripped : (string, float) Hashtbl.t; (* key -> opened_at (clock time) *)
  probing : (string, unit) Hashtbl.t; (* keys with a half-open probe in flight *)
}

let create ?(policy = default_policy) ?(on_event = fun _ -> ())
    ?(clock = Unix.gettimeofday) () =
  if policy.max_restarts < 0 then
    invalid_arg "Supervise.create: max_restarts must be >= 0";
  if policy.breaker_threshold <= 0 then
    invalid_arg "Supervise.create: breaker_threshold must be positive";
  if not (policy.cooldown >= 0.0) then
    invalid_arg "Supervise.create: cooldown must be non-negative";
  { policy; on_event; clock; mu = Mutex.create (); failures = Hashtbl.create 16;
    tripped = Hashtbl.create 16; probing = Hashtbl.create 16 }

let policy t = t.policy

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* the jitter stream: the active S89_FAULTS spec if any (so chaos runs
   replay their schedules), else a spec synthesized from the policy seed *)
let jitter_spec policy =
  match Fault.active () with Some sp -> sp | None -> Fault.with_seed policy.seed

let backoff_schedule policy ~key =
  let sp = jitter_spec policy in
  List.init policy.max_restarts (fun attempt ->
      let base = policy.base_backoff *. (2.0 ** float_of_int attempt) in
      let d = Float.min policy.max_backoff base in
      d *. (1.0 +. policy.jitter *. Fault.uniform sp Fault.Backoff ~key ~attempt))

let breaker_open t ~key = locked t (fun () -> Hashtbl.mem t.tripped key)

let breaker_state t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tripped key with
      | None -> Breaker_closed
      | Some opened_at ->
          let age = t.clock () -. opened_at in
          if age >= t.policy.cooldown then Breaker_half_open
          else Breaker_open { remaining = t.policy.cooldown -. age })

let trip t ~key =
  locked t (fun () ->
      Hashtbl.replace t.failures key t.policy.breaker_threshold;
      Hashtbl.replace t.tripped key (t.clock ()))

let failure_count t ~key =
  locked t (fun () -> Option.value ~default:0 (Hashtbl.find_opt t.failures key))

(* a success closes the key's accounting; a failure bumps it and may trip
   the breaker — the [Tripped] event fires exactly once per opening *)
let record t ~key ok =
  let tripped_now =
    locked t (fun () ->
        if ok then begin
          Hashtbl.remove t.failures key;
          Hashtbl.remove t.tripped key;
          None
        end
        else begin
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.failures key) in
          Hashtbl.replace t.failures key n;
          if n >= t.policy.breaker_threshold && not (Hashtbl.mem t.tripped key)
          then begin
            Hashtbl.replace t.tripped key (t.clock ());
            Some n
          end
          else None
        end)
  in
  match tripped_now with
  | Some n -> t.on_event (Tripped { key; failures = n })
  | None -> ()

(* gate decision for one protect call, under the lock: an open circuit
   either rejects, or — once [cooldown] has elapsed and no other probe
   is in flight — admits exactly one half-open probe *)
let gate t ~key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tripped key with
      | None -> `Run
      | Some opened_at ->
          if
            t.clock () -. opened_at >= t.policy.cooldown
            && not (Hashtbl.mem t.probing key)
          then begin
            Hashtbl.replace t.probing key ();
            `Probe
          end
          else `Reject)

let close_after_probe t ~key =
  locked t (fun () ->
      Hashtbl.remove t.probing key;
      Hashtbl.remove t.failures key;
      Hashtbl.remove t.tripped key);
  t.on_event (Closed { key })

let reopen_after_probe t ~key =
  locked t (fun () ->
      Hashtbl.remove t.probing key;
      Hashtbl.replace t.failures key
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.failures key));
      Hashtbl.replace t.tripped key (t.clock ()))

let protect t ~key f =
  match gate t ~key with
  | `Reject ->
      t.on_event (Rejected_open { key });
      raise (Circuit_open key)
  | `Probe -> (
      (* single attempt, no restarts: a failing probe must not burn the
         full retry schedule against a resource that is still down *)
      t.on_event (Half_opened { key });
      match f () with
      | v ->
          close_after_probe t ~key;
          v
      | exception e ->
          reopen_after_probe t ~key;
          raise e)
  | `Run ->
      let schedule = backoff_schedule t.policy ~key:(Fault.string_key key) in
      let rec go attempt delays =
        match f () with
        | v ->
            record t ~key true;
            v
        (* a malformed fault spec is a configuration error, never a
           transient worker failure: restarting it would loop on the same
           [Bad_spec] and hide the typo *)
        | exception (Fault.Bad_spec _ as e) -> raise e
        | exception e -> (
            match delays with
            | delay :: rest ->
                t.on_event
                  (Restarted { key; attempt; delay; error = Printexc.to_string e });
                if delay > 0.0 then Unix.sleepf delay;
                go (attempt + 1) rest
            | [] ->
                record t ~key false;
                raise e)
      in
      go 0 schedule
