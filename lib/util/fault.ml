(* Seeded fault injection (chaos testing for the analysis service).

   A fault spec is a comma-separated list of sites with probabilities,
   normally taken from the S89_FAULTS environment variable:

       S89_FAULTS="worker_raise:0.05,slow_item:0.02@0.005,db_truncate:0.5,seed:7"

   - worker_raise:P     pool/chunked items raise [Injected] with prob. P
   - slow_item:P[@SECS] pool/chunked items sleep SECS (default 1ms) with prob. P
   - analysis_raise:P   per-procedure analysis raises [Injected] with prob. P
   - db_truncate:P      Database.save writes a truncated file with prob. P
   - wal_torn:P         Wal.append writes a torn half-record, then dies
   - dir_fsync:P        a directory fsync (the durability point of the
                        store's atomic-rename and WAL-epoch commits)
                        raises [Injected] instead of syncing
   - enospc:P           a durable write (WAL append, snapshot commit,
                        durable-ack file) fails with ENOSPC before any
                        byte reaches disk
   - eio:P              same sites fail with EIO (media error)
   - seed:N             base seed of the decision stream (default 1)

   Decisions are PURE FUNCTIONS of (seed, site, key, attempt): whether
   item 17 of a pool map fails does not depend on scheduling, domain
   count, or wall time — so a fault-injected run is exactly reproducible
   from the spec string.  [attempt] lets retry loops re-ask: with P < 1 a
   retried item usually succeeds, with P = 1 it never does.

   This module only DECIDES; the injection points (Pool, Chunked,
   Analysis, Database) act on the decisions (sleep, raise, truncate), so
   the module stays dependency-free. *)

type site =
  | Worker_raise
  | Slow_item
  | Analysis_raise
  | Db_truncate
  | Wal_torn
  | Dir_fsync
  | Enospc
  | Eio
  | Backoff

exception Injected of string
exception Bad_spec of string

type spec = {
  seed : int;
  worker_raise : float;
  slow_item : float;
  slow_seconds : float;
  analysis_raise : float;
  db_truncate : float;
  wal_torn : float;
  dir_fsync : float;
  enospc : float;
  eio : float;
}

let default_slow_seconds = 0.001

let empty =
  { seed = 1; worker_raise = 0.0; slow_item = 0.0;
    slow_seconds = default_slow_seconds; analysis_raise = 0.0; db_truncate = 0.0;
    wal_torn = 0.0; dir_fsync = 0.0; enospc = 0.0; eio = 0.0 }

let with_seed seed = { empty with seed }
let seed spec = spec.seed

(* ---------------- parsing ---------------- *)

let parse s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go spec = function
    | [] -> Ok spec
    | part :: rest -> (
        match String.index_opt part ':' with
        | None -> err "S89_FAULTS: missing ':' in %S" part
        | Some i -> (
            let key = String.sub part 0 i in
            let v = String.sub part (i + 1) (String.length part - i - 1) in
            let prob_of v =
              match float_of_string_opt v with
              | Some p when p >= 0.0 && p <= 1.0 -> Ok p
              | _ -> Result.Error ()
            in
            match key with
            | "seed" -> (
                match int_of_string_opt v with
                | Some n -> go { spec with seed = n } rest
                | None -> err "S89_FAULTS: seed wants an integer, got %S" v)
            | "worker_raise" -> (
                match prob_of v with
                | Ok p -> go { spec with worker_raise = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "analysis_raise" -> (
                match prob_of v with
                | Ok p -> go { spec with analysis_raise = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "db_truncate" -> (
                match prob_of v with
                | Ok p -> go { spec with db_truncate = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "wal_torn" -> (
                match prob_of v with
                | Ok p -> go { spec with wal_torn = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "dir_fsync" -> (
                match prob_of v with
                | Ok p -> go { spec with dir_fsync = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "enospc" -> (
                match prob_of v with
                | Ok p -> go { spec with enospc = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "eio" -> (
                match prob_of v with
                | Ok p -> go { spec with eio = p } rest
                | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | "slow_item" -> (
                (* optional @SECS suffix: slow_item:0.1@0.02 *)
                let v, secs =
                  match String.index_opt v '@' with
                  | None -> (v, spec.slow_seconds)
                  | Some j ->
                      ( String.sub v 0 j,
                        match
                          float_of_string_opt
                            (String.sub v (j + 1) (String.length v - j - 1))
                        with
                        | Some s when s >= 0.0 -> s
                        | _ -> -1.0 )
                in
                if secs < 0.0 then err "S89_FAULTS: bad duration in %S" part
                else
                  match prob_of v with
                  | Ok p -> go { spec with slow_item = p; slow_seconds = secs } rest
                  | Error () -> err "S89_FAULTS: bad probability %S for %s" v key)
            | _ -> err "S89_FAULTS: unknown fault site %S" key))
  in
  go empty parts

(* ---------------- the active spec ----------------

   Parsed from S89_FAULTS on first use (a malformed value is a hard
   [Bad_spec]: silently ignoring a typo'd fault spec would fake green
   chaos runs — lazily, so the error surfaces inside a guarded caller
   rather than during module initialization), overridable from tests via
   [set]/[with_spec]. *)

let env_spec : spec option Lazy.t =
  lazy
    (match Sys.getenv_opt "S89_FAULTS" with
    | None | Some "" -> None
    | Some s -> (
        match parse s with
        | Ok spec -> Some spec
        | Error msg -> raise (Bad_spec msg)))

(* [None]: no override, fall back to the environment.  Atomic because
   the override can be flipped at runtime (tests, the serve signal
   toggle) while worker domains are consulting it. *)
let override : spec option option Atomic.t = Atomic.make None

let active () =
  match Atomic.get override with Some s -> s | None -> Lazy.force env_spec

let set spec = Atomic.set override (Some spec)

let with_spec spec f =
  let saved = Atomic.get override in
  Atomic.set override (Some spec);
  Fun.protect ~finally:(fun () -> Atomic.set override saved) f

(* ---------------- decisions ---------------- *)

(* splitmix64 finalizer: decorrelates (seed, site, key, attempt) into a
   uniform 64-bit hash; same mixer as S89_util.Prng *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let site_tag = function
  | Worker_raise -> 0x5741L
  | Slow_item -> 0x534cL
  | Analysis_raise -> 0x414eL
  | Db_truncate -> 0x4442L
  | Wal_torn -> 0x574cL
  | Dir_fsync -> 0x4446L
  | Enospc -> 0x4e53L
  | Eio -> 0x4549L
  | Backoff -> 0x424fL

let uniform spec site ~key ~attempt =
  let h = Int64.of_int spec.seed in
  let h = mix64 (Int64.add h (site_tag site)) in
  let h = mix64 (Int64.add h (Int64.of_int key)) in
  let h = mix64 (Int64.add h (Int64.of_int attempt)) in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let prob spec = function
  | Worker_raise -> spec.worker_raise
  | Slow_item -> spec.slow_item
  | Analysis_raise -> spec.analysis_raise
  | Db_truncate -> spec.db_truncate
  | Wal_torn -> spec.wal_torn
  | Dir_fsync -> spec.dir_fsync
  | Enospc -> spec.enospc
  | Eio -> spec.eio
  (* [Backoff] never fires by itself: its decision stream is only sampled
     via [uniform] for deterministic backoff jitter *)
  | Backoff -> 0.0

let fires spec site ~key ~attempt =
  let p = prob spec site in
  p > 0.0 && uniform spec site ~key ~attempt < p

(* key for string-keyed sites (procedure names, database paths): FNV-1a *)
let string_key s = Int64.to_int (Int64.logand (Codec.fnv64 s) 0x3fffffffffffffffL)

let slow_seconds spec = spec.slow_seconds

(* retries granted to injection points that absorb [Injected] failures
   (the pool re-runs a faulted item up to this many extra times) *)
let max_retries = 3

let injected_msg site ~key =
  Printf.sprintf "injected fault (%s, key %d)"
    (match site with
    | Worker_raise -> "worker_raise"
    | Slow_item -> "slow_item"
    | Analysis_raise -> "analysis_raise"
    | Db_truncate -> "db_truncate"
    | Wal_torn -> "wal_torn"
    | Dir_fsync -> "dir_fsync"
    | Enospc -> "enospc"
    | Eio -> "eio"
    | Backoff -> "backoff")
    key

let is_injected = function Injected _ -> true | _ -> false
