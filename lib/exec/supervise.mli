(** Supervision for keyed work: restart-with-backoff (deterministic
    jitter from the {!S89_util.Fault} decision stream) and a per-key
    circuit breaker with half-open recovery probes.  Events are plain
    variants; service layers convert them to SRV diagnostics at their
    boundary. *)

type policy = {
  max_restarts : int;  (** restarts granted beyond the first attempt *)
  base_backoff : float;  (** seconds before restart 0; doubles per restart *)
  max_backoff : float;  (** backoff ceiling, seconds *)
  jitter : float;  (** fractional jitter, e.g. [0.1] = up to +10% *)
  breaker_threshold : int;
      (** consecutive protect-level failures before a key's circuit opens *)
  cooldown : float;
      (** seconds an open circuit stays open before a single half-open
          probe is admitted; [infinity] (the default) = open circuits
          never recover, the pre-PR-9 behavior *)
  seed : int;  (** jitter stream seed when no [S89_FAULTS] spec is active *)
}

(** 2 restarts, 1ms base / 50ms max backoff, 10% jitter, breaker at 3,
    infinite cooldown. *)
val default_policy : policy

type event =
  | Restarted of { key : string; attempt : int; delay : float; error : string }
      (** a keyed piece of work failed and will be retried after [delay] *)
  | Tripped of { key : string; failures : int }
      (** the key's circuit opened (fires once per opening) *)
  | Rejected_open of { key : string }
      (** work was rejected because the key's circuit is open *)
  | Half_opened of { key : string }
      (** cooldown elapsed; this call runs as the key's recovery probe *)
  | Closed of { key : string }
      (** a half-open probe succeeded; the key's circuit closed *)

(** Answer of {!breaker_state} — the submit-time view of a key's
    circuit.  [Breaker_half_open] means cooldown has elapsed and the
    next {!protect} call will run as the recovery probe. *)
type breaker_state =
  | Breaker_closed
  | Breaker_open of { remaining : float }  (** seconds of cooldown left *)
  | Breaker_half_open

(** Raised by {!protect} (without running the work) when the key's
    circuit is open. *)
exception Circuit_open of string

type t

(** Raises [Invalid_argument] for a negative [max_restarts], a
    non-positive [breaker_threshold], or a negative/NaN [cooldown].
    [clock] (default [Unix.gettimeofday]) drives cooldown timing — tests
    inject a fake clock to step breaker transitions deterministically. *)
val create :
  ?policy:policy ->
  ?on_event:(event -> unit) ->
  ?clock:(unit -> float) ->
  unit ->
  t

val policy : t -> policy

(** The deterministic backoff schedule for a key: delay of restart [a] is
    [min max_backoff (base_backoff · 2{^a}) · (1 + jitter · u)] with [u]
    drawn from the (seed, Backoff, key, a) fault decision stream — the
    active [S89_FAULTS] spec's seed if one is set, else [policy.seed].
    Pure: same policy, same spec, same key ⟹ same schedule. *)
val backoff_schedule : policy -> key:int -> float list

(** [protect t ~key f] — run [f], restarting it per the backoff schedule
    on exceptions ([Fault.Bad_spec] excepted: configuration errors are
    never retried).  A failure that survives all restarts is recorded
    against [key]'s breaker and re-raised; a success resets the key.
    Raises {!Circuit_open} immediately when the key's circuit is open.
    Once [policy.cooldown] has elapsed on an open circuit, exactly one
    call is admitted as a half-open probe (single attempt, no restarts):
    success closes the circuit, failure re-opens it for another cooldown
    window; concurrent calls during the probe are still rejected. *)
val protect : t -> key:string -> (unit -> 'a) -> 'a

(** Open [key]'s circuit without running anything — used by a resumed
    batch to pre-trip the procedures its journal recorded as failed. *)
val trip : t -> key:string -> unit

val breaker_open : t -> key:string -> bool

(** The key's circuit as of now (per the supervisor's clock). *)
val breaker_state : t -> key:string -> breaker_state

(** Consecutive recorded failures for a key (0 after a success). *)
val failure_count : t -> key:string -> int
