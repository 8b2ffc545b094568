(** Discrete-event simulator for a parallel loop on P processors: workers
    grab chunks from a shared dispenser (overhead [h] per grab) and run
    iterations drawn from the iteration-time distribution.  The makespan
    is the quantity the §5 chunk-size choice trades off. *)

module Stats = S89_util.Stats

type result = {
  makespan : float;  (** max worker finish time *)
  total_work : float;  (** sum of iteration times *)
  total_overhead : float;  (** chunks × h *)
  chunks_dispatched : int;
  worker_busy : float array;  (** per-worker busy time incl. overhead *)
}

(** Simulate one run.  Raises [Invalid_argument] for negative [n] or
    non-positive [p]. *)
val run : ?seed:int -> n:int -> p:int -> h:float -> dist:Dist.t -> Chunk.strategy -> result

(** Makespan statistics over several seeded runs (seeds [1..seeds]),
    folded in seed order: the result is determined by the seed list
    alone. *)
val run_avg :
  ?seeds:int ->
  n:int ->
  p:int ->
  h:float ->
  dist:Dist.t ->
  Chunk.strategy ->
  Stats.t
