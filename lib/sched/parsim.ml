(* Discrete-event simulator for a parallel loop on P processors.

   Workers repeatedly grab the next chunk of iterations from a shared
   dispenser (paying overhead h per grab), execute the iterations with
   times drawn from the iteration-time distribution, and finish when the
   dispenser is empty.  The makespan (max worker finish time) is the
   quantity the chunk-size choice trades off: fewer chunks = less overhead
   but worse load balance when iteration times vary.

   This is the experimental substrate for the §5 application: it lets the
   benches show that the Kruskal–Weiss chunk computed from the estimator's
   TIME/VAR beats both N/P splitting (high variance) and size-1
   self-scheduling (high overhead). *)

module Prng = S89_util.Prng
module Stats = S89_util.Stats

type result = {
  makespan : float;
  total_work : float; (* sum of iteration times *)
  total_overhead : float; (* chunks × h *)
  chunks_dispatched : int;
  worker_busy : float array; (* per-worker busy time incl. overhead *)
}

let run ?(seed = 1) ~n ~p ~h ~(dist : Dist.t) (strategy : Chunk.strategy) : result =
  if n < 0 || p <= 0 then invalid_arg "Parsim.run";
  let rng = Prng.create ~seed in
  (* index-derived worker streams: stream i is a function of (seed, i)
     only, so the simulation is reproducible for a fixed seed whatever
     order the streams are created in *)
  let worker_rngs = Array.init p (Prng.split rng) in
  let remaining = ref n in
  let chunks = ref 0 in
  let sigma = Dist.std_dev dist in
  let next_chunk () =
    if !remaining = 0 then None
    else begin
      let k =
        match strategy with
        | Chunk.Guided -> max 1 ((!remaining + p - 1) / p)
        | s -> Chunk.initial_chunk s ~n ~p ~h ~sigma
      in
      let k = min k !remaining in
      remaining := !remaining - k;
      incr chunks;
      Some k
    end
  in
  (* event-driven: the idle worker with the smallest clock grabs next *)
  let clock = Array.make p 0.0 in
  let busy = Array.make p 0.0 in
  let total_work = ref 0.0 in
  let continue_ = ref true in
  while !continue_ do
    (* find earliest-free worker *)
    let w = ref 0 in
    for i = 1 to p - 1 do
      if clock.(i) < clock.(!w) then w := i
    done;
    match next_chunk () with
    | None -> continue_ := false
    | Some k ->
        let t = ref h in
        for _ = 1 to k do
          let it = Dist.sample worker_rngs.(!w) dist in
          t := !t +. it;
          total_work := !total_work +. it
        done;
        clock.(!w) <- clock.(!w) +. !t;
        busy.(!w) <- busy.(!w) +. !t
  done;
  let makespan = Array.fold_left Float.max 0.0 clock in
  {
    makespan;
    total_work = !total_work;
    total_overhead = float_of_int !chunks *. h;
    chunks_dispatched = !chunks;
    worker_busy = busy;
  }

(* Average makespan over several seeds: replication s is seeded with s
   and nothing else, so the statistics are a function of [1..seeds]. *)
let run_avg ?(seeds = 10) ~n ~p ~h ~dist strategy : Stats.t =
  let st = Stats.create () in
  for s = 1 to seeds do
    Stats.add st (run ~seed:s ~n ~p ~h ~dist strategy).makespan
  done;
  st
