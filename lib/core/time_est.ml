(* Average execution times (§4): one bottom-up pass over the FCDG.

     TIME(u) = COST(u) + Σ_{(u,v,l) ∈ E_f} FREQ(u,l) × TIME(v)

   Rule 1's assumption: a node's execution time is independent of which
   conditional branch caused it to execute, so one average TIME(v) serves
   all FCDG parents of v.  Rule 2 (calls) is handled by the caller passing
   [callee_time]; COST(u) here already includes the callee contributions
   when computed by Interproc. *)

module Analysis = S89_profiling.Analysis
module Freq = S89_profiling.Freq
open S89_cdg

type t = {
  time : float array; (* indexed by ECFG node *)
  cost : float array;
}

let total_time t analysis = t.time.(Fcdg.start analysis.Analysis.fcdg)

let compute (analysis : Analysis.t) (freq : Freq.t) ~(cost : float array) : t =
  let fcdg = analysis.Analysis.fcdg in
  let n = Array.length cost in
  let time = Array.make n 0.0 in
  let g = Fcdg.graph fcdg in
  Array.iter
    (fun u ->
      let acc = ref cost.(u) in
      for k = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
        acc := !acc +. (Freq.freq freq (u, g.succ_lbl.(k)) *. time.(g.succ_dst.(k)))
      done;
      time.(u) <- !acc)
    (Fcdg.bottom_up fcdg);
  { time; cost }

let time t u = t.time.(u)
let cost t u = t.cost.(u)
