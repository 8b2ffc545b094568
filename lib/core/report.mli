(** Figure-3-style reports: the FCDG annotated with [<FREQ, TOTAL_FREQ>]
    per edge and [[COST, TIME, E[T²], VAR, STD_DEV]] per node, as text or
    Graphviz DOT. *)

module Program = S89_frontend.Program
module Analysis = S89_profiling.Analysis

(** Human-readable node description (START/STOP/PREHEADER(h)/POSTEXIT(h)
    or the statement text). *)
val describe_node : Analysis.t -> int -> string

(** The whole program: headline TIME/STD_DEV, then every procedure's
    annotated FCDG in topological order, procedures sorted by name and
    separated by a blank line.  One line per node and per edge, no
    trailing newline. *)
val to_string : Interproc.t -> string

(** [to_string] as one [Format] string. *)
val pp : Format.formatter -> Interproc.t -> unit

(** Annotated FCDG as DOT (Figure 3). *)
val fcdg_dot : Interproc.proc_est -> string

(** ECFG as DOT (Figure 2); pseudo edges render dashed. *)
val ecfg_dot : Analysis.t -> string

(** Original CFG as DOT (Figure 1). *)
val cfg_dot : Program.proc -> string

(** gprof-style flat profile (after [GKM82], which the paper cites):
    calls, TIME and STD_DEV per call, cumulative share per procedure. *)
val flat_profile : Format.formatter -> Interproc.t -> unit

(** Per-node estimates as CSV
    ([procedure,node,kind,cost,time,e_t2,var,std_dev,node_freq]). *)
val csv : Interproc.t -> string

(** Statement-level hotspots: self time = COST × NODE_FREQ × relative
    invocations, per main-program run.  Returns the top-[top] rows
    [(procedure, node, description, self_time, share%)]. *)
val hotspots : ?top:int -> Interproc.t -> (string * int * string * float * float) list

val pp_hotspots : ?top:int -> Format.formatter -> Interproc.t -> unit
