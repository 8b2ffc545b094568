(** Implementations of the MF77 intrinsics (ABS, SQRT, MOD, MIN/MAX
    families, conversions, SIGN, and the profiling-workload PRNG hooks
    RAND/IRAND). *)

module Prng = S89_util.Prng

(** [apply rng name args].  Raises {!Value.Runtime_error} on bad
    arguments or domain errors (e.g. [SQRT] of a negative). *)
val apply : Prng.t -> string -> Value.t list -> Value.t
