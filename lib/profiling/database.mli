(** Program database (the PTRAN-style store): accumulates [TOTAL_FREQ]
    sums over multiple executions — frequencies only ever enter the
    estimator as ratios, so sums work directly (§3). *)

type cond = Analysis.cond

type t = {
  mutable runs : int;
  sums : (string, (cond, int) Hashtbl.t) Hashtbl.t;
      (** per procedure, so {!proc_totals} reads one procedure's rows *)
}

val create : unit -> t

(** Number of accumulated runs. *)
val runs : t -> int

(** Fold one run's (or one reconstruction's) per-procedure totals in. *)
val accumulate : t -> (string, (cond, int) Hashtbl.t) Hashtbl.t -> unit

(** Accumulated totals of one procedure, ready for {!Freq.compute}. *)
val proc_totals : t -> string -> (cond, int) Hashtbl.t

(** Add [b]'s runs and sums into [a]. *)
val merge : into:t -> t -> unit

(** A database file could not be loaded: [line] is the 1-based offending
    line (0 = the file itself, e.g. unreadable or empty). *)
exception Load_error of { line : int; msg : string }

(** Write the line-oriented text format: a [s89-profile-db 2] magic line,
    a [run-count N] line, one [total <proc> <node> <label> <sum>] line
    per condition, and a trailing [checksum] line (FNV-1a/64 of all
    preceding bytes) that lets {!load} detect truncation/corruption. *)
val save : t -> string -> unit

(** The exact byte image {!save} writes (checksum line included) —
    deterministic ([total] rows sorted), used by the WAL store as its
    snapshot encoding. *)
val to_string : t -> string

(** Parse one database label token ({!S89_cfg.Label.to_string} form) —
    shared with the WAL store's record rows. *)
val label_of_string : string -> S89_cfg.Label.t option

(** Load a database written by {!save} (or the header-less version-1
    format, which has no checksum).  Raises {!Load_error} on unreadable,
    truncated, corrupt or malformed input; [~repair:true] never raises on
    malformed content — the valid prefix rows are kept and the rest
    dropped. *)
val load : ?repair:bool -> string -> t
