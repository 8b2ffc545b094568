(** The record codec under every checksummed format: FNV-1a/64 and the
    two checksum shapes built on it.

    - Header frames, [<magic> <len> <fnv64-hex>\n<payload>]: the WAL
      ([rec], plus a trailing newline, longest-valid-prefix recovery)
      and the wire protocol ([s89], size-capped, read from a socket).
    - Trailers, [checksum <fnv64-hex>\n] after a text body: the profile
      database (v2).

    Decoders are total ([Error], never an exception, on arbitrary
    bytes); encoders never write an image their decoder rejects. *)

(** FNV-1a/64.  Also the key of memo fingerprints, store shard
    placement and seeded fault decisions, so its values are fixed:
    [""] is [0xcbf29ce484222325], ["a"] is [0xaf63dc4c8601ec8c]. *)
val fnv64 : string -> int64

(** [fnv64 s] as 16 lowercase hex digits. *)
val fnv64_hex : string -> string

(** {1 Header frames} *)

(** Raised by {!frame} when the payload exceeds [max_len]: the frame
    would be rejected by its own decoder, so it is never built. *)
exception Too_large of { size : int; cap : int }

(** [frame ?max_len ?eol ~magic payload] is
    [<magic> <len> <fnv64-hex>\n<payload>], plus a final newline when
    [eol].  @raise Too_large when [payload] is longer than [max_len]. *)
val frame : ?max_len:int -> ?eol:bool -> magic:string -> string -> string

(** Decode an image holding exactly one frame of at most [max_len]
    payload bytes.  [Error] on a bad header, a length over the cap, a
    short or overlong image, or a checksum mismatch. *)
val decode : max_len:int -> magic:string -> string -> (string, string) result

(** The longest valid prefix of a log of newline-terminated frames (as
    written by [frame ~eol:true]): its payloads in order and the byte
    offset just past the last valid frame. *)
val valid_prefix : magic:string -> string -> string list * int

(** Read one frame of at most [max_len] payload bytes from a byte
    stream: the header through [input_char] (a bounded number of bytes,
    so no payload byte is consumed early), then [really_input len] for
    the payload.  Exceptions raised by the two readers propagate. *)
val read :
  max_len:int ->
  magic:string ->
  input_char:(unit -> char) ->
  really_input:(int -> string) ->
  unit ->
  (string, string) result

(** {1 Trailers} *)

(** [seal body] is [body ^ "checksum <fnv64-hex of body>\n"]. *)
val seal : string -> string

(** The lines of a text image as [input_line] reads them. *)
val lines : string -> string list

(** [unseal ~what image] finds the first [checksum <hex>] line and
    returns the lines before it with the trailer's verdict: [Ok] when
    the hash of every byte before the trailer matches and nothing but
    blank lines follows it, otherwise [Error (line, msg)] with a 1-based
    line number — the trailer line on a mismatch (the message names
    [what]), the first non-blank line after it, or the last line when
    there is no trailer.  Without a trailer, all lines are returned. *)
val unseal : what:string -> string -> string list * (unit, int * string) result
