(* The record codec under every checksummed format in the repository.

   One hash — FNV-1a/64, printed as 16 lowercase hex digits — and two
   checksum shapes:

   - a HEADER FRAME, binary-safe and self-delimiting:

         <magic> <payload-bytes> <fnv64-hex>\n<payload>

     The WAL (magic [rec]) adds a trailing newline and recovers the
     longest valid prefix of a log image; the wire protocol (magic
     [s89]) caps the payload size and reads its frames from a socket.

   - a TRAILER, for line-oriented text files:

         <body lines...>
         checksum <fnv64-hex>\n

     where the hash covers every byte before the trailer line.  The
     profile database (v2) uses it.

   Decoders are total: arbitrary bytes come back as [Error], never as an
   exception.  Encoders never produce an image their decoder rejects —
   a payload over the frame cap raises {!Too_large} before any byte is
   written. *)

let fnv64 (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

let fnv64_hex s = Printf.sprintf "%016Lx" (fnv64 s)

(* a checksum field matches when it is exactly the 16-digit hash, in
   either case *)
let sum_ok hex payload =
  String.length hex = 16 && String.lowercase_ascii hex = fnv64_hex payload

(* ---------------- header frames ---------------- *)

exception Too_large of { size : int; cap : int }

let frame ?max_len ?(eol = false) ~magic payload =
  let n = String.length payload in
  (match max_len with
  | Some cap when n > cap -> raise (Too_large { size = n; cap })
  | _ -> ());
  String.concat ""
    [ Printf.sprintf "%s %d %016Lx\n" magic n (fnv64 payload); payload;
      (if eol then "\n" else "") ]

(* [line] is the header without its newline *)
let parse_header ?max_len ~magic line =
  match String.split_on_char ' ' line with
  | [ m; len; hex ] when m = magic -> (
      match int_of_string_opt len with
      | Some len
        when len >= 0
             && (match max_len with Some cap -> len <= cap | None -> true) ->
          Ok (len, hex)
      | _ -> Error "malformed frame header")
  | _ -> Error "malformed frame header"

let checked hex payload =
  if sum_ok hex payload then Ok payload else Error "frame checksum mismatch"

let decode_at ?max_len ?(eol = false) ~magic s pos =
  match String.index_from_opt s pos '\n' with
  | None -> Error "missing frame header terminator"
  | Some nl -> (
      match parse_header ?max_len ~magic (String.sub s pos (nl - pos)) with
      | Error _ as e -> e
      | Ok (len, hex) ->
          let start = nl + 1 in
          let next = start + len + if eol then 1 else 0 in
          if len > String.length s - start || next > String.length s then
            Error "frame length mismatch"
          else if eol && s.[start + len] <> '\n' then
            Error "missing record terminator"
          else
            Result.map
              (fun payload -> (payload, next))
              (checked hex (String.sub s start len)))

let decode ~max_len ~magic s =
  match decode_at ~max_len ~magic s 0 with
  | Ok (payload, next) when next = String.length s -> Ok payload
  | Ok _ -> Error "frame length mismatch"
  | Error _ as e -> e

let valid_prefix ~magic s =
  let rec go pos acc =
    match decode_at ~eol:true ~magic s pos with
    | Ok (payload, next) -> go next (payload :: acc)
    | Error _ -> (List.rev acc, pos)
  in
  go 0 []

(* a header is at most ~40 bytes; reading it one byte at a time never
   consumes a payload byte, and the bound stops a newline-free stream *)
let read ~max_len ~magic ~input_char ~really_input () =
  let buf = Buffer.create 32 in
  let rec header () =
    if Buffer.length buf > 64 then Error "frame header too long"
    else
      match input_char () with
      | '\n' -> Ok (Buffer.contents buf)
      | c ->
          Buffer.add_char buf c;
          header ()
  in
  match Result.bind (header ()) (parse_header ~max_len ~magic) with
  | Error _ as e -> e
  | Ok (len, hex) -> checked hex (really_input len)

(* ---------------- trailers ---------------- *)

let seal body = body ^ "checksum " ^ fnv64_hex body ^ "\n"

(* lines as [input_line] returns them: a final newline ends the last
   line rather than starting an empty one *)
let lines s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let trailer_sum line =
  match String.split_on_char ' ' (String.trim line) with
  | [ "checksum"; hex ] -> Some hex
  | _ -> None

let unseal ~what s =
  let rec scan lineno offset before = function
    | [] ->
        (List.rev before, Error (lineno - 1, "missing checksum (truncated file?)"))
    | line :: rest -> (
        match trailer_sum line with
        | None ->
            scan (lineno + 1) (offset + String.length line + 1) (line :: before) rest
        | Some hex ->
            let verdict =
              match List.find_index (fun l -> String.trim l <> "") rest with
              | Some i -> Error (lineno + 1 + i, "content after the checksum line")
              | None when sum_ok hex (String.sub s 0 offset) -> Ok ()
              | None ->
                  Error (lineno, Printf.sprintf "checksum mismatch (corrupt %s?)" what)
            in
            (List.rev before, verdict))
  in
  scan 1 0 [] (lines s)
