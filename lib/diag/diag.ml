(* Structured diagnostics: the one error currency of the whole system.

   Every layer (frontend, analyses, estimator, VM, profiling, CLI) still
   raises its historical exceptions for programmatic callers, but anything
   that crosses a service boundary — the CLI, the pipeline's graceful
   degradation, the fuzzer's triage — is converted into a [t]: a severity,
   a stable machine-readable code, an optional procedure/source location,
   a human message and an optional hint.

   Codes are stable identifiers (catalogued in docs/ERRORS.md); messages
   are free-form and may change.  The code's family determines the CLI
   exit code, so scripts can dispatch on either. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;
  proc : string option; (* procedure the diagnostic concerns, if known *)
  line : int option; (* 1-based source line, if known *)
  message : string;
  hint : string option;
}

let v ?(severity = Error) ?proc ?line ?hint ~code message =
  { severity; code; proc; line; message; hint }

let error ?proc ?line ?hint ~code message =
  v ~severity:Error ?proc ?line ?hint ~code message

let warning ?proc ?line ?hint ~code message =
  v ~severity:Warning ?proc ?line ?hint ~code message

let info ?proc ?line ?hint ~code message =
  v ~severity:Info ?proc ?line ?hint ~code message

let errorf ?proc ?line ?hint ~code fmt =
  Format.kasprintf (error ?proc ?line ?hint ~code) fmt

let warningf ?proc ?line ?hint ~code fmt =
  Format.kasprintf (warning ?proc ?line ?hint ~code) fmt

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let is_error d = d.severity = Error

(* ---------------- exit codes ----------------

   The CLI contract (docs/ERRORS.md): 0 success, 2 usage/IO, 3
   parse/sema/lowering, 4 analysis/estimation, 5 runtime.  The family is
   the code's alphabetic prefix, so new codes inherit their family's exit
   code automatically. *)

let exit_io = 2
let exit_frontend = 3
let exit_analysis = 4
let exit_runtime = 5

let family d =
  let n = String.length d.code in
  let rec alpha i = if i < n && d.code.[i] >= 'A' && d.code.[i] <= 'Z' then alpha (i + 1) else i in
  String.sub d.code 0 (alpha 0)

let exit_code d =
  match family d with
  | "IO" | "DB" | "CLI" | "MEMO" -> exit_io
  | "LEX" | "PAR" | "SEM" | "LOW" -> exit_frontend
  | "ANA" | "EST" -> exit_analysis
  | "RUN" | "FLT" | "SRV" | "NET" -> exit_runtime
  | _ -> exit_io

(* ---------------- printing ---------------- *)

(* one line: `error[LEX001] PROC:12: message (hint)` — the format the CLI
   prints on stderr and the fuzzer records in crash artifacts *)
let pp fmt d =
  Fmt.pf fmt "%s[%s]" (severity_string d.severity) d.code;
  (match (d.proc, d.line) with
  | Some p, Some l -> Fmt.pf fmt " %s:%d:" p l
  | Some p, None -> Fmt.pf fmt " %s:" p
  | None, Some l -> Fmt.pf fmt " line %d:" l
  | None, None -> Fmt.pf fmt ":");
  Fmt.pf fmt " %s" d.message;
  match d.hint with None -> () | Some h -> Fmt.pf fmt " (hint: %s)" h

let to_string d = Fmt.str "%a" pp d

(* ---------------- result helpers ---------------- *)

type 'a r = ('a, t) result

let get_ok = function
  | Ok v -> v
  | Error d -> failwith (to_string d)

let errors ds = List.filter is_error ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds
