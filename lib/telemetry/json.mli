(** Minimal JSON reader + escaper + exact float format shared by every
    artifact the simulator writes and reads back: JSONL traces
    ({!Trace}), metrics, reports, sweep checkpoints, fault and
    adversary plans, chaos reproducers. Number literals are kept raw so
    parsing returns the identical double that was printed — every codec
    is an exact inverse of its printer. Internal support module, not a
    general-purpose JSON library: no streaming, integers bounded by
    [int], [\u] escapes limited to ASCII. *)

val j_float : float -> string
(** Shortest decimal form that parses back to the exact same double. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control chars). *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** raw literal, preserved for exact round-trips *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse a complete JSON value. Raises {!Parse_error} on malformed
    input or trailing bytes, including an unescaped control byte inside
    a string (RFC 8259 §7) or a [\u] escape above 0x7f. Whitespace
    between tokens is allowed. *)

(** Strict accessors: any shape mismatch or missing field raises
    {!Parse_error}. *)

val obj : t -> (string * t) list
val arr : t -> t list
val field : (string * t) list -> string -> t
val str : (string * t) list -> string -> string
val num : (string * t) list -> string -> string
val int : (string * t) list -> string -> int
val float : (string * t) list -> string -> float
val bool : (string * t) list -> string -> bool
val float_opt : (string * t) list -> string -> float option
val int_opt : (string * t) list -> string -> int option
val str_default : (string * t) list -> string -> string -> string
(** Optional fields: absent gives [None] (or the default); present but
    mistyped still raises. Fields nobody asks for are never
    inspected. *)
