(** Minimal JSON: a value type, a printer and a strict parser.

    Just enough machinery for the telemetry layer — {!Metrics.dump_jsonl}
    and {!Dsim.Trace.to_jsonl} emit one JSON object per line, the tests
    round-trip those lines back through {!parse}, and the [jsonl_check]
    tool validates artifact files in CI — without pulling a JSON library
    into the dependency set.

    Numbers are split into [Int] and [Float]: every quantity the telemetry
    layer records is integral (ticks, counts), and keeping them exact makes
    round-trip equality checks meaningful. [to_string] of a parsed value
    re-parses to an equal value for every value this library emits. A
    finite [Float] prints as the shortest of [%.15g], [%.16g] and [%.17g]
    that parses back equal ([0.1], not [0.10000000000000001]); an integral
    one below 1e17 in magnitude prints with [%.1f], so it re-parses as a
    [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** key order is preserved *)

val to_string : t -> string
(** Compact (single-line) rendering; strings are escaped per RFC 8259. *)

val pp : Format.formatter -> t -> unit
(** Same rendering as {!to_string}, onto a formatter. *)

val parse : string -> (t, string) result
(** Strict parse of one complete JSON value (surrounding whitespace
    allowed; trailing garbage is an error). Escape sequences are decoded;
    [\uXXXX] escapes outside the ASCII range are kept as UTF-8. *)

val parse_exn : string -> t
(** Raises [Invalid_argument] with the parse error. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for other values or missing keys. *)

val to_int : t -> int option
(** [Int n] gives [Some n]; everything else [None]. *)

val to_str : t -> string option
(** [String s] gives [Some s]; everything else [None]. *)
