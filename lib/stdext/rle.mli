(** Run-length binary codec for integer tables, with streaming JSONL
    import/export.

    Histories and traces are long sequences of records whose integer
    fields change slowly: timestamps are near-monotone, ids and kinds
    repeat, payloads cluster.  Stored column-wise as delta streams with
    run-length-coded repeats (the SCoA printer-stream idiom: a run is one
    (value, count) pair, not count copies), such tables shrink well over
    an order of magnitude versus their JSONL rendering while staying
    trivially seekable-free and dependency-free.

    A {!table} is a named list of equal-length integer columns — the
    checker's KV histories ({!Checker.History}), witness windows, and the
    causal span tables ({!Span.to_table}) all flatten to one.
    The binary format is self-describing (schema names travel in the
    header), so [decode] needs no side channel; the JSONL form renders
    one [{"col": int, ...}] object per row and imports back streamingly,
    line by line, without materialising anything beyond the column
    accumulators.

    Encoded values must fit in 62 bits signed (deltas are zigzag-coded);
    every integer the simulator produces does. *)

type table = {
  schema : string list;  (** column names, in order *)
  columns : int array list;  (** one array per schema entry, equal lengths *)
}

val rows : table -> int
(** Number of rows (length of each column); 0 for a schema-only table. *)

val encode : table -> string
(** Compact binary rendering: magic + schema + per-column zigzag-varint
    delta runs. Raises [Invalid_argument] if column lengths disagree with
    each other or with the schema length. *)

val decode : string -> (table, string) result
(** Inverse of {!encode}; [Error] describes the first corruption found
    (bad magic, truncation, trailing garbage, run overshoot). *)

val to_file : string -> table -> unit

val of_file : string -> (table, string) result

val iter_jsonl : table -> (string -> unit) -> unit
(** Streaming JSONL export: calls the sink once per row with one JSON
    object per line (no trailing newline in the string) in schema order. *)

val to_jsonl : table -> string
(** The full JSONL rendering, newline-terminated lines. *)

val of_jsonl_lines : string Seq.t -> (table, string) result
(** Streaming JSONL import: consumes lines one at a time (blank lines
    skipped); the first object fixes the schema and every later line must
    carry exactly the same keys with integer values. *)

val of_jsonl : string -> (table, string) result
