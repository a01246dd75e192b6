(** Telemetry registry: named counters, high-water gauges and
    fixed-bucket histograms.

    The simulator's observability substrate. A registry hands out metric
    handles by name; each metric is one row of plain int cells that its
    handles update in place, and the read side ({!to_list},
    {!dump_jsonl}) reports the cells as they stand.

    Every layer that reports here keeps its own plain counts while it
    runs and writes them into the registry once, when its run returns
    ([Dsim.Engine.Probe.record], {!Stateset.record}, the explorer's and
    the fleet's results). No event updates a registry as it happens.

    Semantics per kind:
    {ul
    {- counters are monotonic totals;}
    {- gauges keep the {e maximum} value recorded (starting from 0) —
       high-water semantics, which is what every gauge in this repository
       records (queue depths, fan-out widths);}
    {- histograms keep per-bucket counts, plus an exact [sum]/[count] pair
       for mean computation.}}

    The shared {!disabled} registry hands out inert handles: every
    update is one branch on an immutable bool. Handle lookup ({!counter}
    etc.) searches the registry by name. *)

type t

val create : unit -> t
(** Fresh, enabled registry. *)

val disabled : t
(** A shared always-disabled registry: all updates are no-ops and
    {!to_list} is empty. Useful as a default argument. *)

val is_enabled : t -> bool

type counter

type gauge

type histogram

val counter : t -> string -> counter
(** The counter registered under [name], created at 0 on first use.
    Raises [Invalid_argument] if [name] is registered with another kind. *)

val gauge : t -> string -> gauge

val histogram : t -> buckets:int array -> string -> histogram
(** [buckets] are strictly increasing inclusive upper bounds; one overflow
    bucket is appended implicitly. Re-registering an existing histogram
    with different bounds raises [Invalid_argument]. *)

val incr : counter -> unit

val add : counter -> int -> unit

val record_max : gauge -> int -> unit
(** Raise the gauge to [v] if [v] exceeds its current value. *)

val observe : histogram -> int -> unit
(** Add one observation: bumps the first bucket whose bound is [>= v] (or
    the overflow bucket) and accumulates [sum]/[count]. *)

(** {2 Reading} *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { bounds : int array; counts : int array; sum : int; count : int }
      (** [counts] has [length bounds + 1] entries; the last is overflow. *)

val to_list : t -> (string * value) list
(** All registered metrics, sorted by name. A disabled registry always
    yields []. *)

val find : t -> string -> value option

val get_counter : t -> string -> int
(** Value of a registered counter; 0 if absent. *)

val dump_jsonl : Format.formatter -> t -> unit
(** One JSON object per line, sorted by name — the stable metrics schema:
    {v
    {"metric": NAME, "type": "counter", "value": N}
    {"metric": NAME, "type": "gauge", "value": N}
    {"metric": NAME, "type": "histogram", "le": [B1,...], "counts": [C1,...,Cover], "sum": N, "count": N}
    v}
    [le] holds the inclusive bucket upper bounds; [counts] has one extra
    trailing overflow entry, and its entries sum to [count]. Validated in
    CI by the [jsonl_check] tool. *)
