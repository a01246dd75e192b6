(** Causal span tracing for engine runs.

    When a {!Causality.spec} is attached to an engine ({!Engine.create}'s
    [causality]), every {e effective} event — an init, input, delivery,
    timer fire, crash or output that actually ran a transition — is
    recorded as a span whose parent is the event that caused it: a
    delivery's parent is the event during which the message was sent, a
    timer fire's parent is the event that armed the timer, an output's
    parent is the event whose transition emitted it; inits, inputs and
    scheduled crashes are roots.  Walking parent links therefore yields
    the exact causal chain behind any decision, and counting the
    {!Deliver} spans on that chain gives the paper's currency: the number
    of {e message delays} the outcome took ({!delay_steps}).

    Recording never perturbs the run: span ids ride outside the event
    queue's priorities, no RNG is consumed, and the trace layer is
    untouched, so a run with tracing enabled is byte-identical (same
    trace, same outputs) to the same run without.  With no spec attached
    the engine stamps a [-1] origin and skips all recording: one inert
    branch per event.

    The store is append-only and shared by {!Engine.clone}s; causal
    tracing targets single-run observability, not branched exploration —
    clones interleave their appends. *)

type kind = Init | Input | Deliver | Timer | Crash | Output

val kind_code : kind -> int
(** Stable small-int discriminator: [Init] = 0, [Input] = 1,
    [Deliver] = 2, [Timer] = 3, [Crash] = 4, [Output] = 5. *)

val kind_of_code : int -> kind option

val kind_name : kind -> string
(** Lower-case constructor name, the Chrome/JSONL label. *)

type t
(** A span store with engine semantics: track = pid, [start]/[finish] =
    virtual instants ([sent_at]/delivery time for {!Deliver}, the event
    instant twice otherwise), payload/aux per {!kind} (see {!payload} and
    {!aux}). *)

val create : ?capacity:int -> unit -> t

val length : t -> int

val store : t -> Stdext.Span.t
(** The underlying raw store ({!Stdext.Span} accessors and exports). *)

val record :
  t ->
  kind:kind ->
  pid:Pid.t ->
  parent:int ->
  start:Time.t ->
  finish:Time.t ->
  payload:int ->
  aux:int ->
  int
(** Append a span; the engine's hook, exposed for tests and replayers.
    Same contract as {!Stdext.Span.add}. *)

(** {2 Accessors} *)

val kind_of : t -> int -> kind
val pid : t -> int -> Pid.t
val parent : t -> int -> int

val time : t -> int -> Time.t
(** The instant the event took effect (= [finish]). *)

val start_at : t -> int -> Time.t
(** [Deliver]: when the message was sent; otherwise = {!time}. *)

val payload : t -> int -> int
(** [Input]/[Output]: the spec's encoded payload; [Timer]: the timer id;
    [-1] otherwise. *)

val aux : t -> int -> int
(** [Deliver]: the sender pid; [-1] otherwise. *)

val path : t -> int -> int list
(** Causal chain, root first. *)

val delay_steps : t -> int -> int
(** Number of {!Deliver} spans on [path] — the message delays between the
    root cause and this span. *)

(** {2 Engine attachment}

    The engine is polymorphic in its input/output payloads; a [spec]
    carries the store plus integer encoders for both, so spans stay flat
    ints.  Omitted encoders record [-1]. *)

type ('input, 'output) spec = {
  store : t;
  input_payload : 'input -> int;
  output_payload : 'output -> int;
}

val spec :
  ?input:('input -> int) -> ?output:('output -> int) -> t -> ('input, 'output) spec

(** {2 Export} *)

val to_table : t -> Stdext.Rle.table
(** {!Stdext.Span.to_table} of the store. *)

val to_chrome : Format.formatter -> t -> unit
(** Chrome [trace_event] JSON with kind-aware span names
    (["deliver 2->0"], ["input 1"], …) and ["pid N"] thread names; open
    in Perfetto or [about://tracing]. *)
