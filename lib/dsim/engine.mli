(** Deterministic discrete-event simulation engine.

    The engine owns an event queue ordered by (virtual time, event kind,
    insertion order). At equal timestamps the processing order is: crashes,
    process initialisation, environment inputs, message deliveries, timer
    fires — so a process that crashes "at the beginning of round k"
    (Definition 2) takes no step at or after that instant, and round-boundary
    deliveries happen before the 2Δ new-ballot timer at the same instant.

    All randomness (network delays, delivery-order shuffles) comes from the
    engine's seeded RNG: equal seeds and equal set-ups give bit-identical
    runs. Fault injection ({!Network.Fault}) draws from a second stream
    derived from the same seed, so fault traces are equally reproducible
    and enabling faults never perturbs the base model's delay samples.

    Crashes are well-defined at every instant including time 0: a process
    crashed before its initialisation event still receives its initial
    state (its init actions are dropped — it never takes a step), so
    {!state}, {!clone} and {!correct_pids} agree on crashed processes.

    {b Inputs due at a crashed process.} An input whose process is
    already crashed when it comes due is dropped without a trace. Crashes
    rank before inputs at equal instants, so this covers every input of a
    process crashed at time 0. The dropped input leaves no trace entry,
    draws nothing from either RNG, and changes no process state, output,
    first-input instant or fault count. It is still an event: {!Probe.steps}
    counts it, and while it waits it counts toward {!Probe.queue_hwm} like
    any pending event. Both depend only on how many such inputs there are
    and when they are due. So the {e values} given to processes crashed at
    time 0 cannot change a run: outputs, trace, fault counts, {!now} and
    the whole probe stay the same. The two-step checker's run memo
    ({!Checker.Twostep}) relies on this, and a qcheck property in the
    engine tests ([crash-input]) checks it.

    {b Hot-path representation (packing invariants).} The stepping core is
    flat-array and int-packed, and {!run} merges three sources by
    priority. The inputs given to {!create} never enter the event heap:
    they are stable-sorted by time into an immutable input calendar
    (parallel time, pid and input arrays) read through a per-engine
    cursor, whose head goes first whenever its priority is at most the
    heap's. The event heap holds only in-flight events: deliveries,
    crashes, initialisations and inputs added by {!schedule_input}. It is
    {!Stdext.Pqueue}'s index heap, which writes each payload once into a
    slot and sifts only unboxed ints. Armed timers are the third source:
    a {!Stdext.Iheap} with one entry per [(pid, timer id)] cell, numbered
    [timer_id * n + pid]. Arming re-keys the cell in place and cancelling
    removes it, so a cancelled or superseded timer is never popped and is
    not an event. The representation fixes a few widths: priorities pack
    as [time * 8 + rank] into both heaps' keys (priorities within ±2^38,
    i.e. virtual times up to ~2^35 ticks; {!create} checks its input times
    against the same range); the pending pool is a slot-indexed structure
    of arrays whose send-order recovery packs [(seq, slot)] into one int,
    capping {e live} pending messages at 2^20; the timer heap's position
    array grows to cover the largest cell armed, so huge sparse timer ids
    waste space — automata should number timers densely from 0. Exceeding
    a width raises [Invalid_argument] rather than corrupting state. *)

type ('state, 'msg, 'input, 'output) t

(** Per-engine telemetry probe: event counters the engine maintains
    unconditionally (plain field increments — they cost nothing measurable
    and make every run self-describing). Probe state is part of the
    engine's cloneable state: {!clone} copies it by value, so branched
    explorations carry independent per-branch probes, and a clone run to
    the end reports the same probe as re-executing the run from time 0.
    The engine never writes to a metrics registry itself: a caller reads
    {!probe} when its run returns and hands it to {!Probe.record}. *)
module Probe : sig
  type t = {
    steps : int;
        (** events processed by {!run}; a cancelled or superseded timer
            is not an event, while a timer popped for a crashed process
            is (it fires nothing) *)
    sent : int;  (** = {!Trace.message_count} of the trace *)
    delivered : int;
    dropped : int;  (** fault-injected losses, = {!Trace.drop_count} *)
    duplicated : int;  (** fault-injected copies, = {!Trace.duplicate_count} *)
    timer_fires : int;
    crashes : int;
    decides : int;  (** environment outputs, = {!Trace.decide_count} *)
    queue_hwm : int;
        (** high-water mark of pending events: event-heap entries, unread
            calendar inputs and armed timers, sampled at every push and
            every arm *)
  }

  val zero : t

  val pp : Format.formatter -> t -> unit

  val record : Stdext.Metrics.t -> t -> unit
  (** Add the probe to a registry: the counters [engine.steps], [sent],
      [delivered], [dropped], [duplicated], [timer_fires], [crashes] and
      [decides], and the [engine.queue_hwm] gauge (raised to
      [queue_hwm]). Recording several runs' probes into one registry sums
      their counters and keeps the largest high-water mark. *)
end

type run_result =
  | Quiescent  (** Event queue drained. *)
  | Reached_until  (** Stopped at the [until] bound; events remain. *)
  | Step_budget_exhausted  (** Safety valve ({!create}'s [max_steps]). *)

val create :
  automaton:('state, 'msg, 'input, 'output) Automaton.t ->
  n:int ->
  network:Network.t ->
  ?seed:int ->
  ?record_trace:bool ->
  ?disable_timers:bool ->
  ?max_steps:int ->
  ?inputs:(Time.t * Pid.t * 'input) list ->
  ?crashes:(Time.t * Pid.t) list ->
  ?faults:Network.Fault.plan ->
  ?causality:('input, 'output) Causality.spec ->
  unit ->
  ('state, 'msg, 'input, 'output) t
(** Build a simulation of [n] processes. [inputs] schedules environment
    inputs (e.g. proposals); [crashes] schedules crash-stop failures
    (time-0 crashes are valid: the process is initialised then immediately
    crashed, and its scheduled inputs are dropped without a trace, as the
    header describes). [faults] (default
    {!Network.Fault.none}) injects per-send drops, duplications and
    mid-broadcast sender crashes on top of [network]'s timing.
    [record_trace] defaults to [true]; [max_steps] (default 5_000_000)
    bounds {!Probe.steps}, so it counts effective events only. Raises [Invalid_argument] if [network] fails
    {!Network.validate}, a crash or an input names a pid outside
    [\[0, n)], or an input's time is outside the event-queue packing range
    (see the header).

    [causality] (default none) attaches a {!Causality} span tracer: every
    effective event is recorded with a link to the event that caused it
    (see {!Causality} for the exact semantics and the guarantee that
    recording never perturbs the run — traces, outputs and RNG streams
    are byte-identical with and without a tracer). Without a tracer the
    engine stamps inert [-1] origins; the per-event cost is one branch.
    {!clone}s share the tracer's store — attach tracers to single runs,
    not branched explorations. *)

val run : ?until:Time.t -> ('state, 'msg, 'input, 'output) t -> run_result
(** Process events until the queue is empty and no timer is armed, the
    next event is strictly after [until], or the step budget runs out.
    Can be called repeatedly with increasing [until]. Afterwards {!now} is
    the time of the last event processed: [run] advances it neither to
    [until] nor to the deadline of a timer that was cancelled or
    re-armed. *)

(** {2 Branching}

    Branching a partially-run simulation without replaying its prefix: the
    exhaustive checkers extend one cloned engine per explored schedule
    branch, turning O(depth²) re-execution into O(depth) incremental
    stepping. An engine that is cloned but never stepped serves as an
    immutable capture: clone it again to resume from it any number of
    times. *)

val clone : ('state, 'msg, 'input, 'output) t -> ('state, 'msg, 'input, 'output) t
(** Independent deep copy of the engine at its current instant: states
    (via {!Automaton.t}'s [state_copy]), event queue, pending pool, armed
    timers, RNGs (including the fault stream), fault counters and trace.
    Stepping either engine never affects the other, and running both
    identically gives bit-identical results. O(n + heap entries + live
    prefix + largest timer cell): the event heap's live entries are
    copied densely, the pending pool is copied up to its high-water mark,
    and the timer heap as its armed entries plus its cell-indexed
    position array, all with straight blits of unboxed ints. With timers
    disabled the timer heap is empty. The input calendar costs
    nothing: clones share its arrays and copy its cursor. Message
    payloads, trace entries and outputs stay shared too — they are
    immutable. The fingerprint caches (see {!fingerprint}) are copied, so
    a clone digests like its source without re-hashing. [clone] only reads
    its argument (and [state_copy] must too, as the {!Automaton.t}
    contract requires). *)

val now : ('state, 'msg, 'input, 'output) t -> Time.t
(** Time of the last event processed ({!Time.zero} before the first). *)

val n : ('state, 'msg, 'input, 'output) t -> int

val state : ('state, 'msg, 'input, 'output) t -> Pid.t -> 'state
(** Current protocol state of a process (read-only inspection). *)

val crashed : ('state, 'msg, 'input, 'output) t -> Pid.t -> bool

val correct_pids : ('state, 'msg, 'input, 'output) t -> Pid.t list

val trace : ('state, 'msg, 'input, 'output) t -> ('msg, 'input, 'output) Trace.t

val outputs : ('state, 'msg, 'input, 'output) t -> (Time.t * Pid.t * 'output) list
(** Outputs in chronological order (available even when [record_trace] is
    false). *)

val output_count : ('state, 'msg, 'input, 'output) t -> int
(** Number of outputs emitted so far, O(1) (equals
    [(probe t).decides]). Together with {!recent_outputs} this lets a
    driver poll a long run's outputs incrementally. *)

val recent_outputs :
  ('state, 'msg, 'input, 'output) t -> since:int -> (Time.t * Pid.t * 'output) list
(** The outputs with index [>= since] in chronological order, where
    indices count emissions from 0 ([recent_outputs t ~since:0] =
    [outputs t]). O(number returned): a driver that remembers the last
    {!output_count} it saw drains a live run without rescanning history.
    Raises [Invalid_argument] on a negative [since]. *)

val schedule_input : ('state, 'msg, 'input, 'output) t -> at:Time.t -> Pid.t -> 'input -> unit
(** Enqueue a future input; [at] must be [>= now] and the pid within
    [\[0, n)] ([Invalid_argument] otherwise). *)

val schedule_crash : ('state, 'msg, 'input, 'output) t -> at:Time.t -> Pid.t -> unit
(** Enqueue a future crash, with the same checks as {!schedule_input}. *)

(** {2 Manual network control}

    Only meaningful when the network is {!Network.Manual}: sends pile up in
    a pending pool and the caller decides delivery. *)

type 'msg pending = { id : int; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }

val pending : ('state, 'msg, 'input, 'output) t -> 'msg pending list
(** Undelivered sends, in send order. Allocates one record per entry;
    {!iter_pending}/{!fold_pending} walk the pool without materialising
    the list. *)

val pending_count : ('state, 'msg, 'input, 'output) t -> int
(** Number of undelivered sends, O(1). *)

val iter_pending :
  ('state, 'msg, 'input, 'output) t ->
  (id:int -> src:Pid.t -> dst:Pid.t -> msg:'msg -> sent_at:Time.t -> unit) ->
  unit
(** Visit every undelivered send in send order without building the
    {!pending} list (no per-entry allocation). The pool must not be
    mutated during the iteration. *)

val fold_pending :
  ('state, 'msg, 'input, 'output) t ->
  init:'acc ->
  f:('acc -> id:int -> src:Pid.t -> dst:Pid.t -> msg:'msg -> sent_at:Time.t -> 'acc) ->
  'acc
(** Fold over undelivered sends in send order; same contract as
    {!iter_pending}. *)

val deliver_pending : ('state, 'msg, 'input, 'output) t -> id:int -> at:Time.t -> unit
(** Schedule pending message [id] for delivery at [at] (must be [>= now]).
    Raises [Not_found] for unknown ids. *)

val drop_pending : ('state, 'msg, 'input, 'output) t -> id:int -> unit
(** Discard a pending message (models asynchrony: delayed past the
    horizon, or an explored message-loss fault). Recorded as a
    {!Trace.entry.Dropped} entry and counted in {!Probe.t.dropped}; unknown
    ids are ignored. The id becomes reusable: ids are pool slots,
    deterministically recycled (most recently freed first), so a later
    send or duplication may receive it — treat ids as valid only until
    the next pool mutation. *)

val duplicate_pending : ('state, 'msg, 'input, 'output) t -> id:int -> int
(** Add a second pending copy of message [id] (same payload, same
    [sent_at] — the message is on the wire twice, not re-sent) and return
    the copy's id (a currently-unused slot, possibly one freed earlier —
    see {!drop_pending}). Used by the explorer to enumerate duplication
    faults. Recorded as a {!Trace.entry.Duplicated} entry and counted in
    {!Probe.t.duplicated}. Raises [Not_found] for unknown ids. *)

(** {2 Telemetry} *)

val probe : ('state, 'msg, 'input, 'output) t -> Probe.t
(** Current probe counters. Available regardless of [record_trace]. *)

val decision_latencies : ('state, 'msg, 'input, 'output) t -> (Pid.t * int) list
(** For every pid that has both received an input and emitted an output:
    the gap in ticks between its {e first} input and its {e first} output —
    the per-process decision latency (divide by Δ for message delays).
    Sorted by pid; agrees with {!Trace.decision_latencies} whenever the
    trace is recorded. *)

(** {2 Fingerprinting}

    Structural digest of the engine's {e future-relevant} state, keying
    the explorer's visited set (the exact dedup of {!Checker.Explore}). *)

val has_fingerprint : ('state, 'msg, 'input, 'output) t -> bool
(** Whether the automaton supplies a [state_fingerprint] hook. *)

val fingerprint : ('state, 'msg, 'input, 'output) t -> Fingerprint.t
(** Digest of everything that can influence the engine's remaining
    behaviour under {!Network.Manual} timing: the clock, [n], the
    send index and fault counters (they key fault scripts and budgets),
    every process's state (via the automaton hook), crash flag and
    first-input/first-output instants, the pending pool as a multiset
    (pending {e ids} are allocation accidents with no semantics), the
    event queue in pop order — including the unread inputs of the input
    calendar, merged in as {!run} would take them — and the armed timers:
    each process's (timer id, deadline) pairs in that process's pop order,
    summed over the processes. Equal deadlines of one process pop in the
    order it armed them, and two such timers need not commute, so that
    order is kept. Between processes the tie is broken by a global arm
    order that no single process's history fixes; under [Manual] timing
    the two fires commute (each steps its own process, and its sends
    wait in the pool), so the sum leaves that order out. Excluded: step
    count, trace and output history (past, not future), including the
    arm and cancel history behind the armed timers (two engines with the
    same armed deadlines, in the same per-process order, digest equal),
    and the RNG streams — they are opaque, and under the explorer's
    setting ({!Network.Manual} timing with scripted faults) never
    consulted, so two engines with equal fingerprints behave identically
    there. Under any other network model equal fingerprints do not imply
    equal futures — delays draw from the RNG, and sends queued by timers
    that fire at one instant line up in the order they fired — so don't
    key dedup on them in that setting.

    {b Caches.} The digest is assembled from two caches that the first
    call allocates: each process's local digest (state, crash flag, first
    input and output), recomputed only after that process steps,
    initialises or crashes, and each pending slot's message digest,
    computed once per message. {!clone} copies both, so a
    clone of a fingerprinted engine re-hashes only what changed since the
    branch. An engine that is never fingerprinted never allocates them and
    pays one length test per step. Because it fills the caches,
    [fingerprint] writes them into [t] (and {!clone} copies them); no
    result of {!run}, {!probe} or a later [fingerprint] depends on
    whether it was called.

    Raises [Invalid_argument] when the automaton has no
    [state_fingerprint] hook ({!has_fingerprint} is [false]). *)

type 'output trial = private {
  dst : Pid.t;  (** the process *)
  local : Fingerprint.t;  (** its local digest at the horizon *)
  timers : Fingerprint.t;  (** its armed timers at the horizon, as {!fingerprint} sums them *)
  last : Time.t;  (** the instant of its last event up to the horizon *)
  steps : int;  (** the events it took, timer pops included *)
  sends : int;  (** messages it sent *)
  sent : Fingerprint.t;  (** the sum of those messages' slot digests *)
  batch : Fingerprint.t;  (** the sum of the batch's slot digests *)
  outputs : (Time.t * Pid.t * 'output) list;  (** outputs emitted, in order *)
}
(** One process's evolution from a node to the horizon [max at until] of
    {!child_fingerprint}, run on a copy of its state alone: its batch of
    deliveries at [at], then its own inputs, crash, and timer fires and
    pops due by the horizon, in {!run}'s order. [outputs] are that
    process's entries among what a {!clone} of the engine would emit past
    the source's {!output_count} after {!deliver_pending} of the batch at
    [at], [run ~until:at] and [run ~until]; the other fields are what
    {!prediction}'s [key] reads. No field depends on the node beyond what
    {!prediction}'s [digest] of the batch mixes, so a record stands for
    the same batch wherever the digest is equal. *)

type 'output prediction = {
  digest : int list -> Fingerprint.t;
  trial : int list -> 'output trial;
  key : drop:int list -> dup:int list -> trials:'output trial list -> Fingerprint.t;
}
(** What {!child_fingerprint} offers at a node. *)

val child_fingerprint :
  ('state, 'msg, 'input, 'output) t -> at:Time.t -> until:Time.t -> 'output prediction
(** Predict the {!fingerprint} of a child of [t] without building it.
    The child is what these steps make of a {!clone} of [t]:
    {!drop_pending} each id of [drop], {!duplicate_pending} each id of
    [dup], {!deliver_pending} at [at] each id of every trial's batch and
    every pending id addressed to a crashed process, then [run ~until:at]
    and [run ~until]. Call the horizon [max at until].

    A key exists at every node of a {!Network.Manual} engine without a
    fault plan, with timers on or off and whatever is due before the
    horizon. Nothing crosses processes there: a delivery, an input or a
    timer fire steps only its own process, a crash stops only its own,
    and every send waits in the pool. So a child is fixed by each
    process's own evolution to the horizon, plus the pool.

    [p.trial ids] delivers [ids], in order, to a [state_copy] of their
    one destination's state, which must be a correct process, and goes on
    with that process's own events to the horizon (see {!trial}). It
    neither clones nor steps [t]. [p.digest ids] mixes everything
    [p.trial ids] reads: the destination's local digest (as
    {!fingerprint} mixes it), its armed timers in its pop order, its
    events due by the horizon, the horizon, whether timers are disabled,
    [at], and each id's slot digest (source, destination, message and
    send instant) in the given order. Between engines of one automaton
    and [n], equal digests mean equal trial records, up to the
    fingerprint's hash compaction, so a caller may answer a batch from
    the record of an earlier batch with the same digest, at any node.
    [p.digest] costs O([ids]) and runs no automaton code.

    [p.key ~drop ~dup ~trials] is the child's fingerprint, where [trials]
    holds [p.trial] of the child's batch for every correct destination
    that takes one, in ascending destination order. A process that takes
    no batch but has an event or a timer due by the horizon evolves the
    same way with an empty batch, once per [p], inside [key]. [p.key]
    costs O(n + [drop] + [dup] + [trials]) plus the queue beyond the
    horizon and those evolutions. Ids must be live and distinct; [drop]
    and [dup] must be addressed to correct processes, and [drop] must be
    disjoint from [dup] and from every batch. Nothing checks this
    contract beyond a trial's ids and the order of [trials]: a violation
    yields a wrong key, not an error.

    [child_fingerprint] fills [t]'s caches, and [p] stays valid until [t]
    is next stepped or mutated. Raises [Invalid_argument] without a
    [state_fingerprint] hook, on a network other than {!Network.Manual}
    (its delays draw from the engine-wide stream), on a fault plan (its
    decisions do too), and when [at < now t]. [p.trial] and [p.digest]
    raise it for an empty batch, a dead id, ids to different processes or
    a crashed destination, and [p.trial] and [p.key] raise it when the
    child would exhaust the [max_steps] budget. *)
