(** State-machine replication on top of any single-shot consensus protocol.

    This is the deployment the paper's definition is tailored to (§1):
    clients submit commands to a {e proxy} replica, the proxy proposes them
    in a sequence of consensus instances (slots), and what matters for
    end-to-end latency is how fast {e the proxy} decides — the speed of the
    other replicas is irrelevant to the client.

    Each slot runs an independent instance of the underlying protocol;
    instance messages and timers are multiplexed by slot.  The replica is
    pipelined and batching: up to [pipeline] slots carry this replica's
    proposals concurrently, and each proposal packs up to [batch_max]
    queued commands into one value via the [pack]/[expand] codec
    (see {!Kv.Batch}), amortizing a consensus instance over a whole batch.
    Losing a slot to another replica's value means the batch's commands
    return to the queue and are reproposed.  Decisions are applied in slot
    order once contiguous, evaluated against the replica's own KV store
    ({!Kv.Mstore}), and emitted as one [(slot, command, response)] output
    {e per client command} after batch expansion, so per-command latency
    {e and return values} are observable — the latter is what the
    object-level linearizability checker consumes.

    Ω is per replica, not per slot, as in the paper (§C.1). For a protocol
    that embeds an {!Proto.Omega} (its {!Proto.Protocol.S.omega} hook is
    [Some]), each replica runs one failure detector of its own, driven by
    one beat timer that fires every Δ from time 0, so all replicas beat
    in phase. It keeps three rules:
    - {e Any message is a heartbeat.} Every message the replica receives
      from [q], a slot's or a replica-level heartbeat, resets [q]'s
      silence; if [q] was suspected, it is trusted again.
    - {e Suspicion at a beat.} A peer becomes suspected at the first beat
      at least 3Δ after its last message, never earlier: at least 3Δ and
      less than 4Δ after it (the engine delivers a message due at a
      beat's instant before the beat). An embedded Ω that runs its own
      timers suspects at exactly 3Δ.
    - {e Heartbeats only on idle links.} At each beat the replica sends a
      heartbeat only on the links it sent nothing on since its previous
      beat; the beat at time 0 heartbeats every link. Every send counts,
      slot announcements and relay output included, and so does a send
      the fault plan drops: the replica cannot know it was dropped.

    In a fault-free run every link carries something in every beat
    period, so sends on it are at most 2Δ apart; while message delays
    vary by less than Δ, receipts stay under 3Δ apart and nobody is
    suspected. A slot instance keeps its embedded Ω state but sends no
    heartbeat and arms no Ω timer: the replica seeds each new instance
    with its current suspicions and relays every change of them into each
    live instance, through Ω's own inputs (a suspect-timer fire, a
    heartbeat). A message from a suspected peer relays the trust before
    its payload reaches its slot. One Ω message per slot stays: the
    replica that opens a slot with its own proposal announces it to every
    replica with the instance's initial heartbeat, which tells the other
    proxies that the slot is taken; a replica that receives it creates
    the instance and delivers nothing to it. A protocol without Ω (EPaxos)
    gets no detector. Since the replica beats forever, an engine of these
    replicas over a protocol with Ω is never quiescent: run it with
    [~until].

    Timers are virtualized through a bounded pool of lanes reclaimed when
    a slot decides, so long pipelined runs do not accumulate timer state
    for decided slots. Lanes hold protocol timers only.

    Per-slot bookkeeping is one flat slot table: a growable array indexed
    by slot number whose entries are mutable records holding the slot's
    instance state, its decided flag and value, this replica's in-flight
    proposal (if any) and the slot's timer lane. Lanes map back to their
    slots and armed timers through arrays of one entry per lane, and the
    in-flight count, decided count and next free slot are plain counters,
    so a transition does O(1) bookkeeping around the instance transition it
    wraps. The replica state is therefore mutable: the engine threads it
    linearly, and the automaton's [state_copy] deep-copies the table, every
    slot record (through the inner protocol's [state_copy]) and the lane
    arrays, which is what {!Dsim.Engine.clone} needs to branch a run.

    Commands are [Proto.Value.t] (integers); {!Kv} provides a command codec
    and a replicated key-value store. *)

type mutation =
  | Stale_reads of Dsim.Pid.t
      (** The designated replica answers every [Get] with the key's {e
          previous} value (one write stale) while applying the same log as
          everyone else.  Deliberately non-linearizable: the mutation-test
          canary that the history checker must flag. *)

type 'pmsg msg

val pp_msg : (Format.formatter -> 'pmsg -> unit) -> Format.formatter -> 'pmsg msg -> unit

type 'pstate state

val applied : 'pstate state -> (int * Proto.Value.t) list
(** Commands applied so far, in slot order, after batch expansion (a slot
    that carried a batch of k commands contributes k entries). *)

val decided_slots : 'pstate state -> int
(** Number of slots known decided (not necessarily contiguous). *)

val suspected : 'pstate state -> Dsim.Pid.Set.t
(** The peers the replica's detector suspects now; always empty for a
    protocol without Ω. *)

val make :
  ?pipeline:int ->
  ?batch_max:int ->
  ?pack:(Proto.Value.t list -> Proto.Value.t) ->
  ?expand:(Proto.Value.t -> Proto.Value.t list) ->
  ?mutation:mutation ->
  (module Proto.Protocol.S with type msg = 'pmsg and type state = 'pstate) ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  ('pstate state, 'pmsg msg, Proto.Value.t, int * Proto.Value.t * int) Dsim.Automaton.t
(** [pipeline] (default 1) bounds this replica's in-flight proposals;
    [batch_max] (default 1) bounds commands per proposal. [pack] combines
    [k >= 2] commands into one proposable value and [expand] inverts it
    (identity-on-singletons by default; required when [batch_max > 1] —
    typically {!Kv.Batch}). [mutation] (default none) injects a deliberate
    object-level bug for checker mutation testing. Outputs are
    [(slot, command, response)] triples; a word outside the single-op
    range responds [0] and leaves the store untouched. Raises
    [Invalid_argument] if either knob is [< 1]. *)

(** Existentially packaged SMR engine, so callers never name the underlying
    protocol's state and message types. *)
module Instance : sig
  type t

  val create :
    protocol:Proto.Protocol.t ->
    n:int ->
    e:int ->
    f:int ->
    delta:int ->
    net:Checker.Scenario.net ->
    ?seed:int ->
    ?pipeline:int ->
    ?batch_max:int ->
    ?commands:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
    ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
    ?faults:Dsim.Network.Fault.plan ->
    ?causality:Dsim.Causality.t ->
    ?mutation:mutation ->
    ?max_steps:int ->
    unit ->
    t
  (** Each instance owns a private {!Kv.Batch} registry shared by all its
      replicas, so batch identifiers expand identically everywhere.
      [commands] (default none) pre-schedules submissions; live drivers
      use {!submit} instead. [max_steps] defaults to 20M engine steps.

      [causality] (default none) attaches a causal span tracer to the
      underlying engine with command-word payload encoders (inputs record
      the submitted word, outputs the applied word), so {!Spans} can
      reconstruct per-command critical paths from the store afterwards.
      Recording never perturbs the run. *)

  val run : ?until:Dsim.Time.t -> t -> Dsim.Engine.run_result
  (** Without [until], a protocol with Ω runs until the step budget is
      spent: its replicas' beat timers never go quiet (see above). *)

  val now : t -> Dsim.Time.t

  val probe : t -> Dsim.Engine.Probe.t
  (** The underlying engine's {!Dsim.Engine.probe}: a caller that keeps
      a metrics registry records it with {!Dsim.Engine.Probe.record}
      when its run returns. *)

  val submit : t -> at:Dsim.Time.t -> proxy:Dsim.Pid.t -> Proto.Value.t -> unit
  (** Schedule a client command at [proxy] ([at >= now]); usable between
      [run ~until] steps for closed-loop workloads. *)

  val applied_log : t -> Dsim.Pid.t -> (int * Proto.Value.t) list
  (** A replica's applied (slot, command) sequence so far, batch-expanded. *)

  val outputs : t -> (Dsim.Time.t * Dsim.Pid.t * (int * Proto.Value.t * int)) list
  (** Application events across all replicas, chronological; the third
      component is the op's response value (see {!make}). *)

  val drain_new_outputs :
    t -> f:(Dsim.Time.t -> Dsim.Pid.t -> int -> Proto.Value.t -> int -> unit) -> unit
  (** Call [f time pid slot command response] for every apply event not yet
      drained (chronological); each event is delivered exactly once across
      calls. O(new events) per call. *)

  val converged : t -> bool
  (** Every pair of replicas' applied logs agree on their common prefix
      (the fundamental SMR safety property). *)
end
