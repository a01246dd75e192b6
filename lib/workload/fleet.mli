(** A simulated client fleet driving the SMR deployment.

    The paper's WAN framing (§1) makes {e proxy-side} decision latency the
    client-visible cost of consensus; this module measures it end to end:
    thousands of clients submit KV commands through their proxy replica
    (client [c] uses replica [c mod n]) over a {!Topology} WAN, and each
    command's submit→apply latency at that proxy is recorded.

    Two arrival disciplines: {e closed-loop} clients keep exactly one
    command in flight and resubmit [think] ms after completion (throughput
    self-clocks to the system's capacity); {e open-loop} clients submit on
    a Poisson process regardless of completions (offered load is fixed, so
    an underprovisioned configuration visibly queues — the regime where
    batching and pipelining pay).

    Runs are deterministic: same configuration and seed give byte-identical
    latency samples. *)

type arrival =
  | Closed of { think : int }  (** think time in ms between completion and resubmit *)
  | Open of { rate_per_client : float }  (** Poisson arrivals, commands per second *)

type config = {
  clients : int;  (** fleet size (at most {!Smr.Kv.max_client}) *)
  arrival : arrival;
  keys : int;  (** keyspace size, see {!Conflict.key} *)
  hot_rate : float;  (** probability a command hits the hot key *)
  read_rate : float;
      (** probability a command is a [Get] (in [\[0, 1\]]); at [0.0] no
          extra RNG draws happen, so all-write runs reproduce pre-read
          seeded baselines byte-identically *)
  horizon : int;  (** virtual ms of measured run *)
  tick : int;  (** drive granularity in virtual ms (bounds closed-loop resubmit skew) *)
}

type result = {
  submitted : int;
  completed : int;  (** commands applied at their proxy within the horizon *)
  latencies : int array;  (** submit→proxy-apply ms, in completion order *)
  slots_applied : int;  (** consensus slots replica 0 applied *)
  mean_batch : float;  (** commands per applied slot *)
  max_batch : int;
  converged : bool;  (** {!Smr.Replica.Instance.converged} at the end *)
  horizon : int;
  history : Checker.History.t;
      (** every submitted op with invoke/respond times and returned value,
          invoke order; ops still in flight at the end are incomplete
          events — checkable with {!Checker.Linearizability.check_history} *)
  outstanding_end : int;
      (** command words still awaiting their proxy apply when the run
          ended; bounded by [submitted - completed] now that drained
          queues are reclaimed (they used to accumulate forever) *)
}

val commits_per_sec : result -> float
(** Completed commands per virtual second over the horizon. *)

val run :
  protocol:Proto.Protocol.t ->
  e:int ->
  f:int ->
  ?n:int ->
  topology:Topology.t ->
  ?jitter:int ->
  ?pipeline:int ->
  ?batch_max:int ->
  ?seed:int ->
  ?faults:Dsim.Network.Fault.plan ->
  ?metrics:Stdext.Metrics.t ->
  ?causality:Dsim.Causality.t ->
  ?mutation:Smr.Replica.mutation ->
  config ->
  result
(** [n] defaults to the protocol's [min_n ~e ~f]; Δ is derived from the
    topology's worst one-way latency plus [jitter] (default 0).
    [pipeline]/[batch_max] (default 1/1) are the replica's knobs. When
    the run returns it records into an enabled [metrics] registry the
    engine's probe ({!Dsim.Engine.Probe.record}), the
    [smr.commands.submitted]/[smr.commands.completed] counters (the
    result's [submitted]/[completed]), and the [smr.latency_ms]
    histogram of [latencies] and [smr.batch_size] histogram of the
    [slots_applied] batch sizes. [causality] attaches a causal span
    tracer to the run's engine (see {!Smr.Replica.Instance.create}) for
    per-command critical-path reconstruction via {!Smr.Spans}; recording
    never perturbs the run. [mutation] injects a deliberate
    object-level replica bug (checker mutation testing). Raises
    [Invalid_argument] on a non-positive knob, a [read_rate] outside
    [0, 1], or a fleet larger than the {!Smr.Kv} client space. *)
