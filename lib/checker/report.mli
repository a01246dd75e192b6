(** Protocol telemetry reports: the fast-path story of a protocol, as
    numbers.

    The paper's claim is about {e two-step} decisions: with [n] at the
    protocol's bound, every process can decide two message delays after
    proposing on a conflict-free synchronous run (the e-two-step
    definitions are existential, realised by the delivery order favoring
    the deciding process). This module measures exactly that: all
    processes propose the same value at time 0 under synchronous rounds —
    no crashes, no faults — once per target process with the order
    favoring it, scoring each target's own first-proposal-to-decision
    latency. The summary is a per-protocol fast-path rate and a
    decision-latency histogram in message delays. [twostep report] prints
    it; tests assert the rates at the tight system sizes (RGS-task at
    n = max{2e+f, 2f+1}, RGS-object at n = max{2e+f-1, 2f+1}, Fast Paxos
    at n = 2e+f+1 — all 1.0 — while leader-based Paxos is fast only for
    its leader, 1/n). *)

type t = {
  protocol : string;
  n : int;
  e : int;
  f : int;
  delta : int;
  decided : int;  (** targets that decided in their favored run *)
  fast : int;  (** targets that decided within two message delays *)
  fast_path_rate : float;  (** [fast / n] *)
  latency_hist : (int * int) list;
      (** [(delays, targets)] pairs, ascending; [delays] is the target's
          first-proposal-to-first-decision gap in its favored run, rounded
          up to whole message delays ([ceil (ticks / delta)]) *)
  messages : int;  (** total messages sent across the [n] runs *)
}

val conflict_free :
  Proto.Protocol.t ->
  ?n:int ->
  e:int ->
  f:int ->
  delta:int ->
  ?value:Proto.Value.t ->
  ?metrics:Stdext.Metrics.t ->
  ?final_fingerprint:(Dsim.Fingerprint.t -> unit) ->
  unit ->
  t
(** Run the conflict-free synchronous scenario once per target process
    (delivery order favoring the target) and summarise. [n] defaults to
    the protocol's [min_n ~e ~f] — the tight size the paper's bounds are
    about. [value] (default 1) is the common proposal. [metrics] (default
    disabled) is handed to each {!Scenario.run}, which records its
    engine's probe, so the [engine.*] counters sum over the [n] runs
    ([engine.sent] = [messages]). It then receives the report itself
    under [report.<protocol>.*] names (counters for
    [decided]/[fast]/[messages] and the [latency_delays] histogram).
    [final_fingerprint] is forwarded to each {!Scenario.run} — the
    callback fires once per target run with the terminal engine
    fingerprint, letting callers count distinct end states. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human rendering: the rate line and the latency histogram. *)

val to_json : t -> Stdext.Json.t
(** Stable object: [protocol], [n], [e], [f], [delta], [decided], [fast],
    [fast_path_rate], [messages] and [latency_hist] as a list of
    [{"delays": D, "count": C}]. *)
