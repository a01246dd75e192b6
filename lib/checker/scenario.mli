(** Generic scenario runner: execute any {!Proto.Protocol.t} under a network
    model and summarise the run monomorphically, so property checkers do not
    depend on protocol-specific state or message types. *)

type net =
  | Sync of [ `Arrival | `Random | `Favor of Dsim.Pid.t ]
      (** E-faulty synchronous rounds (Definition 2) with an intra-round
          delivery-order policy. *)
  | Partial of { gst : Dsim.Time.t; max_pre_gst : int }
      (** Partial synchrony: chaotic (but bounded) before [gst], within Δ
          after. *)
  | Uniform of { min_delay : int; max_delay : int }
  | Wan of { latency : src:Dsim.Pid.t -> dst:Dsim.Pid.t -> int; jitter : int }

type outcome = {
  decisions : (Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list;  (** chronological *)
  proposals : (Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list;
  crashes : (Dsim.Time.t * Dsim.Pid.t) list;
  n : int;
  horizon : Dsim.Time.t;  (** time when the run stopped *)
  messages : int;  (** total messages sent *)
  dropped : int;  (** messages lost by fault injection *)
  duplicated : int;  (** messages duplicated by fault injection *)
  latencies : (Dsim.Pid.t * int) list;
      (** per-pid first-proposal-to-first-decision gap in ticks (divide by
          Δ for message delays); pids that never decided are absent *)
  engine_result : Dsim.Engine.run_result;
}

val to_network : delta:int -> net -> Dsim.Network.t
(** The engine network model of [net] with message delay bound [delta]. *)

val outcome_of :
  engine_result:Dsim.Engine.run_result ->
  ('state, 'msg, Proto.Value.t, Proto.Value.t) Dsim.Engine.t ->
  outcome
(** The outcome of an engine's run so far, tagged with how its last
    {!Dsim.Engine.run} returned: outputs, the recorded trace's inputs
    and crashes, the clock and decision latencies, and the
    {!Dsim.Engine.probe}'s send and fault counts. The engine must record
    its trace. *)

val run :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  net:net ->
  proposals:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
  ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
  ?seed:int ->
  ?disable_timers:bool ->
  ?faults:Dsim.Network.Fault.plan ->
  ?metrics:Stdext.Metrics.t ->
  until:Dsim.Time.t ->
  unit ->
  outcome
(** Run one complete scenario. [disable_timers] yields the pure
    message-driven behaviour used by the two-step existence checks.
    [faults] (default {!Dsim.Network.Fault.none}) injects drops,
    duplications and mid-broadcast crashes on top of [net]'s timing; the
    fault trace is a pure function of [seed]. [metrics] (default disabled)
    receives the engine's probe ({!Dsim.Engine.Probe.record}) once the
    run returns; nothing is recorded into a disabled registry. *)

val decided_value : outcome -> Dsim.Pid.t -> (Dsim.Time.t * Proto.Value.t) option
(** First decision of a process, if any. *)

val decided_by : outcome -> deadline:Dsim.Time.t -> Dsim.Pid.t list
(** Processes that decided at or before [deadline]. *)

val all_proposals_at_zero : n:int -> Proto.Value.t list -> (Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list
(** Task-style initial configuration: process [i] proposes the [i]-th value
    at time 0. The list must have length [n]. *)

val crash_at_start : Dsim.Pid.t list -> (Dsim.Time.t * Dsim.Pid.t) list
(** E-faulty crashes "at the beginning of the first round". *)
