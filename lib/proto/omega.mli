(** Ω leader-election service (§C.1 of the paper).

    Implemented in the standard way under partial synchrony (Chandra-Toueg):
    every process broadcasts heartbeats each Δ; a peer is suspected when no
    heartbeat arrives for [suspicion_multiplier * Δ]; the leader is the
    smallest unsuspected pid. After GST every correct process's heartbeats
    arrive within Δ, so suspicions stabilise and all correct processes
    eventually agree on the smallest correct process as leader.

    Ω has two uses. A protocol embeds [Omega.state] in its own state,
    wraps {!msg} in its message type, forwards heartbeat deliveries and
    timer fires here, and says how it wraps them through
    {!Protocol.S.omega}. Ω reserves timer ids
    [timer_base .. timer_base + n]. The SMR replica ({!Smr.Replica}) runs
    one more Ω of its own per replica, on a replica-level message and on
    these same ids, and keeps each slot instance's embedded Ω silent: it
    seeds a new instance with its current suspicions and relays every
    change of them, through this module's own inputs ({!suspect_timer}
    fires and heartbeats). *)

type msg = Heartbeat

val pp_msg : Format.formatter -> msg -> unit

type 'm embedding = { wrap : msg -> 'm; unwrap : 'm -> msg option }
(** How a protocol carries Ω's messages in its own message type ['m]:
    [wrap] builds one, [unwrap] recognises one. *)

type state

val timer_base : Dsim.Automaton.timer_id
(** 1000. Protocol timers must stay below this. *)

val owns_timer : state -> Dsim.Automaton.timer_id -> bool

val suspect_timer : Dsim.Pid.t -> Dsim.Automaton.timer_id
(** The timer whose fire makes Ω suspect [q]; a heartbeat from [q]
    re-arms it. *)

val init :
  self:Dsim.Pid.t ->
  n:int ->
  delta:int ->
  ?suspicion_multiplier:int ->
  unit ->
  state * (msg, 'output) Dsim.Automaton.action list
(** [suspicion_multiplier] defaults to 3. *)

val fingerprint : state -> Dsim.Fingerprint.t
(** Structural hash for the embedding protocol's [state_fingerprint]
    hook; the suspected set folds commutatively. *)

val leader : state -> Dsim.Pid.t
(** Current Ω output: smallest pid not suspected (self is never
    suspected). *)

val suspected : state -> Dsim.Pid.Set.t
(** The processes Ω suspects now. *)

val on_message :
  state -> src:Dsim.Pid.t -> msg -> state * (msg, 'output) Dsim.Automaton.action list

val on_timer :
  state -> Dsim.Automaton.timer_id -> state * (msg, 'output) Dsim.Automaton.action list
(** Call only when {!owns_timer} holds. *)
