(** Network models: when and in what order messages are delivered — and,
    since the fault-injection layer, whether they are delivered at all.

    The base models below decide delivery {e timing}. Links are reliable by
    default, but every model composes with a {!Fault.plan}: a deterministic
    schedule of per-message {e drops}, {e duplications} (the copy arrives
    with a bounded extra delay) and {e sender crashes} that the engine
    applies on top of the model's timing (see {!Engine.create}'s [faults]
    argument). Fault decisions draw from a dedicated RNG stream derived
    from the engine seed, so (a) the same seed replays the same fault
    trace, and (b) enabling faults never perturbs the base model's delay
    samples. Messages to crashed processes are silently dropped by the
    engine, matching the crash-stop model of the paper. *)

(** How simultaneous deliveries at a round boundary are ordered, per
    recipient. The e-two-step definitions existentially quantify over
    synchronous runs, and within the synchronous model of Definition 2 the
    only freedom left is this per-recipient order — so checkers search over
    order policies. *)
type order =
  | Arrival  (** Send order (deterministic default). *)
  | Random_order  (** Seeded shuffle, per batch. *)
  | Favor of Pid.t
      (** Messages from the favored sender are delivered first at every
          recipient; remaining messages in arrival order. This is the order
          the paper's existence proofs use ("the [Propose] message sent by
          [p] is the first one accepted by all other correct processes"). *)

type t =
  | Sync_rounds of { delta : int; order : order }
      (** The E-faulty synchronous model (Definition 2): every message sent
          during round [k] is delivered precisely at the beginning of round
          [k+1], i.e. at time [k * delta]. *)
  | Partial_sync of { delta : int; gst : Time.t; max_pre_gst : int }
      (** Partial synchrony (Dwork-Lynch-Stockmeyer): after [gst] every
          message takes at most [delta] ticks; before [gst] delays are
          random up to [max_pre_gst] ticks, but every message is delivered
          by [gst + delta] at the latest. Requires [delta >= 1],
          [gst >= 0] and [max_pre_gst >= 1] — {!validate} raises
          [Invalid_argument] otherwise, the same validation contract as
          {!Uniform}. *)
  | Uniform of { min_delay : int; max_delay : int }
      (** Every message delayed uniformly in [\[min_delay, max_delay\]];
          used for randomized safety testing. Requires
          [0 < min_delay <= max_delay] (links are causal: zero and negative
          delays are meaningless, and an empty range is a configuration
          error) — {!validate} raises [Invalid_argument] otherwise. *)
  | Wan of { latency : src:Pid.t -> dst:Pid.t -> int; jitter : int }
      (** Deterministic one-way latency matrix plus uniform jitter in
          [\[0, jitter\]]; ticks are interpreted as milliseconds. *)
  | Manual
      (** Sends accumulate in a pending pool; an external driver decides
          what is delivered and when ({!Engine.pending},
          {!Engine.deliver_pending}). Used by the lower-bound splicing
          machinery and the exhaustive explorer — which also enumerates
          fault choices explicitly ({!Checker.Explore}) instead of drawing
          them from an RNG. *)

val validate : t -> unit
(** Raise [Invalid_argument] on invalid model parameters ({!Partial_sync},
    {!Uniform}); called once by {!Engine.create} so misconfigurations fail
    at construction rather than at the first send. *)

val delivery_time :
  t -> rng:Stdext.Rng.t -> now:Time.t -> src:Pid.t -> dst:Pid.t -> Time.t
(** Delivery time for a message sent at [now]; always [> now]. Called
    once per send on the engine's hot path, so it neither allocates nor
    re-validates the model — construct engines through {!Engine.create}
    (which calls {!validate}) or call {!validate} yourself. Raises
    [Invalid_argument] for {!Manual}, whose sends wait in the engine's
    pending pool instead. *)

val order_batch_by : order -> rng:Stdext.Rng.t -> src:('a -> Pid.t) -> 'a list -> 'a list
(** Reorder one recipient's batch of same-instant deliveries, generic over
    the batch element ([src] projects the sender out of an element). The
    engine passes its delivery tuples so delivery metadata rides along
    with the ordering. RNG consumption depends only on the batch length,
    never on the element type. *)

(** {2 Fault injection}

    A fault plan decides, per send, whether the message is delivered
    normally, lost, duplicated, or whether its sender crashes mid-send.
    Plans are data (no hidden state): all mutable bookkeeping — the send
    index, the drop/duplication budgets already spent, the fault RNG —
    lives in the engine, is part of {!Engine.clone}, and is replayed
    identically from the same seed. *)
module Fault : sig
  type action =
    | Deliver  (** No fault: the base model's timing applies. *)
    | Drop  (** The message is lost in flight (recorded in the trace). *)
    | Duplicate of { extra_delay : int }
        (** The message is delivered normally {e and} a copy is scheduled
            as if re-sent [extra_delay] ticks later (so the copy respects
            the base model's shape, e.g. lands on a round boundary under
            {!Sync_rounds}). [extra_delay >= 0]. *)
    | Crash_sender
        (** The message itself is still sent, then the sender crash-stops
            at that very instant: any {e later} sends of the same
            transition are suppressed. This models the classic partial
            broadcast — a process failing midway through a broadcast —
            which time-scheduled crash lists cannot express. *)

  type plan =
    | No_faults
    | Random of {
        drop_rate : float;  (** per-send drop probability, in [\[0, 1\]] *)
        dup_rate : float;  (** per-send duplication probability *)
        max_drops : int;  (** at most this many drops per run *)
        max_dups : int;  (** at most this many duplications per run *)
        max_extra_delay : int;  (** duplicate copies delayed in [\[0, max\]] *)
      }
        (** Seeded faults: each send draws (from the engine's dedicated
            fault stream, in a fixed number of draws) whether it is
            dropped, else whether it is duplicated, subject to the
            remaining budgets. *)
    | Script of (int * action) list
        (** Explicit faults by global send index (0-based, the order of
            [Sent] trace entries); unlisted sends are delivered. This is
            how targeted regression scenarios — "lose exactly the third
            [2B]", "crash the decider as its [Decide] leaves" — are
            pinned. *)

  val none : plan

  val random :
    ?drop_rate:float ->
    ?dup_rate:float ->
    ?max_drops:int ->
    ?max_dups:int ->
    ?max_extra_delay:int ->
    unit ->
    plan
  (** Rates default to [0.], budgets to [max_int], [max_extra_delay] to
      [1]. Raises [Invalid_argument] for rates outside [\[0, 1\]], negative
      budgets or a negative [max_extra_delay]. *)

  val script : (int * action) list -> plan
  (** Raises [Invalid_argument] on a negative send index, a negative
      [extra_delay], or a duplicate index. *)

  val decide :
    plan ->
    rng:Stdext.Rng.t ->
    index:int ->
    drops_used:int ->
    dups_used:int ->
    action
  (** The fault decision for send number [index]. For {!Random} plans this
      consumes a fixed number of [rng] draws per call (budgets exhausted or
      not), so the decision stream is a pure function of the seed and the
      send index. *)
end
