(** Checkers for the paper's e-two-step definitions.

    Both definitions quantify {e existentially} over E-faulty synchronous
    runs. Within the synchronous model of Definition 2 the remaining freedom
    is the per-recipient delivery order inside a round, so the checker
    searches over order policies: the [Favor p] orders (which realise the
    existence proofs: the winner's [Propose] is accepted first everywhere)
    and a batch of seeded random orders as a fallback. A reported failure
    therefore means "no run found within the search budget"; for the paper's
    protocol the [Favor] orders always suffice, making the check exact in
    practice.

    Runs are executed with protocol timers disabled (the property concerns
    only the first two rounds). A candidate run counts as a witness only if
    it is also safe (validity + agreement), and an unsafe candidate run
    fails the check even when a later order yields a safe two-step run: a
    protocol that breaks agreement in some delivery order is not
    e-two-step, however fast its other runs are.

    {b Each distinct run is simulated once.} The processes in E crash at
    time 0, before any input is due, so {!Dsim.Engine} drops their
    proposals without a trace, an RNG draw or a state change (see the
    contract in [engine.mli]). Under one crash set a candidate run is
    therefore fixed by the correct processes' proposals, the order policy
    and the seed. Each check keeps one memo per crash set, keyed on
    exactly those, and answers a repeated run from the verdict recorded
    the first time: whether the run was safe, and which processes decided
    by 2Δ. The repeats are item 1's configurations that differ only in
    crashed processes' values; the [Favor] orders that item 2 tries on one
    unanimous configuration for every target, which the task check's
    item 1 has often run already; and the second [Favor p] try of a
    target [p]. The memo lives for one call; nothing is shared between
    calls. *)

type failure = {
  witness_e : Dsim.Pid.t list;  (** the crashed set E *)
  config : (Dsim.Pid.t * Proto.Value.t) list;  (** initial proposals tried *)
  target : Dsim.Pid.t option;  (** the process that had to decide, if specific *)
  item : int;  (** which item of the definition (1 or 2) *)
}

val pp_failure : Format.formatter -> failure -> unit

type order = [ `Favor of Dsim.Pid.t | `Random ]
(** Intra-round delivery order of a candidate run ({!Scenario.Sync}). *)

type run = {
  crashed : Dsim.Pid.t list;  (** the crashed set E *)
  proposals : (Dsim.Pid.t * Proto.Value.t) list;  (** the configuration, proposed at time 0 *)
  order : order;
  seed : int;  (** the engine seed: 0 for [`Favor], 1 .. [random_orders] for [`Random] *)
}
(** One candidate run, enough to replay it with {!Scenario.run}. *)

type report = {
  checked_configs : int;
  checked_runs : int;
      (** candidate runs the search consulted, repeats included: the size
          of the search, independent of the memo *)
  simulated_runs : int;
      (** engine executions, one per distinct candidate run: the work done *)
  unsafe_runs : int;
      (** consulted candidate runs that violate validity or agreement,
          repeats included *)
  first_unsafe : run option;  (** the first of them, if any *)
  failures : failure list;  (** configurations without a two-step run, in search order *)
}

val ok : report -> bool
(** No failure and no unsafe run. *)

val pp_report : Format.formatter -> report -> unit

val check_task :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  values:Proto.Value.t list ->
  ?random_orders:int ->
  unit ->
  report
(** Definition 4 over all E ⊆ Π of size [e] and all initial configurations
    drawn from [values]^n (item 1), plus all same-value configurations
    (item 2). [random_orders] (default 5) random schedules are tried when no
    [Favor] order yields a two-step run. *)

val check_object :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  values:Proto.Value.t list ->
  ?random_orders:int ->
  unit ->
  report
(** Definition A.1: item 1 — for every value and every correct [p], a run
    where only [p] proposes is two-step for [p]; item 2 — all correct
    processes propose the same value and each correct [p] can decide
    two-step. *)
