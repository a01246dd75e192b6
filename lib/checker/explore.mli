(** Bounded-exhaustive exploration of synchronous schedules.

    In the E-faulty synchronous model every round-[k] message is delivered
    at the round boundary [k*Δ]; the only scheduling freedom is each
    recipient's delivery order. This module enumerates those orders
    (depth-first) up to a round horizon and a run budget, and evaluates a
    property on every complete run. It is the small-scope model checker
    behind the tightness experiments {e at} the bound, where the property
    holds on every explored schedule. It does not find the violations
    below the bound. Timers are off by default ([disable_timers]), so no
    recovery runs, and the only crashes are the caller's fixed
    [crashes]. The T3 violations come from the scripted choreography in
    [lib/lowerbound/witness.ml], and the explorer's own violation tests
    check seeded predicates. A search that reaches recovery and finds the
    lower-bound runs itself is an open item ("An explorer that reaches
    recovery" in ROADMAP.md).

    Each child the visited set admits is built once, by extending an
    {!Dsim.Engine.clone} of its parent node by one round — O(depth)
    incremental stepping instead of re-executing every path from time 0.
    A node's last child reuses the parent engine in place (it is dead
    afterwards), so an interior node with [k] admitted children costs at
    most [k - 1] clones. The engine is cloned for nothing else.

    The search is one sequential depth-first traversal. It tallies its
    totals as each run is evaluated, so {!Run_report.totals} covers
    exactly the runs it evaluated: the first [budget] complete runs in
    DFS order.

    A round boundary's choices — drop subsets × duplication subsets ×
    per-destination delivery orders — are generated lazily, one child at
    a time; only the per-destination orders and their POR trials are
    computed up front for each node, and a destination's batch is
    trial-run at the first node that meets it, not at every node (see
    "One table per search" below).

    A destination's batch of more than 4 messages falls back to two
    representative orders (arrival and reversed) to keep the product
    tractable; [truncated] reports whether any fallback or budget cut
    occurred, i.e. whether the exploration was exhaustive, and
    {!Run_report.sched} says which of the two it was.

    {b One search: exact dedup with sleep-set POR.} Every search prunes
    twice, and no option turns either off.

    - {e Sleep-set partial-order reduction} cuts commuting delivery
      orders {e before} expansion. At a round boundary, deliveries to
      distinct destinations commute structurally (a delivery only steps
      its destination process — the independence relation is read off
      each pending message's destination, with no per-protocol
      knowledge), so their combinations are never multiplied out. Within
      one destination's batch, each candidate order is trial-run, and an
      order reaching the outcome of an earlier sibling order joins the
      sleep set and is never expanded ([sleep_hits], [por_pruned]). The
      outcome is the destination's local digest, armed timers, last
      event instant, send count, sent messages and outputs at the next
      boundary: a trial runs the process's own timers, inputs and crash
      due before then after its batch. A timer fire or crash that breaks
      commutation differentiates the trials and defeats the pruning —
      never the verdict.
    - {e Exact deduplication} keys every search-tree node on its
      {!Dsim.Engine.fingerprint} (and round) in a {!Stdext.Stateset} and
      prunes the subtree under a state it has already expanded, so the
      search runs over {e distinct states} rather than schedules. Pruned
      branches evaluate no run, so they spend no budget.

    Every child is keyed before it is built
    ({!Dsim.Engine.child_fingerprint}), with timers on or off and with
    crashes and inputs due between boundaries. Between two boundaries
    nothing crosses processes in the explorer's [Manual] network, so
    each trial runs one destination's batch, and then that process's own
    timers, inputs and crash due before the next boundary, on a copy of
    its state, with no engine clone. Each child's exact fingerprint is
    predicted from the node and those trials, entered into the visited
    set, and only a child whose key is new is built. A built child whose
    fingerprint differs from its prediction raises [Failure].

    {b One table per search.} A destination's batch is looked up by its
    {!Dsim.Engine.prediction} [digest] — the destination's local digest,
    armed timers and events due before the next boundary, the boundary
    instant and the batch's messages in send order — in a table that
    lives as long as the search. The first node that meets a
    batch trial-runs its orders, runs the sleep set over them, and enters
    the batch's classes: its order count and its kept orders as positions
    in the batch, each with its trial record. Every later meeting, at
    this node under another drop subset or at any other node, maps the
    stored positions to its own pending ids, adds the suppressed orders
    to [sleep_hits] once per node, and runs no trial ([table_hits]). A
    second table keeps the record of every order a sleep set kept under
    that order's own digest, and a batch met for the first time looks
    each of its orders up there before trial-running it ([trials] counts
    the orders run). The records hold nothing node-specific: a
    destination's new local digest, armed timers, last event instant and
    step count, its sends, the digest sums of its sends and of the batch,
    and its outputs. Both tables are freed with the search, and nothing
    turns them off.

    Soundness: both reductions drop only children whose state equals one
    already kept (up to the 62-bit hash-compaction collision probability
    of {!Stdext.Stateset}). The table rests on the same assumption as the
    visited set: a delivery, timer fire or input steps only its own
    process, every send waits in the pool, and [n], the automaton and the
    timer setting are fixed for the search, so two batches with equal
    digests behave equally, up to hash compaction. Every child the search builds is re-executed and its
    fingerprint compared with its prediction, which re-checks every
    record the table answered for it. The test suite checks this search,
    leaf for leaf and in order, against a brute-force oracle that
    re-executes every schedule from time 0 and keys each node in its own
    visited set:
    both see the same runs and the same distinct states, the first
    violation is also the unreduced oracle's, and on a search the budget
    does not cut, [dedup_hits + por_pruned] equals the oracle's
    revisits. *)

type result = {
  explored : int;  (** complete runs evaluated *)
  violations : int;
  first_violation : Scenario.outcome option;
  truncated : bool;
}

(** Structured account of one exploration. [totals] counts the evaluated
    runs and the visited-set and POR work behind them; [sched] records the
    budget, which of the two cuts truncated the search, and the widest
    branching the search met. Both are deterministic for a given
    configuration. *)
module Run_report : sig
  type totals = {
    explored : int;
    violations : int;
    truncated : bool;  (** [sched.budget_cut || sched.fallback] *)
    depth_histogram : int array;
        (** [depth_histogram.(d)] = runs that ended after [d] round
            boundaries; length [rounds + 1]. Runs end early ([d < rounds])
            when no messages are pending — typically because every correct
            process already decided. *)
    fast_runs : int;
        (** Runs where at least one process decided and every deciding
            process decided within two message delays of its proposal —
            the two-step fast path of the paper. *)
    fault_runs : int;  (** runs with at least one injected drop/duplication *)
    drops : int;  (** total dropped messages across counted runs *)
    dups : int;  (** total duplicated messages across counted runs *)
    distinct_states : int;
        (** search-tree nodes admitted by the visited set. For an
            exhaustive exploration this is the number of distinct
            reachable (state, round) pairs. *)
    dedup_hits : int;  (** arrivals at an already-visited state *)
    pruned_subtrees : int;
        (** dedup hits at interior nodes — each cut a whole subtree *)
    por_pruned : int;
        (** children never generated because every path to them was a
            commuted recombination of kept delivery orders. Each unit is
            a whole subtree the search never entered — pruning {e before}
            expansion, where dedup prunes after. *)
    sleep_hits : int;
        (** per-destination delivery orders suppressed by the sleep set —
            the trial-equivalence classes behind [por_pruned] *)
    trials : int;
        (** delivery orders trial-run, each on a copy of one
            destination's state *)
    table_hits : int;
        (** destination batches whose sleep-set classes and trial records
            the search's table answered, with no trial *)
  }

  type sched = {
    budget : int;
    budget_cut : bool;  (** the budget stopped the search with choices left *)
    fallback : bool;
        (** some batch of more than 4 messages got only the two
            representative orders (the perm-limit fallback) *)
    max_fanout : int;
        (** widest round-boundary branching observed (delivery orders ×
            fault subsets) — the fault-branch fan-out *)
  }

  type t = { totals : totals; sched : sched }

  val fast_path_rate : totals -> float
  (** [fast_runs / explored] (0 when nothing was explored). *)

  val mean_depth : totals -> float

  val pp : Format.formatter -> t -> unit

  val record : Stdext.Metrics.t -> t -> unit
  (** Record the report into a metrics registry under [explore.*] names:
      counters for the totals' count fields, a gauge for
      [explore.max_fanout], and the [explore.depth] histogram. Counters accumulate across calls;
      recording reports with different [rounds] into one registry raises
      [Invalid_argument] (histogram bounds conflict). *)
end

(** The one configuration of the search, as the benchmark harness
    ([benchmark/workloads.ml]) still names it: it passes [~dedup:Exact
    ~por:Sleep]. {!synchronous_report} accepts and ignores both labels;
    the next change to the benchmark drops them with these types. *)
type dedup = Exact

type por = Sleep

type fault_bounds = { max_drops : int; max_dups : int }
(** Bounds on the fault choices the explorer may enumerate per run: the
    adversary may lose at most [max_drops] messages and duplicate at most
    [max_dups] over the whole run. Faults here are {e explored}
    nondeterminism — every admissible combination of faulty schedules is
    visited, unlike the seeded random faults of {!Scenario.run}. *)

val no_faults : fault_bounds
(** [{ max_drops = 0; max_dups = 0 }]: the classic order-only search. *)

val synchronous_report :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  proposals:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
  ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
  rounds:int ->
  ?budget:int ->
  ?disable_timers:bool ->
  ?domains:int ->
  ?clamp_domains:bool ->
  ?faults:fault_bounds ->
  ?dedup:dedup ->
  ?por:por ->
  ?metrics:Stdext.Metrics.t ->
  check:(Scenario.outcome -> bool) ->
  unit ->
  result * Run_report.t
(** [check] returns [false] on a violating run. [budget] defaults to 20_000
    runs, [disable_timers] to [true], [faults] to {!no_faults}. Raises
    [Invalid_argument] when the protocol's automaton supplies no
    [state_fingerprint] hook (every bundled protocol does), [rounds] or a
    fault bound is negative, or a crash or proposal names no process. The visited set starts at {!Stdext.Stateset}'s
    default size and grows with the states it holds. [metrics] (default
    disabled) receives the visited set's [stateset.*]
    counters ({!Stdext.Stateset.record}) when the search returns; the
    [explore.*] report metrics are recorded separately via
    {!Run_report.record}. The report's [totals] agree with [result], and
    its [distinct_states] and [dedup_hits] are the visited set's
    {!Stdext.Stateset.cardinal} and {!Stdext.Stateset.hits}.

    [budget] bounds complete runs, not work. A child pruned as a revisit
    costs no budget, and one node can have millions of children (the
    product of its destinations' delivery orders and fault subsets), so
    a search with a wide fan-out has no time bound.

    [domains], [clamp_domains], [dedup] and [por] are accepted and
    ignored: the search always runs sequentially on the caller's domain,
    with exact dedup and sleep-set POR. They remain only because the
    benchmark harness ([benchmark/workloads.ml]) still passes them; the
    next change to the benchmark drops all four.

    With non-zero [faults] bounds, each round boundary additionally
    branches on which pending messages are dropped and which are
    duplicated (the copy stays pending and arrives at a later boundary),
    subject to the remaining per-run bounds. Fault subsets are enumerated
    smallest-first with the no-fault choice first, so a tight [budget]
    covers all fault-free schedules before spending runs on faulty ones. *)
