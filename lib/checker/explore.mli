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

    Each branch extends an {!Dsim.Engine.clone} of its parent node by one
    round — O(depth) incremental stepping instead of re-executing every
    path from time 0. A node's last child reuses the parent engine in
    place (it is dead afterwards), so an interior node with [k] children
    costs [k - 1] clones. The test suite cross-validates this search
    against a brute-force oracle that does re-execute every schedule from
    time 0.

    The search is one sequential depth-first traversal. It tallies its
    totals as each run is evaluated, so {!Run_report.totals} covers
    exactly the runs it evaluated: the first [budget] complete runs in
    DFS order.

    A round boundary's choices — drop subsets × duplication subsets ×
    per-destination delivery orders — are generated lazily, one child at
    a time; only the per-destination orders and their POR trials are
    computed up front for each node.

    A destination's batch of more than 4 messages falls back to two
    representative orders (arrival and reversed) to keep the product
    tractable; [truncated] reports whether any fallback or budget cut
    occurred, i.e. whether the exploration was exhaustive, and
    {!Run_report.sched} says which of the two it was.

    {b Deduplication.} Many schedules converge to the same simulation
    state (deliver two messages to different recipients in either order,
    say). With [dedup = Exact] the explorer keys every
    search-tree node on its {!Dsim.Engine.fingerprint} in a
    {!Stdext.Stateset} and prunes the subtree under a state it has
    already expanded — turning the search over {e schedules} into a search
    over {e distinct states}, which is what makes deep horizons exhaustive
    within real budgets. Pruned branches evaluate no run, so they spend
    no budget.

    Under [Exact] dedup, children are keyed before they are built: at a
    node where nothing but the boundary's deliveries can happen before
    the next boundary (timers disabled, no crash or input due — the
    condition {!Dsim.Engine.child_fingerprint} checks), each child's
    exact fingerprint is predicted from the node and the engine's
    per-destination trials (one per kept batch and delivery order,
    memoised per node, the same trials [Sleep] POR reads; each runs one
    destination's batch on a copy of that process's state, with no
    engine clone), entered into the visited set, and only a child whose
    key is new is built. A built child whose fingerprint differs from its
    prediction raises [Failure]. Every other node — and every node under
    [Off] dedup — builds each child and then checks it. Either way the
    same keys enter the visited set in the same order, so every count in
    {!Run_report.totals} is the same.

    Soundness: exact dedup can only merge genuinely identical
    states (up to the 62-bit hash-compaction collision probability of
    {!Stdext.Stateset}). *)

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
        (** search-tree nodes admitted by the visited set (0 with dedup
            off). For an exhaustive exploration this is the number of
            distinct reachable (state, round) pairs. *)
    dedup_hits : int;  (** arrivals at an already-visited state *)
    pruned_subtrees : int;
        (** dedup hits at interior nodes — each cut a whole subtree *)
    por_pruned : int;
        (** children never generated because every path to them was a
            commuted recombination of kept delivery orders (0 with POR
            off). Each unit is a whole subtree the search never entered —
            pruning {e before} expansion, where dedup prunes after. *)
    sleep_hits : int;
        (** per-destination delivery orders suppressed by the sleep set —
            the trial-equivalence classes behind [por_pruned] *)
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

(** Visited-set policy: [Off] explores every schedule (the historical
    behaviour and the library default); [Exact] prunes subtrees under
    states already expanded. [Exact] requires the protocol's automaton to
    supply a [state_fingerprint] hook (all bundled protocols do);
    [Invalid_argument] otherwise. *)
type dedup = Off | Exact

(** Partial-order reduction policy: [No_por] (the default) enumerates
    every delivery-order combination; [Sleep] prunes commuting orders
    {e before} expansion. At a round boundary, deliveries to distinct
    destinations commute structurally (a delivery only steps its
    destination process — the independence relation is read off
    {!Dsim.Engine.pending_delivery_groups}, with no per-protocol
    knowledge), and within one destination's batch, each candidate order
    is trial-run; orders reaching the (engine fingerprint, new outputs) of
    an earlier sibling order join the sleep set and are never expanded.
    Where {!Dsim.Engine.child_fingerprint} admits the node, the trial is
    the engine's: the batch runs on a copy of its destination's state
    alone, and its fingerprint is that of the clone it stands for.
    Elsewhere it runs against a scratch clone, where timer fires and
    crashes at the boundary instant execute inside the trial context, so
    an intervening event that breaks commutation differentiates the
    trials and defeats the pruning — never the verdict. Composes with
    [dedup] (POR prunes first, the visited set catches cross-branch
    convergence) and [faults]. Sound up to the same 62-bit
    hash-compaction caveat as [Exact] dedup; requires a
    [state_fingerprint] hook ([Invalid_argument] otherwise). *)
type por = No_por | Sleep

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
    runs, [disable_timers] to [true], [faults] to {!no_faults}, [dedup] to
    {!Off}, [por] to {!No_por}. The visited set is pre-sized from [budget]
    ({!Stdext.Stateset.recommended_capacity} on twice the run budget,
    capped) so a full-budget dedup exploration never pays a resize stall.
    [metrics] (default disabled) receives the visited set's [stateset.*]
    counters ({!Stdext.Stateset.record}) when the search returns, and
    none without dedup; the [explore.*] report metrics are still recorded
    separately via {!Run_report.record}. The report's [totals] agree with
    [result], and its [distinct_states] and [dedup_hits] are the visited
    set's {!Stdext.Stateset.cardinal} and {!Stdext.Stateset.hits}.

    [budget] bounds complete runs, not work. A child pruned as a revisit
    costs no budget, and one node can have millions of children (the
    product of its destinations' delivery orders and fault subsets), so
    a search with a wide fan-out has no time bound: an n = 5 epaxos
    search with [rounds = 3], [budget = 1500], exact dedup and POR off
    ran for more than 10 minutes on a 2-core machine without finishing.

    [domains] and [clamp_domains] are accepted and ignored: the search
    always runs sequentially on the caller's domain. They remain only
    because the benchmark harness ([benchmark/workloads.ml]) still passes
    them; the next change to the benchmark drops them.

    With [por = Sleep] the explored tree is a sub-tree of the [No_por]
    one with the same reachable verdicts: violation/no-violation and the
    {e existence} of a first violation are preserved (the particular
    witness may differ, as with [dedup]), while [explored] shrinks by the
    number of commuted order combinations ([totals.por_pruned]).

    With non-zero [faults] bounds, each round boundary additionally
    branches on which pending messages are dropped and which are
    duplicated (the copy stays pending and arrives at a later boundary),
    subject to the remaining per-run bounds. Fault subsets are enumerated
    smallest-first with the no-fault choice first, so a tight [budget]
    covers all fault-free schedules before spending runs on faulty ones. *)
