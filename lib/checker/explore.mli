(** Bounded-exhaustive exploration of synchronous schedules.

    In the E-faulty synchronous model every round-[k] message is delivered
    at the round boundary [k*Δ]; the only scheduling freedom is each
    recipient's delivery order. This module enumerates those orders
    (depth-first) up to a round horizon and a run budget, and evaluates a
    property on every complete run. It is the small-scope model checker
    behind the tightness experiments: at the bound the property holds on
    every explored schedule, below the bound a violating schedule is found.

    Two execution strategies materialise the same search tree:
    {ul
    {- [`Replay] re-executes the deterministic engine from time 0 along
       each path — O(depth²) engine work per branch, no state copying;}
    {- [`Snapshot] (the default) extends an {!Dsim.Engine.clone} of the
       parent node by one round per branch — O(depth) incremental
       stepping. A node's last child additionally reuses the parent engine
       in place (it is dead afterwards), so an interior node with [k]
       children costs [k - 1] clones.}}
    Both visit the exact same runs in the same order and return identical
    results.

    With [domains > 1] the search is split statically: the top of the
    tree is expanded in DFS order until there are at least [4 * domains]
    subtrees, adjacent subtrees are grouped into at most [8 * domains]
    chunks, and a {!Stdext.Pool} of OCaml domains runs each chunk through
    the same sequential DFS a one-domain exploration runs over the whole
    tree. Chunk [i] may count the budget minus the runs counted by the
    chunks before it. It learns that cap once every chunk to its left has
    finished, and until then runs ahead on a shared allowance of
    [budget / 4] evaluations. Results are merged in DFS order:
    explored/violation counts, the (canonical) first violation and the
    truncation flag are identical to a [domains = 1] exploration —
    including when the run budget cuts the search short — independent of
    worker scheduling. Runs evaluated past a chunk's cap are discarded,
    so property evaluations stay within [1.25 * budget]. The [check]
    predicate then runs concurrently in several domains and must be
    thread-safe (pure predicates, like all the checkers in this
    repository, are).

    Batches larger than [perm_limit] messages fall back to two
    representative orders (arrival and reversed) to keep the product
    tractable; [truncated] reports whether any fallback or budget cut
    occurred, i.e. whether the exploration was exhaustive.

    {b Deduplication.} Many schedules converge to the same simulation
    state (deliver two messages to different recipients in either order,
    say). With [dedup] other than {!Off} the explorer keys every
    search-tree node on its {!Dsim.Engine.fingerprint} in a shared
    {!Stdext.Stateset} and prunes the subtree under a state it has
    already expanded — turning the search over {e schedules} into a search
    over {e distinct states}, which is what makes deep horizons exhaustive
    within real budgets. Pruned branches evaluate no run, so they spend
    no budget. Soundness: exact dedup can only merge genuinely identical
    states (up to the 62-bit hash-compaction collision probability of
    {!Stdext.Stateset});
    [Symmetry] additionally merges states equal up to a permutation of the
    non-distinguished pids, which preserves the verdict of any
    pid-agnostic property (agreement, validity) but may report a
    different — permuted — [first_violation]. The byte-identical-totals
    contract across modes/domains holds for explorations that complete
    within budget; when the budget cuts a dedup'd search, which subtree
    reaches a shared state first decides where its runs are counted, so
    totals near the cut can vary with scheduling. *)

type result = {
  explored : int;  (** complete runs evaluated *)
  violations : int;
  first_violation : Scenario.outcome option;
  truncated : bool;
}

(** Structured account of one exploration, split along the determinism
    boundary. [totals] is derived from per-run facts counted in global DFS
    order under the sequential budget cut, so it is {e identical} across
    [`Replay]/[`Snapshot], any [domains] count and any worker scheduling —
    the byte-identical contract the determinism tests assert. [sched]
    records what this particular execution did — how much work the
    parallel split evaluated beyond the counted runs — and legitimately
    varies from run to run. *)
module Run_report : sig
  type totals = {
    explored : int;
    violations : int;
    truncated : bool;
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
    domains : int;  (** after clamping *)
    budget : int;
    evals : int;  (** property evaluations across all domains *)
    wasted : int;
        (** [evals - explored]: runs a chunk evaluated past its budget cap,
            discarded by the merge; 0 whenever the budget does not bind,
            at most [budget / 4] when it does *)
    max_fanout : int;
        (** widest round-boundary branching observed (delivery orders ×
            fault subsets) — the fault-branch fan-out *)
  }

  type t = { totals : totals; sched : sched }

  val totals_equal : totals -> totals -> bool

  val fast_path_rate : totals -> float
  (** [fast_runs / explored] (0 when nothing was explored). *)

  val mean_depth : totals -> float

  val budget_waste_pct : sched -> float
  (** [100 * wasted / evals] (0 when nothing was evaluated). *)

  val pp : Format.formatter -> t -> unit

  val record : Stdext.Metrics.t -> t -> unit
  (** Mirror the report into a metrics registry under [explore.*] names:
      counters for every totals/sched field, a gauge for
      [explore.max_fanout] and [explore.domains], and the
      [explore.depth] histogram. Counters accumulate across calls;
      recording reports with different [rounds] into one registry raises
      [Invalid_argument] (histogram bounds conflict). *)
end

type mode = [ `Replay | `Snapshot ]

(** Visited-set policy: [Off] explores every schedule (the historical
    behaviour and the library default); [Exact] prunes subtrees under
    states already expanded; [Symmetry] also canonicalises
    non-distinguished pids before hashing. Requires the protocol's
    automaton to supply a [state_fingerprint] hook (all bundled protocols
    do); [Invalid_argument] otherwise. *)
type dedup = Off | Exact | Symmetry

(** Partial-order reduction policy: [No_por] (the default) enumerates
    every delivery-order combination; [Sleep] prunes commuting orders
    {e before} expansion. At a round boundary, deliveries to distinct
    destinations commute structurally (a delivery only steps its
    destination process — the independence relation is read off
    {!Dsim.Engine.pending_delivery_groups}, with no per-protocol
    knowledge), and within one destination's batch, each candidate order
    is trial-run against a scratch clone; orders reaching the (engine
    fingerprint, output history) of an earlier sibling order join the
    sleep set and are never expanded. Timer fires, crashes and fault
    branches execute inside the trial context, so an intervening event
    that breaks commutation differentiates the trials and defeats the
    pruning — never the verdict. Composes with [dedup] (POR prunes
    first, the visited set catches cross-branch convergence), [faults]
    and [domains]. Sound up to the same 62-bit hash-compaction caveat as
    [Exact] dedup; requires a [state_fingerprint] hook
    ([Invalid_argument] otherwise). *)
type por = No_por | Sleep

type fault_bounds = { max_drops : int; max_dups : int }
(** Bounds on the fault choices the explorer may enumerate per run: the
    adversary may lose at most [max_drops] messages and duplicate at most
    [max_dups] over the whole run. Faults here are {e explored}
    nondeterminism — every admissible combination of faulty schedules is
    visited, unlike the seeded random faults of {!Scenario.run}. *)

val no_faults : fault_bounds
(** [{ max_drops = 0; max_dups = 0 }]: the classic order-only search. *)

val synchronous :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  proposals:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
  ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
  rounds:int ->
  ?budget:int ->
  ?perm_limit:int ->
  ?disable_timers:bool ->
  ?mode:mode ->
  ?domains:int ->
  ?clamp_domains:bool ->
  ?faults:fault_bounds ->
  ?dedup:dedup ->
  ?por:por ->
  ?stateset_capacity:int ->
  ?metrics:Stdext.Metrics.t ->
  check:(Scenario.outcome -> bool) ->
  unit ->
  result
(** [check] returns [false] on a violating run. [budget] defaults to 20_000
    runs, [perm_limit] to 4, [disable_timers] to [true], [mode] to
    [`Snapshot], [domains] to 1 (sequential), [faults] to {!no_faults},
    [dedup] to {!Off}, [por] to {!No_por}. [stateset_capacity] overrides
    the visited set's initial slot count, which otherwise is pre-sized
    from [budget] ({!Stdext.Stateset.recommended_capacity} on twice the
    run budget, capped) so a full-budget dedup exploration never pays a
    resize stall. [metrics] (default disabled) receives the visited
    set's [stateset.*] counters; the [explore.*] report metrics are still
    recorded separately via {!Run_report.record}.

    With [por = Sleep] the explored tree is a sub-tree of the [No_por]
    one with the same reachable verdicts: violation/no-violation and the
    {e existence} of a first violation are preserved (the particular
    witness may differ, as with [dedup]), while [explored] shrinks by the
    number of commuted order combinations ([totals.por_pruned]). The
    [totals] byte-identity contract extends to the POR counters for
    explorations that complete within budget.

    With non-zero [faults] bounds, each round boundary additionally
    branches on which pending messages are dropped and which are
    duplicated (the copy stays pending and arrives at a later boundary),
    subject to the remaining per-run bounds. Fault subsets are enumerated
    smallest-first with the no-fault choice first, so a tight [budget]
    covers all fault-free schedules before spending runs on faulty ones.
    Fault choices compose with both [mode]s and with [domains > 1]
    unchanged: results stay deterministic and mode/domain-independent.

    [domains] is a ceiling, not a demand: by default it is clamped to
    [Domain.recommended_domain_count ()], because extra domains on an
    oversubscribed host cost stop-the-world GC handshakes and context
    switches without adding throughput (on a single-core machine,
    [~domains:4] then simply runs sequentially instead of several times
    slower). Pass [~clamp_domains:false] to spawn exactly [domains]
    domains regardless — the determinism tests do, to exercise the
    parallel merge under real thread interleaving on any host. Results
    are identical either way. *)

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
  ?perm_limit:int ->
  ?disable_timers:bool ->
  ?mode:mode ->
  ?domains:int ->
  ?clamp_domains:bool ->
  ?faults:fault_bounds ->
  ?dedup:dedup ->
  ?por:por ->
  ?stateset_capacity:int ->
  ?metrics:Stdext.Metrics.t ->
  check:(Scenario.outcome -> bool) ->
  unit ->
  result * Run_report.t
(** {!synchronous} plus the structured {!Run_report}. Same arguments, same
    [result]; the report's [totals] agree with [result] and are
    mode/domain/scheduling-independent, while [sched] describes this
    execution. [synchronous] is [fst] of this function. *)

(** Coverage account of one {!swarm_report} run. Deterministic for a
    given configuration — each walker's trajectory depends only on
    [(seed, walker index)] and its fixed budget share — regardless of
    domain count or scheduling. *)
module Swarm_report : sig
  type t = {
    walkers : int;
    runs : int;  (** complete random walks evaluated (= budget when > 0) *)
    violations : int;
    distinct_states : int;
        (** distinct (state, round) pairs covered across all walkers —
            the headline coverage figure; divide by wall time for
            distinct-states/sec *)
    dedup_hits : int;  (** node arrivals at an already-covered state *)
    sleep_hits : int;  (** as in {!Run_report.totals.sleep_hits} *)
    por_pruned : int;
        (** order combinations removed from the walkers' choice menus *)
    fallback : bool;  (** perm-limit fallback hit on some boundary *)
  }

  val distinct_states_per_sec : t -> wall_s:float -> float

  val pp : Format.formatter -> t -> unit
end

val swarm :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  proposals:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
  ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
  rounds:int ->
  ?budget:int ->
  ?perm_limit:int ->
  ?disable_timers:bool ->
  ?walkers:int ->
  ?seed:int ->
  ?domains:int ->
  ?clamp_domains:bool ->
  ?faults:fault_bounds ->
  ?por:por ->
  ?stateset_capacity:int ->
  ?metrics:Stdext.Metrics.t ->
  check:(Scenario.outcome -> bool) ->
  unit ->
  result
(** Randomized swarm search for configurations beyond exhaustive reach
    (n ≥ 8): [walkers] (default 4) seeded walkers each perform random
    root-to-leaf descents of the schedule tree, picking uniformly among
    the POR-reduced choices ([por] defaults to {!Sleep}) at every round
    boundary, until the shared [budget] of complete runs is spent. All
    walkers share one {!Stdext.Stateset} — used to {e count} coverage
    (distinct (state, round) pairs, comparable with the exhaustive
    explorer's [distinct_states]), never to prune — and split the budget
    in fixed ceil-division shares so trajectories are
    scheduling-independent. Walker [w] draws from
    [Stdext.Rng.stream ~seed w], so the whole run is reproducible from
    [seed] alone. [domains] defaults to [walkers] (clamped like
    {!synchronous}). The result is always [truncated] — a swarm run is a
    sample, not a proof; a clean sweep raises confidence, a violation is
    a genuine witness. *)

val swarm_report :
  Proto.Protocol.t ->
  n:int ->
  e:int ->
  f:int ->
  delta:int ->
  proposals:(Dsim.Time.t * Dsim.Pid.t * Proto.Value.t) list ->
  ?crashes:(Dsim.Time.t * Dsim.Pid.t) list ->
  rounds:int ->
  ?budget:int ->
  ?perm_limit:int ->
  ?disable_timers:bool ->
  ?walkers:int ->
  ?seed:int ->
  ?domains:int ->
  ?clamp_domains:bool ->
  ?faults:fault_bounds ->
  ?por:por ->
  ?stateset_capacity:int ->
  ?metrics:Stdext.Metrics.t ->
  check:(Scenario.outcome -> bool) ->
  unit ->
  result * Swarm_report.t
(** {!swarm} plus the coverage report. [swarm] is [fst] of this
    function. *)
