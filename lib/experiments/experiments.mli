(** The evaluation harness.

    The paper is a theory brief announcement with no measured evaluation;
    every claim is a theorem. Each experiment below regenerates one claim
    as a table (T1-T4) or series (F1-F4) — see DESIGN.md §3 and
    EXPERIMENTS.md for the mapping and archived results. All experiments
    print to the given formatter and are deterministic for a fixed seed. *)

val protocols : (string * Proto.Protocol.t) list
(** The protocols the front ends accept by name, in the order they list
    them: rgs-task, rgs-object, paxos, fast-paxos, epaxos. *)

val t1_bounds_table : Format.formatter -> unit
(** T1 — the headline bounds: required [n] per formulation over an
    (e, f) grid (Theorems 5, 6 vs Lamport's bound). *)

val t2_twostep_verification : Format.formatter -> unit
(** T2 — upper-bound direction: the protocols satisfy their two-step
    definitions at exactly their minimal [n]; Paxos does not. Exercises
    {!Checker.Twostep} over every E and every small-domain configuration. *)

val t3_tightness_witnesses : Format.formatter -> unit
(** T3 — lower-bound direction: the adversarial choreography preserves
    agreement at the bound and violates it one process below
    ({!Lowerbound.Witness}). *)

val t4_recovery_audit : Format.formatter -> unit
(** T4 — Lemma 7 / Lemma C.2: exhaustive vote-layout audit of the recovery
    rule at and below the bounds ({!Lowerbound.Audit}). *)

val f1_fast_rate_vs_crashes : ?seeds:int -> Format.formatter -> unit
(** F1 — fraction of runs with a two-step decision vs number of crashes,
    per protocol at its minimal [n] (e = f = 2), unanimous proposals,
    random synchronous schedules. *)

val f2_latency_vs_conflict : ?seeds:int -> Format.formatter -> unit
(** F2 — decision latency (in Δ) at the first decider vs proposal-conflict
    rate; with the initial leader alive and crashed. Shows the crossover
    between leader-driven Paxos and the fast protocols. *)

val f3_wan_latency : Format.formatter -> unit
(** F3 — wide-area commit latency (ms) at a proxy in each region of a
    5-region planet topology, per protocol at its minimal [n]: the cost of
    the extra processes Lamport's bound demands. *)

val f4_smr_throughput : ?seeds:int -> Format.formatter -> unit
(** F4 — SMR under load: an open-loop client fleet ({!Workload.Fleet})
    drives each protocol's replicated KV store on the planet5 WAN, with
    one command per slot vs pipeline 16 × batch 64 at the same offered
    load. Reports commits/sec and client p50/p99 submit→apply latency at
    the proxy (the paper's §1 cost model), per protocol including EPaxos. *)

val f5_epaxos_motivation : ?seeds:int -> Format.formatter -> unit
(** F5 — the paper's §1 motivation: the EPaxos-style protocol commits in
    two message delays with [2f+1] processes under up to
    [e = ceil((f+1)/2)] crashes when commands do not interfere, and
    degrades with the interference rate. *)

val table : (string * (Format.formatter -> unit)) list
(** Every experiment by the name the front ends take: [t1]-[t4], [f1]-[f5],
    then [tables] (T1-T4), [figures] (F1-F5) and [all] (T1-T4 and F1-F5,
    in order). *)
