(** Domain-sharded, lock-free visited set over 63-bit state fingerprints
    (native [int]s, as [Dsim.Fingerprint.t] produces them).

    The explorer's duplicate-state filter: every domain inserts the
    fingerprint of each search-tree node it reaches, and a subtree is
    pruned when its root's fingerprint was already present. The structure
    is a fixed array of shards (selected by the fingerprint's high bits),
    each an open-addressing table of atomic native-int slots probed
    linearly; inserts are a single [compare_and_set] on the reserved empty
    slot, so concurrent domains never block each other on the fast path.
    Tables grow by doubling under a per-shard mutex: the resizer seals
    every empty slot (writers spin until the new table is published),
    copies the occupied slots — they are write-once, so no writer can be
    mutating them — and installs the new table with a single atomic store.

    {b Key encoding.} Slots store fingerprints with the sign bit (bit 62)
    forced on, reserving [0] (empty) and [1] (sealed). A stored key
    therefore retains the low 62 of the fingerprint's 63 bits: two states
    whose fingerprints differ only in bit 62 are identified. This is the same
    deliberate trade as SPIN-style hash-compaction — a false "already
    visited" answer prunes a subtree that was actually new, with
    probability ~[states² / 2^63]; it can mask a violation but never
    fabricates one, and at the explorer's scale (≤ millions of states) the
    expected number of colliding pairs is far below one.

    {b Determinism.} For every distinct stored key, exactly one [add]
    across all domains returns [true], regardless of scheduling — the CAS
    winner — which is what makes the explorer's [distinct_states] total
    and its dedup decisions schedule-independent when the traversal is
    exhaustive. *)

type t

val create : ?shards:int -> ?capacity:int -> ?metrics:Metrics.t -> unit -> t
(** [shards] (default 16, rounded up to a power of two) is the number of
    independent tables; [capacity] (default 1024) the initial total slot
    count, split across shards. Both only affect performance. [metrics]
    (default {!Metrics.disabled}) receives the [stateset.hits],
    [stateset.misses], [stateset.collisions] and [stateset.resizes]
    counters. *)

val recommended_capacity : expected:int -> int
(** A [capacity] for {!create} that absorbs [expected] distinct keys
    without triggering a single resize (tables double at 3/4 load; the
    per-shard power-of-two rounding in [create] only rounds up). Use it to
    pre-size a visited set from a search budget instead of paying resize
    stalls mid-exploration. *)

val add : t -> int -> bool
(** Insert a fingerprint. [true] = newly added (this caller won the
    insertion race), [false] = already present. Lock-free except while the
    target shard is mid-resize. *)

val mem : t -> int -> bool
(** Membership without inserting. *)

val cardinal : t -> int
(** Number of distinct keys stored (exact; sums per-shard counts). *)
