(** Visited set over 63-bit state fingerprints (native [int]s, as
    [Dsim.Fingerprint.t] produces them).

    The explorer's duplicate-state filter: the search inserts the
    fingerprint of each search-tree node it reaches, and a subtree is
    pruned when its root's fingerprint was already present. The structure
    is one open-addressing table of native-int slots probed linearly; it
    doubles at 3/4 load.

    {b Key encoding.} Slots store fingerprints with the sign bit (bit 62)
    forced on, reserving [0] for the empty slot. A stored key therefore
    retains the low 62 of the fingerprint's 63 bits: two states whose
    fingerprints differ only in bit 62 are identified. This is the same
    deliberate trade as SPIN-style hash-compaction — a false "already
    visited" answer prunes a subtree that was actually new, with
    probability ~[states² / 2^63]; it can mask a violation but never
    fabricates one, and at the explorer's scale (≤ millions of states) the
    expected number of colliding pairs is far below one. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 1024, rounded up to a power of two) is the initial
    slot count; it only affects performance. *)

val add : t -> int -> bool
(** Insert a fingerprint. [true] = newly added, [false] = already
    present. *)

val mem : t -> int -> bool
(** Membership without inserting. *)

val cardinal : t -> int
(** Number of distinct keys stored. *)

val hits : t -> int
(** Number of {!add} calls that found their key already present. *)

val record : Metrics.t -> t -> unit
(** Add the set's counts to a registry's [stateset.hits] ({!hits}),
    [stateset.misses] (the adds that inserted, = {!cardinal}),
    [stateset.collisions] (occupied slots probed past, over every add)
    and [stateset.resizes] counters. Call it once, when the search that
    fills the set returns. *)
