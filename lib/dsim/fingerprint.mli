(** 63-bit structural fingerprint combinators.

    A fingerprint is an OCaml native [int]: all 63 bits carry hash
    entropy, and no combinator allocates. {!Stdext.Stateset} stores 62 of
    those bits (it reserves the top one to tell keys from its empty and
    sealed sentinels), which is the hash-compaction width the explorer's
    soundness notes refer to.

    The building blocks for {!Automaton.t}'s [state_fingerprint] hook and
    {!Engine.fingerprint}: protocols fold their state fields through these
    to produce a fast structural hash that the explorer's visited set
    ({!Stdext.Stateset}) keys on.

    One discipline matters for soundness of the resulting dedup:
    unordered containers ([Pid.Set]/[Pid.Map] values) must be folded with
    the {e commutative} combiner ({!commute}, or the [set]/[map] helpers),
    never with the sequential {!mix} over the container's internal
    iteration order, because balanced-tree shapes depend on insertion
    history. Ordered content (lists, sequential fields) uses {!mix}, which
    is order-{e sensitive} by design. *)

type t = int

val zero : t

val mix : t -> t -> t
(** Sequential combiner: [mix acc x] absorbs [x] into [acc]. Order
    sensitive — [mix (mix z a) b <> mix (mix z b) a] in general. *)

val commute : t -> t -> t
(** Commutative, associative combiner for multisets: fold container
    elements' fingerprints with [commute] and the result is independent of
    iteration order. Absorb the result into the running accumulator with
    {!mix} afterwards. It is integer addition (modulo 2{^63}), so a
    multiset's digest can be updated by adding and subtracting element
    digests; {!Engine.child_fingerprint} relies on this. *)

val int : int -> t

val bool : bool -> t

val option : ('a -> t) -> 'a option -> t
(** Distinguishes [None] from [Some x] for every [x]. *)

val list : ('a -> t) -> 'a list -> t
(** Order-sensitive fold (lists are ordered content). *)

val set : ('a -> t) -> fold:(('a -> t -> t) -> 's -> t -> t) -> 's -> t
(** Order-independent fingerprint of a set given its [fold]:
    [set elt ~fold:Pid.Set.fold s]. *)

val map : ('k -> 'v -> t) -> fold:(('k -> 'v -> t -> t) -> 'm -> t -> t) -> 'm -> t
(** Order-independent fingerprint of a map's bindings given its [fold]. *)

val structural : 'a -> t
(** Generic structural hash (via [Hashtbl.hash_param]) for values without
    a hand-written fingerprint — e.g. message payloads. Deterministic, but
    only ~30 bits of entropy and sensitive to the internal shape of any
    balanced-tree container inside the value; acceptable for payloads
    mixed into a wider key, not for whole states. *)
