(** Deterministic pseudo-random number generator (SplitMix64).

    Every source of randomness in the simulator flows through an explicit
    [Rng.t] so that runs are replayable from a single integer seed. The
    generator is mutable but cheap to [copy] (an engine clone copies its
    generators). *)

type t

val create : seed:int -> t
(** [create ~seed] builds a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    [int t 1] is a valid degenerate draw: it always returns [0] and still
    consumes exactly one draw (the jitter-0 WAN model relies on callers
    being allowed to skip it, but calling it is well-defined). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]]. Requires [lo <= hi].
    The one-element range [int_in t x x] is valid: it returns [x] and
    consumes exactly one draw, like every other range — so delay models
    with a pinned delay (e.g. [Uniform] with [min_delay = max_delay])
    keep the stream aligned with their randomized variants. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0, 1\]]).
    Exactly one draw is consumed regardless of [p] — including [p <= 0]
    and [p >= 1] — so a stream of [chance] decisions stays aligned when a
    rate changes. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on []. *)

val shuffle : t -> 'a list -> 'a list
(** Uniform random permutation. *)

val shuffle_array_in_place : t -> 'a array -> unit
