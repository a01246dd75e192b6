(** Mutable binary min-heap keyed by [(priority, sequence)].

    Entries with equal priority are returned in insertion order, which the
    simulation engine relies on for determinism.

    {b Packing contract.} The heap is an index heap over unboxed ints: one
    int array holds [(priority lsl 24) lor sequence] per heap position —
    ordering is a single monomorphic int [<] — and a second int array maps
    each heap position to the payload's {e slot}. {!push} writes the
    payload once into a free slot of a third array, and sifts move only the
    two ints per level, so neither {!push} nor {!pop_exn} allocates
    (outside amortised array growth) or runs the write barrier on a sift.
    Freed slots are reused most recently freed first, and a popped payload
    stays reachable from its slot until a later push reuses that slot.
    Two width invariants follow from the key packing: priorities must lie
    within [-2^38, 2^38) ({!push} raises [Invalid_argument] otherwise; the
    simulation engine's [time * 8 + rank] priorities stay far below this
    for any realistic horizon), and the 24-bit sequence counter is
    transparently renumbered in pop order when 2^24 pushes accumulate, so
    FIFO-within-priority holds for arbitrarily long runs. *)

type 'a t

val create : unit -> 'a t

val copy : 'a t -> 'a t
(** Independent copy: pushes and pops on either queue do not affect the
    other. Used by {!Dsim.Engine}'s snapshots. Copies the live entries
    only, laid out densely (payload slot [i] = heap position [i]),
    O(length). *)

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> priority:int -> 'a -> unit
(** Insert an element. Lower priorities pop first; ties pop in insertion
    order. Raises [Invalid_argument] when [priority] is outside
    [-2^38, 2^38) (see the packing contract above). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(priority, element)], or [None] when
    empty. Allocates; hot paths use {!peek_prio}/{!pop_exn}. *)

val peek : 'a t -> (int * 'a) option

val peek_prio : 'a t -> int
(** Priority of the minimum entry without allocating. Raises
    [Invalid_argument] on an empty queue ({!is_empty} first). *)

val pop_exn : 'a t -> 'a
(** Remove the minimum entry and return its payload without allocating;
    the priority is available beforehand via {!peek_prio}. Raises
    [Invalid_argument] on an empty queue. *)

val iter_in_order : 'a t -> (int -> 'a -> unit) -> unit
(** [iter_in_order t f] calls [f priority value] for every entry in pop
    order without modifying [t] (works on a scratch copy; no per-entry
    allocation). *)

val to_list : 'a t -> (int * 'a) list
(** Snapshot in pop order; does not modify the queue. *)
