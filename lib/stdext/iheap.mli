(** Indexed binary min-heap over dense non-negative int ids.

    Each id is in the heap at most once, with one priority. {!set} inserts
    an id or re-keys it in place and {!remove} takes it out, both in
    O(log length), so a cancelled or superseded entry never lingers. The
    simulation engine keeps its armed timers here, one id per
    (process, timer) cell.

    {b Packing contract.} As in {!Pqueue}, each entry's key is the int
    [(priority lsl 24) lor sequence], so heap order is one int [<] and
    sifts move only unboxed ints (key and id, plus a store of the moved
    id's position). Every {!set} takes a fresh sequence stamp: entries of
    equal priority pop in the order of their {e last} [set]. Priorities
    must lie within [-2^38, 2^38); the 24-bit sequence counter is
    renumbered in pop order when 2^24 [set]s accumulate. A position array
    maps every id to its heap index and grows to cover the largest id
    ever set, so its size is O(largest id): number ids densely from 0. *)

type t

val create : unit -> t

val copy : t -> t
(** Independent copy; only reads its argument. O(length + largest id). *)

val is_empty : t -> bool

val length : t -> int

val mem : t -> id:int -> bool

val set : t -> id:int -> priority:int -> unit
(** Insert [id] at [priority], or move it there if present. Raises
    [Invalid_argument] when [id] is negative or [priority] is outside
    [-2^38, 2^38). *)

val remove : t -> id:int -> unit
(** Take [id] out of the heap; a no-op when it is absent. *)

val min_priority : t -> int
(** Priority of the minimum entry. Raises [Invalid_argument] on an empty
    heap ({!is_empty} first). *)

val pop_min : t -> int
(** Remove the minimum entry and return its id. Raises [Invalid_argument]
    on an empty heap. *)

val iter_in_order : t -> (id:int -> priority:int -> unit) -> unit
(** Visit every entry in pop order without modifying the heap. Allocates
    one int array of [length] positions. *)
