(** Vote bookkeeping: which processes support which value.

    Used by the fast paths (counting [2B] acknowledgements) and by the
    recovery rules (counting ballot-0 votes reported in [1B] messages). *)

type t

val empty : t

val add : Value.t -> Dsim.Pid.t -> t -> t
(** Adding the same (value, pid) pair twice is idempotent: supporters are
    a set keyed by process, so a duplicated message never double-counts.
    This is the delivery-contract obligation that makes the quorum
    protocols safe under message duplication (see {!Mutation}). *)

val fingerprint : t -> Dsim.Fingerprint.t
(** Structural hash (order-independent over both the value map and each
    supporter set) for [state_fingerprint] hooks. *)

val count : Value.t -> t -> int

val supporters : Value.t -> t -> Dsim.Pid.Set.t

val tally : t -> (Value.t * int) list
(** All values with their counts, values ascending. *)

val values_with_count_at_least : int -> t -> Value.t list
(** Ascending. With threshold 0 lists every recorded value. *)

val values_with_count_exactly : int -> t -> Value.t list

val max_value_with_count_at_least : int -> t -> Value.t option

val total_pids : t -> int
(** Number of distinct processes that voted (for any value). Always
    set-based, unaffected by {!Mutation}. *)

(** Mutation-testing hook — test-only. The fault-injection suite uses it
    to check that duplicate-vote suppression is {e load-bearing}: with
    suppression disabled, counts become raw [add] tallies (a duplicated
    vote counts twice) and a duplicating network must produce an agreement
    violation in the fast-quorum protocols. Production code must never
    call this. *)
module Mutation : sig
  val without_duplicate_suppression : (unit -> 'a) -> 'a
  (** Run [f] with {!count}/{!tally} (and everything derived from them)
      counting raw adds instead of distinct supporters; suppression is
      restored afterwards, also on exceptions. The switch is global —
      do not run concurrently with other vote-counting work. *)
end
