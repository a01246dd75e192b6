(** Small combinatorics helpers used by the exhaustive checkers. *)

val subsets_of_size : int -> 'a list -> 'a list list
(** [subsets_of_size k l] lists all [k]-element subsets of [l], each in the
    original order of [l]. [subsets_of_size 0 l = [[]]]. *)

val subsets_up_to : int -> 'a list -> 'a list list
(** [subsets_up_to k l] lists all subsets of [l] with at most [k] elements,
    in ascending size — the empty subset first. Negative [k] acts as [0].
    The fault-exploring checkers rely on the ordering: under a tight run
    budget the no-fault branches are visited first. *)

val permutations : 'a list -> 'a list list
(** All permutations. Intended for short lists (the checkers cap the length
    before calling). *)

val cartesian : 'a list list -> 'a list list
(** [cartesian [xs1; xs2; ...]] is the cartesian product, each choice list
    picking one element per input list. [cartesian [] = [[]]]. *)

val choose : int -> int -> int
(** Binomial coefficient [choose n k]; 0 when [k < 0] or [k > n]. *)
