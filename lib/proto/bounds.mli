(** The process-count bounds studied by the paper. *)

type formulation =
  | Lamport_fast  (** Lamport's definition; matched by Fast Paxos. *)
  | Task  (** e-two-step consensus task (Definition 4, Theorem 5). *)
  | Object  (** e-two-step consensus object (Definition A.1, Theorem 6). *)

val pp_formulation : Format.formatter -> formulation -> unit

val required : formulation -> e:int -> f:int -> int
(** Minimal [n]: [max{2e+f+1, 2f+1}] / [max{2e+f, 2f+1}] /
    [max{2e+f-1, 2f+1}]. Requires [0 <= e <= f] and raises
    [Invalid_argument] otherwise. That is stricter than the rest of the
    library on purpose: the bounds are the paper's, stated for at most
    [f] crashes of which the fast path tolerates [e <= f], and outside
    that range no formula here is a proved bound. The protocols only size
    their quorums from [e] and [f] ([n - e], [n - f]), so the engine and
    the checkers run any [n], [e] and [f] they are given; the benchmark's
    explorer set-up search runs rgs-task at [n = 5], [e = 2], [f = 1]. *)

val feasible : formulation -> n:int -> e:int -> f:int -> bool
(** [n >= required]. *)

val fast_quorum : n:int -> e:int -> int
(** Size of a fast quorum: [n - e]. *)

val classic_quorum : n:int -> f:int -> int
(** Size of a classic (slow-path) quorum: [n - f]. *)

val recovery_threshold : n:int -> e:int -> f:int -> int
(** [n - f - e]: the minimum overlap between a fast quorum and the [n - f]
    replies collected during recovery; the pivot of lines 15–17 of Figure 1. *)

val epaxos_e : f:int -> int
(** The fast-failure threshold Egalitarian Paxos achieves with [2f+1]
    processes: [e = ceil((f+1)/2)] (paper §1). *)
