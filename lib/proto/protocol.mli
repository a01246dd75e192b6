(** Uniform packaging of consensus protocols.

    Every protocol in this repository — the paper's protocol, Paxos, Fast
    Paxos, the EPaxos-style baseline — implements {!S}: proposals arrive as
    environment inputs ([on_input v] is [propose v]; for the consensus
    {e task} the harness injects every process's input at time 0), and a
    decision is an environment output. Checkers, examples and benchmarks
    work against this signature only. *)

module type S = sig
  type state

  type msg

  val name : string

  val pp_msg : Format.formatter -> msg -> unit

  val describe : string
  (** One-line human description. *)

  val min_n : e:int -> f:int -> int
  (** Minimal number of processes at which the protocol guarantees both
      consensus and its fast-decision property. *)

  val make :
    n:int -> e:int -> f:int -> delta:int -> (state, msg, Value.t, Value.t) Dsim.Automaton.t
  (** Build the automaton for a system of [n] processes tolerating [f]
      crashes with fast-path threshold [e], where one expected message delay
      is [delta] ticks. *)

  val omega : msg Omega.embedding option
  (** [Some] when the protocol embeds an {!Omega}: how its messages carry
      Ω's. [None] when it has none (EPaxos). The SMR replica
      ({!Smr.Replica}) reads it to recognise a slot instance's Ω messages
      and to feed the instance its own Ω's suspicions; nothing else
      does. *)
end

type t = (module S)

val name : t -> string
