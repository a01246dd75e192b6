module type S = sig
  type state

  type msg

  val name : string

  val pp_msg : Format.formatter -> msg -> unit

  val describe : string

  val min_n : e:int -> f:int -> int

  val make :
    n:int -> e:int -> f:int -> delta:int -> (state, msg, Value.t, Value.t) Dsim.Automaton.t

  val omega : msg Omega.embedding option
end

type t = (module S)

let name (module P : S) = P.name
