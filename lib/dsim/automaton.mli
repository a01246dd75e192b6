(** Protocol automata: the interface every protocol implements.

    An automaton is a record of pure transition functions over an opaque
    state. Each transition returns the successor state together with a list
    of actions (messages to send, timers to (re)set, outputs such as
    consensus decisions). The engine interprets actions; protocols never
    perform effects themselves, which keeps every run deterministic and
    replayable.

    Type parameters: ['state] protocol state, ['msg] wire messages,
    ['input] environment inputs (e.g. [propose v] invocations),
    ['output] environment outputs (e.g. decisions). *)

type timer_id = int

type ('msg, 'output) action =
  | Send of Pid.t * 'msg  (** Unicast. Sending to self is delivered like any message. *)
  | Broadcast of 'msg  (** Send to every process except self. *)
  | Set_timer of { id : timer_id; after : Time.t }
      (** (Re)arm timer [id] to fire [after] ticks from now. Re-arming an
          already-armed timer replaces its deadline. *)
  | Cancel_timer of timer_id
  | Output of 'output  (** Deliver a value to the environment (recorded in the trace). *)

type ('state, 'msg, 'input, 'output) t = {
  init : self:Pid.t -> n:int -> 'state * ('msg, 'output) action list;
      (** Called once per process at time 0, before any other event. *)
  on_message : 'state -> src:Pid.t -> 'msg -> 'state * ('msg, 'output) action list;
      (** Must be tolerant of duplicate deliveries: the fault-injection
          layer ({!Network.Fault}) may deliver the same message twice, so
          any counting keyed on message arrival (rather than on the sender
          set) breaks safety. The protocols in this repository key their
          tallies by sender ([Pid.Set]/[Pid.Map]), which is idempotent by
          construction. *)
  on_input : 'state -> 'input -> 'state * ('msg, 'output) action list;
  on_timer : 'state -> timer_id -> 'state * ('msg, 'output) action list;
  state_copy : 'state -> 'state;
      (** Duplicate a process state so that {!Engine.clone} can branch a run
          without the two copies aliasing. [Fun.id] is correct whenever the
          state is a pure immutable value — which holds for every protocol
          in this repository; an automaton that hides mutable structure
          (hash tables, arrays) inside its state must deep-copy it here.
          The SMR replica ([Smr.Replica.make]) is the exception: its hook
          copies the mutable slot table and lane arrays, and every slot's
          instance state through the inner protocol's [state_copy].
          Must only read its argument: the parallel explorer clones one
          engine from several domains concurrently. *)
  state_fingerprint : (relabel:(Pid.t -> Pid.t) -> 'state -> Fingerprint.t) option;
      (** Optional structural hash of a process state, enabling
          {!Engine.fingerprint} and hence the explorer's visited-set
          deduplication. Must be a pure function of the state's logical
          content — independent of construction history (fold unordered
          containers commutatively, see {!Fingerprint}) — and must route
          {e every} pid-valued field (including [self] and pids inside
          sets, maps and options) through [relabel], which the engine
          instantiates as the identity for exact dedup and as a pid
          permutation for symmetry reduction. [None] disables
          fingerprinting for this automaton. *)
}

val no_input : 'state -> 'input -> 'state * ('msg, 'output) action list
(** Convenience [on_input] for protocols that take no environment inputs. *)

val no_timer : 'state -> timer_id -> 'state * ('msg, 'output) action list
(** Convenience [on_timer] for protocols without timers. *)

val map_msg : ('a -> 'b) -> ('a, 'output) action list -> ('b, 'output) action list
(** Re-wrap the messages of a sub-component's actions into the enclosing
    protocol's message type (e.g. Ω heartbeats inside a consensus
    protocol). *)
