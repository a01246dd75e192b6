(** Linearizability: the single-shot consensus object, and WGL search over
    KV operation histories.

    {1 Single-shot consensus}

    For a consensus object (Castañeda-Rajsbaum-Raynal style), a run is
    linearizable iff all responses return the same value [v], [v] was the
    argument of some [propose] invocation, and that invocation started no
    later than the first response (real-time order). For the single-shot
    object these conditions are necessary and sufficient, so no search is
    involved.

    {1 KV histories}

    For the replicated key-value store the question is real: given the
    fleet's client-observed history ({!History.t}) — invocations, responses
    and returned values, including operations still outstanding at the
    horizon — does some total order of the operations respect real time
    (op A before op B whenever A responded before B was invoked) and the
    sequential KV spec (a read returns the latest preceding write, [0] if
    none)?  {!check_history} decides it with a Wing&Gong / Lowe-style
    search: repeatedly linearize some {e minimal} operation (one invoked
    no later than every remaining operation's response), memoizing failed
    (pending-set, store) states so equivalent interleavings are explored
    once.  Incomplete reads impose no constraint and are dropped;
    incomplete writes may linearize anywhere after their invocation or
    never.

    KV histories are {e P-compositional}: linearizable iff every per-key
    subhistory is, so the checker searches each key independently —
    exponentially smaller searches than one over the whole history.

    On failure the checker shrinks the offending subhistory to a witness
    window by time truncation (truncating at time [t] keeps operations
    invoked by [t] and makes later responses incomplete; truncation
    failure is monotone in [t]), binary-searching the first failing
    response time and then the latest window start that still fails when
    earlier operations are discarded and the initial value left free.
    The window's operations are the concrete evidence to stare at.

    The checker never asserts on history contents: malformed histories
    (responses before invocations, complete operations without return
    values) come back as a failing outcome with a reason. *)

type verdict = {
  linearizable : bool;
  reason : string option;  (** set when not linearizable *)
}

val check : Scenario.outcome -> verdict
(** Single-shot consensus check: treats [outcome.proposals] as invocations
    and [outcome.decisions] as responses. *)

type stats = {
  ops : int;  (** history events checked *)
  keys : int;  (** distinct keys, i.e. independent searches *)
  states : int;  (** memoized search states explored, all searches summed *)
}

type witness = {
  key : int;  (** the offending key *)
  window_start : Dsim.Time.t;
  window_end : Dsim.Time.t;
  events : History.t;  (** the minimal window's operations, invoke order *)
}

type outcome = {
  ok : bool;
  reason : string option;  (** set when [not ok] *)
  witness : witness option;  (** set when [not ok] and the history parsed *)
  stats : stats;
}

val check_history : History.t -> outcome
(** Check every key's subhistory; the first failing key (in key order)
    yields the witness. *)

val pp_witness : Format.formatter -> witness -> unit
