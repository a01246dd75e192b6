(** Execution traces.

    The engine records every observable event; property checkers work over
    traces rather than protocol internals, so they apply uniformly to every
    protocol. *)

type ('msg, 'input, 'output) entry =
  | Sent of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg }
  | Delivered of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }
  | Input of { time : Time.t; pid : Pid.t; input : 'input }
  | Output of { time : Time.t; pid : Pid.t; output : 'output }
  | Timer_fired of { time : Time.t; pid : Pid.t; id : Automaton.timer_id }
  | Crashed of { time : Time.t; pid : Pid.t }
  | Dropped of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }
      (** The fault layer lost this message: it was sent at [sent_at]
          ([Sent] precedes it) but will never be delivered. [time] is when
          the loss happened — equal to [sent_at] for in-flight drops by a
          fault plan, later for explorer drops of pooled messages. *)
  | Duplicated of {
      time : Time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : 'msg;
      sent_at : Time.t;
      extra_delay : int;
    }
      (** The fault layer scheduled an extra copy of the message originally
          sent at [sent_at], as if re-sent [extra_delay] ticks after the
          original. *)

type ('msg, 'input, 'output) t = ('msg, 'input, 'output) entry list
(** Chronological order. *)

val outputs : ('msg, 'input, 'output) t -> (Time.t * Pid.t * 'output) list
(** All environment outputs, chronological. *)

val first_output : ('msg, 'input, 'output) t -> (Time.t * Pid.t * 'output) option

val inputs : ('msg, 'input, 'output) t -> (Time.t * Pid.t * 'input) list

val crashes : ('msg, 'input, 'output) t -> (Time.t * Pid.t) list

val crashed_set : ('msg, 'input, 'output) t -> Pid.Set.t

val message_count : ('msg, 'input, 'output) t -> int
(** Number of [Sent] entries. *)

val drop_count : ('msg, 'input, 'output) t -> int
(** Number of fault-injected [Dropped] entries. *)

val duplicate_count : ('msg, 'input, 'output) t -> int
(** Number of fault-injected [Duplicated] entries. *)

val timer_fire_count : ('msg, 'input, 'output) t -> int
(** Number of [Timer_fired] entries. *)

val decide_count : ('msg, 'input, 'output) t -> int
(** Number of [Output] entries (every protocol here outputs exactly its
    decisions). *)

val decision_latencies : ('msg, 'input, 'output) t -> (Pid.t * int) list
(** Per pid with both, the gap in ticks between its first [Input] and its
    first [Output] — the decision latency; divide by Δ for message delays.
    Sorted by pid. Cross-checked against {!Dsim.Engine}'s probe. *)

val pp :
  ?pp_msg:(Format.formatter -> 'msg -> unit) ->
  ?pp_input:(Format.formatter -> 'input -> unit) ->
  ?pp_output:(Format.formatter -> 'output -> unit) ->
  Format.formatter ->
  ('msg, 'input, 'output) t ->
  unit
(** One line per entry. [Dropped] and [Duplicated] print their [sent_at]
    (and [extra_delay]) context exactly like [Delivered] does. *)

(** {2 Structured export}

    The stable JSONL trace schema. Every entry becomes one JSON object with
    an ["event"] discriminator and ["time"]; message-bearing events carry
    ["src"], ["dst"] and ["msg"], process events carry ["pid"]. Exactly the
    constructor's remaining fields follow: ["sent_at"] on [delivered],
    [dropped] and [duplicated]; ["extra_delay"] on [duplicated]; ["id"] on
    [timer_fired]; ["input"]/["output"] payloads on [input]/[output]. The
    [msg]/[input]/[output] callbacks supply the payload encodings. *)

val entry_to_json :
  msg:('msg -> Stdext.Json.t) ->
  input:('input -> Stdext.Json.t) ->
  output:('output -> Stdext.Json.t) ->
  ('msg, 'input, 'output) entry ->
  Stdext.Json.t

val to_jsonl :
  msg:('msg -> Stdext.Json.t) ->
  input:('input -> Stdext.Json.t) ->
  output:('output -> Stdext.Json.t) ->
  Format.formatter ->
  ('msg, 'input, 'output) t ->
  unit
(** One {!entry_to_json} object per line, chronological. *)
