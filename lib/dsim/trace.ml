type ('msg, 'input, 'output) entry =
  | Sent of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg }
  | Delivered of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }
  | Input of { time : Time.t; pid : Pid.t; input : 'input }
  | Output of { time : Time.t; pid : Pid.t; output : 'output }
  | Timer_fired of { time : Time.t; pid : Pid.t; id : Automaton.timer_id }
  | Crashed of { time : Time.t; pid : Pid.t }
  | Dropped of { time : Time.t; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }
  | Duplicated of {
      time : Time.t;
      src : Pid.t;
      dst : Pid.t;
      msg : 'msg;
      sent_at : Time.t;
      extra_delay : int;
    }

type ('msg, 'input, 'output) t = ('msg, 'input, 'output) entry list

let outputs t =
  List.filter_map
    (function Output { time; pid; output } -> Some (time, pid, output) | _ -> None)
    t

let first_output t =
  match outputs t with [] -> None | o :: _ -> Some o

let inputs t =
  List.filter_map
    (function Input { time; pid; input } -> Some (time, pid, input) | _ -> None)
    t

let crashes t =
  List.filter_map (function Crashed { time; pid } -> Some (time, pid) | _ -> None) t

let crashed_set t = Pid.set_of_list (List.map snd (crashes t))

let message_count t =
  List.length (List.filter (function Sent _ -> true | _ -> false) t)

let drop_count t =
  List.length (List.filter (function Dropped _ -> true | _ -> false) t)

let duplicate_count t =
  List.length (List.filter (function Duplicated _ -> true | _ -> false) t)

let timer_fire_count t =
  List.length (List.filter (function Timer_fired _ -> true | _ -> false) t)

let decide_count t =
  List.length (List.filter (function Output _ -> true | _ -> false) t)

(* Per-pid first Input -> first Output gap: the decision latency the
   telemetry layer reports. Entries are chronological, so keeping the first
   of each suffices. *)
let decision_latencies t =
  let first tbl pid time = if not (Hashtbl.mem tbl pid) then Hashtbl.add tbl pid time in
  let ins = Hashtbl.create 8 and outs = Hashtbl.create 8 in
  List.iter
    (function
      | Input { time; pid; _ } -> first ins pid time
      | Output { time; pid; _ } -> first outs pid time
      | _ -> ())
    t;
  Hashtbl.fold
    (fun pid out_t acc ->
      match Hashtbl.find_opt ins pid with
      | Some in_t -> (pid, out_t - in_t) :: acc
      | None -> acc)
    outs []
  |> List.sort (fun (a, _) (b, _) -> Pid.compare a b)

let pp ?pp_msg ?pp_input ?pp_output fmt t =
  let pp_opt pp fmt x =
    match pp with Some pp -> pp fmt x | None -> Format.pp_print_string fmt "_"
  in
  let entry fmt = function
    | Sent { time; src; dst; msg } ->
        Format.fprintf fmt "%a %a -> %a send %a" Time.pp time Pid.pp src Pid.pp dst
          (pp_opt pp_msg) msg
    | Delivered { time; src; dst; msg; sent_at } ->
        Format.fprintf fmt "%a %a -> %a recv %a (sent %a)" Time.pp time Pid.pp src Pid.pp
          dst (pp_opt pp_msg) msg Time.pp sent_at
    | Input { time; pid; input } ->
        Format.fprintf fmt "%a %a input %a" Time.pp time Pid.pp pid (pp_opt pp_input) input
    | Output { time; pid; output } ->
        Format.fprintf fmt "%a %a output %a" Time.pp time Pid.pp pid (pp_opt pp_output)
          output
    | Timer_fired { time; pid; id } ->
        Format.fprintf fmt "%a %a timer %d" Time.pp time Pid.pp pid id
    | Crashed { time; pid } -> Format.fprintf fmt "%a %a CRASH" Time.pp time Pid.pp pid
    | Dropped { time; src; dst; msg; sent_at } ->
        Format.fprintf fmt "%a %a -> %a DROP %a (sent %a)" Time.pp time Pid.pp src Pid.pp
          dst (pp_opt pp_msg) msg Time.pp sent_at
    | Duplicated { time; src; dst; msg; sent_at; extra_delay } ->
        Format.fprintf fmt "%a %a -> %a DUP(+%d) %a (sent %a)" Time.pp time Pid.pp src
          Pid.pp dst extra_delay (pp_opt pp_msg) msg Time.pp sent_at
  in
  Format.pp_print_list ~pp_sep:Format.pp_print_newline entry fmt t

(* -- structured export -------------------------------------------------- *)

module Json = Stdext.Json

let entry_to_json ~msg ~input ~output entry =
  let base event time rest = ("event", Json.String event) :: ("time", Json.Int time) :: rest in
  let link src dst rest = ("src", Json.Int src) :: ("dst", Json.Int dst) :: rest in
  Json.Obj
    (match entry with
    | Sent { time; src; dst; msg = m } -> base "sent" time (link src dst [ ("msg", msg m) ])
    | Delivered { time; src; dst; msg = m; sent_at } ->
        base "delivered" time (link src dst [ ("msg", msg m); ("sent_at", Json.Int sent_at) ])
    | Input { time; pid; input = i } -> base "input" time [ ("pid", Json.Int pid); ("input", input i) ]
    | Output { time; pid; output = o } ->
        base "output" time [ ("pid", Json.Int pid); ("output", output o) ]
    | Timer_fired { time; pid; id } ->
        base "timer_fired" time [ ("pid", Json.Int pid); ("id", Json.Int id) ]
    | Crashed { time; pid } -> base "crashed" time [ ("pid", Json.Int pid) ]
    | Dropped { time; src; dst; msg = m; sent_at } ->
        base "dropped" time (link src dst [ ("msg", msg m); ("sent_at", Json.Int sent_at) ])
    | Duplicated { time; src; dst; msg = m; sent_at; extra_delay } ->
        base "duplicated" time
          (link src dst
             [ ("msg", msg m); ("sent_at", Json.Int sent_at); ("extra_delay", Json.Int extra_delay) ]))

let to_jsonl ~msg ~input ~output fmt t =
  List.iter
    (fun entry -> Format.fprintf fmt "%s@." (Json.to_string (entry_to_json ~msg ~input ~output entry)))
    t
