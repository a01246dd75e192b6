type timer_id = int

type ('msg, 'output) action =
  | Send of Pid.t * 'msg
  | Broadcast of 'msg
  | Set_timer of { id : timer_id; after : Time.t }
  | Cancel_timer of timer_id
  | Output of 'output

type ('state, 'msg, 'input, 'output) t = {
  init : self:Pid.t -> n:int -> 'state * ('msg, 'output) action list;
  on_message : 'state -> src:Pid.t -> 'msg -> 'state * ('msg, 'output) action list;
  on_input : 'state -> 'input -> 'state * ('msg, 'output) action list;
  on_timer : 'state -> timer_id -> 'state * ('msg, 'output) action list;
  state_copy : 'state -> 'state;
  state_fingerprint : ('state -> Fingerprint.t) option;
}

let no_input state _ = (state, [])

let no_timer state _ = (state, [])

let map_msg f actions =
  List.map
    (function
      | Send (dst, m) -> Send (dst, f m)
      | Broadcast m -> Broadcast (f m)
      | Set_timer t -> Set_timer t
      | Cancel_timer id -> Cancel_timer id
      | Output o -> Output o)
    actions
