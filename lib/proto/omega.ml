module Pid = Dsim.Pid
module Automaton = Dsim.Automaton

type msg = Heartbeat

let pp_msg fmt Heartbeat = Format.pp_print_string fmt "heartbeat"

type 'm embedding = { wrap : msg -> 'm; unwrap : 'm -> msg option }

type state = {
  self : Pid.t;
  n : int;
  delta : int;
  suspicion_delay : int;
  suspected : Pid.Set.t;
}

let timer_base = 1000

let beat_timer = timer_base

let suspect_timer q = timer_base + 1 + q

let owns_timer state id = id >= timer_base && id <= timer_base + state.n

let init ~self ~n ~delta ?(suspicion_multiplier = 3) () =
  let state =
    { self; n; delta; suspicion_delay = suspicion_multiplier * delta; suspected = Pid.Set.empty }
  in
  let arm_suspect q = Automaton.Set_timer { id = suspect_timer q; after = state.suspicion_delay } in
  let actions =
    Automaton.Broadcast Heartbeat
    :: Automaton.Set_timer { id = beat_timer; after = delta }
    :: List.map arm_suspect (Pid.others ~n self)
  in
  (state, actions)

let fingerprint state =
  let module Fp = Dsim.Fingerprint in
  let fp = Fp.mix 101 (Fp.int state.self) in
  let fp = Fp.mix fp (Fp.int state.delta) in
  let fp = Fp.mix fp (Fp.int state.suspicion_delay) in
  Fp.mix fp (Fp.set Fp.int ~fold:Pid.Set.fold state.suspected)

let leader state =
  let candidates =
    List.filter (fun p -> not (Pid.Set.mem p state.suspected)) (Pid.all ~n:state.n)
  in
  match candidates with
  | p :: _ -> p
  | [] -> state.self  (* unreachable: self is never suspected *)

let on_message state ~src Heartbeat =
  let state = { state with suspected = Pid.Set.remove src state.suspected } in
  (state, [ Automaton.Set_timer { id = suspect_timer src; after = state.suspicion_delay } ])

let on_timer state id =
  if id = beat_timer then
    ( state,
      [
        Automaton.Broadcast Heartbeat;
        Automaton.Set_timer { id = beat_timer; after = state.delta };
      ] )
  else begin
    let q = id - timer_base - 1 in
    if q >= 0 && q < state.n && not (Pid.equal q state.self) then
      ({ state with suspected = Pid.Set.add q state.suspected }, [])
    else (state, [])
  end
