type order = Arrival | Random_order | Favor of Pid.t

type t =
  | Sync_rounds of { delta : int; order : order }
  | Partial_sync of { delta : int; gst : Time.t; max_pre_gst : int }
  | Uniform of { min_delay : int; max_delay : int }
  | Wan of { latency : src:Pid.t -> dst:Pid.t -> int; jitter : int }
  | Manual

let validate = function
  | Partial_sync { delta; gst; max_pre_gst } ->
      if delta < 1 || gst < 0 || max_pre_gst < 1 then
        invalid_arg "Network.Partial_sync: need delta >= 1, gst >= 0, max_pre_gst >= 1"
  | Uniform { min_delay; max_delay } ->
      if min_delay <= 0 || min_delay > max_delay then
        invalid_arg "Network.Uniform: need 0 < min_delay <= max_delay"
  | Sync_rounds _ | Wan _ | Manual -> ()

let delivery_time t ~rng ~now ~src ~dst =
  match t with
  | Sync_rounds { delta; _ } ->
      (* Delivered precisely at the next round boundary. *)
      ((now / delta) + 1) * delta
  | Partial_sync { delta; gst; max_pre_gst } ->
      if now >= gst then now + Stdext.Rng.int_in rng 1 delta
      else
        (* Chaotic delay, capped by the documented contract: every message
           is delivered by [gst + delta] at the latest. The cap is the
           deterministic contract bound itself, not a per-message sample —
           resampling it would deliver some pre-GST messages earlier than
           the model promises to force, weakening the adversary. *)
        min (now + Stdext.Rng.int_in rng 1 max_pre_gst) (gst + delta)
  | Uniform { min_delay; max_delay } -> now + Stdext.Rng.int_in rng min_delay max_delay
  | Wan { latency; jitter } ->
      let j = if jitter <= 0 then 0 else Stdext.Rng.int rng (jitter + 1) in
      now + max 1 (latency ~src ~dst) + j
  | Manual -> invalid_arg "Network.delivery_time: Manual sends have no delivery time"

(* Generic over the batch element: the engine passes its delivery tuples
   straight through instead of projecting to pairs and matching
   timestamps back afterwards. RNG consumption depends only on the batch
   length (one shuffle for [Random_order]), so the element type never
   perturbs the stream. *)
let order_batch_by order ~rng ~src batch =
  match order with
  | Arrival -> batch
  | Random_order -> Stdext.Rng.shuffle rng batch
  | Favor p ->
      let favored, rest = List.partition (fun x -> Pid.equal (src x) p) batch in
      favored @ rest

module Fault = struct
  type action =
    | Deliver
    | Drop
    | Duplicate of { extra_delay : int }
    | Crash_sender

  type plan =
    | No_faults
    | Random of {
        drop_rate : float;
        dup_rate : float;
        max_drops : int;
        max_dups : int;
        max_extra_delay : int;
      }
    | Script of (int * action) list

  let none = No_faults

  let random ?(drop_rate = 0.) ?(dup_rate = 0.) ?(max_drops = max_int)
      ?(max_dups = max_int) ?(max_extra_delay = 1) () =
    let rate_ok r = r >= 0. && r <= 1. in
    if not (rate_ok drop_rate && rate_ok dup_rate) then
      invalid_arg "Fault.random: rates must be within [0, 1]";
    if max_drops < 0 || max_dups < 0 then
      invalid_arg "Fault.random: budgets must be non-negative";
    if max_extra_delay < 0 then
      invalid_arg "Fault.random: max_extra_delay must be non-negative";
    Random { drop_rate; dup_rate; max_drops; max_dups; max_extra_delay }

  let script entries =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (index, action) ->
        if index < 0 then invalid_arg "Fault.script: negative send index";
        (match action with
        | Duplicate { extra_delay } when extra_delay < 0 ->
            invalid_arg "Fault.script: negative extra_delay"
        | _ -> ());
        if Hashtbl.mem seen index then
          invalid_arg "Fault.script: duplicate send index";
        Hashtbl.replace seen index ())
      entries;
    Script entries

  let decide plan ~rng ~index ~drops_used ~dups_used =
    match plan with
    | No_faults -> Deliver
    | Script entries -> (
        match List.assoc_opt index entries with Some a -> a | None -> Deliver)
    | Random { drop_rate; dup_rate; max_drops; max_dups; max_extra_delay } ->
        (* Exactly three draws per send — drop?, dup?, extra — whether or
           not the budgets still allow the fault, so the decision for send
           [k] depends only on the seed and [k], never on how many faults
           fired earlier. That keeps fault traces stable under small budget
           changes and makes the trace a pure function of the seed. *)
        let drop = Stdext.Rng.chance rng drop_rate in
        let dup = Stdext.Rng.chance rng dup_rate in
        let extra = Stdext.Rng.int rng (max_extra_delay + 1) in
        if drop && drops_used < max_drops then Drop
        else if dup && dups_used < max_dups then Duplicate { extra_delay = extra }
        else Deliver
end
