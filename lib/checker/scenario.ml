module Pid = Dsim.Pid
module Time = Dsim.Time
module Value = Proto.Value

type net =
  | Sync of [ `Arrival | `Random | `Favor of Pid.t ]
  | Partial of { gst : Time.t; max_pre_gst : int }
  | Uniform of { min_delay : int; max_delay : int }
  | Wan of { latency : src:Pid.t -> dst:Pid.t -> int; jitter : int }

type outcome = {
  decisions : (Time.t * Pid.t * Value.t) list;
  proposals : (Time.t * Pid.t * Value.t) list;
  crashes : (Time.t * Pid.t) list;
  n : int;
  horizon : Time.t;
  messages : int;
  dropped : int;
  duplicated : int;
  latencies : (Pid.t * int) list;
  engine_result : Dsim.Engine.run_result;
}

let to_network ~delta net : Dsim.Network.t =
  match net with
  | Sync order ->
      let order =
        match order with
        | `Arrival -> Dsim.Network.Arrival
        | `Random -> Dsim.Network.Random_order
        | `Favor p -> Dsim.Network.Favor p
      in
      Dsim.Network.Sync_rounds { delta; order }
  | Partial { gst; max_pre_gst } -> Dsim.Network.Partial_sync { delta; gst; max_pre_gst }
  | Uniform { min_delay; max_delay } -> Dsim.Network.Uniform { min_delay; max_delay }
  | Wan { latency; jitter } -> Dsim.Network.Wan { latency; jitter }

let outcome_of ~engine_result engine =
  let trace = Dsim.Engine.trace engine in
  let probe = Dsim.Engine.probe engine in
  {
    decisions = Dsim.Engine.outputs engine;
    proposals = Dsim.Trace.inputs trace;
    crashes = Dsim.Trace.crashes trace;
    n = Dsim.Engine.n engine;
    horizon = Dsim.Engine.now engine;
    messages = probe.sent;
    dropped = probe.dropped;
    duplicated = probe.duplicated;
    latencies = Dsim.Engine.decision_latencies engine;
    engine_result;
  }

let run (module P : Proto.Protocol.S) ~n ~e ~f ~delta ~net ~proposals ?(crashes = [])
    ?(seed = 0) ?(disable_timers = false) ?(faults = Dsim.Network.Fault.none)
    ?(metrics = Stdext.Metrics.disabled) ?final_fingerprint ~until () =
  let automaton = P.make ~n ~e ~f ~delta in
  let engine =
    Dsim.Engine.create ~automaton ~n
      ~network:(to_network ~delta net)
      ~seed ~disable_timers ~record_trace:true ~inputs:proposals ~crashes ~faults ()
  in
  let engine_result = Dsim.Engine.run ~until engine in
  if Stdext.Metrics.is_enabled metrics then
    Dsim.Engine.Probe.record metrics (Dsim.Engine.probe engine);
  (match final_fingerprint with
  | Some k when Dsim.Engine.has_fingerprint engine -> k (Dsim.Engine.fingerprint engine)
  | Some _ | None -> ());
  outcome_of ~engine_result engine

let decided_value outcome p =
  List.find_map
    (fun (t, q, v) -> if Pid.equal p q then Some (t, v) else None)
    outcome.decisions

let decided_by outcome ~deadline =
  List.filter_map
    (fun (t, q, _) -> if t <= deadline then Some q else None)
    outcome.decisions
  |> List.sort_uniq Pid.compare

let all_proposals_at_zero ~n values =
  if List.length values <> n then
    invalid_arg "Scenario.all_proposals_at_zero: need one value per process";
  List.mapi (fun i v -> (Time.zero, i, v)) values

let crash_at_start pids = List.map (fun p -> (Time.zero, p)) pids
