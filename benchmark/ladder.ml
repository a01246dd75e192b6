(* The SMR offered-load ladder: one open-loop Workload.Fleet run per rung,
   the knee over the rungs, correctness gates on every rung, and (traced
   runs only) an outside-in replay of each rung that splits its wall time
   between the engine, the replica and the protocol. *)

module Fleet = Workload.Fleet
module Topology = Workload.Topology
module History = Checker.History

type settings = {
  protocol : Proto.Protocol.t;
  n : int option;  (* None = the protocol's min_n *)
  topology : Topology.t;
  read_rate : float;
  hot_rate : float;
  nominal : float;  (* the rung whose latency percentiles are reported *)
}

let e = 2

let f = 2

let clients = 240

let keys = 64

let pipeline = 16

let batch_max = 64

let tick = 50

let rates = [ 2.5; 5.0; 10.0; 20.0; 40.0; 80.0; 160.0 ]

let top_rate = 160.0

(* A command is due if it was invoked at least [drain_ms] before the
   horizon; each rung offers about [due_commands] due commands, so every
   rung's percentiles rest on the same sample size. *)
let drain_ms = 10_000

let due_commands = 4_000.0

let p99_limit_ms = 2_500

let completion_floor = 0.99

(* WGL checking grows out of reach past saturation (see README, known
   issues), so histories are checked up to this rate. *)
let lin_max_rate = 20.0

let horizon_ms rate = drain_ms + int_of_float (1000.0 *. due_commands /. rate)

let size s =
  let (module P : Proto.Protocol.S) = s.protocol in
  match s.n with Some n -> n | None -> P.min_n ~e ~f

let config s ~rate ~horizon : Fleet.config =
  {
    clients;
    arrival = Open { rate_per_client = rate /. float_of_int clients };
    keys;
    hot_rate = s.hot_rate;
    read_rate = s.read_rate;
    horizon;
    tick;
  }

let fleet s ?causality ~seed cfg =
  Fleet.run ~protocol:s.protocol ~e ~f ?n:s.n ~topology:s.topology ~pipeline ~batch_max ~seed
    ?causality cfg

(* Virtual-time account of one rung; identical across repetitions of the
   same seed, which run.ml asserts. *)
type rung = {
  rate : float;
  horizon : int;
  submitted : int;
  completed : int;
  due : int;
  due_done : int;
  p50 : int;  (* due-command latency; incomplete commands at their age at the horizon *)
  p99 : int;
  latencies : Digest.t;  (* every completed command's latency, sorted *)
}

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Incomplete due commands are at least [drain_ms] old at the horizon, far
   above [p99_limit_ms], so censoring them at their age is the same as
   counting them infinite for the knee test. *)
let summarize ~rate (r : Fleet.result) =
  let cutoff = r.horizon - drain_ms in
  let due = List.filter (fun (ev : History.event) -> ev.invoke < cutoff) r.history in
  let ages =
    Array.of_list
      (List.map
         (fun (ev : History.event) ->
           match ev.respond with Some t -> t - ev.invoke | None -> r.horizon - ev.invoke)
         due)
  in
  let pct p = Option.value ~default:0 (Stdext.Stats.percentile_opt ages p) in
  {
    rate;
    horizon = r.horizon;
    submitted = r.submitted;
    completed = r.completed;
    due = Array.length ages;
    due_done = List.length (List.filter History.complete due);
    p50 = pct 50.0;
    p99 = pct 99.0;
    latencies = Digest.string (Marshal.to_string (sorted r.latencies) []);
  }

let completed_frac g = if g.due = 0 then 0.0 else float_of_int g.due_done /. float_of_int g.due

let meets_limit g = completed_frac g >= completion_floor && g.p99 <= p99_limit_ms

(* Highest rate such that it and every lower rung meet the limit; 0 when
   even the lowest rung misses it. *)
let knee rungs =
  let rec go best = function
    | g :: rest when meets_limit g -> go g.rate rest
    | _ -> best
  in
  go 0.0 rungs

let goodput g = float_of_int g.due_done *. 1000.0 /. float_of_int (g.horizon - drain_ms)

let rung_at rungs rate = List.find (fun g -> g.rate = rate) rungs

(* One rung through the fleet, with its correctness gates. *)
type run = {
  result : Fleet.result;
  rung : rung;
  fleet : Hostspeed.span;
  minor_words : float;
  lin : Hostspeed.span;
  lin_states : int;
}

let run_rung s ~seed ~fail rate =
  let horizon = horizon_ms rate in
  let w0 = Gc.minor_words () in
  let result, fleet = Hostspeed.measure (fun () -> fleet s ~seed (config s ~rate ~horizon)) in
  let minor_words = Gc.minor_words () -. w0 in
  if not result.converged then fail (Printf.sprintf "rung %g: replicas diverged" rate);
  let lin_states, lin =
    if rate > lin_max_rate then (0, Hostspeed.zero)
    else
      Hostspeed.measure (fun () ->
          let o = Checker.Linearizability.check_history result.history in
          if not o.ok then
            fail
              (Printf.sprintf "rung %g: history not linearizable (%s)" rate
                 (Option.value ~default:"?" o.reason));
          o.stats.states)
  in
  { result; rung = summarize ~rate result; fleet; minor_words; lin; lin_states }

(* -- Outside-in replay (traced runs) ------------------------------------ *)

(* The rung's submissions, rebuilt from the fleet's history. The order is
   (invoke, client): that is the fleet's own scheduling order at equal
   instants, while the history's order breaks ties by respond time and
   makes the replay diverge. *)
let inputs s (r : Fleet.result) =
  let n = size s in
  r.history
  |> List.map (fun (ev : History.event) ->
         let action =
           match ev.kind with History.Write v -> Smr.Kv.Put v | History.Read -> Smr.Kv.Get
         in
         (ev.invoke, ev.client, Smr.Kv.encode { Smr.Kv.client = ev.client; key = ev.key; action }))
  |> List.stable_sort (fun (a, c, _) (b, d, _) -> compare (a, c) (b, d))
  |> List.map (fun (at, c, cmd) -> (at, c mod n, cmd))

type replayed = {
  engine_ns : int;  (* Engine.create + run, the stack below the fleet *)
  replay_latencies : int array;  (* sorted *)
  probe : Dsim.Engine.Probe.t;
}

(* The same deployment Fleet.run builds — Replica automaton over a shared
   Kv.Batch registry, WAN network without jitter, the fleet's seed and
   tick-stepped drive — with the protocol (and optionally the replica
   automaton) wrapped by the caller. *)
let replay s ~protocol ?replica ~seed ~horizon inputs =
  let (module P : Proto.Protocol.S) = protocol in
  let n = size s in
  let delta = Topology.max_oneway s.topology + 10 in
  let batches = Smr.Kv.Batch.create () in
  let automaton =
    Smr.Replica.make ~pipeline ~batch_max ~pack:(Smr.Kv.Batch.pack batches)
      ~expand:(Smr.Kv.Batch.expand batches) (module P) ~n ~e ~f ~delta
  in
  let automaton =
    match replica with None -> automaton | Some l -> Layer.automaton l ~n automaton
  in
  let network = Dsim.Network.Wan { latency = Topology.latency_fn s.topology; jitter = 0 } in
  let t0 = Layer.now () in
  let engine =
    Dsim.Engine.create ~automaton ~n ~network ~seed ~record_trace:false
      ~max_steps:2_000_000_000 ~inputs ()
  in
  let rec drive t =
    if t < horizon then
      let t = min horizon (t + tick) in
      match Dsim.Engine.run ~until:t engine with
      | Dsim.Engine.Reached_until -> drive t
      | Dsim.Engine.Quiescent | Dsim.Engine.Step_budget_exhausted -> ()
  in
  drive 0;
  let engine_ns = Layer.now () - t0 in
  (* A command completes at its first apply at its proxy, FIFO per word. *)
  let waiting = Hashtbl.create 4096 in
  List.iter
    (fun (at, proxy, cmd) ->
      let q =
        match Hashtbl.find_opt waiting cmd with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.add waiting cmd q;
            q
      in
      Queue.add (proxy, at) q)
    inputs;
  let latencies =
    List.fold_left
      (fun acc (time, pid, (_, cmd, _)) ->
        match Hashtbl.find_opt waiting cmd with
        | Some q when (not (Queue.is_empty q)) && fst (Queue.peek q) = pid ->
            (time - snd (Queue.pop q)) :: acc
        | _ -> acc)
      [] (Dsim.Engine.outputs engine)
  in
  let replay_latencies = sorted (Array.of_list latencies) in
  {
    engine_ns;
    replay_latencies;
    probe = Dsim.Engine.probe engine;
  }

(* Same completed commands with the same latencies, in any order. *)
let check_replay ~fail ~rate ~what (r : Fleet.result) p =
  if p.replay_latencies <> sorted r.latencies then
    fail
      (Printf.sprintf "rung %g: %s replay diverged from Fleet.run (%d vs %d completed)" rate
         what (Array.length p.replay_latencies) r.completed)
