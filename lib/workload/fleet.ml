module Rng = Stdext.Rng
module Metrics = Stdext.Metrics
module Time = Dsim.Time

type arrival = Closed of { think : int } | Open of { rate_per_client : float }

type config = {
  clients : int;
  arrival : arrival;
  keys : int;
  hot_rate : float;
  read_rate : float;
  horizon : int;
  tick : int;
}

type result = {
  submitted : int;
  completed : int;
  latencies : int array;
  slots_applied : int;
  mean_batch : float;
  max_batch : int;
  converged : bool;
  horizon : int;
  history : Checker.History.t;
  outstanding_end : int;
}

(* One client operation as the fleet observed it; respond/ret are patched
   in when the op's proxy applies it, so ops still in flight at the end of
   the run surface as incomplete history events rather than vanishing. *)
type hrec = {
  h_client : int;
  h_key : int;
  h_kind : Checker.History.kind;
  h_invoke : Time.t;
  mutable h_respond : Time.t option;
  mutable h_ret : int option;
}

let commits_per_sec r =
  if r.horizon <= 0 then 0.0
  else float_of_int r.completed *. 1000.0 /. float_of_int r.horizon

(* Latencies land in the same buckets as WAN RTT scales: milliseconds from
   one-way up to multi-second queueing collapse. *)
let latency_buckets =
  [| 10; 25; 50; 100; 200; 400; 800; 1_600; 3_200; 6_400; 12_800; 25_600 |]

let batch_buckets = [| 1; 2; 4; 8; 16; 32; 64; 128 |]

let run ~protocol ~e ~f ?n ~topology ?(jitter = 0) ?(pipeline = 1) ?(batch_max = 1)
    ?(seed = 0) ?faults ?(metrics = Metrics.disabled) ?causality ?mutation config =
  let (module P : Proto.Protocol.S) = protocol in
  let n = match n with Some n -> n | None -> P.min_n ~e ~f in
  let { clients; arrival; keys; hot_rate; read_rate; horizon; tick } = config in
  if clients < 1 then invalid_arg "Fleet.run: clients < 1";
  if clients > Smr.Kv.max_client then invalid_arg "Fleet.run: clients beyond Kv.max_client";
  if horizon < 1 then invalid_arg "Fleet.run: horizon < 1";
  if tick < 1 then invalid_arg "Fleet.run: tick < 1";
  if read_rate < 0.0 || read_rate > 1.0 then invalid_arg "Fleet.run: read_rate outside [0, 1]";
  let delta = Topology.max_oneway topology + jitter + 10 in
  let net =
    Checker.Scenario.Wan { latency = Topology.latency_fn topology; jitter }
  in
  let rng = Rng.create ~seed:(seed lxor 0x5eed_f1ee) in
  let proxy c : Dsim.Pid.t = c mod n in
  let fresh_op c =
    let key = Conflict.key ~rng ~keys ~hot_rate in
    (* The kind draw happens only when reads are enabled, so a
       [read_rate = 0.0] run consumes exactly the pre-read RNG stream and
       seeded all-write baselines stay byte-identical. *)
    let action =
      if read_rate > 0.0 && Rng.float rng 1.0 < read_rate then Smr.Kv.Get
      else Smr.Kv.Put (Rng.int rng 1024)
    in
    Smr.Kv.encode { Smr.Kv.client = c; key; action }
  in
  (* Submissions outstanding per command word, FIFO (a client resubmitting
     an identical op is a later queue entry; distinct clients can never
     collide because the client id is part of the word). *)
  let outstanding : (Proto.Value.t, (int * Time.t * hrec) Queue.t) Hashtbl.t =
    Hashtbl.create (4 * clients)
  in
  let submitted = ref 0 in
  let history_rev = ref [] in
  let note_outstanding cmd client at =
    let q =
      match Hashtbl.find_opt outstanding cmd with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.add outstanding cmd q;
          q
    in
    let op = Smr.Kv.decode cmd in
    let r =
      {
        h_client = client;
        h_key = op.Smr.Kv.key;
        h_kind =
          (match op.Smr.Kv.action with
          | Smr.Kv.Put v -> Checker.History.Write v
          | Smr.Kv.Get -> Checker.History.Read);
        h_invoke = at;
        h_respond = None;
        h_ret = None;
      }
    in
    history_rev := r :: !history_rev;
    Queue.add (client, at, r) q;
    incr submitted
  in
  (* Pre-scheduled submissions: closed-loop clients stagger their first
     command over one delta; open-loop clients get their whole Poisson
     arrival train up front (arrivals do not depend on completions). *)
  let initial_commands =
    match arrival with
    | Closed _ ->
        List.init clients (fun c ->
            let at = Rng.int rng (max 1 delta) in
            let cmd = fresh_op c in
            note_outstanding cmd c at;
            (at, proxy c, cmd))
    | Open { rate_per_client } ->
        if rate_per_client <= 0.0 then invalid_arg "Fleet.run: rate_per_client <= 0";
        let mean_gap_ms = 1000.0 /. rate_per_client in
        let arrivals = ref [] in
        for c = 0 to clients - 1 do
          let t = ref 0.0 in
          let continue = ref true in
          while !continue do
            let u = Rng.float rng 1.0 in
            t := !t +. (mean_gap_ms *. -.log (1.0 -. u));
            if !t >= float_of_int horizon then continue := false
            else begin
              let at = int_of_float !t in
              let cmd = fresh_op c in
              note_outstanding cmd c at;
              arrivals := (at, proxy c, cmd) :: !arrivals
            end
          done
        done;
        List.rev !arrivals
  in
  let inst =
    Smr.Replica.Instance.create ~protocol ~n ~e ~f ~delta ~net ~seed ~pipeline ~batch_max
      ~commands:initial_commands ?faults ?causality ?mutation
      ~max_steps:2_000_000_000 ()
  in
  let latencies_rev = ref [] in
  let completed = ref 0 in
  let on_apply time pid _slot cmd ret =
    match Hashtbl.find_opt outstanding cmd with
    | None -> ()
    | Some q when Queue.is_empty q -> Hashtbl.remove outstanding cmd
    | Some q ->
        let client, at, r = Queue.peek q in
        if Dsim.Pid.equal pid (proxy client) then begin
          ignore (Queue.pop q);
          (* Reclaim drained queues: without this every completed command
             word leaves an empty queue behind forever, and a long run's
             table grows with the number of distinct commands ever issued
             instead of the in-flight count. *)
          if Queue.is_empty q then Hashtbl.remove outstanding cmd;
          r.h_respond <- Some time;
          r.h_ret <- Some ret;
          let latency = time - at in
          latencies_rev := latency :: !latencies_rev;
          incr completed;
          match arrival with
          | Open _ -> ()
          | Closed { think } ->
              let at' = max (Smr.Replica.Instance.now inst) (time + think) in
              if at' < horizon then begin
                let cmd' = fresh_op client in
                note_outstanding cmd' client at';
                Smr.Replica.Instance.submit inst ~at:at' ~proxy:(proxy client) cmd'
              end
        end
  in
  (* Tick-stepped drive: run a slice of virtual time, drain the new apply
     events (which, closed-loop, schedules the next commands), repeat. *)
  let quiescent = ref false in
  let t = ref 0 in
  while (not !quiescent) && !t < horizon do
    t := min horizon (!t + tick);
    (match Smr.Replica.Instance.run ~until:!t inst with
    | Dsim.Engine.Quiescent ->
        (* Nothing left to process and, open-loop, nothing more arrives.
           Replicas that run Ω never get here: their Ω beats forever, so
           they run to the horizon. *)
        Smr.Replica.Instance.drain_new_outputs inst ~f:on_apply;
        (match arrival with Open _ -> quiescent := true | Closed _ -> ())
    | Dsim.Engine.Reached_until -> Smr.Replica.Instance.drain_new_outputs inst ~f:on_apply
    | Dsim.Engine.Step_budget_exhausted ->
        Smr.Replica.Instance.drain_new_outputs inst ~f:on_apply;
        quiescent := true)
  done;
  (* Batch sizes: commands per slot of one replica's applied log. *)
  let log = Smr.Replica.Instance.applied_log inst 0 in
  let sizes = Hashtbl.create 256 in
  List.iter
    (fun (slot, _) ->
      Hashtbl.replace sizes slot (1 + Option.value ~default:0 (Hashtbl.find_opt sizes slot)))
    log;
  let slots_applied = Hashtbl.length sizes in
  let latencies = Array.of_list (List.rev !latencies_rev) in
  if Metrics.is_enabled metrics then begin
    Dsim.Engine.Probe.record metrics (Smr.Replica.Instance.probe inst);
    Metrics.add (Metrics.counter metrics "smr.commands.submitted") !submitted;
    Metrics.add (Metrics.counter metrics "smr.commands.completed") !completed;
    let latency = Metrics.histogram metrics ~buckets:latency_buckets "smr.latency_ms" in
    Array.iter (Metrics.observe latency) latencies;
    let batch = Metrics.histogram metrics ~buckets:batch_buckets "smr.batch_size" in
    Hashtbl.iter (fun _ k -> Metrics.observe batch k) sizes
  end;
  let history =
    Checker.History.sort
      (List.rev_map
         (fun r ->
           {
             Checker.History.client = r.h_client;
             key = r.h_key;
             kind = r.h_kind;
             invoke = r.h_invoke;
             respond = r.h_respond;
             ret = r.h_ret;
           })
         !history_rev)
  in
  {
    submitted = !submitted;
    completed = !completed;
    latencies;
    slots_applied;
    mean_batch =
      (if slots_applied = 0 then 0.0
       else float_of_int (List.length log) /. float_of_int slots_applied);
    max_batch = Hashtbl.fold (fun _ k acc -> max k acc) sizes 0;
    converged = Smr.Replica.Instance.converged inst;
    horizon;
    history;
    outstanding_end = Hashtbl.length outstanding;
  }
