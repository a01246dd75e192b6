(* Tests for the workload generators and WAN topologies. *)

module Rng = Stdext.Rng
module Topology = Workload.Topology
module Conflict = Workload.Conflict

let test_topology_presets_sane () =
  List.iter
    (fun topo ->
      let k = List.length (Topology.regions topo) in
      Alcotest.(check bool) "has regions" true (k >= 1);
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          let d = Topology.oneway topo i j in
          Alcotest.(check bool) "positive" true (d >= 1);
          Alcotest.(check int) "symmetric" d (Topology.oneway topo j i)
        done
      done)
    Topology.presets

let test_topology_triangle_quality () =
  (* Not a strict triangle inequality (real networks violate it), but no
     entry should dwarf the two-hop alternative absurdly: sanity bound. *)
  let topo = Topology.planet5 in
  let m = Topology.max_oneway topo in
  Alcotest.(check bool) "max is tokyo-frankfurt range" true (m >= 100 && m <= 200)

let test_placement_round_robin () =
  let topo = Topology.planet5 in
  Alcotest.(check string) "pid 0" "virginia" (Topology.region_of_pid topo 0);
  Alcotest.(check string) "pid 5 wraps" "virginia" (Topology.region_of_pid topo 5);
  Alcotest.(check string) "pid 6 wraps" "oregon" (Topology.region_of_pid topo 6)

let test_latency_fn () =
  let topo = Topology.three_az in
  Alcotest.(check int) "cross az" 2 (Topology.latency_fn topo ~src:0 ~dst:1);
  Alcotest.(check int) "same az (wrapped pids)" 1 (Topology.latency_fn topo ~src:0 ~dst:3)

let test_conflict_extremes () =
  let rng = Rng.create ~seed:1 in
  let unanimous = Conflict.proposals ~rng ~n:6 ~rate:0.0 in
  Alcotest.(check bool) "rate 0: no conflict" false (Conflict.is_conflicting unanimous);
  let all_distinct = Conflict.proposals ~rng ~n:6 ~rate:1.0 in
  let values = List.map (fun (_, _, v) -> v) all_distinct in
  Alcotest.(check int) "rate 1: all distinct" 6
    (List.length (List.sort_uniq compare values))

let conflict_rate_property =
  QCheck.Test.make ~name:"conflict rate is monotone-ish in expectation" ~count:50
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let count rate =
        let hits = ref 0 in
        for _ = 1 to 50 do
          if Conflict.is_conflicting (Conflict.proposals ~rng ~n:5 ~rate) then incr hits
        done;
        !hits
      in
      count 0.0 = 0 && count 1.0 = 50)

let test_conflict_key () =
  let rng = Rng.create ~seed:7 in
  for _ = 1 to 200 do
    Alcotest.(check int) "keys=1 is always hot" 0 (Conflict.key ~rng ~keys:1 ~hot_rate:0.0)
  done;
  let hot = ref 0 and seen = Hashtbl.create 16 in
  for _ = 1 to 2000 do
    let k = Conflict.key ~rng ~keys:10 ~hot_rate:0.3 in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 10);
    if k = 0 then incr hot;
    Hashtbl.replace seen k ()
  done;
  Alcotest.(check bool) "hot key overrepresented" true (!hot > 400 && !hot < 900);
  Alcotest.(check bool) "cold keys all reachable" true (Hashtbl.length seen = 10);
  Alcotest.check_raises "keys < 1" (Invalid_argument "Conflict.key: keys < 1")
    (fun () -> ignore (Conflict.key ~rng ~keys:0 ~hot_rate:0.1))

let test_stats_percentile () =
  let module Stats = Stdext.Stats in
  let xs = [| 5; 1; 4; 2; 3 |] in
  Alcotest.(check int) "p0 = min" 1 (Stats.percentile xs 0.0);
  Alcotest.(check int) "p100 = max" 5 (Stats.percentile xs 100.0);
  Alcotest.(check int) "p50 = median" 3 (Stats.p50 xs);
  Alcotest.(check int) "p99 of 5 = max" 5 (Stats.p99 xs);
  (* An empty sample used to silently report percentile 0 — it must be an
     error (or [None] through the option API), never a fake number. *)
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty sample array") (fun () ->
      ignore (Stats.p50 [||]));
  Alcotest.(check (option int)) "empty via option" None (Stats.p50_opt [||]);
  Alcotest.(check (option int)) "p99_opt on data" (Some 5) (Stats.p99_opt xs);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stats.mean xs);
  (* Large samples must not overflow the mean accumulator. *)
  Alcotest.(check bool) "mean of huge values stays positive" true
    (Stats.mean [| max_int; max_int; max_int |] > 0.0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile xs 101.0))

let fleet_cfg ?(read_rate = 0.0) arrival =
  { Workload.Fleet.clients = 12; arrival; keys = 8; hot_rate = 0.2; read_rate;
    horizon = 4_000; tick = 50 }

let run_fleet ?(seed = 1) ?(pipeline = 8) ?(batch_max = 16) ?read_rate ?faults ?metrics
    ?mutation ?(protocol = Core.Rgs.obj) arrival =
  Workload.Fleet.run ~protocol ~e:2 ~f:2
    ~topology:Workload.Topology.planet5 ~pipeline ~batch_max ~seed ?faults ?metrics
    ?mutation (fleet_cfg ?read_rate arrival)

let test_fleet_closed_loop_completes () =
  let r = run_fleet (Workload.Fleet.Closed { think = 100 }) in
  Alcotest.(check bool) "converged" true r.Workload.Fleet.converged;
  Alcotest.(check bool) "some commands completed" true (r.Workload.Fleet.completed > 0);
  Alcotest.(check int) "one latency per completion"
    r.Workload.Fleet.completed
    (Array.length r.Workload.Fleet.latencies);
  Alcotest.(check bool) "completed <= submitted" true
    (r.Workload.Fleet.completed <= r.Workload.Fleet.submitted);
  Array.iter
    (fun l -> Alcotest.(check bool) "latency nonnegative, within horizon" true
        (l >= 0 && l <= r.Workload.Fleet.horizon))
    r.Workload.Fleet.latencies

let test_fleet_open_loop_completes () =
  let r = run_fleet (Workload.Fleet.Open { rate_per_client = 2.0 }) in
  Alcotest.(check bool) "converged" true r.Workload.Fleet.converged;
  Alcotest.(check bool) "some commands completed" true (r.Workload.Fleet.completed > 0);
  Alcotest.(check bool) "batching engaged" true (r.Workload.Fleet.max_batch >= 1)

let test_fleet_determinism () =
  List.iter
    (fun arrival ->
      let a = run_fleet arrival and b = run_fleet arrival in
      Alcotest.(check int) "same submitted" a.Workload.Fleet.submitted
        b.Workload.Fleet.submitted;
      Alcotest.(check int) "same completed" a.Workload.Fleet.completed
        b.Workload.Fleet.completed;
      Alcotest.(check bool) "byte-identical latency samples" true
        (a.Workload.Fleet.latencies = b.Workload.Fleet.latencies))
    [ Workload.Fleet.Closed { think = 100 };
      Workload.Fleet.Open { rate_per_client = 2.0 } ]

(* -- fleet histories and the linearizability checker ------------------- *)

let open_arrival = Workload.Fleet.Open { rate_per_client = 2.0 }

let test_fleet_history_recorded () =
  let r = run_fleet ~read_rate:0.3 open_arrival in
  let h = r.Workload.Fleet.history in
  Alcotest.(check int) "one event per submitted op" r.Workload.Fleet.submitted
    (List.length h);
  let complete =
    List.filter (fun (e : Checker.History.event) -> e.respond <> None) h
  in
  Alcotest.(check int) "completed ops have responses" r.Workload.Fleet.completed
    (List.length complete);
  List.iter
    (fun (e : Checker.History.event) ->
      Alcotest.(check bool) "complete events carry a return" true (e.ret <> None);
      match e.respond with
      | Some t -> Alcotest.(check bool) "respond after invoke" true (t >= e.invoke)
      | None -> ())
    complete;
  Alcotest.(check bool) "some reads in the mix" true
    (List.exists (fun (e : Checker.History.event) -> e.kind = Checker.History.Read) h)

(* Regression: the outstanding table used to keep one entry per distinct
   command word forever (drained queues were never removed), so it grew
   with [submitted] instead of with the in-flight count. *)
let test_fleet_outstanding_reclaimed () =
  let r = run_fleet ~read_rate:0.3 open_arrival in
  Alcotest.(check bool)
    (Printf.sprintf "outstanding %d bounded by in-flight %d"
       r.Workload.Fleet.outstanding_end
       (r.Workload.Fleet.submitted - r.Workload.Fleet.completed))
    true
    (r.Workload.Fleet.outstanding_end
    <= r.Workload.Fleet.submitted - r.Workload.Fleet.completed)

let drop_dup_faults =
  Dsim.Network.Fault.random ~drop_rate:0.02 ~dup_rate:0.02 ~max_drops:32
    ~max_dups:32 ~max_extra_delay:200 ()

let protocols =
  [ ("rgs-task", Core.Rgs.task); ("rgs-object", Core.Rgs.obj);
    ("paxos", Baselines.Paxos.protocol); ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("epaxos", Epaxos.protocol) ]

let test_fleet_histories_linearizable () =
  List.iter
    (fun (name, protocol) ->
      List.iter
        (fun (fname, faults) ->
          let r = run_fleet ~read_rate:0.3 ~protocol ?faults open_arrival in
          let o = Checker.Linearizability.check_history r.Workload.Fleet.history in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s linearizable (%s)" name fname
               (Option.value ~default:"" o.reason))
            true o.ok)
        [ ("fault-free", None); ("drop/dup", Some drop_dup_faults) ])
    protocols

let test_fleet_stale_reads_flagged () =
  let r =
    run_fleet ~read_rate:0.4 ~protocol:Core.Rgs.task
      ~mutation:(Smr.Replica.Stale_reads 1) open_arrival
  in
  let o = Checker.Linearizability.check_history r.Workload.Fleet.history in
  Alcotest.(check bool) "stale-read replica is caught" false o.ok;
  match o.witness with
  | None -> Alcotest.fail "no witness for the violation"
  | Some w ->
      Alcotest.(check bool) "witness window is non-empty" true (w.events <> []);
      Alcotest.(check bool) "window bounds ordered" true
        (w.window_start <= w.window_end);
      (* The witness must stand on its own: checking just the window's
         events (with a free initial value) still fails. *)
      Alcotest.(check bool) "witness window itself fails" false
        (Checker.Linearizability.check_history w.events).ok

(* What a fleet run records into a registry when it returns: the smr.*
   metrics restate the result, and the engine.* values, pinned for this
   seeded drop/dup run, are its engine's final probe. *)
let test_fleet_metrics_recorded () =
  let module M = Stdext.Metrics in
  let metrics = M.create () in
  let r = run_fleet ~faults:drop_dup_faults ~metrics open_arrival in
  let counter = M.get_counter metrics in
  Alcotest.(check int) "submitted" r.Workload.Fleet.submitted
    (counter "smr.commands.submitted");
  Alcotest.(check int) "completed" r.Workload.Fleet.completed
    (counter "smr.commands.completed");
  let histogram name =
    match M.find metrics name with
    | Some (M.Histogram { sum; count; _ }) -> (count, sum)
    | _ -> Alcotest.fail (name ^ " is not a registered histogram")
  in
  let latencies = r.Workload.Fleet.latencies in
  Alcotest.(check (pair int int)) "latency count and sum"
    (Array.length latencies, Array.fold_left ( + ) 0 latencies)
    (histogram "smr.latency_ms");
  Alcotest.(check int) "one batch size per applied slot" r.Workload.Fleet.slots_applied
    (fst (histogram "smr.batch_size"));
  Alcotest.(check (list (pair string int)))
    "engine counts"
    [
      ("engine.steps", 3691);
      ("engine.sent", 3442);
      ("engine.delivered", 3387);
      ("engine.dropped", 32);
      ("engine.duplicated", 32);
      ("engine.timer_fires", 219);
      ("engine.crashes", 0);
      ("engine.decides", 290);
    ]
    (List.map
       (fun name -> (name, counter name))
       [
         "engine.steps"; "engine.sent"; "engine.delivered"; "engine.dropped";
         "engine.duplicated"; "engine.timer_fires"; "engine.crashes"; "engine.decides";
       ]);
  Alcotest.(check bool) "engine.queue_hwm" true
    (M.find metrics "engine.queue_hwm" = Some (M.Gauge 216))

let test_proposer_subset () =
  let rng = Rng.create ~seed:3 in
  let ps = Conflict.proposer_subset ~rng ~n:7 ~count:3 ~rate:0.5 in
  Alcotest.(check int) "three proposers" 3 (List.length ps);
  let pids = List.map (fun (_, p, _) -> p) ps in
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare pids))

let () =
  Alcotest.run "workload"
    [
      ( "topology",
        [
          Alcotest.test_case "presets sane" `Quick test_topology_presets_sane;
          Alcotest.test_case "planet5 magnitudes" `Quick test_topology_triangle_quality;
          Alcotest.test_case "round-robin placement" `Quick test_placement_round_robin;
          Alcotest.test_case "latency function" `Quick test_latency_fn;
        ] );
      ( "conflict",
        [
          Alcotest.test_case "extremes" `Quick test_conflict_extremes;
          QCheck_alcotest.to_alcotest conflict_rate_property;
          Alcotest.test_case "proposer subset" `Quick test_proposer_subset;
          Alcotest.test_case "hot/cold key draw" `Quick test_conflict_key;
        ] );
      ( "stats",
        [ Alcotest.test_case "percentiles" `Quick test_stats_percentile ] );
      ( "fleet",
        [
          Alcotest.test_case "closed loop completes" `Quick test_fleet_closed_loop_completes;
          Alcotest.test_case "open loop completes" `Quick test_fleet_open_loop_completes;
          Alcotest.test_case "same seed, same samples" `Quick test_fleet_determinism;
          Alcotest.test_case "history recorded" `Quick test_fleet_history_recorded;
          Alcotest.test_case "outstanding reclaimed" `Quick test_fleet_outstanding_reclaimed;
          Alcotest.test_case "metrics recorded" `Quick test_fleet_metrics_recorded;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "all protocols, fault-free and drop/dup" `Slow
            test_fleet_histories_linearizable;
          Alcotest.test_case "stale-read mutation flagged" `Quick
            test_fleet_stale_reads_flagged;
        ] );
    ]
