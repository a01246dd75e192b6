(* The four benchmark workloads. Each has a set-up pass (a small slice of
   its own work, run cold in fresh processes for setup_s and once more as
   the measuring process's warm-up), a repetition (the unit the timed loop
   repeats) and a traced run (one repetition with every layer boundary
   timed from outside, yielding the per-layer metrics). *)

module Explore = Checker.Explore
module Twostep = Checker.Twostep

(* A timed part of a repetition: a fleet run or a linearizability check of
   one rung, one verification case, one exploration. Parts come in the same
   order every repetition; [item] marks those whose time items_per_s
   divides by. *)
type part = { item : bool; span : Hostspeed.span }

type rep = {
  parts : part list;
  items : int;  (* work counted by items_per_s *)
  attempted : int;
  digest : string;  (* virtual-time and verdict account; equal across repetitions *)
  summary : string list;
}

type t = {
  name : string;
  setup : seed:int -> fail:(string -> unit) -> unit;
  rep : seed:int -> fail:(string -> unit) -> rep;
  traced : seed:int -> fail:(string -> unit) -> (string * float) list * int;
}

let ratio a b = if b = 0.0 then 0.0 else a /. b

let iratio a b = ratio (float_of_int a) (float_of_int b)

let secs = Layer.seconds

(* -- SMR ladders --------------------------------------------------------- *)

let ladder_summary (s : Ladder.settings) rungs =
  let nominal = Ladder.rung_at rungs s.nominal in
  let late = List.fold_left (fun acc (g : Ladder.rung) -> acc + g.due - g.due_done) 0 rungs in
  (Printf.sprintf "%8s %8s %8s %9s %8s %8s  %s" "cmd/s" "due" "done" "done%" "p50 ms" "p99 ms"
     "meets limit"
  :: List.map
       (fun (g : Ladder.rung) ->
         Printf.sprintf "%8g %8d %8d %8.2f%% %8d %8d  %b" g.rate g.due g.due_done
           (100.0 *. Ladder.completed_frac g) g.p50 g.p99 (Ladder.meets_limit g))
       rungs)
  @ [
      Printf.sprintf
        "knee %g cmd/s; at %g cmd/s p50 %d ms, p99 %d ms; goodput at %g cmd/s %.2f cmd/s; \
         %d due commands still in flight at their horizon"
        (Ladder.knee rungs) s.nominal nominal.p50 nominal.p99 Ladder.top_rate
        (Ladder.goodput (Ladder.rung_at rungs Ladder.top_rate))
        late;
    ]

let ladder_metrics (s : Ladder.settings) rungs =
  let nominal = Ladder.rung_at rungs s.nominal in
  [
    ("workload.knee_cmd_per_s", Ladder.knee rungs);
    ("workload.p50_ms", float_of_int nominal.p50);
    ("workload.p99_ms", float_of_int nominal.p99);
    ("workload.goodput_cmd_per_s", Ladder.goodput (Ladder.rung_at rungs Ladder.top_rate));
  ]
  @ List.concat_map
      (fun (g : Ladder.rung) ->
        let key m = Printf.sprintf "workload.rung_%g.%s" g.rate m in
        [
          (key "p50_ms", float_of_int g.p50);
          (key "p99_ms", float_of_int g.p99);
          (key "completed_frac", Ladder.completed_frac g);
        ])
      rungs

(* The set-up slice: one fleet run at the nominal rate over 200 virtual
   seconds. *)
let smr_setup s ~seed ~fail =
  let r =
    Ladder.fleet s ~seed (Ladder.config s ~rate:s.Ladder.nominal ~horizon:200_000)
  in
  if not r.converged then fail "set-up run: replicas diverged"

let smr_rep s ~seed ~fail =
  (* Keep only the summary of each rung, so one fleet result (and its
     history) is live at a time. *)
  let runs =
    List.map
      (fun rate ->
        let r = Ladder.run_rung s ~seed ~fail rate in
        (r.rung, [ { item = true; span = r.fleet }; { item = false; span = r.lin } ]))
      Ladder.rates
  in
  let rungs = List.map fst runs in
  {
    parts = List.concat_map snd runs;
    items = List.fold_left (fun acc (g : Ladder.rung) -> acc + g.completed) 0 rungs;
    attempted = List.fold_left (fun acc (g : Ladder.rung) -> acc + g.due) 0 rungs;
    digest = Marshal.to_string rungs [];
    summary = ladder_summary s rungs;
  }

(* Host noise swamps a single untraced/traced comparison, so the two
   alternate twice and the faster of each is kept. [traced] returns its
   wall time first. *)
let alternate ~plain ~traced =
  let p1 = plain () in
  let t1 = traced () in
  let p2 = plain () in
  let t2 = traced () in
  (min p1 p2, if fst t1 <= fst t2 then t1 else t2)

(* Causal-span pass at the nominal rung: fast-path attribution, and the
   tracer's cost against the untraced fleet run. *)
let causality_pass s ~seed ~fail (run : Ladder.run) =
  let cfg = Ladder.config s ~rate:run.rung.rate ~horizon:run.rung.horizon in
  let timed_fleet ?causality () =
    let r, span = Hostspeed.measure (fun () -> Ladder.fleet s ?causality ~seed cfg) in
    if r.completed <> run.result.completed then fail "causal tracing perturbed the run";
    span.net_ns
  in
  let plain_ns, (traced_ns, causality) =
    alternate ~plain:timed_fleet ~traced:(fun () ->
        let causality = Dsim.Causality.create () in
        (timed_fleet ~causality (), causality))
  in
  let paths = Smr.Spans.command_paths causality in
  let attr = Smr.Spans.attribution paths in
  let steps = Array.of_list (List.map (fun (p : Smr.Spans.path) -> p.delay_steps) paths) in
  [
    ("dsim.causality.overhead_frac", iratio traced_ns plain_ns -. 1.0);
    ("proto.two_step_frac", iratio attr.two_step attr.commits);
    ( "proto.delay_steps_p50",
      float_of_int (Option.value ~default:0 (Stdext.Stats.p50_opt steps)) );
  ]

let smr_traced s ~seed ~fail =
  let proto = Layer.create () in
  let replica = Layer.create () in
  let timed_protocol = Layer.protocol proto s.Ladder.protocol in
  let fleet_ns = ref 0 and minor_words = ref 0.0 and commits = ref 0 and attempted = ref 0 in
  let untimed_ns = ref 0 and timed_ns = ref 0 in
  let steps = ref 0 and sent = ref 0 and fires = ref 0 and hwm = ref 0 in
  let lin_ns = ref 0 and lin_states = ref 0 in
  let extra = ref [] in
  let rungs =
    List.map
      (fun rate ->
        let run = Ladder.run_rung s ~seed ~fail rate in
        let r = run.result in
        let inputs = Ladder.inputs s r in
        let horizon = r.horizon in
        let plain = Ladder.replay s ~protocol:s.protocol ~seed ~horizon inputs in
        Ladder.check_replay ~fail ~rate ~what:"untimed" r plain;
        let timed = Ladder.replay s ~protocol:timed_protocol ~replica ~seed ~horizon inputs in
        Ladder.check_replay ~fail ~rate ~what:"timed" r timed;
        fleet_ns := !fleet_ns + run.fleet.net_ns;
        minor_words := !minor_words +. run.minor_words;
        commits := !commits + r.completed;
        attempted := !attempted + run.rung.due;
        untimed_ns := !untimed_ns + plain.engine_ns;
        timed_ns := !timed_ns + timed.engine_ns;
        steps := !steps + timed.probe.steps;
        sent := !sent + timed.probe.sent;
        fires := !fires + timed.probe.timer_fires;
        hwm := max !hwm timed.probe.queue_hwm;
        lin_ns := !lin_ns + run.lin.net_ns;
        lin_states := !lin_states + run.lin_states;
        if rate = s.nominal then
          extra := (("smr.mean_batch", r.mean_batch) :: causality_pass s ~seed ~fail run) @ !extra;
        run.rung)
      Ladder.rates
  in
  (* Self times telescope: engine run = dsim + replica, replica = smr +
     protocol. The fleet's own bookkeeping is what Fleet.run spends beyond
     the untimed replay of the same rung. *)
  let dsim_s = secs (!timed_ns - Layer.ns replica) in
  let smr_s = secs (Layer.ns replica - Layer.ns proto) in
  let proto_s = secs (Layer.ns proto) in
  let residual_s = secs (!fleet_ns - !untimed_ns) in
  let explained = dsim_s +. smr_s +. proto_s +. residual_s in
  let fleet_s = secs !fleet_ns in
  let commits = float_of_int !commits in
  ( [
      ("dsim.self_s", dsim_s);
      ("dsim.self_share", ratio dsim_s explained);
      ("dsim.events_per_commit", ratio (float_of_int !steps) commits);
      ("dsim.messages_per_commit", ratio (float_of_int !sent) commits);
      ("dsim.timer_fires_per_commit", ratio (float_of_int !fires) commits);
      ("dsim.queue_hwm", float_of_int !hwm);
      ("smr.self_s", smr_s);
      ("smr.self_share", ratio smr_s explained);
      ("smr.ns_per_transition", iratio (Layer.ns replica - Layer.ns proto) replica.calls);
      ("smr.transitions_per_commit", ratio (float_of_int replica.calls) commits);
      ("proto.self_s", proto_s);
      ("proto.self_share", ratio proto_s explained);
      ("proto.ns_per_transition", iratio (Layer.ns proto) proto.calls);
      ("proto.transitions_per_commit", ratio (float_of_int proto.calls) commits);
      ("checker.linearizability.check_s", secs !lin_ns);
      ("checker.linearizability.states", float_of_int !lin_states);
      ("workload.minor_words_per_commit", ratio !minor_words commits);
      ("workload.residual_s", residual_s);
      ("trace.overhead_frac", iratio !timed_ns !untimed_ns -. 1.0);
      ("trace.unexplained_frac", Float.abs (ratio explained fleet_s -. 1.0));
    ]
    @ !extra @ ladder_metrics s rungs,
    !attempted )

let smr name settings =
  {
    name;
    setup = smr_setup settings;
    rep = smr_rep settings;
    traced = smr_traced settings;
  }

(* -- Definition 4 verification ------------------------------------------- *)

type case = {
  label : string;
  protocol : Proto.Protocol.t;
  n : int;
  kind : [ `Task | `Object ];
  holds : bool;  (* the proved verdict *)
  configs : int;
  runs : int;
  failures : int;
}

let verify_cases =
  [
    {
      label = "rgs-task n=9 check_task";
      protocol = Core.Rgs.task;
      n = 9;
      kind = `Task;
      holds = true;
      configs = 44_016;
      runs = 81_648;
      failures = 0;
    };
    {
      label = "rgs-object n=8 check_object";
      protocol = Core.Rgs.obj;
      n = 8;
      kind = `Object;
      holds = true;
      configs = 1_120;
      runs = 1_120;
      failures = 0;
    };
    {
      label = "paxos n=7 check_task";
      protocol = Baselines.Paxos.protocol;
      n = 7;
      kind = `Task;
      holds = false;
      configs = 4_760;
      runs = 22_280;
      failures = 2_160;
    };
  ]

let check_case ~protocol c =
  let check = match c.kind with `Task -> Twostep.check_task | `Object -> Twostep.check_object in
  check protocol ~n:c.n ~e:3 ~f:3 ~delta:100 ~values:[ 0; 1 ] ()

let gate_case ~fail c (r : Twostep.report) =
  let failures = List.length r.failures in
  if
    Twostep.ok r <> c.holds || r.checked_configs <> c.configs || r.checked_runs <> c.runs
    || failures <> c.failures
  then
    fail
      (Printf.sprintf "%s: holds=%b configs=%d runs=%d failures=%d, expected %b/%d/%d/%d"
         c.label (Twostep.ok r) r.checked_configs r.checked_runs failures c.holds c.configs
         c.runs c.failures)

(* Time of each case's check. *)
let verify_all ?(wrap = Fun.id) ~fail cases =
  List.map
    (fun c ->
      let r, span = Hostspeed.measure (fun () -> check_case ~protocol:(wrap c.protocol) c) in
      gate_case ~fail c r;
      span)
    cases

let sum f cases = List.fold_left (fun acc c -> acc + f c) 0 cases

let total = List.fold_left (fun acc (s : Hostspeed.span) -> acc + s.net_ns) 0

let verify_rep ~seed:_ ~fail =
  {
    parts = List.map (fun span -> { item = true; span }) (verify_all ~fail verify_cases);
    items = sum (fun c -> c.runs) verify_cases;
    attempted = sum (fun c -> c.configs) verify_cases;
    digest = "";
    summary =
      List.map
        (fun c ->
          Printf.sprintf "%-28s %s: %d configurations, %d runs, %d failing" c.label
            (if c.holds then "holds" else "fails as proved")
            c.configs c.runs c.failures)
        verify_cases;
  }

(* Per-commit figures on checker workloads count decisions (environment
   outputs) seen at the protocol boundary; the engine is not reachable
   from outside a checker call, so its events are the transitions it
   dispatched and its self time stays inside the checker's rest. *)
let protocol_metrics (l : Layer.t) ~wall_s =
  let proto_s = secs (Layer.ns l) in
  let decisions = float_of_int l.outputs in
  [
    ("dsim.events_per_commit", ratio (float_of_int l.calls) decisions);
    ("dsim.messages_per_commit", ratio (float_of_int l.sends) decisions);
    ("dsim.timer_fires_per_commit", ratio (float_of_int l.timer_fires) decisions);
    ("proto.self_s", proto_s);
    ("proto.self_share", ratio proto_s wall_s);
    ("proto.ns_per_transition", iratio (Layer.ns l) l.calls);
    ("proto.transitions_per_commit", ratio (float_of_int l.calls) decisions);
  ]

let verify_traced ~seed:_ ~fail =
  let untimed_ns, (wall_ns, l) =
    alternate
      ~plain:(fun () -> total (verify_all ~fail verify_cases))
      ~traced:(fun () ->
        let l = Layer.create () in
        (total (verify_all ~wrap:(Layer.protocol l) ~fail verify_cases), l))
  in
  let wall_s = secs wall_ns in
  let runs = sum (fun c -> c.runs) verify_cases in
  let configs = sum (fun c -> c.configs) verify_cases in
  ( [
      ("checker.twostep.configs", float_of_int configs);
      ("checker.twostep.runs", float_of_int runs);
      ("checker.twostep.runs_per_s", ratio (float_of_int runs) (secs untimed_ns));
      ("checker.twostep.rest_self_s", secs (wall_ns - Layer.ns l));
      ("trace.overhead_frac", iratio wall_ns untimed_ns -. 1.0);
    ]
    @ protocol_metrics l ~wall_s,
    configs )

(* The set-up slice is the workload's two small cases. *)
let verify_setup ~seed:_ ~fail =
  ignore (verify_all ~fail (List.filter (fun c -> c.n < 9) verify_cases) : Hostspeed.span list)

let verify =
  { name = "verify-rgs-n9"; setup = verify_setup; rep = verify_rep; traced = verify_traced }

(* -- Fault-injecting exploration ----------------------------------------- *)

let explored_pin = 6_336

let distinct_pin = 44_865

let explore_run ?(protocol = Core.Rgs.task) ?(check = Checker.Safety.safe) ?metrics
    ?(n = 6) ?(e = 2) ?(f = 2) ?(domains = 1) () =
  let proposals = Checker.Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i)) in
  let (r, report), span =
    Hostspeed.measure (fun () ->
        Explore.synchronous_report protocol ~n ~e ~f ~delta:100 ~proposals ~rounds:2
          ~budget:100_000 ~faults:{ Explore.max_drops = 1; max_dups = 1 } ~dedup:Explore.Exact
          ~por:Explore.Sleep ~domains ~clamp_domains:false ?metrics ~check ())
  in
  (span, r, report.Explore.Run_report.totals)

let gate_explore ~fail (r : Explore.result) (t : Explore.Run_report.totals) =
  if r.violations <> 0 || r.explored <> explored_pin || t.distinct_states <> distinct_pin then
    fail
      (Printf.sprintf "explore: %d violations, %d explored, %d distinct; expected 0/%d/%d"
         r.violations r.explored t.distinct_states explored_pin distinct_pin)

(* The set-up slice is the same search one size down, at the task bound
   n = 5 (e = 2, f = 1). *)
let explore_setup ~seed:_ ~fail =
  let _, r, _ = explore_run ~n:5 ~e:2 ~f:1 () in
  if r.violations <> 0 then fail "explore set-up: safety violation"

let explore_rep ~seed:_ ~fail =
  let span, r, t = explore_run () in
  gate_explore ~fail r t;
  {
    parts = [ { item = true; span } ];
    items = t.distinct_states;
    attempted = r.explored;
    digest = "";
    summary =
      [
        Printf.sprintf
          "explored %d schedules, %d distinct states, %d violations, truncated %b (budget \
           not reached: perm_limit fallback on large batches)"
          r.explored t.distinct_states r.violations r.truncated;
      ];
  }

let explore_traced ~seed:_ ~fail =
  let traced () =
    let l = Layer.create () in
    let safety_ns = ref 0 in
    let check o =
      let t0 = Layer.now () in
      let ok = Checker.Safety.safe o in
      safety_ns := !safety_ns + (Layer.now () - t0);
      ok
    in
    let metrics = Stdext.Metrics.create () in
    let span, r, t = explore_run ~protocol:(Layer.protocol l Core.Rgs.task) ~check ~metrics () in
    gate_explore ~fail r t;
    (span.net_ns, (l, !safety_ns, metrics, r, t))
  in
  let plain () =
    let span, r, t = explore_run () in
    gate_explore ~fail r t;
    span.Hostspeed.net_ns
  in
  let untimed_ns, (wall_ns, (l, safety_ns, metrics, r, t)) = alternate ~plain ~traced in
  let counter name = float_of_int (Stdext.Metrics.get_counter metrics name) in
  ( [
      ("checker.explore.explored", float_of_int r.explored);
      ("checker.explore.distinct_states", float_of_int t.distinct_states);
      ("checker.explore.dedup_hits", float_of_int t.dedup_hits);
      ("checker.explore.por_pruned", float_of_int t.por_pruned);
      ("checker.explore.sleep_hits", float_of_int t.sleep_hits);
      ( "checker.explore.distinct_states_per_s",
        ratio (float_of_int t.distinct_states) (secs untimed_ns) );
      ("checker.explore.rest_self_s", secs (wall_ns - Layer.ns l - safety_ns));
      ("checker.safety.self_s", secs safety_ns);
      ("stdext.stateset.hits", counter "stateset.hits");
      ("stdext.stateset.misses", counter "stateset.misses");
      ("stdext.stateset.collisions", counter "stateset.collisions");
      ("stdext.stateset.resizes", counter "stateset.resizes");
      ("trace.overhead_frac", iratio wall_ns untimed_ns -. 1.0);
    ]
    @ protocol_metrics l ~wall_s:(secs wall_ns),
    r.explored )

let explore =
  { name = "explore-faults-n6"; setup = explore_setup; rep = explore_rep; traced = explore_traced }

(* -- The set ------------------------------------------------------------- *)

let rgs_planet5 =
  {
    Ladder.protocol = Core.Rgs.task;
    n = None;
    topology = Workload.Topology.planet5;
    read_rate = 0.0;
    hot_rate = 0.1;
    nominal = 10.0;
  }

let paxos_planet9_rw =
  {
    Ladder.protocol = Baselines.Paxos.protocol;
    n = Some 9;
    topology = Workload.Topology.planet9;
    read_rate = 0.5;
    hot_rate = 0.5;
    nominal = 5.0;
  }

let all =
  [
    smr "smr-rgs-task-planet5" rgs_planet5;
    smr "smr-paxos-planet9-rw" paxos_planet9_rw;
    verify;
    explore;
  ]
