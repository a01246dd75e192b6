(* Benchmark and experiment harness.

   Usage:
     dune exec bench/main.exe              # everything: T1-T4, F1-F5, the perf suites
     dune exec bench/main.exe -- t3 f2     # selected experiments
     dune exec bench/main.exe -- bechamel  # microbenchmarks only
     dune exec bench/main.exe -- explore   # exploration perf suite -> BENCH_explore.json
     dune exec bench/main.exe -- engine    # engine throughput suite -> BENCH_engine.json
     dune exec bench/main.exe -- --explore-budget 200 explore   # CI smoke sizing
     dune exec bench/main.exe -- --help    # every flag and name

   Each T/F experiment regenerates one claim of the paper as a table or
   series (see DESIGN.md section 3 and EXPERIMENTS.md). The bechamel suite
   measures the cost of the building blocks themselves and prints its
   estimates; every other perf suite (explore, faults, engine, smr and
   lin) times the explorer, the engine or the SMR deployment and records
   its rows machine-readably in a BENCH_<suite>.json file so successive
   runs can compare. *)

module Json = Stdext.Json

let fmt = Format.std_formatter

(* -- BENCH files -------------------------------------------------------- *)

(* The one writer of every BENCH_<suite>.json: [suite], [schema_version],
   a [schema] listing the row keys, the [header] fields, then [rows] with
   one object per line. Every row carries the first row's keys in order. *)
let write_bench ~suite ~version ?(header = []) rows =
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let schema = match rows with [] -> [] | row :: _ -> List.map fst row in
  let rows_text =
    List.map (fun row -> "    " ^ Json.to_string (Json.Obj row)) rows |> String.concat ",\n"
  in
  let fields =
    List.map
      (fun (key, v) -> (key, Json.to_string v))
      ([
         ("suite", Json.String suite);
         ("schema_version", Json.Int version);
         ("schema", Json.List (List.map (fun key -> Json.String key) schema));
       ]
      @ header)
    @ [ ("rows", "[\n" ^ rows_text ^ "\n  ]") ]
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map
              (fun (key, text) -> Printf.sprintf "  %s: %s" (Json.to_string (Json.String key)) text)
              fields)));
  Format.fprintf fmt "(wrote %d rows to %s)@." (List.length rows) path

(* A float column at the precision it is read at: [digits] decimals. *)
let fixed digits x = Json.Float (float_of_string (Printf.sprintf "%.*f" digits x))

let per_sec count wall_ns =
  if wall_ns = 0 then 0.0 else float_of_int count /. (float_of_int wall_ns /. 1e9)

let elapsed_ns t0 = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)

(* -- Exploration performance suite -------------------------------------- *)

(* One row of the explore and faults suites. *)
type explore_row = {
  experiment : string;
  n : int;
  budget : int;
  rounds : int;
  faults : Checker.Explore.fault_bounds;
  explored : int;
  wall_ns : int;
  fast_path_rate : float;
  mean_depth : float;
  dedup : string;
  distinct_states : int;
  dedup_hits : int;
  por : string;
  por_pruned : int;
}

(* Suites append here and each writes the union, so one invocation running
   both [explore] and [faults] produces a single BENCH_explore.json with
   every row. *)
let all_samples : explore_row list ref = ref []

(* The fraction of search-tree arrivals that landed on an already-visited
   state — 0 with dedup off. *)
let dedup_hit_rate r =
  let arrivals = r.distinct_states + r.dedup_hits in
  if arrivals = 0 then 0. else float_of_int r.dedup_hits /. float_of_int arrivals

(* n=5..7 at fixed rounds: the (e, f) pairs keep n exactly at the task
   bound 2e+f so the configurations match the T2/T3 grids. The n=7 tree
   holds 1,292 runs: the 1,000 budget cuts it, and the extra 10k-budget
   row searches it to the end. *)
let explore_configs = [ (5, 2, 1, 1_000); (6, 2, 2, 1_000); (7, 2, 3, 1_000); (7, 2, 3, 10_000) ]

let explore_rounds = 3

let dedup_name = function Checker.Explore.Off -> "off" | Checker.Explore.Exact -> "exact"

let por_name = function Checker.Explore.No_por -> "off" | Checker.Explore.Sleep -> "sleep"

let time_explore ~experiment ~n ~e ~f ~budget ~rounds ~faults ?(dedup = Checker.Explore.Off)
    ?(por = Checker.Explore.No_por) () =
  let proposals =
    Checker.Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i))
  in
  let t0 = Unix.gettimeofday () in
  let r, report =
    Checker.Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta:100 ~proposals
      ~rounds ~budget ~faults ~dedup ~por
      ~check:(fun o -> Checker.Safety.safe o)
      ()
  in
  let wall_ns = elapsed_ns t0 in
  if r.Checker.Explore.violations > 0 then
    failwith "explore bench: unexpected safety violation";
  let totals = report.Checker.Explore.Run_report.totals in
  {
    experiment;
    n;
    budget;
    rounds;
    faults;
    explored = r.Checker.Explore.explored;
    wall_ns;
    fast_path_rate = Checker.Explore.Run_report.fast_path_rate totals;
    mean_depth = Checker.Explore.Run_report.mean_depth totals;
    dedup = dedup_name dedup;
    distinct_states = totals.Checker.Explore.Run_report.distinct_states;
    dedup_hits = totals.Checker.Explore.Run_report.dedup_hits;
    por = por_name por;
    por_pruned = totals.Checker.Explore.Run_report.por_pruned;
  }

let explore_json s =
  [
    ("experiment", Json.String s.experiment);
    ("protocol", Json.String (Proto.Protocol.name Core.Rgs.task));
    ("n", Json.Int s.n);
    ("budget", Json.Int s.budget);
    ("rounds", Json.Int s.rounds);
    ("max_drops", Json.Int s.faults.max_drops);
    ("max_dups", Json.Int s.faults.max_dups);
    ("explored", Json.Int s.explored);
    ("wall_ns", Json.Int s.wall_ns);
    ("states_per_sec", fixed 1 (per_sec s.explored s.wall_ns));
    ("fast_path_rate", fixed 4 s.fast_path_rate);
    ("mean_depth", fixed 2 s.mean_depth);
    ("dedup", Json.String s.dedup);
    ("distinct_states", Json.Int s.distinct_states);
    ("dedup_hit_rate", fixed 4 (dedup_hit_rate s));
    ("por", Json.String s.por);
    ("por_pruned", Json.Int s.por_pruned);
    ("distinct_states_per_sec", fixed 1 (per_sec s.distinct_states s.wall_ns));
  ]

let print_sample_table samples =
  Format.fprintf fmt
    "%-20s %3s %7s %5s %5s %-8s %-6s | %8s %10s %11s %5s %6s %9s %6s %9s@." "experiment" "n"
    "budget" "drops" "dups" "dedup" "por" "explored" "wall-ms" "states/sec" "fast" "depth"
    "distinct" "hit%" "pruned";
  List.iter
    (fun s ->
      Format.fprintf fmt
        "%-20s %3d %7d %5d %5d %-8s %-6s | %8d %10.1f %11.0f %5.2f %6.2f %9d %6.1f %9d@."
        s.experiment s.n s.budget s.faults.max_drops s.faults.max_dups s.dedup s.por s.explored
        (float_of_int s.wall_ns /. 1e6)
        (per_sec s.explored s.wall_ns)
        s.fast_path_rate s.mean_depth s.distinct_states
        (100. *. dedup_hit_rate s) s.por_pruned)
    samples

let emit_samples samples =
  all_samples := !all_samples @ samples;
  print_sample_table samples;
  write_bench ~suite:"explore" ~version:9 (List.map explore_json !all_samples)

let run_explore_suite ~budget_override () =
  Format.fprintf fmt "@.%s@.B2. Exploration@.%s@." (String.make 78 '-') (String.make 78 '-');
  let configs =
    let with_budget =
      match budget_override with
      | None -> explore_configs
      | Some b -> List.map (fun (n, e, f, _) -> (n, e, f, b)) explore_configs
    in
    List.sort_uniq compare with_budget
  in
  let cases = List.map (fun cfg -> (cfg, Checker.Explore.Off)) configs in
  (* The dedup trajectory: an explicit on-vs-off pair at every n >= 6
     config (the off rows are above). The n=7 10k-budget pair is the
     headline — dedup is what turns that budget-truncated search
     exhaustive. *)
  let dedup_cases =
    List.filter_map
      (fun (n, e, f, b) ->
        if n >= 6 then Some ((n, e, f, b), Checker.Explore.Exact) else None)
      configs
  in
  let samples =
    List.map
      (fun ((n, e, f, budget), dedup) ->
        let experiment =
          Printf.sprintf "explore-n%d%s" n
            (if budget = 1_000 then "" else Printf.sprintf "-b%d" budget)
        in
        time_explore ~experiment ~n ~e ~f ~budget ~rounds:explore_rounds
          ~faults:Checker.Explore.no_faults ~dedup ())
      (cases @ dedup_cases)
  in
  (* POR trajectory: a fixed-budget on/off pair per n >= 6 config, run at
     a budget large enough that both sides are exhaustive — so the
     schedules-enumerated ratio measures the tree, not a budget artifact —
     plus the POR+dedup composition row. Deliberately independent of
     --explore-budget: POR makes these cheap. *)
  let por_budget = 5_000 in
  let por_samples =
    List.concat_map
      (fun (n, e, f, _) ->
        if n < 6 then []
        else
          let experiment = Printf.sprintf "por-n%d" n in
          List.map
            (fun (dedup, por) ->
              time_explore ~experiment ~n ~e ~f ~budget:por_budget
                ~rounds:explore_rounds ~faults:Checker.Explore.no_faults ~dedup ~por ())
            [
              (Checker.Explore.Off, Checker.Explore.No_por);
              (Checker.Explore.Off, Checker.Explore.Sleep);
              (Checker.Explore.Exact, Checker.Explore.Sleep);
            ])
      (List.sort_uniq compare (List.map (fun (n, e, f, _) -> (n, e, f, 0)) configs))
  in
  (* The acceptance gate: POR with exact dedup must enumerate at
     most half the schedules POR-off enumerates, with identical (clean)
     verdicts — time_explore already fails on any violation. *)
  List.iter
    (fun (n, _, _, _) ->
      if n >= 7 then begin
        let find por dedup =
          List.find
            (fun s ->
              s.experiment = Printf.sprintf "por-n%d" n
              && s.por = por && s.dedup = dedup)
            por_samples
        in
        let off = find "off" "off" in
        let on = find "sleep" "exact" in
        if on.explored * 2 > off.explored then
          failwith
            (Printf.sprintf
               "POR regression at n=%d: sleep enumerates %d of %d schedules (> 50%%)" n
               on.explored off.explored)
      end)
    (List.sort_uniq compare (List.map (fun (n, e, f, _) -> (n, e, f, 0)) configs));
  (* The reduced search at n=8 (the task bound for e=2, f=4): exact dedup
     and sleep POR finish its tree in 256 runs, so the budget does not
     cut it; the perm-limit fallback still marks it truncated. Honours
     --explore-budget for CI smoke sizing. *)
  let n8_budget = match budget_override with None -> 2_000 | Some b -> b in
  let n8_sample =
    time_explore ~experiment:"por-n8" ~n:8 ~e:2 ~f:4 ~budget:n8_budget ~rounds:explore_rounds
      ~faults:Checker.Explore.no_faults ~dedup:Checker.Explore.Exact ~por:Checker.Explore.Sleep
      ()
  in
  emit_samples (samples @ por_samples @ [ n8_sample ])

(* Fault-injection exploration: the same explorer with drop/duplication
   branching enabled. Fault subsets widen the tree by orders of magnitude,
   so these run at [fault_rounds] = 2 and lean on the budget cut; the
   interesting signal is the states/sec cost of fault branching relative
   to the no-fault rows. *)
let fault_configs = [ (5, 2, 1, 2_000); (6, 2, 2, 2_000) ]

let fault_rounds = 2

let fault_bounds = { Checker.Explore.max_drops = 1; max_dups = 1 }

let run_faults_suite ~budget_override () =
  Format.fprintf fmt "@.%s@.B3. Fault-injection exploration (<=%d drops, <=%d dups)@.%s@."
    (String.make 78 '-') fault_bounds.Checker.Explore.max_drops
    fault_bounds.Checker.Explore.max_dups (String.make 78 '-');
  let configs =
    match budget_override with
    | None -> fault_configs
    | Some b -> List.sort_uniq compare (List.map (fun (n, e, f, _) -> (n, e, f, b)) fault_configs)
  in
  let samples =
    List.map
      (fun (n, e, f, budget) ->
        time_explore
          ~experiment:(Printf.sprintf "faults-n%d" n)
          ~n ~e ~f ~budget ~rounds:fault_rounds ~faults:fault_bounds ())
      configs
  in
  emit_samples samples

(* -- Engine throughput suite -------------------------------------------- *)

(* Raw Dsim.Engine stepping speed, isolated from the checker's schedule
   enumeration: every frontier in ROADMAP.md multiplies event volume
   through this loop, so its events/sec — and its allocations/event, the
   other axis the int-packed rewrite moves — get their own trajectory rows.
   Three workloads:
     engine-n6-sync      full synchronous-round runs, no trace recording
                         (the SMR/sweep configuration);
     engine-n6-trace     the same runs with trace recording on (the
                         explorer's configuration — shows the trace tax);
     engine-n6-snapshot  the explorer's snapshot-mode inner loop: clone a
                         mid-run engine, deliver its pending round, run to
                         quiescence (Manual network, trace on);
     engine-n6-timers    partial synchrony with live timers (exercises the
                         timer heap and the stochastic-delay path; a
                         cancelled or re-armed timer is not an event, so
                         this row counts no stale timer pops).
   Events are the engine's own probe steps: comparable across engine
   rewrites as long as the event definition holds. The suite writes its
   own BENCH_engine.json. *)

let delta = 100

let engine_protocol = Core.Rgs.task

let engine_n, engine_e, engine_f = (6, 2, 2)

let run_engine_workload (module P : Proto.Protocol.S) ~kind ~iters =
  let n, e, f = (engine_n, engine_e, engine_f) in
  let automaton = P.make ~n ~e ~f ~delta in
  let inputs = List.init n (fun i -> (0, i, n - 1 - i)) in
  let mk network ~record_trace ~disable_timers ~seed =
    Dsim.Engine.create ~automaton ~n ~network ~seed ~record_trace ~disable_timers
      ~inputs ()
  in
  let events = ref 0 in
  let steps engine = (Dsim.Engine.probe engine).Dsim.Engine.Probe.steps in
  (match kind with
  | `Sync record_trace ->
      for seed = 1 to iters do
        let engine =
          mk
            (Dsim.Network.Sync_rounds { delta; order = Dsim.Network.Arrival })
            ~record_trace ~disable_timers:true ~seed
        in
        ignore (Dsim.Engine.run ~until:(3 * delta) engine : Dsim.Engine.run_result);
        events := !events + steps engine
      done
  | `Timers ->
      (* Fewer, longer runs: each takes ~15 rounds to quiesce. *)
      for seed = 1 to max 1 (iters / 10) do
        let engine =
          mk
            (Dsim.Network.Partial_sync { delta; gst = 3 * delta; max_pre_gst = 150 })
            ~record_trace:false ~disable_timers:false ~seed
        in
        ignore (Dsim.Engine.run ~until:(40 * delta) engine : Dsim.Engine.run_result);
        events := !events + steps engine
      done
  | `Snapshot ->
      let base = mk Dsim.Network.Manual ~record_trace:true ~disable_timers:true ~seed:0 in
      ignore (Dsim.Engine.run ~until:(delta - 1) base : Dsim.Engine.run_result);
      let base_steps = steps base in
      for _ = 1 to iters do
        let engine = Dsim.Engine.clone base in
        for round = 1 to 3 do
          let ids =
            List.rev
              (Dsim.Engine.fold_pending engine ~init:[]
                 ~f:(fun acc ~id ~src:_ ~dst:_ ~msg:_ ~sent_at:_ -> id :: acc))
          in
          List.iter
            (fun id -> Dsim.Engine.deliver_pending engine ~id ~at:(round * delta))
            ids;
          ignore (Dsim.Engine.run ~until:(((round + 1) * delta) - 1) engine
                   : Dsim.Engine.run_result)
        done;
        events := !events + (steps engine - base_steps)
      done);
  !events

type engine_row = {
  e_experiment : string;
  e_iters : int;
  e_events : int;
  e_wall_ns : int;
  e_minor_words : float;
}

let events_per_sec r = per_sec r.e_events r.e_wall_ns

let minor_words_per_event r =
  if r.e_events = 0 then 0.0 else r.e_minor_words /. float_of_int r.e_events

let time_engine_workload ~experiment ~kind ~iters =
  (* One untimed pass warms caches and stretches the minor heap so the
     measured pass sees the steady state. *)
  ignore (run_engine_workload engine_protocol ~kind ~iters:(max 1 (iters / 10)) : int);
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = run_engine_workload engine_protocol ~kind ~iters in
  let wall_ns = elapsed_ns t0 in
  let w1 = Gc.minor_words () in
  {
    e_experiment = experiment;
    e_iters = iters;
    e_events = events;
    e_wall_ns = wall_ns;
    e_minor_words = w1 -. w0;
  }

let engine_json r =
  [
    ("experiment", Json.String r.e_experiment);
    ("protocol", Json.String (Proto.Protocol.name engine_protocol));
    ("n", Json.Int engine_n);
    ("iters", Json.Int r.e_iters);
    ("events", Json.Int r.e_events);
    ("wall_ns", Json.Int r.e_wall_ns);
    ("events_per_sec", fixed 1 (events_per_sec r));
    ("minor_words_per_event", fixed 2 (minor_words_per_event r));
  ]

let engine_workloads =
  [
    ("engine-n6-sync", `Sync false);
    ("engine-n6-trace", `Sync true);
    ("engine-n6-snapshot", `Snapshot);
    ("engine-n6-timers", `Timers);
  ]

(* Regression guard for CI: every row whose experiment has an entry
   carrying [field] in the committed baseline file (BENCH_baseline.json at
   the repo root, deliberately conservative so runner-to-runner noise does
   not trip it) must reach 70% of that floor; the run fails otherwise.
   [rows] pairs each experiment with its measured [field]. *)
let check_baseline_floor ~baseline_path ~field rows =
  let fail msg =
    Printf.eprintf "baseline check: %s\n" msg;
    exit 1
  in
  let contents =
    try In_channel.with_open_text baseline_path In_channel.input_all
    with Sys_error e -> fail (Printf.sprintf "cannot read %s: %s" baseline_path e)
  in
  let json =
    match Json.parse contents with
    | Ok j -> j
    | Error e -> fail (Printf.sprintf "cannot parse %s: %s" baseline_path e)
  in
  let baseline =
    match Json.member "baseline" json with
    | Some (Json.List baseline) -> baseline
    | _ -> fail (Printf.sprintf "%s: missing \"baseline\" array" baseline_path)
  in
  let floor_of name =
    List.find_map
      (fun row ->
        match (Json.member "experiment" row, Json.member field row) with
        | Some (Json.String e), Some (Json.Float v) when e = name -> Some v
        | Some (Json.String e), Some (Json.Int v) when e = name -> Some (float_of_int v)
        | _ -> None)
      baseline
  in
  List.iter
    (fun (experiment, current) ->
      match floor_of experiment with
      | None ->
          Format.fprintf fmt "baseline check: %s has no %s baseline, skipped@." experiment
            field
      | Some base ->
          if current < 0.7 *. base then
            fail
              (Printf.sprintf "%s regressed: %.1f %s < 70%% of baseline %.1f" experiment
                 current field base)
          else
            Format.fprintf fmt "baseline check: %s ok (%.1f %s vs baseline %.1f)@."
              experiment current field base)
    rows

let run_engine_suite ~iters ~check_baseline () =
  Format.fprintf fmt "@.%s@.B5. Engine throughput (events/sec, minor words/event; %d iters)@.%s@."
    (String.make 78 '-') iters (String.make 78 '-');
  let rows =
    List.map
      (fun (experiment, kind) -> time_engine_workload ~experiment ~kind ~iters)
      engine_workloads
  in
  Format.fprintf fmt "%-20s | %12s %12s %14s@." "workload" "events" "events/sec"
    "minor w/event";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-20s | %12d %12.0f %14.2f@." r.e_experiment r.e_events
        (events_per_sec r) (minor_words_per_event r))
    rows;
  write_bench ~suite:"engine" ~version:8 (List.map engine_json rows);
  Option.iter
    (fun baseline_path ->
      check_baseline_floor ~baseline_path ~field:"events_per_sec"
        (List.map (fun r -> (r.e_experiment, events_per_sec r)) rows))
    check_baseline

(* -- SMR deployment suite ----------------------------------------------- *)

(* End-to-end throughput/latency of the replicated KV store under an
   open-loop client fleet: every protocol x topology is measured twice at
   the same offered load — one command per slot ("baseline") vs pipelining
   + batching ("tuned") — so the printed speedup is the payoff of
   amortizing consensus instances, not of admitting more work. *)

type smr_row = {
  s_experiment : string;  (* smr-<protocol>-<topology>-<mode> *)
  s_protocol : string;
  s_topology : string;
  s_mode : string;
  s_pipeline : int;
  s_batch_max : int;
  s_clients : int;
  s_rate : float;
  s_horizon : int;
  s_submitted : int;
  s_completed : int;
  s_commits_per_sec : float;
  s_p50 : int;
  s_p99 : int;
  s_mean_batch : float;
  s_max_batch : int;
  s_converged : bool;
  s_wall_ns : int;
  (* Causal critical-path attribution (Smr.Spans over the run's span store):
     how many commits measured at <= 2 message delays, the full delay_steps
     histogram, and the component dominating the p99 latency tail. *)
  s_path_commits : int;
  s_two_step : int;
  s_steps_hist : (int * int) list;
  s_p99_dominant : string option;
}

let smr_topologies = [ Workload.Topology.planet5; Workload.Topology.planet9 ]

let smr_modes = [ ("baseline", 1, 1); ("tuned", 16, 64) ]

let smr_rate = 4.0

let time_smr ~protocol_name ~protocol ~topology ~mode ~pipeline ~batch_max ~clients
    ~horizon =
  let cfg : Workload.Fleet.config =
    {
      clients;
      arrival = Open { rate_per_client = smr_rate };
      keys = 64;
      hot_rate = 0.1;
      read_rate = 0.0;
      horizon;
      tick = 50;
    }
  in
  let causality = Dsim.Causality.create () in
  let t0 = Unix.gettimeofday () in
  let r =
    Workload.Fleet.run ~protocol ~e:2 ~f:2 ~topology ~pipeline ~batch_max ~seed:1
      ~causality cfg
  in
  let wall_ns = elapsed_ns t0 in
  let attr = Smr.Spans.attribution (Smr.Spans.command_paths causality) in
  let topology_name = Workload.Topology.name topology in
  (* -1 = no completions: percentiles of an empty sample set are undefined
     (Stats.percentile now raises instead of faking a perfect 0). *)
  let pct p = Option.value ~default:(-1) (Stdext.Stats.percentile_opt r.latencies p) in
  {
    s_experiment = Printf.sprintf "smr-%s-%s-%s" protocol_name topology_name mode;
    s_protocol = protocol_name;
    s_topology = topology_name;
    s_mode = mode;
    s_pipeline = pipeline;
    s_batch_max = batch_max;
    s_clients = clients;
    s_rate = smr_rate;
    s_horizon = horizon;
    s_submitted = r.submitted;
    s_completed = r.completed;
    s_commits_per_sec = Workload.Fleet.commits_per_sec r;
    s_p50 = pct 50.0;
    s_p99 = pct 99.0;
    s_mean_batch = r.mean_batch;
    s_max_batch = r.max_batch;
    s_converged = r.converged;
    s_wall_ns = wall_ns;
    s_path_commits = attr.Smr.Spans.commits;
    s_two_step = attr.Smr.Spans.two_step;
    s_steps_hist = attr.Smr.Spans.steps_hist;
    s_p99_dominant = attr.Smr.Spans.p99_dominant;
  }

let smr_json s =
  [
    ("experiment", Json.String s.s_experiment);
    ("protocol", Json.String s.s_protocol);
    ("topology", Json.String s.s_topology);
    ("mode", Json.String s.s_mode);
    ("pipeline", Json.Int s.s_pipeline);
    ("batch_max", Json.Int s.s_batch_max);
    ("clients", Json.Int s.s_clients);
    ("rate_per_client", fixed 2 s.s_rate);
    ("horizon_ms", Json.Int s.s_horizon);
    ("submitted", Json.Int s.s_submitted);
    ("completed", Json.Int s.s_completed);
    ("commits_per_sec", fixed 2 s.s_commits_per_sec);
    ("p50_ms", Json.Int s.s_p50);
    ("p99_ms", Json.Int s.s_p99);
    ("mean_batch", fixed 3 s.s_mean_batch);
    ("max_batch", Json.Int s.s_max_batch);
    ("converged", Json.Bool s.s_converged);
    ("wall_ns", Json.Int s.s_wall_ns);
    ("path_commits", Json.Int s.s_path_commits);
    ("two_step", Json.Int s.s_two_step);
    ( "delay_steps_hist",
      Json.Obj (List.map (fun (k, v) -> (string_of_int k, Json.Int v)) s.s_steps_hist) );
    ( "p99_dominant",
      Option.fold ~none:Json.Null ~some:(fun c -> Json.String c) s.s_p99_dominant );
  ]

let run_smr_suite ~clients ~horizon ~check_baseline () =
  Format.fprintf fmt
    "@.%s@.B6. SMR under load (open loop: %d clients x %.1f cmd/s, %d virtual ms, e = f \
     = 2)@.%s@."
    (String.make 78 '-') clients smr_rate horizon (String.make 78 '-');
  let samples =
    List.concat_map
      (fun topology ->
        List.concat_map
          (fun (protocol_name, protocol) ->
            List.map
              (fun (mode, pipeline, batch_max) ->
                time_smr ~protocol_name ~protocol ~topology ~mode ~pipeline ~batch_max
                  ~clients ~horizon)
              smr_modes)
          Experiments.protocols)
      smr_topologies
  in
  Format.fprintf fmt "%-32s | %9s %7s %7s | %6s %5s | %8s %-10s | %5s@." "experiment"
    "commits/s" "p50" "p99" "batch" "conv" "2-step" "p99-dom" "wall";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-32s | %9.1f %6dms %6dms | %6.2f %5b | %7.1f%% %-10s | %4.1fs@."
        s.s_experiment s.s_commits_per_sec s.s_p50 s.s_p99 s.s_mean_batch s.s_converged
        (if s.s_path_commits = 0 then 0.0
         else 100.0 *. float_of_int s.s_two_step /. float_of_int s.s_path_commits)
        (Option.value ~default:"-" s.s_p99_dominant)
        (float_of_int s.s_wall_ns /. 1e9))
    samples;
  (* Per-protocol delay_steps histograms: the paper's message-delay currency
     measured on every commit's causal chain. *)
  List.iter
    (fun s ->
      Format.fprintf fmt "delay_steps %-28s {%s}@." (s.s_experiment ^ ":")
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%d: %d" k v) s.s_steps_hist)))
    samples;
  (* The acceptance check the suite exists for: batching + pipelining must
     pay at equal offered load, on every protocol and topology. *)
  List.iter
    (fun (base : smr_row) ->
      if base.s_mode = "baseline" then
        let tuned_name =
          Printf.sprintf "smr-%s-%s-tuned" base.s_protocol base.s_topology
        in
        match List.find_opt (fun s -> s.s_experiment = tuned_name) samples with
        | None -> ()
        | Some tuned ->
            let speedup =
              if base.s_commits_per_sec > 0.0 then
                tuned.s_commits_per_sec /. base.s_commits_per_sec
              else infinity
            in
            Format.fprintf fmt "speedup %-24s %5.1fx (%.1f -> %.1f commits/s)@."
              (Printf.sprintf "%s-%s:" base.s_protocol base.s_topology)
              speedup base.s_commits_per_sec tuned.s_commits_per_sec)
    samples;
  write_bench ~suite:"smr" ~version:3 (List.map smr_json samples);
  Option.iter
    (fun baseline_path ->
      List.iter
        (fun s ->
          if not s.s_converged then begin
            Printf.eprintf "baseline check: %s: replicas failed to converge\n" s.s_experiment;
            exit 1
          end)
        samples;
      check_baseline_floor ~baseline_path ~field:"commits_per_sec"
        (List.map (fun s -> (s.s_experiment, s.s_commits_per_sec)) samples))
    check_baseline

(* -- Linearizability suite --------------------------------------------- *)

(* B7: object-level correctness as a benchmark. Every protocol's fleet run
   — fault-free and under message loss/duplication — must yield a
   linearizable client history, and the run-length history encoding must
   beat its own JSONL rendering by >= 4x. Both are asserted, not just
   printed. *)

type lin_row = {
  l_experiment : string;  (* lin-<protocol>-<faults> *)
  l_protocol : string;
  l_faults : string;
  l_ops : int;
  l_complete : int;
  l_jsonl_bytes : int;
  l_rle_bytes : int;
  l_check_ms : float;
  l_states : int;
  l_linearizable : bool;
}

let lin_read_rate = 0.3

let time_lin ~protocol_name ~protocol ~faults_name ~faults ~clients ~horizon =
  let cfg : Workload.Fleet.config =
    {
      clients;
      arrival = Open { rate_per_client = smr_rate };
      keys = 64;
      hot_rate = 0.1;
      read_rate = lin_read_rate;
      horizon;
      tick = 50;
    }
  in
  let r =
    Workload.Fleet.run ~protocol ~e:2 ~f:2 ~topology:Workload.Topology.planet5
      ~pipeline:16 ~batch_max:64 ~seed:1 ?faults cfg
  in
  let table = Checker.History.to_table r.history in
  let jsonl_bytes = String.length (Stdext.Rle.to_jsonl table) in
  let rle_bytes = String.length (Stdext.Rle.encode table) in
  let t0 = Unix.gettimeofday () in
  let outcome = Checker.Linearizability.check_history r.history in
  let t1 = Unix.gettimeofday () in
  {
    l_experiment = Printf.sprintf "lin-%s-%s" protocol_name faults_name;
    l_protocol = protocol_name;
    l_faults = faults_name;
    l_ops = List.length r.history;
    l_complete = r.completed;
    l_jsonl_bytes = jsonl_bytes;
    l_rle_bytes = rle_bytes;
    l_check_ms = (t1 -. t0) *. 1000.0;
    l_states = outcome.stats.states;
    l_linearizable = outcome.ok;
  }

let lin_ratio s = float_of_int s.l_jsonl_bytes /. float_of_int (max 1 s.l_rle_bytes)

let lin_json s =
  [
    ("experiment", Json.String s.l_experiment);
    ("protocol", Json.String s.l_protocol);
    ("faults", Json.String s.l_faults);
    ("ops", Json.Int s.l_ops);
    ("complete", Json.Int s.l_complete);
    ("jsonl_bytes", Json.Int s.l_jsonl_bytes);
    ("rle_bytes", Json.Int s.l_rle_bytes);
    ("compression_ratio", fixed 2 (lin_ratio s));
    ("check_ms", fixed 2 s.l_check_ms);
    ("states", Json.Int s.l_states);
    ("linearizable", Json.Bool s.l_linearizable);
  ]

let run_lin_suite ~clients ~horizon () =
  Format.fprintf fmt
    "@.%s@.B7. Linearizability of fleet histories (read rate %.1f, %d clients, %d \
     virtual ms)@.%s@."
    (String.make 78 '-') lin_read_rate clients horizon (String.make 78 '-');
  let fault_plans =
    [
      ("faultfree", None);
      ( "dropdup",
        Some
          (Dsim.Network.Fault.random ~drop_rate:0.02 ~dup_rate:0.02 ~max_drops:64
             ~max_dups:64 ~max_extra_delay:(2 * delta) ()) );
    ]
  in
  let samples =
    List.concat_map
      (fun (protocol_name, protocol) ->
        List.map
          (fun (faults_name, faults) ->
            time_lin ~protocol_name ~protocol ~faults_name ~faults ~clients ~horizon)
          fault_plans)
      Experiments.protocols
  in
  Format.fprintf fmt "%-28s | %6s %6s | %8s %8s %6s | %8s %8s | %3s@." "experiment" "ops"
    "done" "jsonl" "rle" "ratio" "check ms" "states" "lin";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-28s | %6d %6d | %8d %8d %5.1fx | %8.1f %8d | %3s@."
        s.l_experiment s.l_ops s.l_complete s.l_jsonl_bytes s.l_rle_bytes (lin_ratio s)
        s.l_check_ms s.l_states
        (if s.l_linearizable then "yes" else "NO"))
    samples;
  (* The assertions the suite exists for. *)
  List.iter
    (fun s ->
      if not s.l_linearizable then begin
        Printf.eprintf "lin suite: %s produced a non-linearizable history\n"
          s.l_experiment;
        exit 1
      end;
      if lin_ratio s < 4.0 then begin
        Printf.eprintf "lin suite: %s history compressed only %.2fx (< 4x floor)\n"
          s.l_experiment (lin_ratio s);
        exit 1
      end)
    samples;
  write_bench ~suite:"lin" ~version:2 (List.map lin_json samples)

(* -- Bechamel microbenchmarks ------------------------------------------ *)

let bench_sync_fast_path protocol name =
  let run () =
    let proposals = Checker.Scenario.all_proposals_at_zero ~n:5 [ 0; 1; 2; 3; 4 ] in
    Checker.Scenario.run protocol ~n:5 ~e:2 ~f:2 ~delta
      ~net:(Checker.Scenario.Sync (`Favor 4)) ~proposals ~disable_timers:true
      ~until:(3 * delta) ()
  in
  Bechamel.Test.make ~name (Bechamel.Staged.stage (fun () -> ignore (run ())))

let bench_recovery_select =
  let replies =
    List.init 10 (fun i ->
        {
          Core.Recovery.sender = i;
          vbal = 0;
          value = (if i < 4 then Some 7 else if i < 7 then Some 3 else None);
          proposer = Some (100 + (i mod 2));
          decided = None;
        })
  in
  Bechamel.Test.make ~name:"recovery.select (10 replies)"
    (Bechamel.Staged.stage (fun () ->
         ignore (Core.Recovery.select ~n:13 ~e:3 ~f:3 ~initial:(Some 1) ~replies)))

let bench_witness =
  Bechamel.Test.make ~name:"witness.task_scenario n=6"
    (Bechamel.Staged.stage (fun () ->
         ignore (Lowerbound.Witness.task_scenario ~n:6 ~e:2 ~f:2 ())))

let bench_partial_sync_run =
  Bechamel.Test.make ~name:"rgs-task partial-sync run to decision (n=6)"
    (Bechamel.Staged.stage (fun () ->
         let proposals = Checker.Scenario.all_proposals_at_zero ~n:6 [ 5; 4; 3; 2; 1; 0 ] in
         ignore
           (Checker.Scenario.run Core.Rgs.task ~n:6 ~e:2 ~f:2 ~delta
              ~net:(Checker.Scenario.Partial { gst = 3 * delta; max_pre_gst = 2 * delta })
              ~proposals ~seed:1 ~until:(40 * delta) ())))

let bench_rng =
  let rng = Stdext.Rng.create ~seed:7 in
  Bechamel.Test.make ~name:"rng.bits64"
    (Bechamel.Staged.stage (fun () -> ignore (Stdext.Rng.bits64 rng)))

let bench_pqueue =
  Bechamel.Test.make ~name:"pqueue push+pop x100"
    (Bechamel.Staged.stage (fun () ->
         let q = Stdext.Pqueue.create () in
         for i = 0 to 99 do
           Stdext.Pqueue.push q ~priority:(i * 7 mod 31) i
         done;
         while not (Stdext.Pqueue.is_empty q) do
           ignore (Stdext.Pqueue.pop q)
         done))

let run_bechamel () =
  let open Bechamel in
  Format.fprintf fmt "@.%s@.B1. Microbenchmarks (Bechamel, OLS estimate per run)@.%s@."
    (String.make 78 '-') (String.make 78 '-');
  let tests =
    Test.make_grouped ~name:"twostep"
      [
        bench_rng;
        bench_pqueue;
        bench_recovery_select;
        bench_sync_fast_path Core.Rgs.task "rgs-task sync fast path (n=5)";
        bench_sync_fast_path Baselines.Fast_paxos.protocol "fast-paxos sync fast path (n=5)";
        bench_witness;
        bench_partial_sync_run;
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  Format.fprintf fmt "%-55s | %15s | %6s@." "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, result) ->
      let estimate =
        match Analyze.OLS.estimates result with Some (x :: _) -> x | _ -> nan
      in
      let r2 = Option.value ~default:nan (Analyze.OLS.r_square result) in
      Format.fprintf fmt "%-55s | %15.1f | %6.4f@." name estimate r2)
    rows

(* -- dispatch ----------------------------------------------------------- *)

let () =
  let explore_budget = ref None in
  let engine_iters = ref 2_000 and smr_clients = ref 120 in
  let smr_horizon = ref 10_000 and check_baseline = ref None and names = ref [] in
  let suites =
    [
      ("bechamel", run_bechamel);
      ("explore", fun () -> run_explore_suite ~budget_override:!explore_budget ());
      ("faults", fun () -> run_faults_suite ~budget_override:!explore_budget ());
      ( "engine",
        fun () -> run_engine_suite ~iters:!engine_iters ~check_baseline:!check_baseline () );
      ( "smr",
        fun () ->
          run_smr_suite ~clients:!smr_clients ~horizon:!smr_horizon
            ~check_baseline:!check_baseline () );
      ("lin", fun () -> run_lin_suite ~clients:!smr_clients ~horizon:!smr_horizon ());
    ]
  in
  let experiments =
    List.map (fun (name, run) -> (name, fun () -> run fmt)) Experiments.table
  in
  (* Bench's [all] adds every perf suite to the experiments' [all]. *)
  let all () =
    List.assoc "all" experiments ();
    List.iter (fun (_, run) -> run ()) suites
  in
  let commands = List.remove_assoc "all" experiments @ suites @ [ ("all", all) ] in
  let positive flag set doc =
    ( flag,
      Arg.Int
        (fun v -> if v >= 1 then set v else raise (Arg.Bad (flag ^ " expects a positive integer"))),
      doc )
  in
  Arg.parse
    (Arg.align
       [
         positive "--explore-budget"
           (fun b -> explore_budget := Some b)
           "N run budget of every explore and faults row";
         positive "--engine-iters" (( := ) engine_iters)
           "N runs per engine workload (default 2000)";
         positive "--smr-clients" (( := ) smr_clients)
           "N clients of the smr and lin suites (default 120)";
         positive "--smr-horizon" (( := ) smr_horizon)
           "MS virtual horizon of the smr and lin suites (default 10000)";
         ( "--check-baseline",
           Arg.String (fun path -> check_baseline := Some path),
           "FILE fail engine and smr rows below 70% of FILE's floors" );
       ])
    (fun name ->
      if List.mem_assoc name commands then names := name :: !names
      else raise (Arg.Bad ("unknown experiment " ^ name)))
    (Printf.sprintf "usage: main.exe [FLAG]... [%s]... (default all)"
       (String.concat "|" (List.map fst commands)));
  List.iter
    (fun name -> List.assoc name commands ())
    (match List.rev !names with [] -> [ "all" ] | l -> l)
