(* Benchmark and experiment harness.

   Usage:
     dune exec bench/main.exe              # everything: T1-T4, F1-F4, microbenches
     dune exec bench/main.exe -- t3 f2     # selected experiments
     dune exec bench/main.exe -- bechamel  # microbenchmarks only
     dune exec bench/main.exe -- explore   # exploration perf suite -> BENCH_explore.json
     dune exec bench/main.exe -- engine    # engine throughput suite -> BENCH_engine.json
     dune exec bench/main.exe -- --domains 4 t2 t3   # parallel sweep grids
     dune exec bench/main.exe -- --domains-list 1,2,4 explore   # explicit domain counts
     dune exec bench/main.exe -- --explore-budget 200 explore   # CI smoke sizing

   Each T/F experiment regenerates one claim of the paper as a table or
   series (see DESIGN.md section 3 and EXPERIMENTS.md). The bechamel suite
   measures the cost of the building blocks themselves; the explore suite
   times the state-space explorer and its multi-domain fan-out, and
   records the trajectory machine-readably so successive runs can
   compare. *)

let fmt = Format.std_formatter

(* -- Exploration performance suite -------------------------------------- *)

type explore_sample = {
  experiment : string;
  protocol : string;
  n : int;
  mode : string;
  domains : int;
  budget : int;
  rounds : int;
  max_drops : int;
  max_dups : int;
  explored : int;
  wall_ns : int;
  (* Run_report-derived telemetry columns (schema v4). The overhead rows
     (mode "scenario") have no exploration report and carry zeros. *)
  fast_path_rate : float;
  mean_depth : float;
  budget_waste_pct : float;
  (* Deduplication columns (schema v5): visited-set policy of the row and
     what it saw. [dedup_hit_rate] is the fraction of search-tree arrivals
     that landed on an already-visited state — 0 with dedup off. *)
  dedup : string;
  distinct_states : int;
  dedup_hit_rate : float;
  (* Engine-throughput columns (schema v6), filled in the [engine] suite's
     BENCH_engine.json rows (zero elsewhere): raw engine events processed
     by the row's workload and the minor-heap words it allocated, from
     which the JSON derives events_per_sec and minor_words_per_event — the
     two numbers the hot-path rewrites are steered by. *)
  events : int;
  minor_words : float;
  (* Partial-order-reduction columns (schema v7): the row's POR policy,
     the order combinations pruned before expansion, and — derived —
     distinct_states_per_sec, the coverage rate that is the headline
     metric for swarm rows (mode "swarm", where [domains] carries the
     walker count and [explored] the completed random walks). *)
  por : string;
  por_pruned : int;
}

(* Suites append here and each writes the union, so one invocation running
   both [explore] and [faults] produces a single BENCH_explore.json with
   every row. *)
let all_samples : explore_sample list ref = ref []

let states_per_sec s =
  if s.wall_ns = 0 then 0.0 else float_of_int s.explored /. (float_of_int s.wall_ns /. 1e9)

let distinct_states_per_sec s =
  if s.wall_ns = 0 then 0.0
  else float_of_int s.distinct_states /. (float_of_int s.wall_ns /. 1e9)

(* n=5..7 at fixed rounds: the (e, f) pairs keep n exactly at the task
   bound 2e+f so the configurations match the T2/T3 grids. The extra
   10k-budget n=7 row exercises a deeper cut of the same tree, where the
   parallel subtree split has enough work per domain to matter. *)
let explore_configs = [ (5, 2, 1, 1_000); (6, 2, 2, 1_000); (7, 2, 3, 1_000); (7, 2, 3, 10_000) ]

let explore_rounds = 3

(* Domain counts above the hardware's parallelism measure nothing useful
   (the explorer clamps them to a sequential run anyway), so the default
   sweep stops at [recommended_domain_count]; an explicit --domains-list is
   honoured verbatim so oversubscription itself can be measured. *)
let default_domains_list () =
  let rec_d = max 1 (Domain.recommended_domain_count ()) in
  match List.filter (fun d -> d = 1 || d <= rec_d) [ 1; 2; 4 ] with
  | [] -> [ 1 ]
  | l -> l

let dedup_name = function
  | Checker.Explore.Off -> "off"
  | Checker.Explore.Exact -> "exact"
  | Checker.Explore.Symmetry -> "symmetry"

let por_name = function Checker.Explore.No_por -> "off" | Checker.Explore.Sleep -> "sleep"

let time_explore ~experiment ~n ~e ~f ~budget ~rounds ~faults ~domains
    ?(dedup = Checker.Explore.Off) ?(por = Checker.Explore.No_por) () =
  let proposals =
    Checker.Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i))
  in
  let t0 = Unix.gettimeofday () in
  let r, report =
    Checker.Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta:100 ~proposals
      ~rounds ~budget ~faults ~domains ~dedup ~por
      ~check:(fun o -> Checker.Safety.safe o)
      ()
  in
  let t1 = Unix.gettimeofday () in
  if r.Checker.Explore.violations > 0 then
    failwith "explore bench: unexpected safety violation";
  let totals = report.Checker.Explore.Run_report.totals in
  let arrivals =
    totals.Checker.Explore.Run_report.distinct_states
    + totals.Checker.Explore.Run_report.dedup_hits
  in
  {
    experiment;
    protocol = "rgs-task";
    n;
    mode = "snapshot" (* the cloned-engine DFS: the explorer's only strategy *);
    domains;
    budget;
    rounds;
    max_drops = faults.Checker.Explore.max_drops;
    max_dups = faults.Checker.Explore.max_dups;
    explored = r.Checker.Explore.explored;
    wall_ns = int_of_float ((t1 -. t0) *. 1e9);
    fast_path_rate = Checker.Explore.Run_report.fast_path_rate totals;
    mean_depth = Checker.Explore.Run_report.mean_depth totals;
    budget_waste_pct =
      Checker.Explore.Run_report.budget_waste_pct report.Checker.Explore.Run_report.sched;
    dedup = dedup_name dedup;
    distinct_states = totals.Checker.Explore.Run_report.distinct_states;
    dedup_hit_rate =
      (if arrivals = 0 then 0.
       else
         float_of_int totals.Checker.Explore.Run_report.dedup_hits
         /. float_of_int arrivals);
    events = 0;
    minor_words = 0.;
    por = por_name por;
    por_pruned = totals.Checker.Explore.Run_report.por_pruned;
  }

(* A swarm row: K seeded walkers sharing a visited set and the run budget.
   [domains] carries the walker count, [explored] the completed walks;
   the coverage signal is distinct_states (and, derived in the JSON,
   distinct_states_per_sec). The dedup column reads "count": the shared
   set counts coverage but never prunes a walk. *)
let time_swarm ~experiment ~n ~e ~f ~budget ~rounds ~walkers ~seed () =
  let proposals =
    Checker.Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i))
  in
  let t0 = Unix.gettimeofday () in
  let r, s =
    Checker.Explore.swarm_report Core.Rgs.task ~n ~e ~f ~delta:100 ~proposals ~rounds
      ~budget ~walkers ~seed
      ~check:(fun o -> Checker.Safety.safe o)
      ()
  in
  let t1 = Unix.gettimeofday () in
  if r.Checker.Explore.violations > 0 then
    failwith "swarm bench: unexpected safety violation";
  let arrivals =
    s.Checker.Explore.Swarm_report.distinct_states
    + s.Checker.Explore.Swarm_report.dedup_hits
  in
  {
    experiment;
    protocol = "rgs-task";
    n;
    mode = "swarm";
    domains = walkers;
    budget;
    rounds;
    max_drops = 0;
    max_dups = 0;
    explored = s.Checker.Explore.Swarm_report.runs;
    wall_ns = int_of_float ((t1 -. t0) *. 1e9);
    fast_path_rate = 0.;
    mean_depth = 0.;
    budget_waste_pct = 0.;
    dedup = "count";
    distinct_states = s.Checker.Explore.Swarm_report.distinct_states;
    dedup_hit_rate =
      (if arrivals = 0 then 0.
       else
         float_of_int s.Checker.Explore.Swarm_report.dedup_hits /. float_of_int arrivals);
    events = 0;
    minor_words = 0.;
    por = "sleep";
    por_pruned = s.Checker.Explore.Swarm_report.por_pruned;
  }

(* Wall-clock of the domains=1 row with the same experiment/mode/budget,
   over this row's wall-clock: > 1 is a speedup, < 1 a regression. [None]
   when the sweep contains no sequential baseline. *)
let speedup_vs_seq samples s =
  List.find_opt
    (fun b ->
      b.domains = 1 && b.experiment = s.experiment && b.mode = s.mode
      && b.budget = s.budget && b.dedup = s.dedup && b.por = s.por)
    samples
  |> Option.map (fun b ->
         if s.wall_ns = 0 then 1.0 else float_of_int b.wall_ns /. float_of_int s.wall_ns)

(* The header's recommendation, derived from the rows actually emitted
   instead of the host's core count: the domains value with the best mean
   measured speedup_vs_seq, and 1 when nothing beats the sequential
   baseline or the sweep measured no multi-domain row at all. *)
let recommended_domains samples =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s.domains > 1 then
        match speedup_vs_seq samples s with
        | Some sp ->
            let sum, count =
              Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.domains)
            in
            Hashtbl.replace tbl s.domains (sum +. sp, count + 1)
        | None -> ())
    samples;
  Hashtbl.fold
    (fun d (sum, count) (bd, bm) ->
      let m = sum /. float_of_int count in
      if m > bm || (m = bm && d < bd) then (d, m) else (bd, bm))
    tbl (1, 1.0)
  |> fst

(* events/sec of an engine-suite row; 0 for rows without engine columns. *)
let events_per_sec s =
  if s.wall_ns = 0 || s.events = 0 then 0.0
  else float_of_int s.events /. (float_of_int s.wall_ns /. 1e9)

let minor_words_per_event s =
  if s.events = 0 then 0.0 else s.minor_words /. float_of_int s.events

(* One row writer for the suites that share [explore_sample] rows: the
   explore and faults suites write BENCH_explore.json, the engine suite
   BENCH_engine.json. [header] holds the file's extra int fields:
   the exploration sweep's rounds and recommended domain count mean
   nothing for engine rows. *)
let write_rows_json ~suite ~header path samples =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"suite\": %S,\n" suite;
  out "  \"schema_version\": 7,\n";
  out
    "  \"schema\": [\"experiment\", \"protocol\", \"n\", \"mode\", \"domains\", \
     \"budget\", \"rounds\", \"max_drops\", \"max_dups\", \"explored\", \"wall_ns\", \
     \"states_per_sec\", \"speedup_vs_seq\", \"fast_path_rate\", \"mean_depth\", \
     \"budget_waste_pct\", \"dedup\", \"distinct_states\", \"dedup_hit_rate\", \
     \"events_per_sec\", \"minor_words_per_event\", \"por\", \"por_pruned\", \
     \"distinct_states_per_sec\"],\n";
  List.iter (fun (key, v) -> out "  %S: %d,\n" key v) header;
  out "  \"results\": [\n";
  List.iteri
    (fun i s ->
      let speedup =
        match speedup_vs_seq samples s with
        | None -> "null"
        | Some x -> Printf.sprintf "%.2f" x
      in
      out
        "    {\"experiment\": %S, \"protocol\": %S, \"n\": %d, \"mode\": %S, \"domains\": \
         %d, \"budget\": %d, \"rounds\": %d, \"max_drops\": %d, \"max_dups\": %d, \
         \"explored\": %d, \"wall_ns\": %d, \"states_per_sec\": %.1f, \
         \"speedup_vs_seq\": %s, \"fast_path_rate\": %.4f, \"mean_depth\": %.2f, \
         \"budget_waste_pct\": %.2f, \"dedup\": %S, \"distinct_states\": %d, \
         \"dedup_hit_rate\": %.4f, \"events_per_sec\": %.1f, \
         \"minor_words_per_event\": %.2f, \"por\": %S, \"por_pruned\": %d, \
         \"distinct_states_per_sec\": %.1f}%s\n"
        s.experiment s.protocol s.n s.mode s.domains s.budget s.rounds s.max_drops
        s.max_dups s.explored s.wall_ns (states_per_sec s) speedup s.fast_path_rate
        s.mean_depth s.budget_waste_pct s.dedup s.distinct_states s.dedup_hit_rate
        (events_per_sec s) (minor_words_per_event s) s.por s.por_pruned
        (distinct_states_per_sec s)
        (if i = List.length samples - 1 then "" else ","))
    samples;
  out "  ]\n}\n";
  close_out oc

let print_sample_table samples =
  Format.fprintf fmt
    "%-20s %3s %-9s %7s %7s %5s %5s %-8s %-6s | %8s %10s %11s %8s %5s %6s %6s %9s %6s \
     %9s@."
    "experiment" "n" "mode" "domains" "budget" "drops" "dups" "dedup" "por" "explored"
    "wall-ms" "states/sec" "speedup" "fast" "depth" "waste%" "distinct" "hit%" "pruned";
  List.iter
    (fun s ->
      Format.fprintf fmt
        "%-20s %3d %-9s %7d %7d %5d %5d %-8s %-6s | %8d %10.1f %11.0f %8s %5.2f %6.2f \
         %6.2f %9d %6.1f %9d@."
        s.experiment s.n s.mode s.domains s.budget s.max_drops s.max_dups s.dedup s.por
        s.explored
        (float_of_int s.wall_ns /. 1e6)
        (states_per_sec s)
        (match speedup_vs_seq samples s with
        | None -> "-"
        | Some x -> Printf.sprintf "%.2fx" x)
        s.fast_path_rate s.mean_depth s.budget_waste_pct s.distinct_states
        (100. *. s.dedup_hit_rate) s.por_pruned)
    samples

let emit_samples samples =
  all_samples := !all_samples @ samples;
  print_sample_table samples;
  write_rows_json ~suite:"explore"
    ~header:
      [ ("rounds", explore_rounds); ("recommended_domains", recommended_domains !all_samples) ]
    "BENCH_explore.json" !all_samples;
  Format.fprintf fmt "(written to BENCH_explore.json)@."

let run_explore_suite ~domains_list ~budget_override () =
  let domains_list =
    match domains_list with Some l -> l | None -> default_domains_list ()
  in
  Format.fprintf fmt "@.%s@.B2. Exploration, domains {%s}@.%s@."
    (String.make 78 '-')
    (String.concat "," (List.map string_of_int domains_list))
    (String.make 78 '-');
  let configs =
    let with_budget =
      match budget_override with
      | None -> explore_configs
      | Some b -> List.map (fun (n, e, f, _) -> (n, e, f, b)) explore_configs
    in
    List.sort_uniq compare with_budget
  in
  let cases =
    List.concat_map
      (fun cfg -> List.map (fun d -> (cfg, d, Checker.Explore.Off)) domains_list)
      configs
  in
  (* The dedup trajectory: an explicit on-vs-off pair at every n >= 6
     config (the off rows are above). The n=7 10k-budget pair is the
     headline — dedup is what turns that budget-truncated search
     exhaustive. *)
  let dedup_cases =
    List.filter_map
      (fun (n, e, f, b) ->
        if n >= 6 then Some ((n, e, f, b), 1, Checker.Explore.Exact) else None)
      configs
  in
  let samples =
    List.map
      (fun ((n, e, f, budget), domains, dedup) ->
        let experiment =
          Printf.sprintf "explore-n%d%s" n
            (if budget = 1_000 then "" else Printf.sprintf "-b%d" budget)
        in
        time_explore ~experiment ~n ~e ~f ~budget ~rounds:explore_rounds
          ~faults:Checker.Explore.no_faults ~domains ~dedup ())
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
                ~rounds:explore_rounds ~faults:Checker.Explore.no_faults ~domains:1
                ~dedup ~por ())
            [
              (Checker.Explore.Off, Checker.Explore.No_por);
              (Checker.Explore.Off, Checker.Explore.Sleep);
              (Checker.Explore.Exact, Checker.Explore.Sleep);
            ])
      (List.sort_uniq compare (List.map (fun (n, e, f, _) -> (n, e, f, 0)) configs))
  in
  (* The acceptance gate: POR on (exact dedup, 1 domain) must enumerate at
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
  (* Swarm coverage row at n=8 — a size where the exhaustive product is out
     of reach but K random walkers sweep a budget in seconds. Honours
     --explore-budget for CI smoke sizing. *)
  let swarm_budget = match budget_override with None -> 2_000 | Some b -> b in
  let swarm_samples =
    [ time_swarm ~experiment:"swarm-n8" ~n:8 ~e:2 ~f:4 ~budget:swarm_budget
        ~rounds:explore_rounds ~walkers:4 ~seed:7 () ]
  in
  List.iter
    (fun s ->
      if s.explored <> s.budget then
        failwith
          (Printf.sprintf "swarm bench: %d of %d budgeted walks completed" s.explored
             s.budget))
    swarm_samples;
  emit_samples (samples @ por_samples @ swarm_samples)

(* Fault-injection exploration: the same explorer with drop/duplication
   branching enabled. Fault subsets widen the tree by orders of magnitude,
   so these run at [fault_rounds] = 2 and lean on the budget cut; the
   interesting signal is the states/sec cost of fault branching relative
   to the no-fault rows and the parallel speedup on the wider tree. *)
let fault_configs = [ (5, 2, 1, 2_000); (6, 2, 2, 2_000) ]

let fault_rounds = 2

let fault_bounds = { Checker.Explore.max_drops = 1; max_dups = 1 }

let run_faults_suite ~domains_list ~budget_override () =
  let domains_list =
    match domains_list with Some l -> l | None -> default_domains_list ()
  in
  Format.fprintf fmt
    "@.%s@.B3. Fault-injection exploration (<=%d drops, <=%d dups), domains {%s}@.%s@."
    (String.make 78 '-') fault_bounds.Checker.Explore.max_drops
    fault_bounds.Checker.Explore.max_dups
    (String.concat "," (List.map string_of_int domains_list))
    (String.make 78 '-');
  let configs =
    match budget_override with
    | None -> fault_configs
    | Some b -> List.sort_uniq compare (List.map (fun (n, e, f, _) -> (n, e, f, b)) fault_configs)
  in
  let samples =
    List.concat_map
      (fun (n, e, f, budget) ->
        List.map
          (fun domains ->
            time_explore
              ~experiment:(Printf.sprintf "faults-n%d" n)
              ~n ~e ~f ~budget ~rounds:fault_rounds ~faults:fault_bounds ~domains ())
          domains_list)
      configs
  in
  emit_samples samples

(* -- Metrics overhead --------------------------------------------------- *)

(* The telemetry contract is "zero overhead when disabled": every engine
   probe mirror is a single branch on an immutable bool when the registry
   is {!Stdext.Metrics.disabled}. These two rows measure the same
   fast-path scenario loop with the disabled registry and with a live one.
   They are printed, not written to any BENCH file; the overhead line
   quantifies the enabled path's cost. *)
let run_metrics_overhead_suite ?(iters = 3_000) () =
  Format.fprintf fmt "@.%s@.B4. Metrics overhead (engine probe mirror, %d scenario runs)@.%s@."
    (String.make 78 '-') iters (String.make 78 '-');
  let proposals = Checker.Scenario.all_proposals_at_zero ~n:6 [ 5; 4; 3; 2; 1; 0 ] in
  let run_case experiment registry =
    let t0 = Unix.gettimeofday () in
    for seed = 1 to iters do
      ignore
        (Checker.Scenario.run Core.Rgs.task ~n:6 ~e:2 ~f:2 ~delta:100
           ~net:(Checker.Scenario.Sync `Arrival) ~proposals ~disable_timers:true ~seed
           ~metrics:registry ~until:300 ())
    done;
    let t1 = Unix.gettimeofday () in
    {
      experiment;
      protocol = "rgs-task";
      n = 6;
      mode = "scenario";
      domains = 1;
      budget = iters;
      rounds = 0;
      max_drops = 0;
      max_dups = 0;
      explored = iters;
      wall_ns = int_of_float ((t1 -. t0) *. 1e9);
      fast_path_rate = 0.;
      mean_depth = 0.;
      budget_waste_pct = 0.;
      dedup = "off";
      distinct_states = 0;
      dedup_hit_rate = 0.;
      events = 0;
      minor_words = 0.;
      por = "off";
      por_pruned = 0;
    }
  in
  (* Warm-up evens out allocator/cache state so off vs on is a fair pair. *)
  ignore (run_case "warmup" Stdext.Metrics.disabled : explore_sample);
  let off = run_case "metrics-overhead-off" Stdext.Metrics.disabled in
  let on_ = run_case "metrics-overhead-on" (Stdext.Metrics.create ()) in
  let overhead_pct =
    if off.wall_ns = 0 then 0.
    else 100. *. (float_of_int on_.wall_ns -. float_of_int off.wall_ns)
         /. float_of_int off.wall_ns
  in
  print_sample_table [ off; on_ ];
  Format.fprintf fmt "enabled-registry overhead vs disabled: %+.1f%%@." overhead_pct

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

let engine_iters_default = 2_000

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

let time_engine_workload ~experiment ~kind ~iters =
  (* One untimed pass warms caches and stretches the minor heap so the
     measured pass sees the steady state. *)
  ignore (run_engine_workload engine_protocol ~kind ~iters:(max 1 (iters / 10)) : int);
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let events = run_engine_workload engine_protocol ~kind ~iters in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  {
    experiment;
    protocol = "rgs-task";
    n = engine_n;
    mode = "engine";
    domains = 1;
    budget = iters;
    rounds = 0;
    max_drops = 0;
    max_dups = 0;
    explored = 0;
    wall_ns = int_of_float ((t1 -. t0) *. 1e9);
    fast_path_rate = 0.;
    mean_depth = 0.;
    budget_waste_pct = 0.;
    dedup = "off";
    distinct_states = 0;
    dedup_hit_rate = 0.;
    events;
    minor_words = w1 -. w0;
    por = "off";
    por_pruned = 0;
  }

let engine_workloads =
  [
    ("engine-n6-sync", `Sync false);
    ("engine-n6-trace", `Sync true);
    ("engine-n6-snapshot", `Snapshot);
    ("engine-n6-timers", `Timers);
  ]

let run_engine_suite ~engine_iters () =
  let iters = Option.value ~default:engine_iters_default engine_iters in
  Format.fprintf fmt "@.%s@.B5. Engine throughput (events/sec, minor words/event; %d iters)@.%s@."
    (String.make 78 '-') iters (String.make 78 '-');
  let samples =
    List.map
      (fun (experiment, kind) -> time_engine_workload ~experiment ~kind ~iters)
      engine_workloads
  in
  Format.fprintf fmt "%-20s | %12s %12s %14s@." "workload" "events" "events/sec"
    "minor w/event";
  List.iter
    (fun s ->
      Format.fprintf fmt "%-20s | %12d %12.0f %14.2f@." s.experiment s.events
        (events_per_sec s) (minor_words_per_event s))
    samples;
  write_rows_json ~suite:"engine" ~header:[] "BENCH_engine.json" samples;
  Format.fprintf fmt "(written to BENCH_engine.json)@.";
  samples

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
    match Stdext.Json.parse contents with
    | Ok j -> j
    | Error e -> fail (Printf.sprintf "cannot parse %s: %s" baseline_path e)
  in
  let baseline =
    match Stdext.Json.member "baseline" json with
    | Some (Stdext.Json.List baseline) -> baseline
    | _ -> fail (Printf.sprintf "%s: missing \"baseline\" array" baseline_path)
  in
  let floor_of name =
    List.find_map
      (fun row ->
        match (Stdext.Json.member "experiment" row, Stdext.Json.member field row) with
        | Some (Stdext.Json.String e), Some (Stdext.Json.Float v) when e = name -> Some v
        | Some (Stdext.Json.String e), Some (Stdext.Json.Int v) when e = name ->
            Some (float_of_int v)
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

(* -- SMR deployment suite ----------------------------------------------- *)

(* End-to-end throughput/latency of the replicated KV store under an
   open-loop client fleet: every protocol x topology is measured twice at
   the same offered load — one command per slot ("baseline") vs pipelining
   + batching ("tuned") — so the printed speedup is the payoff of
   amortizing consensus instances, not of admitting more work. *)

type smr_sample = {
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

let smr_protocols =
  [
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
    ("paxos", Baselines.Paxos.protocol);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("epaxos", Epaxos.protocol);
  ]

let smr_topologies = [ Workload.Topology.planet5; Workload.Topology.planet9 ]

let smr_modes = [ ("baseline", 1, 1); ("tuned", 16, 64) ]

let smr_clients_default = 120

let smr_horizon_default = 10_000

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
  let t1 = Unix.gettimeofday () in
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
    s_wall_ns = int_of_float ((t1 -. t0) *. 1e9);
    s_path_commits = attr.Smr.Spans.commits;
    s_two_step = attr.Smr.Spans.two_step;
    s_steps_hist = attr.Smr.Spans.steps_hist;
    s_p99_dominant = attr.Smr.Spans.p99_dominant;
  }

let write_smr_json path samples =
  Out_channel.with_open_text path (fun oc ->
      let p format = Printf.fprintf oc format in
      p "{\n";
      p "  \"suite\": \"smr\",\n";
      p "  \"schema_version\": 2,\n";
      p
        "  \"schema\": [\"experiment\", \"protocol\", \"topology\", \"mode\", \
         \"pipeline\", \"batch_max\", \"clients\", \"rate_per_client\", \"horizon_ms\", \
         \"submitted\", \"completed\", \"commits_per_sec\", \"p50_ms\", \"p99_ms\", \
         \"mean_batch\", \"max_batch\", \"converged\", \"wall_ns\", \"path_commits\", \
         \"two_step\", \"delay_steps_hist\", \"p99_dominant\"],\n";
      p "  \"samples\": [\n";
      List.iteri
        (fun i s ->
          let hist =
            String.concat ", "
              (List.map (fun (k, v) -> Printf.sprintf "\"%d\": %d" k v) s.s_steps_hist)
          in
          p
            "    {\"experiment\": %S, \"protocol\": %S, \"topology\": %S, \"mode\": %S, \
             \"pipeline\": %d, \"batch_max\": %d, \"clients\": %d, \"rate_per_client\": \
             %.2f, \"horizon_ms\": %d, \"submitted\": %d, \"completed\": %d, \
             \"commits_per_sec\": %.2f, \"p50_ms\": %d, \"p99_ms\": %d, \"mean_batch\": \
             %.3f, \"max_batch\": %d, \"converged\": %b, \"wall_ns\": %d, \
             \"path_commits\": %d, \"two_step\": %d, \"delay_steps_hist\": {%s}, \
             \"p99_dominant\": %s}%s\n"
            s.s_experiment s.s_protocol s.s_topology s.s_mode s.s_pipeline s.s_batch_max
            s.s_clients s.s_rate s.s_horizon s.s_submitted s.s_completed
            s.s_commits_per_sec s.s_p50 s.s_p99 s.s_mean_batch s.s_max_batch s.s_converged
            s.s_wall_ns s.s_path_commits s.s_two_step hist
            (match s.s_p99_dominant with
            | Some c -> Printf.sprintf "%S" c
            | None -> "null")
            (if i = List.length samples - 1 then "" else ","))
        samples;
      p "  ]\n";
      p "}\n");
  Format.fprintf fmt "@.wrote %d smr samples to %s@." (List.length samples) path

(* Conflict-free cross-check: one closed-loop client with no hot key keeps
   exactly one command in flight, so every commit's causal chain is the
   textbook diagram and its measured delay_steps must be exactly 2 for the
   two-step protocols at their bound — Checker.Report.conflict_free's
   fast-path claim, read off real critical paths instead of the protocol's
   own accounting. Asserted, not just printed. *)
let smr_conflict_free_checks () =
  let cases =
    [
      ("rgs-task", Core.Rgs.task, 6);
      ("rgs-object", Core.Rgs.obj, 5);
      ("fast-paxos", Baselines.Fast_paxos.protocol, 7);
    ]
  in
  List.iter
    (fun (name, protocol, n) ->
      let cfg : Workload.Fleet.config =
        {
          clients = 1;
          arrival = Workload.Fleet.Closed { think = 100 };
          keys = 16;
          hot_rate = 0.0;
          read_rate = 0.0;
          horizon = 4000;
          tick = 50;
        }
      in
      let causality = Dsim.Causality.create () in
      let r =
        Workload.Fleet.run ~protocol ~e:2 ~f:2 ~n ~topology:Workload.Topology.planet5
          ~seed:11 ~causality cfg
      in
      let attr = Smr.Spans.attribution (Smr.Spans.command_paths causality) in
      let ok =
        r.converged
        && attr.Smr.Spans.commits > 0
        && attr.Smr.Spans.two_step = attr.Smr.Spans.commits
        && List.for_all (fun (k, _) -> k = 2) attr.Smr.Spans.steps_hist
      in
      Format.fprintf fmt "conflict-free %-12s n=%d: %d commits, all at delay_steps = 2: %b@."
        name n attr.Smr.Spans.commits ok;
      if not ok then begin
        Printf.eprintf
          "smr conflict-free check: %s measured off the two-step fast path\n" name;
        exit 1
      end)
    cases

let run_smr_suite ~smr_clients ~smr_horizon () =
  let clients = Option.value ~default:smr_clients_default smr_clients in
  let horizon = Option.value ~default:smr_horizon_default smr_horizon in
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
          smr_protocols)
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
    (fun (base : smr_sample) ->
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
  write_smr_json "BENCH_smr.json" samples;
  smr_conflict_free_checks ();
  samples

(* -- Linearizability suite --------------------------------------------- *)

(* B7: object-level correctness as a benchmark. Every protocol's fleet run
   — fault-free and under message loss/duplication — must yield a
   linearizable client history, and the run-length history encoding must
   beat its own JSONL rendering by >= 4x. Both are asserted, not just
   printed. *)

type lin_sample = {
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

let write_lin_json path samples =
  Out_channel.with_open_text path (fun oc ->
      let p format = Printf.fprintf oc format in
      p "{\n";
      p "  \"suite\": \"lin\",\n";
      p "  \"schema_version\": 1,\n";
      p
        "  \"schema\": [\"experiment\", \"protocol\", \"faults\", \"ops\", \"complete\", \
         \"jsonl_bytes\", \"rle_bytes\", \"compression_ratio\", \"check_ms\", \
         \"states\", \"linearizable\"],\n";
      p "  \"samples\": [\n";
      List.iteri
        (fun i s ->
          p
            "    {\"experiment\": %S, \"protocol\": %S, \"faults\": %S, \"ops\": %d, \
             \"complete\": %d, \"jsonl_bytes\": %d, \"rle_bytes\": %d, \
             \"compression_ratio\": %.2f, \"check_ms\": %.2f, \"states\": %d, \
             \"linearizable\": %b}%s\n"
            s.l_experiment s.l_protocol s.l_faults s.l_ops s.l_complete s.l_jsonl_bytes
            s.l_rle_bytes (lin_ratio s) s.l_check_ms s.l_states s.l_linearizable
            (if i = List.length samples - 1 then "" else ","))
        samples;
      p "  ]\n";
      p "}\n");
  Format.fprintf fmt "@.wrote %d lin samples to %s@." (List.length samples) path

let run_lin_suite ~smr_clients ~smr_horizon () =
  let clients = Option.value ~default:smr_clients_default smr_clients in
  let horizon = Option.value ~default:smr_horizon_default smr_horizon in
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
      smr_protocols
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
  write_lin_json "BENCH_lin.json" samples;
  samples

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

let usage () =
  print_endline
    "usage: main.exe [--domains N] [--domains-list N,N,...] [--explore-budget N] \
     [--engine-iters N] [--smr-clients N] [--smr-horizon MS] [--check-baseline FILE] \
     [t1|t2|t3|t4|f1|f2|f3|f4|f5|tables|figures|bechamel|explore|faults|overhead|engine|smr|lin|all]...";
  exit 1

let run_experiment ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
    ~smr_horizon ~check_baseline = function
  | "t1" -> Experiments.t1_bounds_table fmt
  | "t2" -> Experiments.t2_twostep_verification ~domains fmt
  | "t3" -> Experiments.t3_tightness_witnesses ~domains fmt
  | "t4" -> Experiments.t4_recovery_audit ~domains fmt
  | "f1" -> Experiments.f1_fast_rate_vs_crashes ~domains fmt
  | "f2" -> Experiments.f2_latency_vs_conflict fmt
  | "f3" -> Experiments.f3_wan_latency fmt
  | "f4" -> Experiments.f4_smr_throughput fmt
  | "f5" -> Experiments.f5_epaxos_motivation fmt
  | "tables" ->
      Experiments.t1_bounds_table fmt;
      Experiments.t2_twostep_verification ~domains fmt;
      Experiments.t3_tightness_witnesses ~domains fmt;
      Experiments.t4_recovery_audit ~domains fmt
  | "figures" ->
      Experiments.f1_fast_rate_vs_crashes ~domains fmt;
      Experiments.f2_latency_vs_conflict fmt;
      Experiments.f3_wan_latency fmt;
      Experiments.f4_smr_throughput fmt;
      Experiments.f5_epaxos_motivation fmt
  | "bechamel" -> run_bechamel ()
  | "explore" -> run_explore_suite ~domains_list ~budget_override ()
  | "faults" -> run_faults_suite ~domains_list ~budget_override ()
  | "overhead" -> run_metrics_overhead_suite ()
  | "engine" ->
      let samples = run_engine_suite ~engine_iters () in
      Option.iter
        (fun baseline_path ->
          check_baseline_floor ~baseline_path ~field:"events_per_sec"
            (List.map (fun s -> (s.experiment, events_per_sec s)) samples))
        check_baseline
  | "smr" ->
      let samples = run_smr_suite ~smr_clients ~smr_horizon () in
      Option.iter
        (fun baseline_path ->
          List.iter
            (fun s ->
              if not s.s_converged then begin
                Printf.eprintf "baseline check: %s: replicas failed to converge\n"
                  s.s_experiment;
                exit 1
              end)
            samples;
          check_baseline_floor ~baseline_path ~field:"commits_per_sec"
            (List.map (fun s -> (s.s_experiment, s.s_commits_per_sec)) samples))
        check_baseline
  | "lin" -> ignore (run_lin_suite ~smr_clients ~smr_horizon () : lin_sample list)
  | "all" ->
      Experiments.all ~domains fmt;
      run_bechamel ();
      run_explore_suite ~domains_list ~budget_override ();
      run_faults_suite ~domains_list ~budget_override ();
      run_metrics_overhead_suite ();
      ignore (run_engine_suite ~engine_iters () : explore_sample list);
      ignore (run_smr_suite ~smr_clients ~smr_horizon () : smr_sample list);
      ignore (run_lin_suite ~smr_clients ~smr_horizon () : lin_sample list)
  | arg ->
      Printf.eprintf "unknown experiment %S\n" arg;
      usage ()

(* Extract leading/interspersed [--domains N], [--domains-list N,N,...],
   [--explore-budget N], [--engine-iters N], [--smr-clients N],
   [--smr-horizon MS] and [--check-baseline FILE] flags; everything else is
   an experiment name. *)
let rec parse_args ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
    ~smr_horizon ~check_baseline acc = function
  | [] ->
      ( domains,
        domains_list,
        budget_override,
        engine_iters,
        smr_clients,
        smr_horizon,
        check_baseline,
        List.rev acc )
  | "--domains" :: value :: rest -> begin
      match int_of_string_opt value with
      | Some d when d >= 1 ->
          parse_args ~domains:d ~domains_list ~budget_override ~engine_iters ~smr_clients
            ~smr_horizon ~check_baseline acc rest
      | _ ->
          Printf.eprintf "--domains expects a positive integer, got %S\n" value;
          usage ()
    end
  | "--domains-list" :: value :: rest -> begin
      let parsed =
        List.map int_of_string_opt (String.split_on_char ',' value)
        |> List.map (function Some d when d >= 1 -> Some d | _ -> None)
      in
      if List.exists (( = ) None) parsed || parsed = [] then begin
        Printf.eprintf "--domains-list expects positive integers, got %S\n" value;
        usage ()
      end;
      let l = List.filter_map Fun.id parsed in
      parse_args ~domains ~domains_list:(Some l) ~budget_override ~engine_iters
        ~smr_clients ~smr_horizon ~check_baseline acc rest
    end
  | "--explore-budget" :: value :: rest -> begin
      match int_of_string_opt value with
      | Some b when b >= 1 ->
          parse_args ~domains ~domains_list ~budget_override:(Some b) ~engine_iters
            ~smr_clients ~smr_horizon ~check_baseline acc rest
      | _ ->
          Printf.eprintf "--explore-budget expects a positive integer, got %S\n" value;
          usage ()
    end
  | "--engine-iters" :: value :: rest -> begin
      match int_of_string_opt value with
      | Some b when b >= 1 ->
          parse_args ~domains ~domains_list ~budget_override ~engine_iters:(Some b)
            ~smr_clients ~smr_horizon ~check_baseline acc rest
      | _ ->
          Printf.eprintf "--engine-iters expects a positive integer, got %S\n" value;
          usage ()
    end
  | "--smr-clients" :: value :: rest -> begin
      match int_of_string_opt value with
      | Some c when c >= 1 ->
          parse_args ~domains ~domains_list ~budget_override ~engine_iters
            ~smr_clients:(Some c) ~smr_horizon ~check_baseline acc rest
      | _ ->
          Printf.eprintf "--smr-clients expects a positive integer, got %S\n" value;
          usage ()
    end
  | "--smr-horizon" :: value :: rest -> begin
      match int_of_string_opt value with
      | Some h when h >= 1 ->
          parse_args ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
            ~smr_horizon:(Some h) ~check_baseline acc rest
      | _ ->
          Printf.eprintf "--smr-horizon expects a positive integer, got %S\n" value;
          usage ()
    end
  | "--check-baseline" :: value :: rest ->
      parse_args ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
        ~smr_horizon ~check_baseline:(Some value) acc rest
  | (("--domains" | "--domains-list" | "--explore-budget" | "--engine-iters"
     | "--smr-clients" | "--smr-horizon" | "--check-baseline") as flag)
    :: [] ->
      Printf.eprintf "%s expects a value\n" flag;
      usage ()
  | arg :: rest ->
      parse_args ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
        ~smr_horizon ~check_baseline (arg :: acc) rest

let () =
  let ( domains,
        domains_list,
        budget_override,
        engine_iters,
        smr_clients,
        smr_horizon,
        check_baseline,
        args ) =
    parse_args ~domains:1 ~domains_list:None ~budget_override:None ~engine_iters:None
      ~smr_clients:None ~smr_horizon:None ~check_baseline:None []
      (List.tl (Array.to_list Sys.argv))
  in
  let run =
    run_experiment ~domains ~domains_list ~budget_override ~engine_iters ~smr_clients
      ~smr_horizon ~check_baseline
  in
  match args with [] -> run "all" | args -> List.iter run args
