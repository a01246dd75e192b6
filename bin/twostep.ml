(* Command-line interface to the library: run scenarios, verify the
   e-two-step definitions, print the bound tables, and reproduce the
   tightness witnesses without writing any OCaml. *)

open Cmdliner

let protocol_conv =
  let parse s =
    match List.assoc_opt s Experiments.protocols with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown protocol %S (expected %s)" s
                (String.concat ", " (List.map fst Experiments.protocols))))
  in
  let print fmt p = Format.pp_print_string fmt (Proto.Protocol.name p) in
  Arg.conv (parse, print)

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Core.Rgs.task
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol: rgs-task, rgs-object, paxos, fast-paxos or epaxos.")

let e_arg = Arg.(value & opt int 2 & info [ "e" ] ~docv:"E" ~doc:"Fast-path crash threshold.")

let f_arg = Arg.(value & opt int 2 & info [ "f" ] ~docv:"F" ~doc:"Resilience threshold.")

let n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes (defaults to the protocol's bound).")

(* -n, -e and -f together. A command derives its default n from e and
   f, and only when -n is absent. Every default is one of the paper's
   bounds, which assume 0 <= e <= f ({!Proto.Bounds.required}), so
   outside that range a missing -n is a usage error (exit 124). *)
let size_term =
  let size n e f =
    match n with
    | None when e < 0 || f < e ->
        `Error
          ( true,
            Printf.sprintf "-n is required: the default n assumes 0 <= e <= f (e = %d, f = %d)" e
              f )
    | _ -> `Ok (n, e, f)
  in
  Term.(ret (const size $ n_arg $ e_arg $ f_arg))

let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let delta = 100

(* -- metrics plumbing --------------------------------------------------- *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the command's telemetry registry to $(docv) as JSONL (one \
           {\"metric\", \"type\", ...} object per line; see Stdext.Metrics.dump_jsonl). \
           Without this flag nothing is recorded.")

(* An enabled registry only when the caller asked for the dump. Each
   layer records into it once, when its run returns; with the disabled
   registry those records do nothing. *)
let with_metrics out k =
  let registry =
    match out with None -> Stdext.Metrics.disabled | Some _ -> Stdext.Metrics.create ()
  in
  let r = k registry in
  Option.iter
    (fun path ->
      let oc = open_out path in
      let fmt = Format.formatter_of_out_channel oc in
      Stdext.Metrics.dump_jsonl fmt registry;
      Format.pp_print_flush fmt ();
      close_out oc)
    out;
  r

(* -- bounds ------------------------------------------------------------ *)

let bounds_cmd =
  let run () = Experiments.t1_bounds_table Format.std_formatter in
  Cmd.v (Cmd.info "bounds" ~doc:"Print the bounds table (Theorems 5 & 6 vs Lamport).")
    Term.(const run $ const ())

(* -- run ---------------------------------------------------------------- *)

let pairs_conv ~what =
  (* "0:5,3:7" -> [(0,5); (3,7)] *)
  let parse s =
    if s = "" then Ok []
    else
      try
        Ok
          (String.split_on_char ',' s
          |> List.map (fun item ->
                 match String.split_on_char ':' item with
                 | [ a; b ] -> (int_of_string a, int_of_string b)
                 | _ -> failwith "syntax"))
      with _ -> Error (`Msg (Printf.sprintf "bad %s syntax (want a:b,c:d)" what))
  in
  let print fmt l =
    Format.pp_print_string fmt
      (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) l))
  in
  Arg.conv (parse, print)

let crashes_arg ?(doc = "Crash schedule as time:pid pairs.") () =
  Arg.(
    value
    & opt (pairs_conv ~what:"crashes") []
    & info [ "crashes" ] ~docv:"T:P,..." ~doc)

let run_cmd =
  let proposals_arg =
    Arg.(
      value
      & opt (pairs_conv ~what:"proposals") []
      & info [ "proposals" ] ~docv:"P:V,..."
          ~doc:"Proposals as pid:value pairs (default: every process proposes its pid).")
  in
  let net_arg =
    Arg.(
      value
      & opt (enum [ ("sync", `Sync); ("partial", `Partial); ("wan", `Wan) ]) `Partial
      & info [ "net" ] ~docv:"NET" ~doc:"Network model: sync, partial or wan.")
  in
  let until_arg =
    Arg.(value & opt int (60 * delta) & info [ "until" ] ~docv:"T" ~doc:"Horizon (ticks).")
  in
  let run protocol (n, e, f) proposals crashes net until seed =
    let (module P : Proto.Protocol.S) = protocol in
    let n = match n with Some n -> n | None -> P.min_n ~e ~f in
    let proposals =
      match proposals with
      | [] -> Checker.Scenario.all_proposals_at_zero ~n (List.init n Fun.id)
      | l -> List.map (fun (p, v) -> (0, p, v)) l
    in
    let net =
      match net with
      | `Sync -> Checker.Scenario.Sync `Arrival
      | `Partial -> Checker.Scenario.Partial { gst = 5 * delta; max_pre_gst = 3 * delta }
      | `Wan ->
          Checker.Scenario.Wan
            { latency = Workload.Topology.latency_fn Workload.Topology.planet5; jitter = 3 }
    in
    let o =
      Checker.Scenario.run protocol ~n ~e ~f ~delta ~net ~proposals ~crashes ~seed ~until ()
    in
    Format.printf "protocol: %s, n=%d, e=%d, f=%d@." P.name n e f;
    List.iter
      (fun (t, p, v) -> Format.printf "  t=%-6d %a decides %a@." t Dsim.Pid.pp p Proto.Value.pp v)
      o.decisions;
    Format.printf "messages: %d@." o.messages;
    Format.printf "verdict: %a@." Checker.Safety.pp_verdict (Checker.Safety.check o)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one consensus scenario and print decisions and verdict.")
    Term.(
      const run $ protocol_arg $ size_term $ proposals_arg $ crashes_arg ()
      $ net_arg $ until_arg $ seed_arg)

(* -- check -------------------------------------------------------------- *)

let check_cmd =
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("task", `Task); ("object", `Object) ]) `Task
      & info [ "kind" ] ~docv:"KIND" ~doc:"Definition to check: task (Def 4) or object (Def A.1).")
  in
  let run protocol (n, e, f) kind =
    let (module P : Proto.Protocol.S) = protocol in
    let n = match n with Some n -> n | None -> P.min_n ~e ~f in
    let r =
      match kind with
      | `Task -> Checker.Twostep.check_task protocol ~n ~e ~f ~delta ~values:[ 0; 1 ] ()
      | `Object -> Checker.Twostep.check_object protocol ~n ~e ~f ~delta ~values:[ 0; 1 ] ()
    in
    Format.printf "%s at n=%d e=%d f=%d: %a@." P.name n e f Checker.Twostep.pp_report r;
    if not (Checker.Twostep.ok r) then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Verify the e-two-step property over all E and configurations.")
    Term.(const run $ protocol_arg $ size_term $ kind_arg)

(* -- witness ------------------------------------------------------------ *)

let witness_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("task", `Task); ("object", `Object) ]) `Task
      & info [ "mode" ] ~docv:"MODE" ~doc:"Which theorem's witness: task (Thm 5) or object (Thm 6).")
  in
  let run mode (n, e, f) =
    let n =
      match n with
      | Some n -> n
      | None ->
          Proto.Bounds.required
            (match mode with `Task -> Proto.Bounds.Task | `Object -> Proto.Bounds.Object)
            ~e ~f
          - 1
    in
    let r =
      match mode with
      | `Task -> Lowerbound.Witness.task_scenario ~n ~e ~f ()
      | `Object -> Lowerbound.Witness.object_scenario ~n ~e ~f ()
    in
    Format.printf "%a@." Lowerbound.Witness.pp_result r
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:"Replay the adversarial tightness choreography (default: one below the bound).")
    Term.(const run $ mode_arg $ size_term)

(* -- audit --------------------------------------------------------------- *)

let audit_cmd =
  let mode_arg =
    Arg.(
      value
      & opt (enum [ ("task", Core.Rgs.Task); ("object", Core.Rgs.Object) ]) Core.Rgs.Task
      & info [ "mode" ] ~docv:"MODE" ~doc:"Recovery rule variant to audit.")
  in
  let run mode (n, e, f) =
    let n =
      match n with
      | Some n -> n
      | None ->
          Proto.Bounds.required
            (match mode with
            | Core.Rgs.Task -> Proto.Bounds.Task
            | Core.Rgs.Object -> Proto.Bounds.Object)
            ~e ~f
    in
    let s = Lowerbound.Audit.check ~mode ~n ~e ~f in
    Format.printf "%a mode at n=%d e=%d f=%d: %a@." Core.Rgs.pp_mode mode n e f
      Lowerbound.Audit.pp_stats s;
    if s.Lowerbound.Audit.failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "audit" ~doc:"Exhaustively audit the recovery rule (Lemma 7 / Lemma C.2).")
    Term.(const run $ mode_arg $ size_term)

(* -- explore ------------------------------------------------------------- *)

let explore_cmd =
  let budget_arg =
    Arg.(
      value
      & opt int 20_000
      & info [ "budget" ] ~docv:"RUNS"
          ~doc:
            "Maximum complete runs to evaluate (explorer default: 20000). The result \
             reports whether the cut truncated the search.")
  in
  let rounds_arg =
    Arg.(
      value
      & opt int 2
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Synchronous round horizon to branch delivery orders over.")
  in
  let run protocol (n, e, f) rounds budget crashes metrics_out =
    let (module P : Proto.Protocol.S) = protocol in
    let n = match n with Some n -> n | None -> P.min_n ~e ~f in
    let proposals = Checker.Scenario.all_proposals_at_zero ~n (List.init n Fun.id) in
    let r, report =
      with_metrics metrics_out (fun registry ->
          let r, report =
            Checker.Explore.synchronous_report protocol ~n ~e ~f ~delta ~proposals ~crashes
              ~rounds ~budget ~metrics:registry
              ~check:(fun o -> Checker.Safety.safe o)
              ()
          in
          if Stdext.Metrics.is_enabled registry then
            Checker.Explore.Run_report.record registry report;
          (r, report))
    in
    Format.printf "%s n=%d e=%d f=%d rounds=%d (budget %d)@." P.name n e f rounds budget;
    let cuts =
      let sched = report.Checker.Explore.Run_report.sched in
      List.filter_map
        (fun (cut, name) -> if cut then Some name else None)
        [
          (sched.Checker.Explore.Run_report.budget_cut, "budget");
          (sched.Checker.Explore.Run_report.fallback, "perm-limit fallback");
        ]
    in
    Format.printf "explored: %d schedules (%s)@." r.Checker.Explore.explored
      (if cuts = [] then "exhaustive" else "truncated: " ^ String.concat ", " cuts);
    Format.printf "%a@." Checker.Explore.Run_report.pp report;
    (match r.Checker.Explore.first_violation with
    | None -> Format.printf "violations: none@."
    | Some o ->
        Format.printf "violations: %d, first: %a@." r.Checker.Explore.violations
          Checker.Safety.pp_verdict (Checker.Safety.check o));
    if r.Checker.Explore.violations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore synchronous delivery schedules and check safety on \
          every run. The search prunes revisited states (exact dedup) and commuting \
          delivery orders (sleep-set POR).")
    Term.(
      const run $ protocol_arg $ size_term $ rounds_arg $ budget_arg
      $ crashes_arg
          ~doc:
            "Crash schedule as time:pid pairs. The search runs with timers off, so no \
             recovery runs: no timeout fires, and no leader change or slow ballot starts."
          ()
      $ metrics_out_arg)

(* -- seeded fault-plan flags --------------------------------------------- *)

(* Shared by [faults] and [lin], which pass different defaults. *)

let drop_rate_arg default =
  Arg.(
    value
    & opt float default
    & info [ "drop-rate" ] ~docv:"P"
        ~doc:"Per-message drop probability in [0,1] (applied within --max-drops).")

let dup_rate_arg default =
  Arg.(
    value
    & opt float default
    & info [ "dup-rate" ] ~docv:"P"
        ~doc:"Per-message duplication probability in [0,1] (within --max-dups).")

let max_drops_arg default =
  Arg.(
    value & opt int default
    & info [ "max-drops" ] ~docv:"K" ~doc:"Budget of dropped messages per run.")

let max_dups_arg default =
  Arg.(
    value & opt int default
    & info [ "max-dups" ] ~docv:"K" ~doc:"Budget of duplicated messages per run.")

(* -- faults -------------------------------------------------------------- *)

let faults_cmd =
  let max_extra_delay_arg =
    Arg.(
      value
      & opt int (2 * delta)
      & info [ "max-extra-delay" ] ~docv:"T"
          ~doc:"A duplicate's copy is re-sent up to this many ticks later.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~docv:"COUNT"
          ~doc:"Number of consecutive seeds to sweep, starting at --seed.")
  in
  let until_arg =
    Arg.(value & opt int (60 * delta) & info [ "until" ] ~docv:"T" ~doc:"Horizon (ticks).")
  in
  let run protocol (n, e, f) drop_rate dup_rate max_drops max_dups max_extra_delay crashes
      seeds seed until metrics_out =
    let (module P : Proto.Protocol.S) = protocol in
    let n = match n with Some n -> n | None -> P.min_n ~e ~f in
    let proposals = Checker.Scenario.all_proposals_at_zero ~n (List.init n Fun.id) in
    let faults =
      Dsim.Network.Fault.random ~drop_rate ~dup_rate ~max_drops ~max_dups
        ~max_extra_delay ()
    in
    Format.printf
      "%s n=%d e=%d f=%d: drop-rate %.2f (<=%d), dup-rate %.2f (<=%d), %d seed%s@." P.name
      n e f drop_rate max_drops dup_rate max_dups seeds
      (if seeds = 1 then "" else "s");
    let violations = ref 0 in
    with_metrics metrics_out (fun registry ->
        (* One registry across the sweep: the engine.* counters aggregate
           over all seeds. *)
        for s = seed to seed + seeds - 1 do
          let o =
            Checker.Scenario.run protocol ~n ~e ~f ~delta
              ~net:(Checker.Scenario.Partial { gst = 5 * delta; max_pre_gst = 3 * delta })
              ~proposals ~crashes ~seed:s ~faults ~metrics:registry ~until ()
          in
          let verdict = Checker.Safety.check o in
          if not (Checker.Safety.safe o) then incr violations;
          Format.printf "  seed %-6d dropped %-3d duplicated %-3d decided %d/%d  %a@." s
            o.dropped o.duplicated
            (List.length o.decisions)
            n Checker.Safety.pp_verdict verdict
        done);
    if !violations > 0 then begin
      Format.printf "%d of %d seeds violated safety@." !violations seeds;
      exit 1
    end
    else Format.printf "all %d seeds safe@." seeds
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Sweep seeded loss/duplication/crash fault plans over one protocol and check \
          safety on every run.")
    Term.(
      const run $ protocol_arg $ size_term $ drop_rate_arg 0.1 $ dup_rate_arg 0.1
      $ max_drops_arg 8 $ max_dups_arg 8 $ max_extra_delay_arg
      $ crashes_arg ~doc:"Crash schedule as time:pid pairs (composes with the fault plan)." ()
      $ seeds_arg $ seed_arg $ until_arg $ metrics_out_arg)

(* -- report -------------------------------------------------------------- *)

let report_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one JSON object per protocol (Checker.Report.to_json) instead of text.")
  in
  let run (n, e, f) json metrics_out =
    with_metrics metrics_out (fun registry ->
        List.iter
          (fun (_, protocol) ->
            let r = Checker.Report.conflict_free protocol ?n ~e ~f ~delta ~metrics:registry () in
            if json then print_endline (Stdext.Json.to_string (Checker.Report.to_json r))
            else Format.printf "%a@." Checker.Report.pp r)
          Experiments.protocols)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Per-protocol fast-path telemetry: run the conflict-free synchronous scenario \
          at each protocol's bound and print the fast-path rate and decision-latency \
          histogram — the two-step claim as numbers.")
    Term.(const run $ size_term $ json_arg $ metrics_out_arg)

(* -- smr / lin / spans shared fleet arguments ---------------------------- *)

let topology_conv =
  let parse s =
    match
      List.find_opt (fun t -> Workload.Topology.name t = s) Workload.Topology.presets
    with
    | Some t -> Ok t
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown topology %S (expected %s)" s
                (String.concat ", "
                   (List.map Workload.Topology.name Workload.Topology.presets))))
  in
  let print fmt t = Format.pp_print_string fmt (Workload.Topology.name t) in
  Arg.conv (parse, print)

let topology_arg =
  Arg.(
    value
    & opt topology_conv Workload.Topology.planet5
    & info [ "topology" ] ~docv:"TOPOLOGY"
        ~doc:"WAN preset: local-cluster, three-az, planet5 or planet9.")

let clients_arg =
  Arg.(value & opt int 120 & info [ "clients" ] ~docv:"N" ~doc:"Number of simulated clients.")

let rate_arg =
  Arg.(
    value
    & opt float 4.0
    & info [ "rate" ] ~docv:"CMDS"
        ~doc:"Open-loop arrival rate per client (commands/second).")

let mode_arg =
  Arg.(
    value
    & opt (enum [ ("open", `Open); ("closed", `Closed) ]) `Open
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "$(b,open): Poisson arrivals at $(b,--rate) regardless of completions; \
           $(b,closed): one outstanding command per client, resubmitting \
           $(b,--think) ms after each completion.")

let think_arg =
  Arg.(
    value & opt int 0
    & info [ "think" ] ~docv:"MS" ~doc:"Closed-loop think time between commands.")

let pipeline_arg =
  Arg.(
    value & opt int 16
    & info [ "pipeline" ] ~docv:"DEPTH" ~doc:"In-flight consensus slots per proxy.")

let batch_max_arg =
  Arg.(
    value & opt int 64
    & info [ "batch-max" ] ~docv:"K" ~doc:"Max commands packed into one proposal.")

let keys_arg =
  Arg.(value & opt int 64 & info [ "keys" ] ~docv:"K" ~doc:"Keyspace size.")

let hot_rate_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "hot-rate" ] ~docv:"P" ~doc:"Probability a command hits the hot key.")

let horizon_arg =
  Arg.(
    value & opt int 10_000
    & info [ "horizon" ] ~docv:"MS" ~doc:"Virtual milliseconds to simulate.")

let jitter_arg =
  Arg.(
    value & opt int 0
    & info [ "jitter" ] ~docv:"MS" ~doc:"Random extra one-way delay (uniform 0..MS).")

type fleet = {
  protocol : Proto.Protocol.t;
  n : int;
  e : int;
  f : int;
  topology : Workload.Topology.t;
  jitter : int;
  pipeline : int;
  batch_max : int;
  seed : int;
  config : Workload.Fleet.config;  (* read_rate is set per run by [run_fleet] *)
}

let fleet_term =
  let make protocol (n, e, f) topology clients rate mode think pipeline batch_max keys
      hot_rate horizon jitter seed =
    let (module P : Proto.Protocol.S) = protocol in
    let arrival =
      match mode with
      | `Open -> Workload.Fleet.Open { rate_per_client = rate }
      | `Closed -> Workload.Fleet.Closed { think }
    in
    {
      protocol;
      n = (match n with Some n -> n | None -> P.min_n ~e ~f);
      e;
      f;
      topology;
      jitter;
      pipeline;
      batch_max;
      seed;
      config = { clients; arrival; keys; hot_rate; read_rate = 0.0; horizon; tick = 50 };
    }
  in
  Term.(
    const make $ protocol_arg $ size_term $ topology_arg $ clients_arg $ rate_arg
    $ mode_arg $ think_arg $ pipeline_arg $ batch_max_arg $ keys_arg $ hot_rate_arg
    $ horizon_arg $ jitter_arg $ seed_arg)

let run_fleet ?(read_rate = 0.0) ?faults ?metrics ?causality ?mutation fl =
  Workload.Fleet.run ~protocol:fl.protocol ~e:fl.e ~f:fl.f ~n:fl.n ~topology:fl.topology
    ~jitter:fl.jitter ~pipeline:fl.pipeline ~batch_max:fl.batch_max ~seed:fl.seed ?faults
    ?metrics ?causality ?mutation { fl.config with read_rate }

(* The deployment line every fleet command opens with; [detail] ends it
   and defaults to the arrival process. *)
let print_deployment ?detail fl =
  let detail =
    match (detail, fl.config.arrival) with
    | Some d, _ -> d
    | None, Open { rate_per_client } ->
        Printf.sprintf " (open loop, %.2f cmd/s each)" rate_per_client
    | None, Closed { think } -> Printf.sprintf " (closed loop, think %d ms)" think
  in
  Format.printf "SMR deployment: %s n=%d (e=%d f=%d) on %s, %d clients%s@."
    (Proto.Protocol.name fl.protocol) fl.n fl.e fl.f
    (Workload.Topology.name fl.topology)
    fl.config.clients detail

(* -- smr ----------------------------------------------------------------- *)

let smr_cmd =
  let run fl metrics_out =
    let r = with_metrics metrics_out (fun registry -> run_fleet ~metrics:registry fl) in
    let open Format in
    print_deployment fl;
    printf "pipeline %d, batch-max %d, horizon %d ms, seed %d@.@." fl.pipeline fl.batch_max
      fl.config.horizon fl.seed;
    printf "submitted    %8d commands@." r.submitted;
    printf "completed    %8d (%.1f commits/sec)@." r.completed
      (Workload.Fleet.commits_per_sec r);
    (* A run can complete nothing (e.g. a tiny horizon): percentiles of an
       empty sample set are undefined, not zero. *)
    (match (Stdext.Stats.p50_opt r.latencies, Stdext.Stats.p99_opt r.latencies) with
    | Some p50, Some p99 ->
        printf "latency      p50 %d ms, p99 %d ms, mean %.1f ms (submit->apply at proxy)@."
          p50 p99 (Stdext.Stats.mean r.latencies)
    | _ -> printf "latency      n/a (no completions)@.");
    printf "slots        %d applied, mean batch %.2f, max batch %d@." r.slots_applied
      r.mean_batch r.max_batch;
    printf "converged    %b@." r.converged;
    if not r.converged then exit 1
  in
  Cmd.v
    (Cmd.info "smr"
       ~doc:
         "Drive the replicated KV store with a simulated client fleet over a WAN \
          topology and report commits/sec and client-visible p50/p99 latency at the \
          proxy (the paper's §1 cost model).")
    Term.(const run $ fleet_term $ metrics_out_arg)

(* -- lin ------------------------------------------------------------------ *)

let lin_cmd =
  let read_rate_arg =
    Arg.(
      value
      & opt float 0.3
      & info [ "read-rate" ] ~docv:"P" ~doc:"Probability a command is a read (in [0,1]).")
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "mutate-stale-reads" ] ~docv:"PID"
          ~doc:
            "Deliberately make replica $(docv) serve every read from the key's \
             previous value. The run must then be flagged non-linearizable — this is \
             the checker's mutation test.")
  in
  let history_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "history-out" ] ~docv:"FILE"
          ~doc:
            "Write the client history to $(docv): streaming JSON lines when the \
             name ends in .jsonl, run-length binary otherwise.")
  in
  let witness_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-out" ] ~docv:"FILE"
          ~doc:
            "When the check fails, write the minimal witness window's operations to \
             $(docv) (same format rule as --history-out).")
  in
  let witness_chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "witness-chrome" ] ~docv:"FILE"
          ~doc:
            "When the check fails, additionally render the witness window as a \
             Chrome trace_event timeline (one thread per client) to $(docv) — \
             open in Perfetto or about://tracing to see the overlap the checker \
             could not linearize.")
  in
  let write_history path history =
    if Filename.check_suffix path ".jsonl" then begin
      let oc = open_out path in
      Checker.History.to_jsonl oc history;
      close_out oc
    end
    else Checker.History.to_file path history
  in
  let write_chrome path events =
    let oc = open_out path in
    let fmt = Format.formatter_of_out_channel oc in
    Checker.History.to_chrome fmt events;
    Format.pp_print_flush fmt ();
    close_out oc
  in
  let run fl read_rate drop_rate dup_rate max_drops max_dups mutate history_out
      witness_out witness_chrome =
    let faults =
      if drop_rate > 0.0 || dup_rate > 0.0 then
        Some
          (Dsim.Network.Fault.random ~drop_rate ~dup_rate ~max_drops ~max_dups
             ~max_extra_delay:(2 * delta) ())
      else None
    in
    let mutation = Option.map (fun pid -> Smr.Replica.Stale_reads pid) mutate in
    let r = run_fleet ~read_rate ?faults ?mutation fl in
    Option.iter (fun path -> write_history path r.history) history_out;
    let open Format in
    print_deployment fl ~detail:(Printf.sprintf ", read-rate %.2f" read_rate);
    (match mutation with
    | Some (Smr.Replica.Stale_reads pid) -> printf "mutation     stale reads at replica %d@." pid
    | None -> ());
    printf "history      %d ops (%d complete, %d in flight at horizon)@."
      (List.length r.history) r.completed
      (r.submitted - r.completed);
    let t0 = Sys.time () in
    let outcome = Checker.Linearizability.check_history r.history in
    let elapsed_ms = (Sys.time () -. t0) *. 1000.0 in
    printf "check        per-key: %d keys, %d states explored, %.1f ms@."
      outcome.stats.keys outcome.stats.states elapsed_ms;
    if outcome.ok then printf "linearizable yes@."
    else begin
      printf "linearizable NO: %s@." (Option.value ~default:"?" outcome.reason);
      Option.iter
        (fun (w : Checker.Linearizability.witness) ->
          printf "%a@." Checker.Linearizability.pp_witness w;
          Option.iter (fun path -> write_history path w.events) witness_out;
          Option.iter (fun path -> write_chrome path w.events) witness_chrome)
        outcome.witness;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "lin"
       ~doc:
         "Run a mixed read/write client fleet against the replicated KV store \
          (optionally under message loss/duplication or a deliberately buggy \
          replica), record the client-observed history, and decide its \
          linearizability with the WGL search. Exits non-zero on a \
          non-linearizable history.")
    Term.(
      const run $ fleet_term $ read_rate_arg $ drop_rate_arg 0.0 $ dup_rate_arg 0.0
      $ max_drops_arg 64 $ max_dups_arg 64 $ mutate_arg $ history_out_arg $ witness_out_arg
      $ witness_chrome_arg)

(* -- spans ---------------------------------------------------------------- *)

let spans_cmd =
  let chrome_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's causal span store as Chrome trace_event JSON — one \
             thread per replica, flow arrows along every causal parent link. Open \
             in Perfetto or about://tracing.")
  in
  let spans_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans-out" ] ~docv:"FILE"
          ~doc:
            "Write the raw span table to $(docv): streaming JSON lines when the \
             name ends in .jsonl, run-length binary otherwise.")
  in
  let assert_fast_arg =
    Arg.(
      value & flag
      & info [ "assert-fast" ]
          ~doc:
            "Exit non-zero unless at least one command committed and every one \
             took the fast path (measured delay_steps <= 2). Meaningful on \
             conflict-free runs of the two-step protocols — the CI cross-check \
             that the measured critical paths match the paper's table.")
  in
  let run fl chrome_out spans_out assert_fast =
    let causality = Dsim.Causality.create () in
    let r = run_fleet ~causality fl in
    let paths = Smr.Spans.command_paths causality in
    let attr = Smr.Spans.attribution paths in
    let open Format in
    print_deployment fl;
    printf "spans        %d recorded, %d command paths (%d completed)@."
      (Dsim.Causality.length causality)
      (List.length paths) r.completed;
    printf "attribution  %a@." Smr.Spans.pp_attribution attr;
    (match Smr.Spans.predicate (Proto.Protocol.name fl.protocol) with
    | Some p -> printf "theory       %s@." (Smr.Spans.predicate_name p)
    | None -> ());
    Option.iter
      (fun path ->
        let oc = open_out path in
        let fmt = Format.formatter_of_out_channel oc in
        Dsim.Causality.to_chrome fmt causality;
        Format.pp_print_flush fmt ();
        close_out oc)
      chrome_out;
    Option.iter
      (fun path ->
        let table = Dsim.Causality.to_table causality in
        if Filename.check_suffix path ".jsonl" then begin
          let oc = open_out path in
          Stdext.Rle.iter_jsonl table (fun line ->
              output_string oc line;
              output_char oc '\n');
          close_out oc
        end
        else Stdext.Rle.to_file path table)
      spans_out;
    if not r.converged then begin
      printf "converged    false@.";
      exit 1
    end;
    if assert_fast then
      if attr.Smr.Spans.commits = 0 then begin
        printf "assert-fast  FAILED: no commits@.";
        exit 1
      end
      else if attr.Smr.Spans.two_step < attr.Smr.Spans.commits then begin
        printf "assert-fast  FAILED: %d of %d commits exceeded two message delays@."
          (attr.Smr.Spans.commits - attr.Smr.Spans.two_step)
          attr.Smr.Spans.commits;
        exit 1
      end
      else printf "assert-fast  ok: %d/%d commits at delay_steps <= 2@."
             attr.Smr.Spans.two_step attr.Smr.Spans.commits
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Run the client fleet with causal span tracing attached, reconstruct every \
          committed command's critical path (submit -> proposal -> quorum -> apply), \
          and report the measured delay_steps histogram and fast/slow-path \
          attribution against the protocol's theoretical two-step predicate. \
          Optionally export the span store as Chrome trace JSON or a columnar \
          table.")
    Term.(const run $ fleet_term $ chrome_out_arg $ spans_out_arg $ assert_fast_arg)

(* -- experiments --------------------------------------------------------- *)

let experiments_cmd =
  let names = List.map fst Experiments.table in
  let which_arg =
    Arg.(
      value
      & pos_all (enum (List.combine names names)) [ "all" ]
      & info [] ~docv:"EXPERIMENT" ~doc:(Printf.sprintf "Experiments to run, each %s." (doc_alts ~quoted:false names)))
  in
  let run which =
    List.iter (fun name -> List.assoc name Experiments.table Format.std_formatter) which
  in
  Cmd.v (Cmd.info "experiments" ~doc:"Run the evaluation experiments (see EXPERIMENTS.md).")
    Term.(const run $ which_arg)

let () =
  let doc = "Two-step consensus: protocols, checkers and lower-bound witnesses." in
  let info = Cmd.info "twostep" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bounds_cmd;
            run_cmd;
            check_cmd;
            witness_cmd;
            audit_cmd;
            explore_cmd;
            faults_cmd;
            report_cmd;
            smr_cmd;
            lin_cmd;
            spans_cmd;
            experiments_cmd;
          ]))
