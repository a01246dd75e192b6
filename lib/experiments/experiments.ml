module Pid = Dsim.Pid
module Time = Dsim.Time
module Value = Proto.Value
module Bounds = Proto.Bounds
module Scenario = Checker.Scenario
module Safety = Checker.Safety
module Twostep = Checker.Twostep
module Rng = Stdext.Rng
module Stats = Stdext.Stats

let delta = 100

let hline fmt = Format.fprintf fmt "%s@." (String.make 78 '-')

let header fmt title =
  Format.fprintf fmt "@.";
  hline fmt;
  Format.fprintf fmt "%s@." title;
  hline fmt

let protocols : (string * Proto.Protocol.t) list =
  [
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
    ("paxos", Baselines.Paxos.protocol);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("epaxos", Epaxos.protocol);
  ]

(* Protocols under comparison, at their minimal n for given (e, f). *)
let compared : (string * Proto.Protocol.t) list =
  [
    ("paxos", Baselines.Paxos.protocol);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
  ]

let min_n (module P : Proto.Protocol.S) ~e ~f = P.min_n ~e ~f

let mean l =
  match l with [] -> nan | _ -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

(* T1 ---------------------------------------------------------------- *)

let t1_bounds_table fmt =
  header fmt
    "T1. Required number of processes (Theorems 5 & 6 vs Lamport's bound)";
  Format.fprintf fmt "%4s %4s | %14s %14s %14s | %s@." "e" "f" "Lamport(2e+f+1)"
    "task(2e+f)" "object(2e+f-1)" "saved vs Lamport";
  List.iter
    (fun (e, f) ->
      let lam = Bounds.required Bounds.Lamport_fast ~e ~f in
      let task = Bounds.required Bounds.Task ~e ~f in
      let obj = Bounds.required Bounds.Object ~e ~f in
      Format.fprintf fmt "%4d %4d | %14d %14d %14d | %d / %d@." e f lam task obj (lam - task)
        (lam - obj))
    [ (1, 1); (1, 2); (1, 3); (2, 2); (2, 3); (2, 4); (3, 3); (3, 4); (3, 5); (4, 4); (4, 5) ];
  Format.fprintf fmt
    "(all bounds include the floor 2f+1; EPaxos regime e=ceil((f+1)/2): object bound = 2f+1)@."

(* T2 ---------------------------------------------------------------- *)

let t2_twostep_verification fmt =
  header fmt "T2. e-two-step verification (Defs 4 / A.1) at the minimal n";
  Format.fprintf fmt "%-12s %-7s %3s %3s %3s | %8s %8s | %s@." "protocol" "def" "n" "e" "f"
    "configs" "runs" "verdict";
  let row (name, kind, protocol, n, e, f, expect) =
    let r =
      match kind with
      | `Task -> Twostep.check_task protocol ~n ~e ~f ~delta ~values:[ 0; 1 ] ()
      | `Object -> Twostep.check_object protocol ~n ~e ~f ~delta ~values:[ 0; 1 ] ()
    in
    let verdict = if Twostep.ok r then "e-two-step" else "NOT e-two-step" in
    let marker = if Twostep.ok r = expect then "(as proved)" else "(UNEXPECTED!)" in
    Format.fprintf fmt "%-12s %-7s %3d %3d %3d | %8d %8d | %s %s@." name
      (match kind with `Task -> "task" | `Object -> "object")
      n e f r.Twostep.checked_configs r.Twostep.checked_runs verdict marker
  in
  List.iter row
    [
      ("rgs-task", `Task, Core.Rgs.task, 3, 1, 1, true);
      ("rgs-task", `Task, Core.Rgs.task, 6, 2, 2, true);
      ("rgs-task", `Task, Core.Rgs.task, 7, 2, 3, true);
      ("rgs-object", `Object, Core.Rgs.obj, 3, 1, 1, true);
      ("rgs-object", `Object, Core.Rgs.obj, 5, 2, 2, true);
      ("rgs-object", `Object, Core.Rgs.obj, 7, 2, 3, true);
      ("fast-paxos", `Task, Baselines.Fast_paxos.protocol, 7, 2, 2, true);
      ("fast-paxos", `Object, Baselines.Fast_paxos.protocol, 7, 2, 2, true);
      ("paxos", `Task, Baselines.Paxos.protocol, 5, 2, 2, false);
      ("paxos", `Task, Baselines.Paxos.protocol, 3, 1, 1, false);
    ];
  Format.fprintf fmt
    "(a verified row quantifies over every E of size e and every {0,1}-configuration)@."

(* T3 ---------------------------------------------------------------- *)

let t3_tightness_witnesses fmt =
  header fmt "T3. Tightness: adversarial choreography at n = bound vs n = bound-1";
  Format.fprintf fmt "%-8s %3s %3s | %-6s %-10s | %-6s %-10s@." "mode" "e" "f" "n" "at bound"
    "n-1" "below bound";
  let describe (r : Lowerbound.Witness.result) =
    if r.agreement_violated then "VIOLATED" else "safe"
  in
  let row (mode, e, f) =
    let kind, scenario =
      match mode with
      | `Task -> (Bounds.Task, Lowerbound.Witness.task_scenario)
      | `Object -> (Bounds.Object, Lowerbound.Witness.object_scenario)
    in
    let bound = Bounds.required kind ~e ~f in
    let at = scenario ~n:bound ~e ~f () in
    let below = scenario ~n:(bound - 1) ~e ~f () in
    Format.fprintf fmt "%-8s %3d %3d | %-6d %-10s | %-6d %-10s@."
      (match mode with `Task -> "task" | `Object -> "object")
      e f bound (describe at) (bound - 1) (describe below)
  in
  List.iter row
    (List.map (fun (e, f) -> (`Task, e, f)) [ (2, 2); (3, 3); (3, 4); (4, 4) ]
    @ List.map (fun (e, f) -> (`Object, e, f)) [ (3, 3); (4, 4); (4, 5) ]);
  Format.fprintf fmt
    "(VIOLATED = two processes decided different values: Agreement broken, matching@.";
  Format.fprintf fmt " the 'only if' directions of Theorems 5 and 6)@."

(* T4 ---------------------------------------------------------------- *)

let t4_recovery_audit fmt =
  header fmt "T4. Recovery-rule audit (Lemma 7 / Lemma C.2): exhaustive vote layouts";
  Format.fprintf fmt "%-8s %3s %3s %3s | %8s %9s | %s@." "mode" "n" "e" "f" "layouts"
    "failures" "expected";
  let row (mode, name, n, e, f, expect_ok) =
    let s = Lowerbound.Audit.check ~mode ~n ~e ~f in
    let ok = s.Lowerbound.Audit.failures = 0 in
    Format.fprintf fmt "%-8s %3d %3d %3d | %8d %9d | %s %s@." name n e f
      s.Lowerbound.Audit.layouts s.Lowerbound.Audit.failures
      (if expect_ok then "holds" else "fails")
      (if ok = expect_ok then "(as proved)" else "(UNEXPECTED!)")
  in
  let task_rows =
    List.concat_map
      (fun (e, f) ->
        let bound = Bounds.required Bounds.Task ~e ~f in
        (Core.Rgs.Task, "task", bound, e, f, true)
        ::
        (if (2 * e) + f - 1 >= (2 * f) + 1 then
           [ (Core.Rgs.Task, "task", bound - 1, e, f, false) ]
         else []))
      [ (2, 2); (3, 3); (3, 4); (4, 4); (2, 5) ]
  in
  let object_rows =
    List.concat_map
      (fun (e, f) ->
        let bound = Bounds.required Bounds.Object ~e ~f in
        (Core.Rgs.Object, "object", bound, e, f, true)
        ::
        (if (2 * e) + f - 2 >= (2 * f) + 1 then
           [ (Core.Rgs.Object, "object", bound - 1, e, f, false) ]
         else []))
      [ (2, 2); (3, 3); (4, 4); (4, 5); (2, 5) ]
  in
  List.iter row (task_rows @ object_rows)

(* F1 ---------------------------------------------------------------- *)

(* A proxy-centric workload: one client command lands at a proxy, which
   proposes it; in task mode the remaining processes propose a low no-op
   value and the schedule favours the proxy (Definition 4 is existential in
   the delivery order — see DESIGN.md). *)
let f1_fast_rate_vs_crashes ?(seeds = 300) fmt =
  header fmt "F1. Two-step decision rate at the proxy vs crashes (e = f = 2)";
  let e = 2 and f = 2 in
  Format.fprintf fmt "%-12s %3s |" "protocol" "n";
  for c = 0 to 3 do
    Format.fprintf fmt " %8s" (Printf.sprintf "%d crash" c)
  done;
  Format.fprintf fmt "@.";
  (* One grid cell = one (protocol, crash count) pair, sweeping its seeds. *)
  let cell name protocol crashes =
    let n = min_n protocol ~e ~f in
    let fast = ref 0 in
    for seed = 1 to seeds do
      let rng = Rng.create ~seed:(seed * 7919) in
      let proxy = Rng.int rng n in
      let crashed =
        Rng.shuffle rng (List.filter (fun p -> p <> proxy) (Pid.all ~n))
        |> List.filteri (fun i _ -> i < crashes)
      in
      let proposals =
        match name with
        | "rgs-task" ->
            (* task mode: everyone has an input; non-proxies carry a
               low no-op *)
            List.map (fun p -> (0, p, if p = proxy then 5 else 0)) (Pid.all ~n)
        | _ -> [ (0, proxy, 5) ]
      in
      let order = if name = "rgs-task" then `Favor proxy else `Random in
      let o =
        Scenario.run protocol ~n ~e ~f ~delta ~net:(Scenario.Sync order) ~proposals
          ~crashes:(Scenario.crash_at_start crashed)
          ~seed ~disable_timers:true ~until:((2 * delta) + 1) ()
      in
      match Scenario.decided_value o proxy with
      | Some (t, _) when t <= 2 * delta -> incr fast
      | _ -> ()
    done;
    Format.fprintf fmt " %8.2f" (float_of_int !fast /. float_of_int seeds)
  in
  List.iter
    (fun (name, protocol) ->
      Format.fprintf fmt "%-12s %3d |" name (min_n protocol ~e ~f);
      for crashes = 0 to 3 do
        cell name protocol crashes
      done;
      Format.fprintf fmt "@.")
    compared;
  Format.fprintf fmt
    "(expected shape: fast protocols hold rate 1.0 up to e=2 crashes and drop to 0@.";
  Format.fprintf fmt
    " beyond; Paxos decides fast only when the proxy happens to be the leader ~1/n)@."

(* F2 ---------------------------------------------------------------- *)

let f2_latency_vs_conflict ?(seeds = 200) fmt =
  header fmt "F2. First-decision latency (in units of Delta) vs conflict rate (e = f = 2)";
  let e = 2 and f = 2 in
  let rates = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let run_case ~crash_leader fmt_label =
    Format.fprintf fmt "%s@." fmt_label;
    Format.fprintf fmt "%-12s %3s |" "protocol" "n";
    List.iter (fun r -> Format.fprintf fmt " %11s" (Printf.sprintf "rate %.2f" r)) rates;
    Format.fprintf fmt "@.";
    List.iter
      (fun (name, protocol) ->
        let n = min_n protocol ~e ~f in
        Format.fprintf fmt "%-12s %3d |" name n;
        List.iter
          (fun rate ->
            let latencies = ref [] in
            for seed = 1 to seeds do
              let rng = Rng.create ~seed:(seed * 104729) in
              (* Two potential proposers; the second one joins with
                 probability [rate] and carries a conflicting value. *)
              let p1 = Rng.int rng n in
              let p2 = (p1 + 1 + Rng.int rng (n - 1)) mod n in
              let conflicting = Rng.float rng 1.0 < rate in
              let proposals =
                if conflicting then [ (0, p1, 5); (0, p2, 7) ] else [ (0, p1, 5) ]
              in
              let crashes = if crash_leader then [ (0, 0) ] else [] in
              let o =
                Scenario.run protocol ~n ~e ~f ~delta ~net:(Scenario.Sync `Random)
                  ~proposals ~crashes ~seed ~until:(40 * delta) ()
              in
              match o.decisions with
              | (t, _, _) :: _ -> latencies := t :: !latencies
              | [] -> ()
            done;
            let m = mean !latencies /. float_of_int delta in
            Format.fprintf fmt " %11.1f" m)
          rates;
        Format.fprintf fmt "@.")
      (List.filter (fun (name, _) -> name <> "rgs-task") compared)
  in
  run_case ~crash_leader:false "-- initial leader (p0) alive --";
  run_case ~crash_leader:true "-- initial leader (p0) crashed at t=0 --";
  Format.fprintf fmt
    "(expected shape: fast protocols sit at 2.0 without conflicts and degrade as@.";
  Format.fprintf fmt
    " conflicts force the slow path; Paxos is conflict-insensitive but pays a view@.";
  Format.fprintf fmt " change when its leader dies, which never touches the fast protocols)@."

(* F3 ---------------------------------------------------------------- *)

let f3_wan_latency fmt =
  header fmt "F3. WAN commit latency at the proxy, planet5 topology (ms), e = f = 2";
  let e = 2 and f = 2 in
  let topo = Workload.Topology.planet5 in
  let wan_delta = Workload.Topology.max_oneway topo + 10 in
  let regions = Workload.Topology.regions topo in
  Format.fprintf fmt "%-12s %3s |" "protocol" "n";
  List.iter (fun r -> Format.fprintf fmt " %10s" r) regions;
  Format.fprintf fmt "@.";
  List.iter
    (fun (name, protocol) ->
      let n = min_n protocol ~e ~f in
      Format.fprintf fmt "%-12s %3d |" name n;
      List.iteri
        (fun region_idx _ ->
          (* the proxy is the replica living in this region *)
          let proxy = region_idx in
          let proposals = [ (0, proxy, 5) ] in
          let o =
            Scenario.run protocol ~n ~e ~f ~delta:wan_delta
              ~net:
                (Scenario.Wan
                   { latency = Workload.Topology.latency_fn topo; jitter = 3 })
              ~proposals ~seed:11 ~until:(40 * wan_delta) ()
          in
          match Scenario.decided_value o proxy with
          | Some (t, _) -> Format.fprintf fmt " %10d" t
          | None -> Format.fprintf fmt " %10s" "-")
        regions;
      Format.fprintf fmt "@.")
    (List.filter (fun (name, _) -> name <> "rgs-task") compared);
  Format.fprintf fmt
    "(rgs-object needs n-e-1 = 2 remote votes; Fast Paxos runs 7 replicas for the@.";
  Format.fprintf fmt
    " same e and must hear 4 of them, reaching further regions; Paxos routes through@.";
  Format.fprintf fmt " the virginia leader: non-leader proxies pay extra wide-area hops)@."

(* F4 ---------------------------------------------------------------- *)

(* The SMR comparison adds EPaxos: it only exists as a deployment-level
   contender (the paper's §1 motivation), so it joins here rather than in
   the single-shot sweeps above. *)
let smr_protocols = compared @ [ ("epaxos", Epaxos.protocol) ]

let f4_smr_throughput ?(seeds = 3) fmt =
  header fmt "F4. SMR under load: pipelined/batched replicas vs one-command slots (e = f = 2)";
  let e = 2 and f = 2 in
  let cfg : Workload.Fleet.config =
    {
      clients = 100;
      arrival = Open { rate_per_client = 3.0 };
      keys = 64;
      hot_rate = 0.1;
      read_rate = 0.0;
      horizon = 8_000;
      tick = 50;
    }
  in
  Format.fprintf fmt
    "open-loop fleet on planet5: %d clients x %.1f cmd/s for %d virtual ms@." cfg.clients
    3.0 cfg.horizon;
  Format.fprintf fmt "%-12s %3s | %-21s | %-29s | %-7s %s@." "protocol" "n"
    "1 cmd/slot: cps p50/p99" "pipe 16 x batch 64: cps p50/p99" "speedup" "conv";
  let fmean l =
    match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  List.iter
    (fun (name, protocol) ->
      let n = min_n protocol ~e ~f in
      let measure ~pipeline ~batch_max =
        let runs =
          List.init seeds (fun i ->
              Workload.Fleet.run ~protocol ~e ~f ~topology:Workload.Topology.planet5
                ~pipeline ~batch_max ~seed:(i + 1) cfg)
        in
        let cps = fmean (List.map Workload.Fleet.commits_per_sec runs) in
        let p50 = mean (List.map (fun (r : Workload.Fleet.result) -> Stats.p50 r.latencies) runs) in
        let p99 = mean (List.map (fun (r : Workload.Fleet.result) -> Stats.p99 r.latencies) runs) in
        let batch = fmean (List.map (fun (r : Workload.Fleet.result) -> r.mean_batch) runs) in
        let converged =
          List.for_all (fun (r : Workload.Fleet.result) -> r.converged) runs
        in
        (cps, p50, p99, batch, converged)
      in
      let bcps, bp50, bp99, _, bconv = measure ~pipeline:1 ~batch_max:1 in
      let tcps, tp50, tp99, tbatch, tconv = measure ~pipeline:16 ~batch_max:64 in
      Format.fprintf fmt "%-12s %3d | %7.1f %6.0f/%6.0f | %7.1f %6.0f/%6.0f (batch %4.1f) | %6.1fx %b@."
        name n bcps bp50 bp99 tcps tp50 tp99 tbatch
        (if bcps > 0.0 then tcps /. bcps else nan)
        (bconv && tconv))
    smr_protocols;
  Format.fprintf fmt
    "(cps = completed client commands per virtual second at their proxy; p50/p99 in ms@.";
  Format.fprintf fmt
    " of submit->apply at the proxy — the paper's client-visible latency; same offered@.";
  Format.fprintf fmt " load in both columns, so cps gaps are queueing collapse)@."

(* F5 ---------------------------------------------------------------- *)

let f5_epaxos_motivation ?(seeds = 200) fmt =
  header fmt "F5. EPaxos-style commits with 2f+1 processes (paper, section 1)";
  Format.fprintf fmt
    "Two replicas submit one command each; interference = same key.@.";
  Format.fprintf fmt "%-3s %-3s %-3s %-4s |" "f" "e" "n" "FQ";
  List.iter
    (fun r -> Format.fprintf fmt " %14s" (Printf.sprintf "interf %.2f" r))
    [ 0.0; 0.5; 1.0 ];
  Format.fprintf fmt "   (mean commit latency in Delta / fast rate)@.";
  List.iter
    (fun f ->
      let n = (2 * f) + 1 in
      let e = Proto.Bounds.epaxos_e ~f in
      Format.fprintf fmt "%-3d %-3d %-3d %-4d |" f e n (Epaxos.fast_quorum ~n ~f);
      List.iter
        (fun rate ->
          let latencies = ref [] and fast = ref 0 and total = ref 0 in
          for seed = 1 to seeds do
            let rng = Rng.create ~seed:(seed * 31337) in
            let l1 = Rng.int rng n in
            let l2 = (l1 + 1 + Rng.int rng (n - 1)) mod n in
            let interferes = Rng.float rng 1.0 < rate in
            let cmds =
              [
                (0, l1, { Epaxos.Cmd.origin = l1; key = 1; payload = 1 });
                (0, l2, { Epaxos.Cmd.origin = l2; key = (if interferes then 1 else 2); payload = 2 });
              ]
            in
            (* crash e of the non-leaders at startup *)
            let crashed =
              Rng.shuffle rng (List.filter (fun p -> p <> l1 && p <> l2) (Pid.all ~n))
              |> List.filteri (fun i _ -> i < e)
              |> List.map (fun p -> (0, p))
            in
            let automaton = Epaxos.make ~n ~f ~delta in
            let engine =
              Dsim.Engine.create ~automaton ~n
                ~network:(Dsim.Network.Sync_rounds { delta; order = Dsim.Network.Random_order })
                ~seed ~inputs:cmds ~crashes:crashed ()
            in
            ignore (Dsim.Engine.run ~until:(40 * delta) engine);
            List.iter
              (fun (t, p, o) ->
                match o with
                | Epaxos.Committed _ when Pid.equal p l1 || Pid.equal p l2 ->
                    incr total;
                    latencies := t :: !latencies;
                    if t <= 2 * delta then incr fast
                | _ -> ())
              (Dsim.Engine.outputs engine)
          done;
          Format.fprintf fmt " %8.1f /%4.2f"
            (mean !latencies /. float_of_int delta)
            (float_of_int !fast /. float_of_int (max 1 !total)))
        [ 0.0; 0.5; 1.0 ];
      Format.fprintf fmt "@.")
    [ 1; 2; 3 ];
  Format.fprintf fmt
    "(the fast rate stays high at interference 0 despite e crashes — the protocol@.";
  Format.fprintf fmt
    " the classical bound says needs 2e+f+1 processes runs here on 2f+1 = 2e+f-1,@.";
  Format.fprintf fmt " which is exactly the paper's object bound)@."

(* Name table ---------------------------------------------------------- *)

type runner = Format.formatter -> unit

let tables : (string * runner) list =
  [
    ("t1", t1_bounds_table);
    ("t2", t2_twostep_verification);
    ("t3", t3_tightness_witnesses);
    ("t4", t4_recovery_audit);
  ]

let figures : (string * runner) list =
  [
    ("f1", fun fmt -> f1_fast_rate_vs_crashes fmt);
    ("f2", fun fmt -> f2_latency_vs_conflict fmt);
    ("f3", f3_wan_latency);
    ("f4", fun fmt -> f4_smr_throughput fmt);
    ("f5", fun fmt -> f5_epaxos_motivation fmt);
  ]

let run_each runners fmt = List.iter (fun (_, run) -> run fmt) runners

let table =
  tables @ figures
  @ [
      ("tables", run_each tables);
      ("figures", run_each figures);
      ("all", run_each (tables @ figures));
    ]
