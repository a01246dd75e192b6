(* Reproductions of two library issues found while defining the benchmark
   (README.md, "Known issues"):

     dune exec benchmark/known_issues.exe -- explore-domains
     dune exec benchmark/known_issues.exe -- lin-overload

   Each prints what it measured and exits 1 while the issue reproduces,
   0 once it is fixed. *)

(* explore-faults-n6 must report the same totals at any domain count. *)
let explore_domains () =
  let run domains =
    let span, r, t = Workloads.explore_run ~domains () in
    Printf.printf "domains %d: explored %d, distinct %d, violations %d, %.2f s\n%!" domains
      r.explored t.distinct_states r.violations (Layer.seconds span.Hostspeed.net_ns);
    (r.explored, t.distinct_states)
  in
  let one = run 1 in
  let two = run 2 in
  if one = two then 0 else 1

(* The WGL check of smr-paxos-planet9-rw's 80 cmd/s rung does not finish.
   The search runs under a watchdog (wall time and major-heap size) so the
   repro stays safe to run on a shared machine. *)
let lin_max_s = 20.0

let lin_max_heap_mb = 512

let lin_overload () =
  let s = Workloads.paxos_planet9_rw in
  let check_rung rate =
    let horizon = Ladder.horizon_ms rate in
    let t0 = Layer.now () in
    let r = Ladder.fleet s ~seed:1 (Ladder.config s ~rate ~horizon) in
    let fleet_s = Layer.seconds_since t0 in
    let incomplete =
      List.length (List.filter (fun e -> not (Checker.History.complete e)) r.history)
    in
    Printf.printf "rung %g cmd/s: Fleet.run %.2f s, %d ops, %d incomplete\n%!" rate fleet_s
      (List.length r.history) incomplete;
    r.history
  in
  let history20 = check_rung 20.0 in
  let t0 = Layer.now () in
  let o = Checker.Linearizability.check_history history20 in
  Printf.printf "  WGL check: linearizable %b, %d states, %.2f s\n%!" o.ok o.stats.states
    (Layer.seconds_since t0);
  let history80 = check_rung 80.0 in
  let heap_mb () = (Gc.quick_stat ()).heap_words * (Sys.word_size / 8) / 1_000_000 in
  let t0 = Layer.now () in
  let armed = ref true in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         if !armed && (Layer.seconds_since t0 > lin_max_s || heap_mb () > lin_max_heap_mb) then
           raise Exit));
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.2; it_value = 0.2 });
  let outcome =
    try
      let o = Checker.Linearizability.check_history history80 in
      armed := false;
      Some o
    with Exit -> None
  in
  armed := false;
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  match outcome with
  | Some o ->
      Printf.printf "  WGL check: linearizable %b, %d states, %.2f s\n" o.ok o.stats.states
        (Layer.seconds_since t0);
      0
  | None ->
      Printf.printf "  WGL check: stopped unfinished after %.1f s with a %d MB heap\n"
        (Layer.seconds_since t0) (heap_mb ());
      1

let () =
  match Sys.argv with
  | [| _; "explore-domains" |] -> exit (explore_domains ())
  | [| _; "lin-overload" |] -> exit (lin_overload ())
  | _ ->
      prerr_endline "usage: known_issues.exe (explore-domains | lin-overload)";
      exit 2
