(* Cross-validation of the schedule explorer against a brute-force oracle.

   The oracle shares no code with Checker.Explore: it drives Dsim.Engine
   through its public API only and enumerates with Stdext.Combinat. Every
   schedule is re-executed from time 0 — no clones, no visited set, no
   partial-order reduction. At each round boundary it
   branches on every subset of the live pending messages to drop (within
   the remaining drop bound), every subset of the kept ones to duplicate
   (within the dup bound; the copy stays pending for a later boundary)
   and every delivery order per correct destination, destinations
   ascending; messages to crashed destinations are delivered in arrival
   order. A destination's batch of more than four messages gets the
   explorer's documented two representative orders (arrival and
   reversed), so the n = 6 configuration stays comparable. Like the
   explorer, it stops after [budget] leaves in DFS order.

   The explorer, with dedup and POR off, must report the same explored
   and violation counts, the same run tallies (depth histogram, fast
   runs, fault runs, drops and dups), the same multiset of leaf outcomes
   and the same first violation; its [truncated] flag must be set exactly
   when the oracle hit the budget with schedules left or used the
   two-order fallback, and its report must name the same cuts.

   With a visited set the oracle still rebuilds every node from time 0,
   keys it with Engine.fingerprint and its round, and expands it only on
   the key's first arrival. The explorer with exact dedup (POR off) must
   then also agree on distinct states, dedup hits and pruned subtrees.
   That explorer keys most children before building them
   (Engine.child_fingerprint) and never builds a child whose predicted
   key was seen, so these counts are what checks the predictions it
   never verifies itself. The run tallies must agree here too. *)

module Engine = Dsim.Engine
module Combinat = Stdext.Combinat
module Explore = Checker.Explore
module Scenario = Checker.Scenario
module Safety = Checker.Safety

let delta = 100

type choice = { drop : int list; dup : int list; deliver : int list }

let outcome_of ~n engine =
  let trace = Engine.trace engine in
  {
    Scenario.decisions = Engine.outputs engine;
    proposals = Dsim.Trace.inputs trace;
    crashes = Dsim.Trace.crashes trace;
    n;
    horizon = Engine.now engine;
    messages = Dsim.Trace.message_count trace;
    dropped = Dsim.Trace.drop_count trace;
    duplicated = Dsim.Trace.duplicate_count trace;
    latencies = Engine.decision_latencies engine;
    engine_result = Engine.Quiescent;
  }

(* What one oracle search saw: the leaf outcomes in DFS order, the round
   each leaf was reached at (parallel to [leaves]), whether the budget
   stopped it with schedules left, whether some batch needed
   the two-order fallback, and how many expanded boundaries had messages
   addressed to a crashed process. With a visited set: first arrivals at
   a key, later arrivals, later arrivals at interior nodes (each cuts a
   subtree), and how many expanded boundaries Engine.child_fingerprint
   would and would not key. *)
type oracle = {
  leaves : Scenario.outcome list;
  leaf_rounds : int list;
  cut : bool;
  fallback : bool;
  to_crashed : int;
  distinct : int;
  hits : int;
  pruned : int;
  keyed : int;
  unkeyed : int;
}

(* Every scheduling decision at the coming round boundary of [engine]. *)
let choices ~fallback ~to_crashed engine ~drops_left ~dups_left =
  let sends =
    List.rev
      (Engine.fold_pending engine ~init:[] ~f:(fun acc ~id ~src:_ ~dst ~msg:_ ~sent_at:_ ->
           (id, dst) :: acc))
  in
  let live, crashed =
    List.partition (fun (_, dst) -> not (Engine.crashed engine dst)) sends
  in
  if crashed <> [] then incr to_crashed;
  let orders batch =
    if List.length batch <= 4 then Combinat.permutations batch
    else begin
      fallback := true;
      [ batch; List.rev batch ]
    end
  in
  List.concat_map
    (fun drop ->
      let kept = List.filter (fun (id, _) -> not (List.mem id drop)) live in
      let batch d = List.filter_map (fun (id, d') -> if d' = d then Some id else None) kept in
      let dsts = List.sort_uniq compare (List.map snd kept) in
      let per_dst = List.map (fun d -> orders (batch d)) dsts in
      let delivers =
        List.map (fun combo -> List.concat combo @ List.map fst crashed)
          (Combinat.cartesian per_dst)
      in
      List.concat_map
        (fun dup -> List.map (fun deliver -> { drop; dup; deliver }) delivers)
        (Combinat.subsets_up_to dups_left (List.map fst kept)))
    (Combinat.subsets_up_to drops_left (List.map fst live))

(* Run [path] (one choice per boundary, first round first) from time 0,
   stopping just before the next boundary. *)
let replay fresh path =
  let engine = fresh () in
  let until_before round = ignore (Engine.run ~until:((round * delta) - 1) engine) in
  until_before 1;
  List.iteri
    (fun i { drop; dup; deliver } ->
      let round = i + 1 in
      List.iter (fun id -> Engine.drop_pending engine ~id) drop;
      List.iter (fun id -> ignore (Engine.duplicate_pending engine ~id : int)) dup;
      List.iter (fun id -> Engine.deliver_pending engine ~id ~at:(round * delta)) deliver;
      ignore (Engine.run ~until:(round * delta) engine);
      until_before (round + 1))
    path;
  engine

(* The first [budget] schedules in DFS order, each re-executed; with
   [dedup], only the first arrival at each (fingerprint, round) key is
   expanded. *)
let brute ?(dedup = false) (module P : Proto.Protocol.S) ~n ~e ~f ~proposals ~crashes
    ~rounds ~disable_timers ~(faults : Explore.fault_bounds) ~budget =
  let fresh () =
    Engine.create ~automaton:(P.make ~n ~e ~f ~delta) ~n ~network:Dsim.Network.Manual
      ~seed:0 ~disable_timers ~record_trace:true ~inputs:proposals ~crashes ()
  in
  let fallback = ref false and cut = ref false and to_crashed = ref 0 in
  let leaves = ref [] and leaf_rounds = ref [] and count = ref 0 in
  let visited = Stdext.Stateset.create () in
  let distinct = ref 0 and hits = ref 0 and pruned = ref 0 in
  let keyed = ref 0 and unkeyed = ref 0 in
  let first_arrival engine round =
    (not dedup)
    ||
    let key = Dsim.Fingerprint.mix (Engine.fingerprint engine) (Dsim.Fingerprint.int round) in
    if Stdext.Stateset.add visited key then begin
      incr distinct;
      true
    end
    else begin
      incr hits;
      if round <= rounds then incr pruned;
      false
    end
  in
  let rec go rev_path round ~drops_left ~dups_left =
    let engine = replay fresh (List.rev rev_path) in
    if first_arrival engine round then
      if round > rounds || Engine.pending_count engine = 0 then begin
        leaves := outcome_of ~n engine :: !leaves;
        leaf_rounds := round :: !leaf_rounds;
        incr count
      end
      else begin
        (match
           Engine.child_fingerprint engine ~at:(round * delta) ~until:(((round + 1) * delta) - 1)
         with
        | Some _ -> incr keyed
        | None -> incr unkeyed);
        List.iter
          (fun c ->
            if !count >= budget then cut := true
            else
              go (c :: rev_path) (round + 1)
                ~drops_left:(drops_left - List.length c.drop)
                ~dups_left:(dups_left - List.length c.dup))
          (choices ~fallback ~to_crashed engine ~drops_left ~dups_left)
      end
  in
  go [] 1 ~drops_left:faults.max_drops ~dups_left:faults.max_dups;
  {
    leaves = List.rev !leaves;
    leaf_rounds = List.rev !leaf_rounds;
    cut = !cut;
    fallback = !fallback;
    to_crashed = !to_crashed;
    distinct = !distinct;
    hits = !hits;
    pruned = !pruned;
    keyed = !keyed;
    unkeyed = !unkeyed;
  }

(* The explorer's run tallies against the oracle's leaves. A leaf
   reached at round [r] ended after [min (r - 1) rounds] boundaries; a
   run is fast when some process decided and every deciding process
   decided within 2Δ of its proposal. *)
let check_tallies ~label ~rounds o (t : Explore.Run_report.totals) =
  let depths = Array.make (rounds + 1) 0 in
  List.iter (fun r -> depths.(min (r - 1) rounds) <- depths.(min (r - 1) rounds) + 1) o.leaf_rounds;
  let count p = List.length (List.filter p o.leaves) in
  let sum f = List.fold_left (fun acc (l : Scenario.outcome) -> acc + f l) 0 o.leaves in
  let fast (l : Scenario.outcome) =
    l.latencies <> [] && List.for_all (fun (_, lat) -> lat <= 2 * delta) l.latencies
  in
  Alcotest.(check (array int)) (label ^ ": depth histogram") depths t.depth_histogram;
  Alcotest.(check int) (label ^ ": fast runs") (count fast) t.fast_runs;
  Alcotest.(check int) (label ^ ": fault runs")
    (count (fun l -> l.dropped + l.duplicated > 0))
    t.fault_runs;
  Alcotest.(check int) (label ^ ": drops") (sum (fun l -> l.dropped)) t.drops;
  Alcotest.(check int) (label ^ ": dups") (sum (fun l -> l.duplicated)) t.dups

(* The explorer's account of which cut truncated it: the budget and the
   two-order fallback, each as the oracle saw it. *)
let check_cuts ~label o (s : Explore.Run_report.sched) =
  Alcotest.(check bool) (label ^ ": budget cut") o.cut s.budget_cut;
  Alcotest.(check bool) (label ^ ": perm-limit fallback") o.fallback s.fallback

let check_against_oracle ?(crashes = []) ?(disable_timers = true)
    ?(faults = Explore.no_faults) ?(budget = 1_000_000) ~label protocol ~n ~e ~f ~proposals
    ~rounds check =
  let seen = ref [] in
  let r, report =
    Explore.synchronous_report protocol ~n ~e ~f ~delta ~proposals ~crashes ~rounds ~budget
      ~disable_timers ~faults
      ~check:(fun o ->
        seen := o :: !seen;
        check o)
      ()
  in
  let o =
    brute protocol ~n ~e ~f ~proposals ~crashes ~rounds ~disable_timers ~faults ~budget
  in
  let violating = List.filter (fun o -> not (check o)) o.leaves in
  Alcotest.(check int) (label ^ ": explored") (List.length o.leaves) r.Explore.explored;
  Alcotest.(check int) (label ^ ": violations") (List.length violating) r.Explore.violations;
  check_tallies ~label ~rounds o report.Explore.Run_report.totals;
  check_cuts ~label o report.Explore.Run_report.sched;
  Alcotest.(check bool)
    (label ^ ": truncated iff cut or fallback")
    (o.cut || o.fallback) r.Explore.truncated;
  Alcotest.(check bool)
    (label ^ ": same leaf outcomes")
    true
    (List.sort compare o.leaves = List.sort compare !seen);
  Alcotest.(check bool)
    (label ^ ": same first violation")
    true
    (r.Explore.first_violation = List.nth_opt violating 0);
  (r, o)

(* The explorer with exact dedup against the oracle with a visited set.
   [keyed]: whether Engine.child_fingerprint must key every expanded node
   (timers off, no crash pending) or none (timers on). *)
let check_dedup_against_oracle ?(crashes = []) ?(disable_timers = true)
    ?(faults = Explore.no_faults) ?(budget = 1_000_000) ~keyed ~label protocol ~n ~e ~f
    ~proposals ~rounds check =
  let label = label ^ ", exact dedup" in
  let seen = ref [] in
  let r, report =
    Explore.synchronous_report protocol ~n ~e ~f ~delta ~proposals ~crashes ~rounds ~budget
      ~disable_timers ~faults ~dedup:Explore.Exact ~por:Explore.No_por
      ~check:(fun o ->
        seen := o :: !seen;
        check o)
      ()
  in
  let t = report.Explore.Run_report.totals in
  let o =
    brute ~dedup:true protocol ~n ~e ~f ~proposals ~crashes ~rounds ~disable_timers ~faults
      ~budget
  in
  let violating = List.filter (fun o -> not (check o)) o.leaves in
  Alcotest.(check int) (label ^ ": explored") (List.length o.leaves) r.Explore.explored;
  Alcotest.(check int) (label ^ ": violations") (List.length violating) r.Explore.violations;
  Alcotest.(check int) (label ^ ": distinct states") o.distinct t.distinct_states;
  Alcotest.(check int) (label ^ ": dedup hits") o.hits t.dedup_hits;
  Alcotest.(check int) (label ^ ": pruned subtrees") o.pruned t.pruned_subtrees;
  check_tallies ~label ~rounds o t;
  check_cuts ~label o report.Explore.Run_report.sched;
  Alcotest.(check bool)
    (label ^ ": truncated iff cut or fallback")
    (o.cut || o.fallback) r.Explore.truncated;
  Alcotest.(check bool)
    (label ^ ": same leaf outcomes")
    true
    (List.sort compare o.leaves = List.sort compare !seen);
  Alcotest.(check bool)
    (label ^ ": same first violation")
    true
    (r.Explore.first_violation = List.nth_opt violating 0);
  Alcotest.(check bool) (label ^ ": dedup hit something") true (o.hits > 0);
  if keyed then
    Alcotest.(check (pair bool int))
      (label ^ ": every expanded node keys its children")
      (true, 0)
      (o.keyed > 0, o.unkeyed)
  else Alcotest.(check int) (label ^ ": no node keys its children") 0 o.keyed;
  o

let safe o = Safety.safe o

let p0_undecided o = Scenario.decided_value o 0 = None

let test_task_bound () =
  (* T2-style configuration at the task bound (n = 2e + f), three rounds:
     a clean property, and one violated wherever p0 decides — searched
     exhaustively and cut by a budget of 400 mid-tree. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ?budget label check =
    check_against_oracle ?budget ~label Core.Rgs.task ~n ~e ~f ~proposals ~rounds:3 check
  in
  let r, _ = go "safe" safe in
  Alcotest.(check bool) "non-trivial" true (r.Explore.explored > 400 && r.Explore.violations = 0);
  let r, _ = go "p0 undecided" p0_undecided in
  Alcotest.(check bool) "violations found" true (r.Explore.violations > 0);
  let _, o = go ~budget:400 "safe, budget 400" safe in
  Alcotest.(check bool) "budget 400 cuts" true o.cut;
  let r, o = go ~budget:400 "p0 undecided, budget 400" p0_undecided in
  Alcotest.(check bool) "budget 400 cuts" true o.cut;
  Alcotest.(check bool) "violations found within budget" true (r.Explore.violations > 0)

let test_crash_with_timers () =
  (* T3-flavoured configurations: p2 crashes mid-run with timers enabled,
     so timer fires land between boundaries and later boundaries hold
     messages addressed to the crashed process. *)
  let n = 3 and e = 1 and f = 1 in
  let go ~crash_at ~proposals ~rounds ?budget label check =
    check_against_oracle ~label ~crashes:[ (crash_at, 2) ] ~disable_timers:false ?budget
      Core.Rgs.task ~n ~e ~f ~proposals ~rounds check
  in
  (* All three propose and p2 crashes at 2Δ+1, over five rounds: the
     first 20,000 schedules in DFS order, so boundaries 3Δ–5Δ are
     explored with p2 dead. *)
  let r, o =
    go ~crash_at:((2 * delta) + 1)
      ~proposals:(Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ])
      ~rounds:5 ~budget:20_000 "three proposers, budget 20,000" safe
  in
  Alcotest.(check bool) "budget binds" true (o.cut && r.Explore.explored = 20_000);
  Alcotest.(check bool) "messages to the crashed process" true (o.to_crashed > 0);
  (* One proposer and a crash at Δ+1, so the second boundary already
     has p2 dead: small enough to search exhaustively. *)
  let go_small label check =
    go ~crash_at:(delta + 1) ~proposals:[ (0, 0, 7) ] ~rounds:2 label check
  in
  let r, o = go_small "one proposer, safe" safe in
  Alcotest.(check bool) "exhaustive" true ((not o.cut) && r.Explore.explored > 1_000);
  Alcotest.(check bool) "messages to the crashed process (exhaustive)" true (o.to_crashed > 0);
  let r, _ = go_small "one proposer, p0 undecided" p0_undecided in
  Alcotest.(check bool) "violations found" true (r.Explore.violations > 0)

let test_drop_dup () =
  (* Explored faults: at most one drop and one duplication per run, with
     one proposer. *)
  let n = 3 and e = 1 and f = 1 in
  let faults = { Explore.max_drops = 1; max_dups = 1 } in
  let go label check =
    check_against_oracle ~label ~faults Core.Rgs.task ~n ~e ~f ~proposals:[ (0, 0, 7) ]
      ~rounds:2 check
  in
  let r, _ = go "safe" safe in
  Alcotest.(check bool) "non-trivial" true (r.Explore.explored > 100);
  let r, _ = go "lossless" (fun o -> o.Scenario.dropped = 0) in
  Alcotest.(check bool) "lossy runs found" true (r.Explore.violations > 0)

(* The three configurations above, with exact dedup on both sides. *)
let test_dedup_task_bound () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ?budget label check =
    check_dedup_against_oracle ?budget ~keyed:true ~label Core.Rgs.task ~n ~e ~f ~proposals
      ~rounds:3 check
  in
  ignore (go "safe" safe : oracle);
  ignore (go "p0 undecided" p0_undecided : oracle);
  (* Dedup leaves 64 of the 3-round search's runs: budgets below that cut
     it. *)
  Alcotest.(check bool) "budget 40 cuts" true (go ~budget:40 "safe, budget 40" safe).cut;
  Alcotest.(check bool) "budget 20 cuts" true
    (go ~budget:20 "p0 undecided, budget 20" p0_undecided).cut

let test_dedup_crash_with_timers () =
  let n = 3 and e = 1 and f = 1 in
  let go ~crash_at ~proposals ~rounds ?budget label check =
    check_dedup_against_oracle ~keyed:false ~label ~crashes:[ (crash_at, 2) ]
      ~disable_timers:false ?budget Core.Rgs.task ~n ~e ~f ~proposals ~rounds check
  in
  (* Dedup leaves 32 runs of the three-proposer search; a budget of 16
     cuts it halfway, and keeps the oracle, which replays every arrival
     from time 0, quick. *)
  let o =
    go ~crash_at:((2 * delta) + 1)
      ~proposals:(Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ])
      ~rounds:5 ~budget:16 "three proposers, budget 16" safe
  in
  Alcotest.(check bool) "budget 16 cuts" true o.cut;
  List.iter
    (fun (label, check) ->
      ignore
        (go ~crash_at:(delta + 1) ~proposals:[ (0, 0, 7) ] ~rounds:2 label check : oracle))
    [ ("one proposer, safe", safe); ("one proposer, p0 undecided", p0_undecided) ]

let test_dedup_drop_dup () =
  let n = 3 and e = 1 and f = 1 in
  let faults = { Explore.max_drops = 1; max_dups = 1 } in
  let go label check =
    check_dedup_against_oracle ~keyed:true ~label ~faults Core.Rgs.task ~n ~e ~f
      ~proposals:[ (0, 0, 7) ] ~rounds:2 check
  in
  ignore (go "safe" safe : oracle);
  ignore (go "lossless" (fun o -> o.Scenario.dropped = 0) : oracle)

let () =
  Alcotest.run "explore_brute"
    [
      ( "explore",
        [
          Alcotest.test_case "snapshot matches replay" `Quick test_task_bound;
          Alcotest.test_case "snapshot matches replay (crashes)" `Quick test_crash_with_timers;
          Alcotest.test_case "snapshot matches replay (drop+dup)" `Quick test_drop_dup;
        ] );
      ( "exact-dedup",
        [
          Alcotest.test_case "visited set matches exact dedup" `Quick test_dedup_task_bound;
          Alcotest.test_case "visited set matches exact dedup (crashes)" `Quick
            test_dedup_crash_with_timers;
          Alcotest.test_case "visited set matches exact dedup (drop+dup)" `Quick
            test_dedup_drop_dup;
        ] );
    ]
