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

   With a visited set the oracle still rebuilds every node from time 0,
   keys it with Engine.fingerprint and its round, and expands it only on
   the key's first arrival. The explorer's one search (exact dedup with
   sleep-set POR) is checked against that oracle on every configuration
   here. It must see the same leaves in the same DFS order, report the
   same explored and violation counts, run tallies (depth histogram, fast
   runs, fault runs, drops and dups) and distinct states, and set
   [truncated] exactly when the oracle hit the budget with schedules left
   or used the two-order fallback, naming the same cuts. Its first
   violation must be the oracle's, and also the first violating leaf of
   the oracle without a visited set under the same budget. Where neither
   side is cut, every revisit the oracle makes must be a child the
   explorer never built: dedup hits + POR-pruned combinations = oracle
   revisits.

   The explorer keys every child before building it
   (Engine.child_fingerprint), timers, crashes and inputs due mid-round
   included, and builds no child whose predicted key was seen, and its
   sleep set drops orders on the strength of trials alone, so these
   counts are what check the predictions and trials it never verifies
   itself. *)

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
   a key, later arrivals, and later arrivals at interior nodes (each cuts
   a subtree). *)
type oracle = {
  leaves : Scenario.outcome list;
  leaf_rounds : int list;
  cut : bool;
  fallback : bool;
  to_crashed : int;
  distinct : int;
  hits : int;
  pruned : int;
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
   expanded. With [until_violation], the search also stops after its
   first leaf that fails that property. *)
let brute ?(dedup = false) ?until_violation (module P : Proto.Protocol.S) ~n ~e ~f
    ~proposals ~crashes ~rounds ~disable_timers ~(faults : Explore.fault_bounds) ~budget =
  let fresh () =
    Engine.create ~automaton:(P.make ~n ~e ~f ~delta) ~n ~network:Dsim.Network.Manual
      ~seed:0 ~disable_timers ~record_trace:true ~inputs:proposals ~crashes ()
  in
  let fallback = ref false and cut = ref false and to_crashed = ref 0 in
  let leaves = ref [] and leaf_rounds = ref [] and count = ref 0 and stop = ref false in
  let visited = Stdext.Stateset.create () in
  let distinct = ref 0 and hits = ref 0 and pruned = ref 0 in
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
        let leaf = outcome_of ~n engine in
        leaves := leaf :: !leaves;
        leaf_rounds := round :: !leaf_rounds;
        incr count;
        Option.iter (fun check -> if not (check leaf) then stop := true) until_violation
      end
      else
        List.iter
          (fun c ->
            if !stop then ()
            else if !count >= budget then cut := true
            else
              go (c :: rev_path) (round + 1)
                ~drops_left:(drops_left - List.length c.drop)
                ~dups_left:(dups_left - List.length c.dup))
          (choices ~fallback ~to_crashed engine ~drops_left ~dups_left)
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

(* The explorer's one search against the oracle with a visited set, on
   one configuration: the same leaves in the same DFS order, the same
   counts, tallies and cuts, and the same first violation, which must
   also be the first violating leaf of the unreduced oracle under the
   same budget. Where neither side is cut, every revisit the oracle
   makes is a child the explorer never built: a visited-set hit, or an
   order combination the sleep set pruned. *)
let check_against_oracle ?(crashes = []) ?(disable_timers = true)
    ?(faults = Explore.no_faults) ?(budget = 1_000_000) ~label protocol ~n ~e ~f
    ~proposals ~rounds check =
  let seen = ref [] in
  let r, report =
    Explore.synchronous_report protocol ~n ~e ~f ~delta ~proposals ~crashes ~rounds ~budget
      ~disable_timers ~faults
      ~check:(fun o ->
        seen := o :: !seen;
        check o)
      ()
  in
  let t = report.Explore.Run_report.totals and sched = report.Explore.Run_report.sched in
  let brute ?dedup ?until_violation () =
    brute ?dedup ?until_violation protocol ~n ~e ~f ~proposals ~crashes ~rounds
      ~disable_timers ~faults ~budget
  in
  let o = brute ~dedup:true () in
  let violating = List.filter (fun o -> not (check o)) o.leaves in
  Alcotest.(check int) (label ^ ": explored") (List.length o.leaves) r.Explore.explored;
  Alcotest.(check int) (label ^ ": violations") (List.length violating) r.Explore.violations;
  Alcotest.(check int) (label ^ ": distinct states") o.distinct t.distinct_states;
  check_tallies ~label ~rounds o t;
  check_cuts ~label o sched;
  Alcotest.(check bool)
    (label ^ ": truncated iff cut or fallback")
    (o.cut || o.fallback) r.Explore.truncated;
  Alcotest.(check bool) (label ^ ": same leaves, in DFS order") true (o.leaves = List.rev !seen);
  Alcotest.(check bool)
    (label ^ ": same first violation")
    true
    (r.Explore.first_violation = List.nth_opt violating 0);
  let unreduced = brute ~until_violation:check () in
  Alcotest.(check bool)
    (label ^ ": first violation of the unreduced oracle")
    true
    (r.Explore.first_violation = List.find_opt (fun o -> not (check o)) unreduced.leaves);
  if not o.cut then
    Alcotest.(check int)
      (label ^ ": dedup hits + POR pruned = oracle revisits")
      o.hits
      (t.dedup_hits + t.por_pruned);
  (r, o)

let safe o = Safety.safe o

let p0_undecided o = Scenario.decided_value o 0 = None

let lossless o = o.Scenario.dropped = 0

(* T2-style configuration at the task bound (n = 2e + f), three rounds:
   a clean property, and one violated wherever p0 decides. *)
let task_bound ?budget label check =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  check_against_oracle ?budget ~label Core.Rgs.task ~n ~e ~f ~proposals ~rounds:3
    check

(* T3-flavoured configurations: p2 crashes mid-run with timers enabled,
   so timer fires land between boundaries and later boundaries hold
   messages addressed to the crashed process. *)
let crash_with_timers ~crash_at ~proposals ~rounds ?budget label check =
  let n = 3 and e = 1 and f = 1 in
  check_against_oracle ~label ~crashes:[ (crash_at, 2) ] ~disable_timers:false ?budget
    Core.Rgs.task ~n ~e ~f ~proposals ~rounds check

(* Explored faults: at most one drop and one duplication per run. *)
let drop_dup ?(protocol = Core.Rgs.task) ?(proposals = [ (0, 0, 7) ]) ~n ~e ~f label check =
  check_against_oracle ~label ~faults:{ Explore.max_drops = 1; max_dups = 1 }
    protocol ~n ~e ~f ~proposals ~rounds:2 check

(* The three shapes, each searched to the end. *)
let test_task_bound () =
  let r, o = task_bound "safe" safe in
  Alcotest.(check bool) "non-trivial" true (o.distinct > 100 && r.Explore.violations = 0);
  let r, _ = task_bound "p0 undecided" p0_undecided in
  Alcotest.(check bool) "violations found" true (r.Explore.violations > 0)

let test_crash_with_timers () =
  (* One proposer and a crash at Δ+1, so the second boundary already has
     p2 dead. *)
  let go label check =
    crash_with_timers ~crash_at:(delta + 1) ~proposals:[ (0, 0, 7) ] ~rounds:2 label check
  in
  let _, o = go "one proposer, safe" safe in
  Alcotest.(check bool) "exhaustive" true ((not o.cut) && o.distinct > 10);
  Alcotest.(check bool) "messages to the crashed process" true (o.to_crashed > 0);
  let r, _ = go "one proposer, p0 undecided" p0_undecided in
  Alcotest.(check bool) "violations found" true (r.Explore.violations > 0)

(* Timers on, and something due at or between boundaries: p2 crashing
   at the second boundary instant (crashes rank before that instant's
   deliveries, so the batches to p2 there are trialled against a process
   that crashes first), and p1 proposing at 1.5Δ, between the first two
   boundaries. *)
let test_due_with_timers () =
  let _, o =
    crash_with_timers ~crash_at:(2 * delta) ~proposals:[ (0, 0, 7) ] ~rounds:2
      "crash at the boundary, safe" safe
  in
  Alcotest.(check bool) "exhaustive" true ((not o.cut) && o.distinct > 10);
  let mid_round label check =
    check_against_oracle ~disable_timers:false ~label Core.Rgs.task ~n:3 ~e:1 ~f:1
      ~proposals:[ (0, 0, 7); (3 * delta / 2, 1, 3) ]
      ~rounds:2 check
  in
  let _, o = mid_round "proposal at 1.5Δ, safe" safe in
  Alcotest.(check bool) "exhaustive" true ((not o.cut) && o.distinct > 10);
  let r, _ = mid_round "proposal at 1.5Δ, p0 undecided" p0_undecided in
  Alcotest.(check bool) "violations found" true (r.Explore.violations > 0)

let test_drop_dup () =
  let _, o = drop_dup ~n:3 ~e:1 ~f:1 "safe" safe in
  Alcotest.(check bool) "non-trivial" true (o.distinct > 50);
  let r, _ = drop_dup ~n:3 ~e:1 ~f:1 "lossless" lossless in
  Alcotest.(check bool) "lossy runs found" true (r.Explore.violations > 0)

(* Budget cuts, and searches whose revisits outnumber their runs. *)
let test_dedup_task_bound () =
  (* The search finishes in 64 runs: budgets below that cut it. *)
  Alcotest.(check bool) "budget 40 cuts" true
    (snd (task_bound ~budget:40 "safe, budget 40" safe)).cut;
  Alcotest.(check bool) "budget 20 cuts" true
    (snd (task_bound ~budget:20 "p0 undecided, budget 20" p0_undecided)).cut

let test_dedup_crash_with_timers () =
  (* All three propose and p2 crashes at 2Δ+1, over five rounds. The
     search holds 32 runs; a budget of 16 cuts it halfway, so boundaries
     3Δ–5Δ are explored with p2 dead, and keeps the oracle, which replays
     every arrival from time 0, quick. *)
  let r, o =
    crash_with_timers ~crash_at:((2 * delta) + 1)
      ~proposals:(Scenario.all_proposals_at_zero ~n:3 [ 0; 1; 2 ])
      ~rounds:5 ~budget:16 "three proposers, budget 16" safe
  in
  Alcotest.(check bool) "budget 16 cuts" true (o.cut && r.Explore.explored = 16);
  Alcotest.(check bool) "messages to the crashed process" true (o.to_crashed > 0)

let test_dedup_drop_dup () =
  (* n = 4, all proposing (test_checker pins this search's totals), and
     the object variant at n = 3. *)
  let proposals = Scenario.all_proposals_at_zero ~n:4 [ 3; 2; 1; 0 ] in
  let _, o = drop_dup ~proposals ~n:4 ~e:1 ~f:2 "n = 4, p0 undecided" p0_undecided in
  Alcotest.(check bool) "revisits outnumber runs" true (o.hits > 10 * List.length o.leaves);
  ignore
    (drop_dup ~protocol:Core.Rgs.obj ~n:3 ~e:1 ~f:1 "rgs-object, lossless" lossless
      : Explore.result * oracle)

(* The soundness grids: the one search against the oracle over random
   configurations, with and without a mid-run crash (timers off, so only
   the nodes before the crash go unkeyed), and over both protocols with
   an explored drop or duplication under a budget of 20,000 runs. *)
let explore_dedup_sound_property =
  QCheck.Test.make ~name:"explore: dedup preserves verdict and canonical witness" ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let n, e, f = pick [ (3, 1, 1); (4, 1, 1) ] 1 in
      let rounds = pick [ 2; 3 ] 2 in
      let values = pick [ List.init n (fun i -> n - i); List.init n (fun _ -> 5) ] 4 in
      let crashes = pick [ []; [ (delta + 1, n - 1) ] ] 8 in
      let check = pick [ safe; p0_undecided ] 16 in
      let proposals = Scenario.all_proposals_at_zero ~n values in
      ignore
        (check_against_oracle ~crashes ~label:(Printf.sprintf "seed %d" seed) Core.Rgs.task ~n
           ~e ~f ~proposals ~rounds check
          : Explore.result * oracle);
      true)

let explore_por_sound_property =
  QCheck.Test.make ~name:"explore: POR preserves verdict and violation existence" ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let protocol = pick [ Core.Rgs.task; Core.Rgs.obj ] 1 in
      let n, e, f = pick [ (3, 1, 1); (4, 1, 1) ] 2 in
      let rounds = pick [ 2; 3 ] 4 in
      let values = pick [ List.init n (fun i -> n - i); List.init n (fun _ -> 5) ] 8 in
      let faults =
        pick
          [
            Explore.no_faults;
            { Explore.max_drops = 1; max_dups = 0 };
            { Explore.max_drops = 0; max_dups = 1 };
          ]
          16
      in
      let check = pick [ safe; p0_undecided ] 48 in
      let proposals = Scenario.all_proposals_at_zero ~n values in
      ignore
        (check_against_oracle ~faults ~budget:20_000
           ~label:(Printf.sprintf "seed %d" seed) protocol ~n ~e ~f ~proposals ~rounds check
          : Explore.result * oracle);
      true)

let () =
  Alcotest.run "explore_brute"
    [
      ( "explore",
        [
          Alcotest.test_case "snapshot matches replay" `Quick test_task_bound;
          Alcotest.test_case "snapshot matches replay (crashes)" `Quick test_crash_with_timers;
          Alcotest.test_case "snapshot matches replay (due mid-round)" `Quick
            test_due_with_timers;
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
      ("dedup", [ QCheck_alcotest.to_alcotest explore_dedup_sound_property ]);
      ("por", [ QCheck_alcotest.to_alcotest explore_por_sound_property ]);
    ]
