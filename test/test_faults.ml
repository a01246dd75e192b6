(* Protocol-level fault-injection tests: safety sweeps for every protocol
   under randomized loss/duplication/crash plans, the duplication-
   invariance property that pins the delivery contract, the duplicate-
   suppression mutation test, and determinism of the fault-aware
   explorer across modes and domain counts. *)

module Pid = Dsim.Pid
module Network = Dsim.Network
module Scenario = Checker.Scenario
module Safety = Checker.Safety
module Explore = Checker.Explore

let delta = 100

(* The four protocols at their tight configurations: rgs task (n = 2e+f),
   rgs object (n = max(e+2f? — Theorem 5 object bound) = 5 at e=f=2),
   Paxos (n = 2f+1), Fast Paxos (n = 2e+f+1, Lamport's bound). *)
let tight_configs =
  [
    (Core.Rgs.task, 6, 2, 2);
    (Core.Rgs.obj, 5, 2, 2);
    (Baselines.Paxos.protocol, 5, 0, 2);
    (Baselines.Fast_paxos.protocol, 7, 2, 2);
  ]

(* -- T1-style safety sweeps under fault plans --------------------------- *)

(* Faults may stall termination (a lost message is a lost message), but
   validity and agreement must survive any bounded loss + duplication +
   crash combination. *)
let fault_sweep_property (protocol, n, e, f) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s n=%d e=%d f=%d: safe under loss+dup+crash"
         (Proto.Protocol.name protocol) n e f)
    ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Stdext.Rng.create ~seed in
      let proposals =
        Scenario.all_proposals_at_zero ~n (List.init n (fun _ -> Stdext.Rng.int rng 3))
      in
      let count = Stdext.Rng.int rng (f + 1) in
      let crashes =
        Stdext.Rng.shuffle rng (Pid.all ~n)
        |> List.filteri (fun i _ -> i < count)
        |> List.map (fun p -> (Stdext.Rng.int rng (8 * delta), p))
      in
      let faults =
        Network.Fault.random ~drop_rate:0.1 ~dup_rate:0.15 ~max_drops:6 ~max_dups:8
          ~max_extra_delay:(2 * delta) ()
      in
      let o =
        Scenario.run protocol ~n ~e ~f ~delta
          ~net:
            (Scenario.Partial
               { gst = Stdext.Rng.int rng (15 * delta); max_pre_gst = 6 * delta })
          ~proposals ~crashes ~seed ~faults ~until:(80 * delta) ()
      in
      Safety.safe o)

(* -- duplication never changes decided values --------------------------- *)

(* The delivery contract of {!Proto.Votes.add}: vote tallies are keyed by
   sender, so a duplicated message is absorbed without any state change.
   Consequently a dup-only fault plan must reproduce the fault-free
   decisions exactly — same values, same deciders. [`Arrival] and
   [`Favor] orders keep the per-batch processing comparable (a
   [`Random] order would legitimately reshuffle each batch, since the
   shuffle consumes draws per batch member); the fault layer guarantees
   the base delay stream is untouched either way. *)
let dup_invariance_property (protocol, n, e, f) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "%s n=%d e=%d f=%d: duplication never changes decisions"
         (Proto.Protocol.name protocol) n e f)
    ~count:40
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, favor) ->
      let rng = Stdext.Rng.create ~seed in
      let proposals =
        Scenario.all_proposals_at_zero ~n (List.init n (fun _ -> Stdext.Rng.int rng 3))
      in
      let net = Scenario.Sync (if favor then `Favor (Stdext.Rng.int rng n) else `Arrival) in
      let decisions faults =
        let o =
          Scenario.run protocol ~n ~e ~f ~delta ~net ~proposals ~seed ~faults
            ~until:(40 * delta) ()
        in
        List.sort compare (List.map (fun (_, p, v) -> (p, v)) o.Scenario.decisions)
      in
      let base = decisions Network.Fault.none in
      let duplicated =
        decisions
          (Network.Fault.random ~dup_rate:0.5 ~max_dups:12 ~max_extra_delay:(2 * delta)
             ())
      in
      base = duplicated)

(* -- explorer: faults as explored nondeterminism ------------------------ *)

let check_explore_results_equal label (a : Explore.result) (b : Explore.result) =
  Alcotest.(check int) (label ^ ": explored") a.explored b.explored;
  Alcotest.(check int) (label ^ ": violations") a.violations b.violations;
  Alcotest.(check bool) (label ^ ": truncated") a.truncated b.truncated;
  Alcotest.(check bool) (label ^ ": first violation") true
    (a.first_violation = b.first_violation)

let test_explore_faults_extend_search () =
  (* Fault bounds strictly enlarge the schedule space, with the no-fault
     schedules as a prefix (subsets are enumerated smallest-first). *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let go faults =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:2
         ~budget:100_000 ~faults
         ~check:(fun o -> Safety.safe o)
         ())
  in
  let base = go Explore.no_faults in
  let faulty = go { max_drops = 1; max_dups = 1 } in
  Alcotest.(check int) "base has no violations" 0 base.violations;
  Alcotest.(check int) "faulty has no violations" 0 faulty.violations;
  Alcotest.(check bool) "fault branching enlarges the space" true
    (faulty.explored > 2 * base.explored);
  (* Some explored runs actually exercised faults. *)
  let saw_faults = ref false in
  let r =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:2
         ~budget:100_000
         ~faults:{ max_drops = 1; max_dups = 1 }
         ~check:(fun o ->
           if o.Scenario.dropped > 0 || o.Scenario.duplicated > 0 then saw_faults := true;
           true)
         ())
  in
  Alcotest.(check int) "same space" faulty.explored r.explored;
  Alcotest.(check bool) "faulty runs were visited" true !saw_faults

let test_explore_faults_safety_sweep () =
  (* Bounded-exhaustive sweep under <=1 drop and <=1 dup: the task
     protocol at a small config and Fast Paxos at its bound stay safe on
     every explored faulty schedule. *)
  List.iter
    (fun (protocol, n, e, f, budget) ->
      let proposals =
        Scenario.all_proposals_at_zero ~n (List.init n (fun i -> i mod 2))
      in
      let r =
        fst
          (Explore.synchronous_report protocol ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget
             ~faults:{ max_drops = 1; max_dups = 1 }
             ~check:(fun o -> Safety.safe o)
             ())
      in
      Alcotest.(check int)
        (Proto.Protocol.name protocol ^ ": no safety violation under faults")
        0 r.violations;
      Alcotest.(check bool)
        (Proto.Protocol.name protocol ^ ": non-trivial")
        true (r.explored > 100))
    [
      (Core.Rgs.task, 3, 1, 1, 4_000);
      (Baselines.Fast_paxos.protocol, 4, 1, 1, 4_000);
    ]

let test_explore_faults_pinned () =
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let go ~budget check =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:2 ~budget
         ~faults:{ max_drops = 1; max_dups = 1 }
         ~check ())
  in
  (* A property violated on many (but not all) runs: any change in visit
     order or fault accounting shows in the counts or in the first
     violation. Runs that lost a message are "violations" here. The
     results are pinned: the former multi-domain search reported these
     same results at every domain count, the budget cut of 400
     included. *)
  let lossless o = o.Scenario.dropped = 0 in
  (* The first run in DFS order that loses a message: one message is
     dropped, and only p2 decides, on its own value at 2Δ. *)
  let first =
    {
      Scenario.decisions = [ (200, 2, 2) ];
      proposals = [ (0, 0, 0); (0, 1, 1); (0, 2, 2) ];
      crashes = [];
      n = 3;
      horizon = 200;
      messages = 16;
      dropped = 1;
      duplicated = 0;
      latencies = [ (2, 200) ];
      engine_result = Dsim.Engine.Quiescent;
    }
  in
  List.iter
    (fun (budget, explored, violations) ->
      check_explore_results_equal
        (Printf.sprintf "budget=%d" budget)
        { Explore.explored; violations; first_violation = Some first; truncated = true }
        (go ~budget lossless))
    [ (3_000, 3_000, 1_713); (400, 400, 228) ]

(* -- mutation test: duplicate-vote suppression is load-bearing ---------- *)

(* Fast Paxos counts [2B] votes toward its fast quorum n-e. With
   suppression on (supporters are a set), duplicated votes are absorbed;
   counting raw arrivals instead lets a duplicated vote push a value over
   the quorum at one observer but not another, splitting the decision.
   The sweep below pins that: under a dup-heavy plan some seed violates
   agreement iff suppression is disabled. *)
let mutation_seeds = List.init 30 Fun.id

let run_fast_paxos_dup_storm seed =
  let n = 7 and e = 2 and f = 2 in
  (* 4 votes for value 0, 3 for value 1: one dup can fake quorum for 0,
     two dups can fake it for 1. *)
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 0; 0; 0; 1; 1; 1 ] in
  Scenario.run Baselines.Fast_paxos.protocol ~n ~e ~f ~delta
    ~net:(Scenario.Uniform { min_delay = 1; max_delay = 2 * delta })
    ~proposals ~seed
    ~faults:
      (* The dup budget must not bind: Propose/Decide traffic also gets
         duplicated and would otherwise eat it before the votes fly. *)
      (Network.Fault.random ~dup_rate:0.9 ~max_dups:10_000 ~max_extra_delay:delta ())
    ~until:(60 * delta) ()

let test_mutation_duplicate_suppression () =
  (* Unmutated: every seed is safe under the same duplication storm. *)
  List.iter
    (fun seed ->
      Alcotest.(check bool)
        (Printf.sprintf "unmutated safe (seed %d)" seed)
        true
        (Safety.safe (run_fast_paxos_dup_storm seed)))
    mutation_seeds;
  (* Mutated (raw vote counting): at least one seed must split the
     decision — removing duplicate suppression is detected. *)
  let violations =
    Proto.Votes.Mutation.without_duplicate_suppression (fun () ->
        List.filter
          (fun seed -> not (Safety.safe (run_fast_paxos_dup_storm seed)))
          mutation_seeds)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mutant caught (%d violating seeds)" (List.length violations))
    true
    (violations <> [])

let () =
  Alcotest.run "faults"
    [
      ( "sweeps",
        List.map (fun c -> QCheck_alcotest.to_alcotest (fault_sweep_property c))
          tight_configs );
      ( "dup invariance",
        List.map (fun c -> QCheck_alcotest.to_alcotest (dup_invariance_property c))
          tight_configs );
      ( "explorer",
        [
          Alcotest.test_case "fault branching extends search" `Quick
            test_explore_faults_extend_search;
          Alcotest.test_case "bounded fault sweep is safe" `Quick
            test_explore_faults_safety_sweep;
          Alcotest.test_case "results pinned" `Quick test_explore_faults_pinned;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "duplicate suppression is load-bearing" `Quick
            test_mutation_duplicate_suppression;
        ] );
    ]
