(* Tests for the property checkers themselves: safety verdicts,
   linearizability, the e-two-step definition checkers (positive at the
   bounds, negative for Paxos), and the bounded-exhaustive explorer. *)

module Pid = Dsim.Pid
module Scenario = Checker.Scenario
module Safety = Checker.Safety
module Twostep = Checker.Twostep
module Explore = Checker.Explore
module Linearizability = Checker.Linearizability

let delta = 100

let outcome ?(n = 3) ?(proposals = []) ?(decisions = []) ?(crashes = []) () =
  {
    Scenario.decisions;
    proposals;
    crashes;
    n;
    horizon = 0;
    messages = 0;
    dropped = 0;
    duplicated = 0;
    latencies = [];
    engine_result = Dsim.Engine.Quiescent;
  }

let test_safety_verdicts () =
  let good =
    outcome
      ~proposals:[ (0, 0, 1); (0, 1, 2) ]
      ~decisions:[ (200, 0, 2); (300, 1, 2); (300, 2, 2) ]
      ()
  in
  let v = Safety.check good in
  Alcotest.(check bool) "valid" true v.validity;
  Alcotest.(check bool) "agree" true v.agreement;
  Alcotest.(check bool) "terminated" true v.termination;
  let invalid = outcome ~proposals:[ (0, 0, 1) ] ~decisions:[ (200, 0, 9) ] () in
  Alcotest.(check bool) "invented value" false (Safety.check invalid).validity;
  let split =
    outcome ~proposals:[ (0, 0, 1); (0, 1, 2) ] ~decisions:[ (1, 0, 1); (2, 1, 2) ] ()
  in
  Alcotest.(check bool) "split decision" false (Safety.check split).agreement;
  let crashed_undecided =
    outcome
      ~proposals:[ (0, 0, 1) ]
      ~decisions:[ (1, 0, 1); (2, 2, 1) ]
      ~crashes:[ (0, 1) ] ()
  in
  Alcotest.(check bool) "crashed process exempt from termination" true
    (Safety.check crashed_undecided).termination

let test_linearizability () =
  let ok = outcome ~proposals:[ (0, 0, 5) ] ~decisions:[ (200, 0, 5); (300, 1, 5) ] () in
  Alcotest.(check bool) "single value" true (Linearizability.check ok).linearizable;
  let late_proposal =
    (* decided before any propose(5) was invoked *)
    outcome ~proposals:[ (500, 0, 5) ] ~decisions:[ (200, 1, 5) ] ()
  in
  Alcotest.(check bool) "future proposal rejected" false
    (Linearizability.check late_proposal).linearizable;
  let split = outcome ~proposals:[ (0, 0, 1); (0, 1, 2) ] ~decisions:[ (1, 0, 1); (1, 1, 2) ] () in
  Alcotest.(check bool) "split" false (Linearizability.check split).linearizable;
  let empty = outcome () in
  Alcotest.(check bool) "no decisions is fine" true (Linearizability.check empty).linearizable

(* -- object-level linearizability over KV histories --------------------- *)

module History = Checker.History

let ev ?respond ?ret client key kind invoke =
  { History.client; key; kind; invoke; respond; ret }

let w ?(client = 0) key v invoke respond =
  ev client key (History.Write v) invoke ~respond ~ret:v

let r ?(client = 1) key v invoke respond =
  ev client key History.Read invoke ~respond ~ret:v

let check = Linearizability.check_history

let test_wgl_register_basics () =
  let ok h = (check h).Linearizability.ok in
  Alcotest.(check bool) "empty history" true (ok []);
  Alcotest.(check bool) "sequential write/read" true
    (ok [ w 0 1 0 10; r 0 1 20 30; w 0 2 40 50; r 0 2 60 70 ]);
  Alcotest.(check bool) "unwritten key reads 0" true (ok [ r 5 0 0 10 ]);
  Alcotest.(check bool) "unwritten key cannot read 9" false (ok [ r 5 9 0 10 ]);
  Alcotest.(check bool) "stale read rejected" false
    (ok [ w 0 1 0 10; w 0 2 20 30; r 0 1 40 50 ]);
  Alcotest.(check bool) "real-time order respected" false
    (ok [ w 0 1 0 10; w 0 2 20 30; r 0 2 40 50; r 0 1 60 70 ]);
  (* Concurrent writes may linearize in either order. *)
  Alcotest.(check bool) "concurrent writes, first wins" true
    (ok [ w ~client:0 0 1 0 100; w ~client:1 0 2 0 100; r 0 1 150 160 ]);
  Alcotest.(check bool) "concurrent writes, second wins" true
    (ok [ w ~client:0 0 1 0 100; w ~client:1 0 2 0 100; r 0 2 150 160 ])

let test_wgl_incomplete_ops () =
  let ok h = (check h).Linearizability.ok in
  let w_pending ?(client = 0) key v invoke = ev client key (History.Write v) invoke in
  (* An in-flight write may have taken effect... *)
  Alcotest.(check bool) "incomplete write serves a read" true
    (ok [ w_pending 0 5 0; r 0 5 10 20 ]);
  (* ...or not have happened at all... *)
  Alcotest.(check bool) "incomplete write may never apply" true
    (ok [ w_pending 0 7 0; r 0 0 10 20 ]);
  (* ...but it cannot apply before its own invocation. *)
  Alcotest.(check bool) "incomplete write not before its invoke" false
    (ok [ r 0 7 0 10; w_pending 0 7 50 ]);
  (* Incomplete reads impose nothing. *)
  Alcotest.(check bool) "incomplete read ignored" true
    (ok [ w 0 1 0 10; ev 2 0 History.Read 5 ])

let test_wgl_per_key_composition () =
  (* Per-key and monolithic must agree — linearizability is
     P-compositional over keys. *)
  let histories =
    [
      [ w 0 1 0 10; w 1 5 0 10; r 0 1 20 30; r 1 5 20 30 ];
      [ w 0 1 0 10; w 1 5 0 10; r 0 1 20 30; r 1 9 20 30 ];
      [ w 0 3 0 50; w 1 4 0 50; r ~client:2 0 3 60 70; r ~client:3 1 4 60 70 ];
    ]
  in
  List.iter
    (fun h ->
      let pk = check ~mode:`Per_key h and mono = check ~mode:`Monolithic h in
      Alcotest.(check bool) "verdicts agree" pk.Linearizability.ok
        mono.Linearizability.ok)
    histories

let test_wgl_witness () =
  let h =
    [ w 0 1 0 10; r 0 1 20 30; w 0 2 40 50; r 0 1 60 70; w 0 3 80 90; r 0 3 100 110 ]
  in
  let o = check h in
  Alcotest.(check bool) "violation detected" false o.Linearizability.ok;
  match o.Linearizability.witness with
  | None -> Alcotest.fail "no witness"
  | Some wit ->
      Alcotest.(check (option int)) "offending key" (Some 0) wit.Linearizability.key;
      (* The stale read responds at 70; nothing after it is needed. *)
      Alcotest.(check int) "window ends at the stale read" 70
        wit.Linearizability.window_end;
      Alcotest.(check bool) "window keeps only the contradiction core" true
        (List.length wit.Linearizability.events <= 4);
      Alcotest.(check bool) "witness fails on its own" false
        (check wit.Linearizability.events).Linearizability.ok

let test_wgl_malformed_never_asserts () =
  let malformed =
    [
      [ ev 0 0 (History.Write 1) 10 ~respond:5 ~ret:1 ] (* respond < invoke *);
      [ ev 0 0 (History.Write 1) (-3) ~respond:5 ~ret:1 ] (* negative invoke *);
      [ ev 0 0 History.Read 0 ~respond:10 ] (* complete without ret *);
      [ ev 0 0 History.Read 0 ~ret:3 ] (* incomplete with ret *);
    ]
  in
  List.iter
    (fun h ->
      let o = check h in
      Alcotest.(check bool) "malformed fails" false o.Linearizability.ok;
      match o.Linearizability.reason with
      | Some s ->
          Alcotest.(check bool) "reason says malformed" true
            (String.length s >= 9 && String.sub s 0 9 = "malformed")
      | None -> Alcotest.fail "no reason given")
    malformed

let test_history_serialization_roundtrip () =
  let h =
    History.sort
      [
        w 0 1 0 10; r 0 1 20 30;
        ev 3 7 (History.Write 9) 15 (* in flight *);
        ev 4 2 History.Read 40 ~respond:44 ~ret:0;
      ]
  in
  (match History.of_table (History.to_table h) with
  | Ok h' -> Alcotest.(check bool) "table round-trip" true (h' = h)
  | Error e -> Alcotest.fail e);
  let file = Filename.temp_file "hist" ".rle" in
  History.to_file file h;
  (match History.of_file file with
  | Ok h' -> Alcotest.(check bool) "file round-trip" true (h' = h)
  | Error e -> Alcotest.fail e);
  Sys.remove file;
  let bad =
    { Stdext.Rle.schema = History.schema;
      columns = List.map (fun _ -> [| -7 |]) History.schema }
  in
  match History.of_table bad with
  | Ok _ -> Alcotest.fail "accepted negative cells"
  | Error _ -> ()

(* The headline positive results: the paper's protocol passes its two-step
   definition exactly at its bound. *)
let test_task_two_step_at_bound () =
  let r = Twostep.check_task Core.Rgs.task ~n:6 ~e:2 ~f:2 ~delta ~values:[ 0; 1 ] () in
  Alcotest.(check bool) (Format.asprintf "%a" Twostep.pp_report r) true (Twostep.ok r)

let test_task_two_step_min_system () =
  let r = Twostep.check_task Core.Rgs.task ~n:3 ~e:1 ~f:1 ~delta ~values:[ 0; 1; 2 ] () in
  Alcotest.(check bool) "n=3 e=1 f=1" true (Twostep.ok r)

let test_object_two_step_at_bound () =
  let r = Twostep.check_object Core.Rgs.obj ~n:5 ~e:2 ~f:2 ~delta ~values:[ 0; 1 ] () in
  Alcotest.(check bool) (Format.asprintf "%a" Twostep.pp_report r) true (Twostep.ok r)

let test_fast_paxos_two_step_at_lamport_bound () =
  let r =
    Twostep.check_task Baselines.Fast_paxos.protocol ~n:7 ~e:2 ~f:2 ~delta ~values:[ 0; 1 ]
      ()
  in
  Alcotest.(check bool) "fast paxos at 2e+f+1" true (Twostep.ok r)

let test_paxos_not_two_step () =
  let r = Twostep.check_task Baselines.Paxos.protocol ~n:5 ~e:2 ~f:2 ~delta ~values:[ 0 ] () in
  Alcotest.(check bool) "paxos fails for e=2" false (Twostep.ok r);
  (* and even for e=1: crash the initial leader *)
  let r1 = Twostep.check_task Baselines.Paxos.protocol ~n:3 ~e:1 ~f:1 ~delta ~values:[ 0 ] () in
  Alcotest.(check bool) "paxos fails for e=1" false (Twostep.ok r1)

(* Explorer: every synchronous schedule of a small unanimous run decides
   correctly; conflicting schedules never violate safety. *)
let test_explore_exhaustive_agreement () =
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 2; 1; 0 ] in
  let r =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:4
      ~check:(fun o -> Safety.safe o)
      ()
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "non-trivial exploration" true (r.explored > 10)

let test_explore_finds_seeded_bug () =
  (* Sanity: the explorer actually detects property violations — use a
     property that is false on runs where p0 decides, and check the
     explorer finds such a run for a unanimous configuration. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 5; 5 ] in
  let r =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~check:(fun o -> Scenario.decided_value o 0 = None)
      ()
  in
  Alcotest.(check bool) "violation found" true (r.violations > 0)

let test_explore_budget_truncation () =
  let n = 4 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2; 3 ] in
  let r =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:4 ~budget:50
      ~check:(fun _ -> true) ()
  in
  Alcotest.(check bool) "budget respected" true (r.explored <= 50);
  Alcotest.(check bool) "truncation reported" true r.truncated

let test_explore_crashes_mid_run () =
  (* Crash the fast decider right after its decision in every schedule;
     agreement must survive all of them. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let r =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals
      ~crashes:[ ((2 * delta) + 1, 2) ]
      ~rounds:5 ~disable_timers:false
      ~check:(fun o -> Safety.safe o)
      ()
  in
  Alcotest.(check int) "no violations with mid-run crash" 0 r.violations

(* Cross-validation of the explorer's execution strategies: `Replay
   re-executes every run from time 0, `Snapshot extends cloned engines
   incrementally — they must visit the exact same outcome sets. *)
let check_explore_results_equal label (a : Explore.result) (b : Explore.result) =
  Alcotest.(check int) (label ^ ": explored") a.explored b.explored;
  Alcotest.(check int) (label ^ ": violations") a.violations b.violations;
  Alcotest.(check bool) (label ^ ": truncated") a.truncated b.truncated;
  Alcotest.(check bool)
    (label ^ ": first violation")
    true
    (a.first_violation = b.first_violation)

let test_explore_snapshot_matches_replay () =
  (* T2-style configuration at the task bound (n = 2e + f). *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go mode check =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget:400
      ~mode ~check ()
  in
  (* Safety holds everywhere: identical explored counts and no violation. *)
  let safe o = Safety.safe o in
  check_explore_results_equal "safe property" (go `Replay safe) (go `Snapshot safe);
  (* A property that is violated on many runs: the first violation (the
     canonical DFS-order witness) must also coincide. *)
  let p0_undecided o = Scenario.decided_value o 0 = None in
  let r = go `Replay p0_undecided and s = go `Snapshot p0_undecided in
  Alcotest.(check bool) "violations found" true (r.violations > 0);
  check_explore_results_equal "violating property" r s

let test_explore_snapshot_matches_replay_with_crashes () =
  (* T3-flavoured configuration: a mid-run crash of the fast decider, with
     timers enabled. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let go mode =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals
      ~crashes:[ ((2 * delta) + 1, 2) ]
      ~rounds:5 ~disable_timers:false ~mode
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let r = go `Replay and s = go `Snapshot in
  Alcotest.(check bool) "non-trivial" true (r.explored > 10);
  check_explore_results_equal "crash config" r s

let test_explore_parallel_deterministic () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  (* [clamp_domains:false]: the point is real multi-domain interleaving,
     also on hosts whose recommended domain count would clamp it away. *)
  let go ~mode ~domains ~budget check =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget ~mode
      ~domains ~clamp_domains:false ~check ()
  in
  let p0_undecided o = Scenario.decided_value o 0 = None in
  (* Without a binding budget: every (mode, domains) combination agrees. *)
  let base = go ~mode:`Snapshot ~domains:1 ~budget:2_000 p0_undecided in
  List.iter
    (fun (mode, domains) ->
      let r = go ~mode ~domains ~budget:2_000 p0_undecided in
      check_explore_results_equal
        (Printf.sprintf "domains=%d" domains)
        base r)
    [ (`Snapshot, 2); (`Snapshot, 4); (`Replay, 2) ];
  (* With a budget cut mid-branch: the deterministic merge re-imposes the
     sequential cut exactly, so counts and witness still coincide. *)
  let cut = go ~mode:`Snapshot ~domains:1 ~budget:100 p0_undecided in
  Alcotest.(check bool) "budget binds" true cut.truncated;
  let par = go ~mode:`Snapshot ~domains:3 ~budget:100 p0_undecided in
  check_explore_results_equal "budget-cut merge" cut par

(* Property: the parallel subtree split is *byte-identical* to the
   sequential explorer on every result field — explored, violations,
   first_violation and truncated — over random small configurations
   covering both execution modes, crash schedules, unclamped domain counts
   and budgets that cut mid-branch. This is the determinism contract the
   per-chunk budget caps and the DFS-order merge must uphold under
   arbitrary worker scheduling. *)
let explore_parallel_equiv_property =
  QCheck.Test.make ~name:"explore: parallel == sequential on all fields" ~count:14
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let n, e, f = pick [ (3, 1, 1); (4, 1, 1) ] 1 in
      let rounds = pick [ 1; 2 ] 2 in
      (* Small budgets land the cut mid-branch; the large one is only
         binding for the wider configurations. *)
      let budget = pick [ 23; 97; 400 ] 4 in
      let mode = pick [ `Snapshot; `Replay ] 12 in
      let domains = pick [ 2; 3; 4 ] 24 in
      let crashes = pick [ []; [ (delta + 1, n - 1) ] ] 72 in
      let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - i)) in
      let go ~domains ~clamp =
        Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~crashes ~rounds
          ~budget ~mode ~domains ~clamp_domains:clamp
          ~check:(fun o -> Scenario.decided_value o 0 = None)
          ()
      in
      let a = go ~domains:1 ~clamp:true in
      let b = go ~domains ~clamp:false in
      a.Explore.explored = b.Explore.explored
      && a.violations = b.violations
      && a.truncated = b.truncated
      && a.first_violation = b.first_violation)

let test_explore_budget_not_duplicated () =
  (* The per-chunk budget caps bound the total work: across all domains
     the property must be evaluated at most a small factor more often than
     the budget (runs a chunk evaluates past its cap are the only waste),
     where per-branch budgets would cost up to domains x budget. *)
  (* n = 6 at the task bound: the 3-round tree holds 572 runs, so budget
     400 cuts mid-branch. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ~budget ~domains ~clamp =
    let r, report =
      Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget
        ~domains ~clamp_domains:clamp
        ~check:(fun _ -> true)
        ()
    in
    (r, report.Explore.Run_report.sched.evals)
  in
  (* Budget cuts mid-tree: evaluations stay within 1.25x budget. *)
  let r, evals = go ~budget:400 ~domains:4 ~clamp:false in
  Alcotest.(check int) "explored = budget" 400 r.explored;
  Alcotest.(check bool) "truncated" true r.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "evals within 1.25x budget (got %d)" evals)
    true
    (evals >= 400 && evals <= 500);
  (* Budget not binding: every run evaluated exactly once, nothing extra. *)
  let r1, evals1 = go ~budget:1_000_000 ~domains:1 ~clamp:true in
  let r4, evals4 = go ~budget:1_000_000 ~domains:4 ~clamp:false in
  Alcotest.(check int) "parallel explored = sequential" r1.explored r4.explored;
  Alcotest.(check int) "sequential evals = explored" r1.explored evals1;
  Alcotest.(check int) "parallel evals = explored (exactly once)" r4.explored evals4

(* -- dedup: state-space deduplication soundness and determinism --------- *)

let test_explore_dedup_prunes_and_agrees () =
  (* n = 6 at the task bound: exact dedup must merge converging schedules
     (hits > 0), evaluate strictly fewer runs than the undedup'd search,
     and reach the same verdict. distinct_states < explored(off) is the CI
     smoke assertion: the state graph is smaller than the schedule tree. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go dedup =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:1_000_000 ~dedup
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let off, _ = go Explore.Off in
  let exact, rx = go Explore.Exact in
  let t = rx.Explore.Run_report.totals in
  Alcotest.(check int) "same verdict" off.Explore.violations exact.Explore.violations;
  Alcotest.(check bool) "distinct states counted" true
    (t.Explore.Run_report.distinct_states > 0);
  Alcotest.(check bool) "dedup hits at n=6" true (t.Explore.Run_report.dedup_hits > 0);
  Alcotest.(check bool) "subtrees pruned" true (t.Explore.Run_report.pruned_subtrees > 0);
  Alcotest.(check bool) "fewer runs evaluated" true
    (exact.Explore.explored < off.Explore.explored);
  Alcotest.(check bool) "state graph smaller than schedule tree" true
    (t.Explore.Run_report.distinct_states < off.Explore.explored
     + t.Explore.Run_report.dedup_hits)

(* Soundness property: with an ample budget, [Exact] dedup reaches the same
   verdict as [Off] AND finds the identical first violation — the pruned
   subtrees hang off states already expanded earlier in DFS order, so the
   earliest violating schedule is never pruned and is executed identically.
   [Symmetry] must agree on the verdict for pid-agnostic properties (the
   witness may be a pid permutation of Off's, so it is not compared). *)
let explore_dedup_sound_property =
  QCheck.Test.make ~name:"explore: dedup preserves verdict and canonical witness"
    ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let n, e, f = pick [ (3, 1, 1); (4, 1, 1) ] 1 in
      let rounds = pick [ 2; 3 ] 2 in
      let values = pick [ List.init n (fun i -> n - i); List.init n (fun _ -> 5) ] 4 in
      let crashes = pick [ []; [ (delta + 1, n - 1) ] ] 8 in
      let check =
        pick
          [ (fun o -> Safety.safe o); (fun o -> Scenario.decided_value o 0 = None) ]
          16
      in
      let proposals = Scenario.all_proposals_at_zero ~n values in
      let go dedup =
        Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals ~crashes ~rounds
          ~budget:1_000_000 ~dedup ~check ()
      in
      let off = go Explore.Off in
      let exact = go Explore.Exact in
      let sym = go Explore.Symmetry in
      (off.Explore.violations > 0) = (exact.Explore.violations > 0)
      && off.Explore.first_violation = exact.Explore.first_violation
      && off.Explore.truncated = exact.Explore.truncated
      && (off.Explore.violations > 0) = (sym.Explore.violations > 0))

let test_explore_symmetry_merges_more () =
  (* Unanimous proposals leave pids 1..n-1 fully interchangeable, so pid
     canonicalisation must collapse strictly more states than exact
     hashing — with the same (clean) verdict. *)
  let n = 4 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 5; 5; 5 ] in
  let go dedup =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:1_000_000 ~dedup
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let exact, re = go Explore.Exact in
  let sym, rs = go Explore.Symmetry in
  Alcotest.(check int) "both clean" exact.Explore.violations sym.Explore.violations;
  Alcotest.(check bool)
    (Printf.sprintf "symmetry merges more states (%d < %d)"
       rs.Explore.Run_report.totals.distinct_states
       re.Explore.Run_report.totals.distinct_states)
    true
    (rs.Explore.Run_report.totals.distinct_states
    < re.Explore.Run_report.totals.distinct_states)

(* The configurations of the totals-identical tests: (n, e, f, rounds,
   explored fault bounds, dedup), with pid i proposing n - 1 - i and a
   property that fails wherever p0 decides. Budget ample: the contract is
   scoped to within-budget-exhaustive explorations. *)
let explore_totals ~mode ~domains ?(por = Explore.No_por) (n, e, f, rounds, faults, dedup) =
  let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i)) in
  snd
    (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds
       ~budget:1_000_000 ~mode ~domains ~clamp_domains:false ~faults ~dedup ~por
       ~check:(fun o -> Scenario.decided_value o 0 = None)
       ())

(* Every strategy the totals must agree across besides the sequential
   snapshot baseline: Replay / Snapshot x sequential / parallel, with
   unclamped parallel runs at 2, 3 and 4 domains. *)
let totals_strategies =
  [
    ("replay seq", `Replay, 1);
    ("snapshot par", `Snapshot, 4);
    ("replay par", `Replay, 3);
    ("snapshot par 2", `Snapshot, 2);
  ]

let drop_dup = { Explore.max_drops = 1; max_dups = 1 }

let test_explore_dedup_totals_identical () =
  (* The byte-identical-totals contract extended to dedup'd explorations:
     for a fixed dedup mode, all strategy combinations (Replay / Snapshot
     x sequential / parallel) must report the same totals — including the
     distinct_states / dedup_hits / pruned_subtrees counts, which only
     stay deterministic because exactly one Stateset.add wins per key and
     arrivals are the edges of the (schedule-independent) dedup'd state
     graph. Two more shapes the parallel split must not disturb: the
     n = 4 search with an explored drop and duplication, whose root fans
     out into fault branches, and the n = 3 one, which reaches 17
     distinct states over ~14k arrivals. *)
  let go ~mode ~domains cfg = explore_totals ~mode ~domains cfg in
  List.iter
    (fun (name, cfg) ->
      let base = go ~mode:`Snapshot ~domains:1 cfg in
      Alcotest.(check bool)
        (name ^ ": dedup active") true
        (base.Explore.Run_report.totals.distinct_states > 0);
      List.iter
        (fun (label, mode, domains) ->
          let r = go ~mode ~domains cfg in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: totals byte-identical" name label)
            true
            (base.Explore.Run_report.totals = r.Explore.Run_report.totals))
        totals_strategies)
    [
      ("exact", (6, 2, 2, 3, Explore.no_faults, Explore.Exact));
      ("symmetry", (6, 2, 2, 3, Explore.no_faults, Explore.Symmetry));
      ("exact n=4 drop+dup", (4, 1, 2, 2, drop_dup, Explore.Exact));
      ("exact n=3", (3, 1, 1, 2, Explore.no_faults, Explore.Exact));
    ]

(* -- por: sleep-set partial-order reduction soundness ------------------- *)

let test_explore_por_prunes_and_agrees () =
  (* n = 6 at the task bound, dedup off so the reduction is measured on its
     own: sleep-set POR must suppress commuting per-destination delivery
     orders (sleep_hits > 0, por_pruned > 0), evaluate at most half the
     schedules of the unreduced search, and reach the same verdict. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go por =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:1_000_000 ~por
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let off, _ = go Explore.No_por in
  let red, rr = go Explore.Sleep in
  let t = rr.Explore.Run_report.totals in
  Alcotest.(check int) "same verdict" off.Explore.violations red.Explore.violations;
  Alcotest.(check bool) "sleep hits counted" true (t.Explore.Run_report.sleep_hits > 0);
  Alcotest.(check bool) "orders pruned" true (t.Explore.Run_report.por_pruned > 0);
  Alcotest.(check bool)
    (Printf.sprintf "at most half the schedules (%d vs %d)" red.Explore.explored
       off.Explore.explored)
    true
    (red.Explore.explored * 2 <= off.Explore.explored)

(* Soundness property: [Sleep] POR reaches the same verdict as [No_por] and
   preserves first-violation existence, across protocols, configurations,
   seeds and explored fault bounds. The witness schedule itself may differ
   (POR keeps one representative per commuting class), so only its
   existence is compared. POR explores a subset of the unreduced tree, so
   it must finish wherever [No_por] finished, but not conversely: some
   draws inflate the unreduced tree far past the budget while the reduced
   one finishes in a few hundred schedules. Verdicts are therefore
   compared where both searches are exhaustive; where only POR is, a
   violation the unreduced sample found must be found by POR too. *)
let explore_por_sound_property =
  QCheck.Test.make ~name:"explore: POR preserves verdict and violation existence"
    ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let protocol = pick [ Core.Rgs.task; Core.Rgs.obj ] 1 in
      let n, e, f = pick [ (3, 1, 1); (4, 1, 1) ] 2 in
      let rounds = pick [ 2; 3 ] 4 in
      let values = pick [ List.init n (fun i -> n - i); List.init n (fun _ -> 5) ] 8 in
      let faults =
        pick
          [ Explore.no_faults;
            { Explore.max_drops = 1; max_dups = 0 };
            { Explore.max_drops = 0; max_dups = 1 };
          ]
          16
      in
      let check =
        pick
          [ (fun o -> Safety.safe o); (fun o -> Scenario.decided_value o 0 = None) ]
          48
      in
      let proposals = Scenario.all_proposals_at_zero ~n values in
      let go por =
        Explore.synchronous protocol ~n ~e ~f ~delta ~proposals ~rounds ~budget:20_000
          ~faults ~por ~check ()
      in
      let off = go Explore.No_por in
      let red = go Explore.Sleep in
      let verdict (r : Explore.result) =
        (r.Explore.violations > 0, r.Explore.first_violation <> None)
      in
      (off.Explore.truncated || not red.Explore.truncated)
      && (red.Explore.truncated
         || (if off.Explore.truncated then (not (fst (verdict off))) || fst (verdict red)
            else verdict off = verdict red)))

let test_explore_por_timer_between_deliveries () =
  (* A timer firing between deliveries is NOT treated as commuting: trial
     execution re-runs the boundary timers inside every candidate order,
     so two orders only collapse when the full engine state — including
     timer effects — coincides. With timers enabled and a mid-run crash
     (the T3-flavoured configuration) the unreduced tree exceeds 10^6
     schedules, so the Off side runs with a bounded budget; the Sleep side
     must complete the SAME tree exhaustively (truncated = false) — the
     sharpest form of the soundness claim: nothing the reduction kept was
     cut by budget, yet verdict and violation existence match the
     unreduced sample. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let go ~budget por check =
    Explore.synchronous Core.Rgs.task ~n ~e ~f ~delta ~proposals
      ~crashes:[ ((2 * delta) + 1, 2) ]
      ~rounds:3 ~disable_timers:false ~budget ~por ~check ()
  in
  let safe o = Safety.safe o in
  let off = go ~budget:20_000 Explore.No_por safe in
  let red = go ~budget:1_000_000 Explore.Sleep safe in
  Alcotest.(check bool) "unreduced tree is timer-inflated" true off.Explore.truncated;
  Alcotest.(check bool) "reduced search exhaustive" true (not red.Explore.truncated);
  Alcotest.(check bool) "reduced search non-trivial" true (red.Explore.explored > 1_000);
  Alcotest.(check int) "clean verdict preserved" off.Explore.violations
    red.Explore.violations;
  (* A property violated on every run that decides p0: the reduction must
     keep (timer-distinguished) violating schedules — every surviving run
     still violates, and a witness exists. *)
  let p0_undecided o = Scenario.decided_value o 0 = None in
  let off_v = go ~budget:20_000 Explore.No_por p0_undecided in
  let red_v = go ~budget:1_000_000 Explore.Sleep p0_undecided in
  Alcotest.(check bool) "violations found without POR" true (off_v.Explore.violations > 0);
  Alcotest.(check int) "every kept run still violates" red_v.Explore.explored
    red_v.Explore.violations;
  Alcotest.(check bool) "witness existence preserved" true
    (red_v.Explore.first_violation <> None)

let test_explore_por_totals_identical () =
  (* The byte-identical-totals contract extended to POR: for a fixed
     (dedup, por) pair, all strategy combinations (Replay / Snapshot x
     sequential / parallel) must report the same totals — including the
     new por_pruned / sleep_hits counters, which stay deterministic
     because trial classification depends only on engine state, never on
     scheduling. *)
  let go ~mode ~domains cfg = explore_totals ~mode ~domains ~por:Explore.Sleep cfg in
  List.iter
    (fun (name, cfg) ->
      let base = go ~mode:`Snapshot ~domains:1 cfg in
      Alcotest.(check bool)
        (name ^ ": POR active") true
        (base.Explore.Run_report.totals.sleep_hits > 0
        || base.Explore.Run_report.totals.por_pruned > 0);
      List.iter
        (fun (label, mode, domains) ->
          let r = go ~mode ~domains cfg in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: totals byte-identical" name label)
            true
            (base.Explore.Run_report.totals = r.Explore.Run_report.totals))
        totals_strategies)
    [
      ("por only", (6, 2, 2, 3, Explore.no_faults, Explore.Off));
      ("por + exact dedup", (6, 2, 2, 3, Explore.no_faults, Explore.Exact));
      ("por + exact dedup n=4 drop+dup", (4, 1, 2, 2, drop_dup, Explore.Exact));
    ]

(* -- swarm: seeded randomized walkers ----------------------------------- *)

let test_swarm_deterministic () =
  (* The swarm contract: walker trajectories depend only on (seed, walker
     index) and fixed budget shares, so the full Swarm_report — runs,
     coverage, POR counters — is byte-identical across repeated calls and
     across domain counts. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ~domains =
    Explore.swarm_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:300 ~walkers:4 ~seed:11 ~domains ~clamp_domains:false
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let r1, s1 = go ~domains:1 in
  let r2, s2 = go ~domains:1 in
  let r4, s4 = go ~domains:4 in
  Alcotest.(check bool) "repeat run identical" true (s1 = s2);
  Alcotest.(check bool) "domain count irrelevant" true (s1 = s4);
  Alcotest.(check bool) "results identical too" true (r1 = r2 && r1 = r4);
  Alcotest.(check int) "runs = budget" 300 s1.Explore.Swarm_report.runs;
  Alcotest.(check bool) "always a sample, never a proof" true r1.Explore.truncated;
  Alcotest.(check int) "clean sweep" 0 r1.Explore.violations;
  Alcotest.(check bool) "coverage counted" true
    (s1.Explore.Swarm_report.distinct_states > 0)

let test_swarm_coverage_and_violations () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  (* Coverage is measured in the same (state, round) currency as the
     exhaustive explorer: a swarm sample can never cover more distinct
     states than the exhaustive search counts. *)
  let _, exhaustive =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:1_000_000 ~dedup:Explore.Exact
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let _, s =
    Explore.swarm_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget:200
      ~walkers:4 ~seed:3
      ~check:(fun o -> Safety.safe o)
      ()
  in
  let exhaustive_distinct =
    exhaustive.Explore.Run_report.totals.Explore.Run_report.distinct_states
  in
  Alcotest.(check bool)
    (Printf.sprintf "swarm coverage bounded by state graph (%d <= %d)"
       s.Explore.Swarm_report.distinct_states exhaustive_distinct)
    true
    (s.Explore.Swarm_report.distinct_states <= exhaustive_distinct);
  (* Violation plumbing: a property false everywhere is flagged on every
     run and yields a witness. *)
  let r, sv =
    Explore.swarm_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget:50
      ~walkers:2 ~seed:5
      ~check:(fun _ -> false)
      ()
  in
  Alcotest.(check int) "every run violates" sv.Explore.Swarm_report.runs
    r.Explore.violations;
  Alcotest.(check bool) "witness produced" true (r.Explore.first_violation <> None);
  (* distinct-states/sec is a plain division. *)
  Alcotest.(check (float 0.001)) "coverage rate"
    (float_of_int sv.Explore.Swarm_report.distinct_states /. 2.0)
    (Explore.Swarm_report.distinct_states_per_sec sv ~wall_s:2.0)

(* -- telemetry: run reports and the fast-path report -------------------- *)

module Report = Checker.Report
module Metrics = Stdext.Metrics

(* The Run_report determinism contract: [totals] is byte-identical across
   sequential, parallel (unclamped domains), `Replay and `Snapshot
   executions — with and without a budget cut mid-branch. [sched] is
   explicitly scheduling-dependent and not compared. *)
let test_run_report_totals_identical () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ~mode ~domains ~budget =
    snd
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
         ~budget ~mode ~domains ~clamp_domains:false
         ~check:(fun o -> Scenario.decided_value o 0 = None)
         ())
  in
  List.iter
    (fun budget ->
      let base = go ~mode:`Snapshot ~domains:1 ~budget in
      Alcotest.(check bool) "non-trivial" true (base.Explore.Run_report.totals.explored > 10);
      List.iter
        (fun (label, mode, domains) ->
          let r = go ~mode ~domains ~budget in
          Alcotest.(check bool)
            (Printf.sprintf "budget=%d %s: totals byte-identical" budget label)
            true
            (Explore.Run_report.totals_equal base.Explore.Run_report.totals
               r.Explore.Run_report.totals
            && base.Explore.Run_report.totals = r.Explore.Run_report.totals))
        [
          ("replay seq", `Replay, 1);
          ("snapshot par", `Snapshot, 4);
          ("replay par", `Replay, 3);
        ])
    [ 400; 2_000 ];
  (* Derived figures come out of the shared totals. *)
  let r = go ~mode:`Snapshot ~domains:2 ~budget:2_000 in
  let t = r.Explore.Run_report.totals in
  Alcotest.(check bool) "fast rate in [0,1]" true
    (Explore.Run_report.fast_path_rate t >= 0. && Explore.Run_report.fast_path_rate t <= 1.);
  Alcotest.(check int) "depth histogram covers explored" t.explored
    (Array.fold_left ( + ) 0 t.depth_histogram)

(* The headline telemetry numbers of `twostep report`: at the tight system
   sizes the two-step protocols are fast for EVERY target (the existential
   definition: each target decides in two delays in its favored run), while
   leader-based Paxos is fast only for its leader. *)
let test_report_fast_path_rates () =
  let rate (p : Proto.Protocol.t) ~n =
    let r = Report.conflict_free p ~n ~e:2 ~f:2 ~delta () in
    Alcotest.(check int) (r.Report.protocol ^ ": all targets decide") n r.Report.decided;
    r.Report.fast_path_rate
  in
  Alcotest.(check (float 0.001)) "rgs-task 1.0 at n=2e+f" 1.0 (rate Core.Rgs.task ~n:6);
  Alcotest.(check (float 0.001)) "rgs-object 1.0 at n=2e+f-1" 1.0 (rate Core.Rgs.obj ~n:5);
  Alcotest.(check (float 0.001)) "fast-paxos 1.0 at n=2e+f+1" 1.0
    (rate Baselines.Fast_paxos.protocol ~n:7);
  let paxos = rate Baselines.Paxos.protocol ~n:5 in
  Alcotest.(check bool) "paxos below 1.0" true (paxos < 1.0);
  Alcotest.(check (float 0.001)) "paxos fast only for its leader" 0.2 paxos;
  (* default n is the protocol's tight bound *)
  let d = Report.conflict_free Core.Rgs.task ~e:2 ~f:2 ~delta () in
  Alcotest.(check int) "default n = min_n" 6 d.Report.n;
  (* recording mirrors the report into report.* metrics *)
  let registry = Metrics.create () in
  let r = Report.conflict_free Core.Rgs.task ~n:6 ~e:2 ~f:2 ~delta ~metrics:registry () in
  Alcotest.(check int) "report.fast counter" r.Report.fast
    (Metrics.get_counter registry "report.rgs-task.fast");
  Alcotest.(check int) "engine probe mirrored too" r.Report.messages
    (Metrics.get_counter registry "engine.sent")

(* Property: the engine's metrics mirror and the scenario outcome (itself
   recomputed from the trace) agree on every counter, across protocols,
   network modes, seeds and random fault plans. *)
let metrics_match_trace_property =
  QCheck.Test.make ~name:"metrics == trace counts (protocol x net x seed)" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let pick l k = List.nth l (seed / k mod List.length l) in
      let protocol =
        pick
          [ Core.Rgs.task; Core.Rgs.obj; Baselines.Paxos.protocol;
            Baselines.Fast_paxos.protocol ]
          1
      in
      let n = 3 and e = 1 and f = 1 in
      let net =
        pick
          [ Scenario.Sync `Arrival; Scenario.Sync (`Favor (seed mod n));
            Scenario.Uniform { min_delay = 1; max_delay = delta } ]
          4
      in
      let faults =
        pick
          [ Dsim.Network.Fault.none;
            Dsim.Network.Fault.random ~drop_rate:0.1 ~dup_rate:0.1 ~max_drops:2
              ~max_dups:2 ();
          ]
          12
      in
      let registry = Metrics.create () in
      let outcome =
        Scenario.run protocol ~n ~e ~f ~delta ~net
          ~proposals:(Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ])
          ~seed ~faults ~metrics:registry ~until:(10 * delta) ()
      in
      let c name = Metrics.get_counter registry name in
      c "engine.sent" = outcome.Scenario.messages
      && c "engine.dropped" = outcome.Scenario.dropped
      && c "engine.duplicated" = outcome.Scenario.duplicated
      && c "engine.decides" = List.length outcome.Scenario.decisions
      && c "engine.crashes" = List.length outcome.Scenario.crashes)

let () =
  Alcotest.run "checker"
    [
      ( "safety",
        [
          Alcotest.test_case "verdicts" `Quick test_safety_verdicts;
          Alcotest.test_case "linearizability" `Quick test_linearizability;
        ] );
      ( "wgl",
        [
          Alcotest.test_case "register basics" `Quick test_wgl_register_basics;
          Alcotest.test_case "incomplete ops" `Quick test_wgl_incomplete_ops;
          Alcotest.test_case "per-key = monolithic" `Quick test_wgl_per_key_composition;
          Alcotest.test_case "witness minimization" `Quick test_wgl_witness;
          Alcotest.test_case "malformed never asserts" `Quick
            test_wgl_malformed_never_asserts;
          Alcotest.test_case "history serialization" `Quick
            test_history_serialization_roundtrip;
        ] );
      ( "twostep",
        [
          Alcotest.test_case "task at bound" `Quick test_task_two_step_at_bound;
          Alcotest.test_case "task minimal system" `Quick test_task_two_step_min_system;
          Alcotest.test_case "object at bound" `Quick test_object_two_step_at_bound;
          Alcotest.test_case "fast paxos at Lamport bound" `Quick test_fast_paxos_two_step_at_lamport_bound;
          Alcotest.test_case "paxos is not two-step" `Quick test_paxos_not_two_step;
        ] );
      ( "explore",
        [
          Alcotest.test_case "exhaustive agreement" `Quick test_explore_exhaustive_agreement;
          Alcotest.test_case "detects violations" `Quick test_explore_finds_seeded_bug;
          Alcotest.test_case "budget truncation" `Quick test_explore_budget_truncation;
          Alcotest.test_case "mid-run crashes" `Quick test_explore_crashes_mid_run;
          Alcotest.test_case "snapshot matches replay" `Quick
            test_explore_snapshot_matches_replay;
          Alcotest.test_case "snapshot matches replay (crashes)" `Quick
            test_explore_snapshot_matches_replay_with_crashes;
          Alcotest.test_case "parallel determinism" `Quick
            test_explore_parallel_deterministic;
          Alcotest.test_case "shared budget not duplicated" `Quick
            test_explore_budget_not_duplicated;
          QCheck_alcotest.to_alcotest explore_parallel_equiv_property;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "prunes and agrees at n=6" `Quick
            test_explore_dedup_prunes_and_agrees;
          Alcotest.test_case "symmetry merges more" `Quick test_explore_symmetry_merges_more;
          Alcotest.test_case "totals identical across strategies" `Quick
            test_explore_dedup_totals_identical;
          QCheck_alcotest.to_alcotest explore_dedup_sound_property;
        ] );
      ( "por",
        [
          Alcotest.test_case "prunes and agrees at n=6" `Quick
            test_explore_por_prunes_and_agrees;
          Alcotest.test_case "timers defeat commutation soundly" `Quick
            test_explore_por_timer_between_deliveries;
          Alcotest.test_case "totals identical across strategies" `Quick
            test_explore_por_totals_identical;
          QCheck_alcotest.to_alcotest explore_por_sound_property;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "deterministic across runs and domains" `Quick
            test_swarm_deterministic;
          Alcotest.test_case "coverage bounded, violations plumbed" `Quick
            test_swarm_coverage_and_violations;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "run report totals identical across modes" `Quick
            test_run_report_totals_identical;
          Alcotest.test_case "fast-path rates at the bounds" `Quick
            test_report_fast_path_rates;
          QCheck_alcotest.to_alcotest metrics_match_trace_property;
        ] );
    ]
