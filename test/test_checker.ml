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

let test_wgl_per_key_decomposition () =
  (* Keys are checked independently (linearizability is P-compositional
     over keys): a bad read on one key fails the history, names that key
     in the witness, and leaves every other key's operations out of it. *)
  let verdict h = (check h).Linearizability.ok in
  Alcotest.(check bool) "independent keys" true
    (verdict [ w 0 1 0 10; w 1 5 0 10; r 0 1 20 30; r 1 5 20 30 ]);
  Alcotest.(check bool) "concurrent writers on two keys" true
    (verdict [ w 0 3 0 50; w 1 4 0 50; r ~client:2 0 3 60 70; r ~client:3 1 4 60 70 ]);
  let o = check [ w 0 1 0 10; w 1 5 0 10; r 0 1 20 30; r 1 9 20 30 ] in
  Alcotest.(check bool) "unwritten value read" false o.Linearizability.ok;
  match o.Linearizability.witness with
  | None -> Alcotest.fail "no witness"
  | Some wit ->
      Alcotest.(check int) "witness names the bad key" 1 wit.Linearizability.key;
      Alcotest.(check bool) "witness holds only that key" true
        (List.for_all
           (fun (e : History.event) -> e.History.key = 1)
           wit.Linearizability.events)

let test_wgl_witness () =
  let h =
    [ w 0 1 0 10; r 0 1 20 30; w 0 2 40 50; r 0 1 60 70; w 0 3 80 90; r 0 3 100 110 ]
  in
  let o = check h in
  Alcotest.(check bool) "violation detected" false o.Linearizability.ok;
  match o.Linearizability.witness with
  | None -> Alcotest.fail "no witness"
  | Some wit ->
      Alcotest.(check int) "offending key" 0 wit.Linearizability.key;
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

(* A failing report prints one failure per line, so a script can read it
   line by line: Format must wrap no entry. This is the report [twostep
   check -p paxos -e 2 -f 2] prints. *)
let test_report_one_failure_per_line () =
  let r = Twostep.check_task Baselines.Paxos.protocol ~n:5 ~e:2 ~f:2 ~delta ~values:[ 0; 1 ] () in
  let lines = String.split_on_char '\n' (Format.asprintf "%a" Twostep.pp_report r) in
  Alcotest.(check int) "a header, then one line per failure" (1 + List.length r.failures)
    (List.length lines);
  let whole line =
    String.starts_with ~prefix:"item " line
    &&
    match String.split_on_char '[' line with
    | [ head; pids; config ] ->
        String.ends_with ~suffix:": E=" head
        && String.ends_with ~suffix:"] config=" pids
        && String.contains config ']'
    | _ -> false
  in
  List.iter2
    (fun line failure ->
      Alcotest.(check bool) ("one whole item N: E=[..] config=[..] entry: " ^ line) true
        (whole line);
      Alcotest.(check string) "the entry of the next failure"
        (Format.asprintf "%a" Twostep.pp_failure failure)
        line)
    (List.tl lines) r.failures

(* A mutant of the paper's protocol that is unsafe in some delivery orders
   and two-step in others. p0 never decides by the protocol's rule: it
   decides the value of the first [Propose] it receives. Under [Favor q]
   that is q's value, decided at Δ, while the others decide by the rule. *)
module P0_decides_first_propose : Proto.Protocol.S = struct
  type state = { self : Pid.t; inner : Core.Rgs.state; heard : bool }

  type msg = Core.Rgs.msg

  let name = "rgs-task, p0 decides the first proposal it hears"

  let pp_msg = Core.Rgs.pp_msg

  let describe = name

  let min_n ~e ~f = Proto.Bounds.required Proto.Bounds.Task ~e ~f

  let make ~n ~e ~f ~delta =
    let rgs = Core.Rgs.make ~mode:Core.Rgs.Task ~n ~e ~f ~delta in
    let wrap self heard (inner, actions) =
      let kept = function Dsim.Automaton.Output _ -> self <> 0 | _ -> true in
      ({ self; inner; heard }, List.filter kept actions)
    in
    {
      Dsim.Automaton.init = (fun ~self ~n -> wrap self false (rgs.init ~self ~n));
      on_message =
        (fun s ~src msg ->
          let s', actions = wrap s.self s.heard (rgs.on_message s.inner ~src msg) in
          match msg with
          | Core.Rgs.Propose v when s.self = 0 && not s.heard ->
              ({ s' with heard = true }, actions @ [ Dsim.Automaton.Output v ])
          | _ -> (s', actions));
      on_input = (fun s v -> wrap s.self s.heard (rgs.on_input s.inner v));
      on_timer = (fun s id -> wrap s.self s.heard (rgs.on_timer s.inner id));
      state_copy = (fun s -> { s with inner = rgs.state_copy s.inner });
      state_fingerprint = None;
    }
end

let p0_mutant : Proto.Protocol.t = (module P0_decides_first_propose)

let replay protocol ~n ~e ~f (run : Twostep.run) =
  Scenario.run protocol ~n ~e ~f ~delta
    ~net:(Scenario.Sync (run.order :> [ `Arrival | `Random | `Favor of Pid.t ]))
    ~proposals:(List.map (fun (p, v) -> (0, p, v)) run.proposals)
    ~crashes:(Scenario.crash_at_start run.crashed) ~seed:run.seed ~disable_timers:true
    ~until:(3 * delta) ()

(* Every configuration of the mutant has a safe two-step run in some order,
   which is how it used to pass; the unsafe runs the search meets on the
   way now fail the check. *)
let test_unsafe_mutant_fails () =
  let n = 6 and e = 2 and f = 2 in
  let r = Twostep.check_task p0_mutant ~n ~e ~f ~delta ~values:[ 0; 1 ] () in
  let report = Format.asprintf "%a" Twostep.pp_report r in
  Alcotest.(check int) "every configuration has a two-step run" 0 (List.length r.failures);
  Alcotest.(check bool) ("unsafe runs met: " ^ report) true (r.unsafe_runs > 0);
  Alcotest.(check bool) "not e-two-step" false (Twostep.ok r);
  match r.first_unsafe with
  | None -> Alcotest.fail "no unsafe run kept"
  | Some run ->
      Alcotest.(check bool) "the kept run replays to an agreement violation" false
        (Safety.check (replay p0_mutant ~n ~e ~f run)).agreement

(* The two-step search without the run memo, as the checker ran before it
   had one: every candidate run is simulated, in the checker's order, and
   unsafe runs are tallied the way the checker tallies them. It also
   counts the distinct engine inputs it meets: runs under one crash set
   whose proposals agree once the crashed processes' values are blanked.
   That is the number of runs the memo must simulate, no fewer (a key
   that merges different runs) and no more (a repeat it missed). *)
type oracle = {
  configs : int;
  runs : int;
  distinct : int;
  unsafe : int;
  first_unsafe : Twostep.run option;
  failures : Twostep.failure list;
}

let oracle_check ~kind protocol ~n ~e ~f ~values =
  let configs = ref 0 and runs = ref 0 and unsafe = ref 0 in
  let first_unsafe = ref None and failures = ref [] in
  let seen = Hashtbl.create 1024 in
  let everyone v = List.map (fun p -> (0, p, v)) (Pid.all ~n) in
  List.iter
    (fun crashed ->
      let correct = List.filter (fun p -> not (List.mem p crashed)) (Pid.all ~n) in
      let each_correct item proposals_of =
        List.concat_map
          (fun v -> List.map (fun p -> (item, proposals_of v p, Some p)) correct)
          values
      in
      let items =
        match kind with
        | `Task ->
            List.map
              (fun vs -> (1, List.mapi (fun p v -> (0, p, v)) vs, None))
              (Stdext.Combinat.cartesian (List.init n (fun _ -> values)))
            @ each_correct 2 (fun v _ -> everyone v)
        | `Object ->
            each_correct 1 (fun v p -> [ (0, p, v) ])
            @ each_correct 2 (fun v _ -> List.map (fun q -> (0, q, v)) correct)
      in
      List.iter
        (fun (item, proposals, target) ->
          incr configs;
          let config = List.map (fun (_, p, v) -> (p, v)) proposals in
          let blanked =
            List.map (fun (t, p, v) -> (t, p, if List.mem p crashed then -1 else v)) proposals
          in
          let two_step (order, seed) =
            incr runs;
            Hashtbl.replace seen (crashed, blanked, order, seed) ();
            let run = { Twostep.crashed; proposals = config; order; seed } in
            let o = replay protocol ~n ~e ~f run in
            if not (Safety.safe o) then begin
              incr unsafe;
              if !first_unsafe = None then first_unsafe := Some run;
              false
            end
            else
              let early = Scenario.decided_by o ~deadline:(2 * delta) in
              match target with Some p -> List.mem p early | None -> early <> []
          in
          let favored = match target with Some p -> p :: correct | None -> correct in
          let orders =
            List.map (fun q -> (`Favor q, 0)) favored
            @ List.init 5 (fun i -> (`Random, i + 1))
          in
          if not (List.exists two_step orders) then
            failures := { Twostep.witness_e = crashed; config; target; item } :: !failures)
        items)
    (Stdext.Combinat.subsets_of_size e (Pid.all ~n));
  {
    configs = !configs;
    runs = !runs;
    distinct = Hashtbl.length seen;
    unsafe = !unsafe;
    first_unsafe = !first_unsafe;
    failures = List.rev !failures;
  }

(* The cases of the checker's memo against the oracle: the paper's protocol
   (task and object), failing Paxos, Fast Paxos, failing EPaxos (its
   seeded random orders run) and the unsafe mutant. Two cases pin how
   many runs the memo simulates. *)
let oracle_cases =
  [
    ("rgs-task n=6", `Task, Core.Rgs.task, 6, 2, 2, [ 0; 1 ], Some (480, 1_680));
    ("rgs-task n=3 |V|=3", `Task, Core.Rgs.task, 3, 1, 1, [ 0; 1; 2 ], None);
    ("rgs-object n=5", `Object, Core.Rgs.obj, 5, 2, 2, [ 0; 1 ], None);
    ("paxos n=5", `Task, Baselines.Paxos.protocol, 5, 2, 2, [ 0; 1 ], Some (388, 1_660));
    ("paxos n=5 |V|=3", `Task, Baselines.Paxos.protocol, 5, 2, 2, [ 0; 1; 2 ], None);
    ("fast-paxos task n=6", `Task, Baselines.Fast_paxos.protocol, 6, 2, 1, [ 0; 1 ], None);
    ("fast-paxos object n=5", `Object, Baselines.Fast_paxos.protocol, 5, 1, 2, [ 0; 1 ], None);
    ("epaxos task n=5", `Task, Epaxos.protocol, 5, 2, 2, [ 0; 1 ], None);
    ("epaxos object n=5", `Object, Epaxos.protocol, 5, 2, 2, [ 0; 1 ], None);
    ("unsafe mutant n=6", `Task, p0_mutant, 6, 2, 2, [ 0; 1 ], None);
  ]

let test_memo_matches_oracle (label, kind, protocol, n, e, f, values, pinned) =
  Alcotest.test_case label `Quick (fun () ->
      let check = match kind with `Task -> Twostep.check_task | `Object -> Twostep.check_object in
      let r = check protocol ~n ~e ~f ~delta ~values () in
      let o = oracle_check ~kind protocol ~n ~e ~f ~values in
      Alcotest.(check int) "configurations" o.configs r.checked_configs;
      Alcotest.(check int) "runs" o.runs r.checked_runs;
      Alcotest.(check int) "unsafe runs" o.unsafe r.unsafe_runs;
      Alcotest.(check bool) "first unsafe run" true (o.first_unsafe = r.first_unsafe);
      Alcotest.(check bool) "failures, in order" true (o.failures = r.failures);
      Alcotest.(check int) "simulated = distinct engine inputs" o.distinct r.simulated_runs;
      if o.distinct < o.runs then
        Alcotest.(check bool) "repeats are not simulated" true (r.simulated_runs < r.checked_runs);
      Option.iter
        (fun (simulated, runs) ->
          Alcotest.(check (pair int int)) "simulated of checked" (simulated, runs)
            (r.simulated_runs, r.checked_runs))
        pinned)

(* Explorer: every synchronous schedule of a small unanimous run decides
   correctly; conflicting schedules never violate safety. *)
let test_explore_exhaustive_agreement () =
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 2; 1; 0 ] in
  let r, report =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:4
      ~check:(fun o -> Safety.safe o)
      ()
  in
  Alcotest.(check int) "no violations" 0 r.violations;
  Alcotest.(check bool) "non-trivial exploration" true
    (report.Explore.Run_report.totals.Explore.Run_report.distinct_states > 10)

let test_explore_finds_seeded_bug () =
  (* Sanity: the explorer actually detects property violations — use a
     property that is false on runs where p0 decides, and check the
     explorer finds such a run for a unanimous configuration. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 5; 5 ] in
  let r =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
         ~check:(fun o -> Scenario.decided_value o 0 = None)
         ())
  in
  Alcotest.(check bool) "violation found" true (r.violations > 0)

let test_explore_budget_truncation () =
  let n = 4 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2; 3 ] in
  let r =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:4 ~budget:50
         ~check:(fun _ -> true) ())
  in
  Alcotest.(check bool) "budget respected" true (r.explored <= 50);
  Alcotest.(check bool) "truncation reported" true r.truncated;
  (* n = 6 at the task bound: the 3-round search holds 64 runs, so a
     budget of 40 stops it after exactly 40 of them. *)
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ~budget check =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3 ~budget
         ~check ())
  in
  let cut = go ~budget:40 (fun _ -> true) in
  Alcotest.(check int) "explored = budget" 40 cut.explored;
  Alcotest.(check bool) "truncated" true cut.truncated;
  Alcotest.(check int) "ample budget: whole tree" 64
    (go ~budget:1_000_000 (fun _ -> true)).explored;
  Alcotest.(check int) "budget binds" 20
    (go ~budget:20 (fun o -> Scenario.decided_value o 0 = None)).explored

let test_explore_crashes_mid_run () =
  (* Crash the fast decider right after its decision in every schedule;
     agreement must survive all of them. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let r =
    fst
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals
         ~crashes:[ ((2 * delta) + 1, 2) ]
         ~rounds:5 ~disable_timers:false
         ~check:(fun o -> Safety.safe o)
         ())
  in
  Alcotest.(check int) "no violations with mid-run crash" 0 r.violations

(* -- dedup and por: the search's pinned totals ---------------------------- *)

(* The configurations of the pinned-totals tests: (n, e, f, rounds,
   explored fault bounds), with pid i proposing n - 1 - i and a property
   that fails wherever p0 decides, under an ample budget. *)
let explore_totals ?(budget = 1_000_000) ?(check = fun o -> Scenario.decided_value o 0 = None)
    (n, e, f, rounds, faults) =
  let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i)) in
  (snd
     (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds ~budget ~faults
        ~check ()))
    .Explore.Run_report.totals

let drop_dup = { Explore.max_drops = 1; max_dups = 1 }

let totals_testable =
  Alcotest.testable
    (fun fmt (t : Explore.Run_report.totals) ->
      Format.fprintf fmt
        "explored %d, violations %d, truncated %b, depths [%s], fast %d, fault runs %d, \
         drops %d, dups %d, distinct %d, hits %d, pruned %d, por pruned %d, sleep hits %d"
        t.explored t.violations t.truncated
        (String.concat " " (Array.to_list (Array.map string_of_int t.depth_histogram)))
        t.fast_runs t.fault_runs t.drops t.dups t.distinct_states t.dedup_hits
        t.pruned_subtrees t.por_pruned t.sleep_hits)
    ( = )

(* Totals with no fault runs and no fast runs; [depths] is the depth
   histogram. *)
let clean_totals ~explored ~violations ~truncated ~depths ~distinct ~hits ~pruned ~por_pruned
    ~sleep_hits =
  {
    Explore.Run_report.explored;
    violations;
    truncated;
    depth_histogram = depths;
    fast_runs = 0;
    fault_runs = 0;
    drops = 0;
    dups = 0;
    distinct_states = distinct;
    dedup_hits = hits;
    pruned_subtrees = pruned;
    por_pruned;
    sleep_hits;
  }

let test_explore_dedup_totals_identical () =
  (* The n = 3 search, pinned: 17 distinct states, and every one of the
     13,820 revisits a visited set alone would meet (the brute-force
     oracle counts them) is an order combination the sleep set prunes
     first. Any change to the traversal order, the visited-set keys or
     the tallies moves these totals. *)
  Alcotest.check totals_testable "n=3: totals"
    {
      (clean_totals ~explored:8 ~violations:8 ~truncated:false ~depths:[| 0; 0; 8 |]
         ~distinct:17 ~hits:0 ~pruned:0 ~por_pruned:13820 ~sleep_hits:70)
      with
      fast_runs = 8;
    }
    (explore_totals (3, 1, 1, 2, Explore.no_faults))

let test_explore_por_timer_between_deliveries () =
  (* A timer firing between deliveries is NOT treated as commuting: trial
     execution re-runs the boundary timers inside every candidate order,
     so two orders only collapse when the full engine state — including
     timer effects — coincides. With timers enabled and a mid-run crash
     (the T3-flavoured configuration) no node admits a child key, so
     every trial is a clone; the search must still finish (truncated =
     false), and a property violated on every run that decides p0 must
     be violated on every kept run. test_explore_brute checks the same
     kind of search against its oracle. *)
  let n = 3 and e = 1 and f = 1 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
  let go check =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals
      ~crashes:[ ((2 * delta) + 1, 2) ]
      ~rounds:3 ~disable_timers:false ~budget:1_000_000 ~check ()
  in
  let r, report = go (fun o -> Safety.safe o) in
  let t = report.Explore.Run_report.totals in
  Alcotest.(check bool) "search exhaustive" false r.Explore.truncated;
  Alcotest.(check (pair int int)) "explored, distinct states" (256, 385)
    (r.Explore.explored, t.Explore.Run_report.distinct_states);
  Alcotest.(check int) "clean verdict" 0 r.Explore.violations;
  let r, _ = go (fun o -> Scenario.decided_value o 0 = None) in
  Alcotest.(check int) "every kept run still violates" r.Explore.explored
    r.Explore.violations;
  Alcotest.(check bool) "witness" true (r.Explore.first_violation <> None)

let test_explore_por_totals_identical () =
  (* The search's totals, POR counters included, pinned: the former
     multi-domain search counted these same totals at every domain
     count. The trials behind the POR counters and the child keys are
     the engine's single-destination trials wherever it offers them. *)
  List.iter
    (fun (name, cfg, expected) ->
      Alcotest.check totals_testable (name ^ ": totals") expected (explore_totals cfg))
    [
      ( "por + exact dedup",
        (6, 2, 2, 3, Explore.no_faults),
        clean_totals ~explored:64 ~violations:44 ~truncated:true ~depths:[| 0; 0; 20; 44 |]
          ~distinct:173 ~hits:0 ~pruned:0 ~por_pruned:508 ~sleep_hits:508 );
      ( "por + exact dedup n=4 drop+dup",
        (4, 1, 2, 2, drop_dup),
        {
          Explore.Run_report.explored = 616;
          violations = 356;
          truncated = true;
          depth_histogram = [| 0; 0; 616 |];
          fast_runs = 356;
          fault_runs = 600;
          drops = 536;
          dups = 480;
          distinct_states = 2785;
          dedup_hits = 10928;
          pruned_subtrees = 7448;
          por_pruned = 9128;
          sleep_hits = 7350;
        } );
    ];
  (* The benchmark's set-up search: explore-faults-n6 one size down, at
     n = 5 with e = 2, f = 1 (outside the model's e <= f, which the
     library accepts), checking safety. The benchmark gates only its
     explored and distinct counts. *)
  Alcotest.check totals_testable "benchmark set-up n=5 drop+dup: totals"
    {
      Explore.Run_report.explored = 2240;
      violations = 0;
      truncated = true;
      depth_histogram = [| 0; 0; 2240 |];
      fast_runs = 1708;
      fault_runs = 2208;
      drops = 2048;
      dups = 1840;
      distinct_states = 13185;
      dedup_hits = 58240;
      pruned_subtrees = 41568;
      por_pruned = 89342;
      sleep_hits = 65472;
    }
    (explore_totals ~budget:100_000 ~check:Safety.safe (5, 2, 1, 2, drop_dup))

let test_explore_por_n8_within_budget () =
  (* n = 8 at the task bound (e = 2, f = 4), three rounds: the search
     finishes the tree in 256 runs, far inside a 2,000-run budget.
     Batches of more than 4 messages still get only the two
     representative orders, so the perm-limit fallback, and not the
     budget, is what marks the search truncated. *)
  let n = 8 and e = 2 and f = 4 in
  let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun i -> n - 1 - i)) in
  let r, report =
    Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
      ~budget:2_000 ~check:Safety.safe ()
  in
  let sched = report.Explore.Run_report.sched in
  Alcotest.(check int) "explored" 256 r.Explore.explored;
  Alcotest.(check int) "distinct states" 601
    report.Explore.Run_report.totals.Explore.Run_report.distinct_states;
  Alcotest.(check (pair bool bool))
    "fallback, no budget cut" (true, false)
    (sched.Explore.Run_report.fallback, sched.Explore.Run_report.budget_cut);
  Alcotest.(check bool) "truncated" true r.Explore.truncated;
  Alcotest.(check int) "violations" 0 r.Explore.violations

(* -- telemetry: run reports and the fast-path report -------------------- *)

module Report = Checker.Report
module Metrics = Stdext.Metrics

(* Run_report totals, with and without a budget cut mid-branch, pinned.
   test_explore_brute checks the same search against its oracle, cut at
   40 runs and uncut. *)
let test_run_report_totals_identical () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let go ~budget =
    snd
      (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
         ~budget
         ~check:(fun o -> Scenario.decided_value o 0 = None)
         ())
  in
  List.iter
    (fun (budget, expected) ->
      Alcotest.check totals_testable
        (Printf.sprintf "budget=%d: totals" budget)
        expected (go ~budget).Explore.Run_report.totals)
    [
      ( 40,
        clean_totals ~explored:40 ~violations:29 ~truncated:true ~depths:[| 0; 0; 11; 29 |]
          ~distinct:110 ~hits:0 ~pruned:0 ~por_pruned:340 ~sleep_hits:340 );
      ( 2_000,
        clean_totals ~explored:64 ~violations:44 ~truncated:true ~depths:[| 0; 0; 20; 44 |]
          ~distinct:173 ~hits:0 ~pruned:0 ~por_pruned:508 ~sleep_hits:508 );
    ];
  (* Derived figures come out of the totals. *)
  let r = go ~budget:2_000 in
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
  Alcotest.(check int) "engine probe recorded too" r.Report.messages
    (Metrics.get_counter registry "engine.sent")

(* Property: the probe [Scenario.run] records into its registry agrees
   with the scenario outcome and with the counts recomputed from the
   trace of the same run, across protocols, network modes, seeds and
   random fault plans. The outcome takes its message and fault counts
   from the probe, so the trace is what cross-checks them; the run is
   repeated on a bare engine to read it. *)
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
      let proposals = Scenario.all_proposals_at_zero ~n [ 0; 1; 2 ] in
      let until = 10 * delta in
      let outcome =
        Scenario.run protocol ~n ~e ~f ~delta ~net ~proposals ~seed ~faults
          ~metrics:registry ~until ()
      in
      let sent, dropped, duplicated, timer_fires, decides =
        let (module P : Proto.Protocol.S) = protocol in
        let engine =
          Dsim.Engine.create ~automaton:(P.make ~n ~e ~f ~delta) ~n
            ~network:(Scenario.to_network ~delta net)
            ~seed ~inputs:proposals ~faults ()
        in
        ignore (Dsim.Engine.run ~until engine : Dsim.Engine.run_result);
        let trace = Dsim.Engine.trace engine in
        Dsim.Trace.
          ( message_count trace,
            drop_count trace,
            duplicate_count trace,
            timer_fire_count trace,
            decide_count trace )
      in
      let c name = Metrics.get_counter registry name in
      c "engine.sent" = outcome.Scenario.messages
      && c "engine.sent" = sent
      && c "engine.dropped" = outcome.Scenario.dropped
      && c "engine.dropped" = dropped
      && c "engine.duplicated" = outcome.Scenario.duplicated
      && c "engine.duplicated" = duplicated
      && c "engine.timer_fires" = timer_fires
      && c "engine.decides" = List.length outcome.Scenario.decisions
      && c "engine.decides" = decides
      && c "engine.crashes" = List.length outcome.Scenario.crashes)

(* The explorer records its visited set's counts once, when the search
   returns: [stateset.misses]/[stateset.hits] restate the report's
   [distinct_states]/[dedup_hits]. *)
let test_stateset_metrics_recorded () =
  let n = 6 and e = 2 and f = 2 in
  let proposals = Scenario.all_proposals_at_zero ~n [ 5; 4; 3; 2; 1; 0 ] in
  let metrics = Metrics.create () in
  let t =
    (snd
       (Explore.synchronous_report Core.Rgs.task ~n ~e ~f ~delta ~proposals ~rounds:3
          ~budget:2_000 ~faults:{ Explore.max_drops = 1; max_dups = 0 } ~metrics
          ~check:Safety.safe ()))
      .Explore.Run_report.totals
  in
  Alcotest.(check (pair int int))
    "misses, hits = distinct states, dedup hits"
    (t.Explore.Run_report.distinct_states, t.Explore.Run_report.dedup_hits)
    (Metrics.get_counter metrics "stateset.misses", Metrics.get_counter metrics "stateset.hits");
  Alcotest.(check bool) "exact + sleep: some hits" true (t.Explore.Run_report.dedup_hits > 0)

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
          Alcotest.test_case "per-key decomposition" `Quick test_wgl_per_key_decomposition;
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
          Alcotest.test_case "one failure per line" `Quick test_report_one_failure_per_line;
        ] );
      (* Labels no longer than "telemetry": alcotest pads every label to the
         longest one and truncates test names to fit, so a longer label
         would change how every long test name prints. *)
      ("memo", List.map test_memo_matches_oracle oracle_cases);
      ( "unsafe",
        [ Alcotest.test_case "an unsafe run fails the check" `Quick test_unsafe_mutant_fails ] );
      ( "explore",
        [
          Alcotest.test_case "exhaustive agreement" `Quick test_explore_exhaustive_agreement;
          Alcotest.test_case "detects violations" `Quick test_explore_finds_seeded_bug;
          Alcotest.test_case "budget truncation" `Quick test_explore_budget_truncation;
          Alcotest.test_case "mid-run crashes" `Quick test_explore_crashes_mid_run;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "totals identical across strategies" `Quick
            test_explore_dedup_totals_identical;
        ] );
      ( "por",
        [
          Alcotest.test_case "timers defeat commutation soundly" `Quick
            test_explore_por_timer_between_deliveries;
          Alcotest.test_case "totals identical across strategies" `Quick
            test_explore_por_totals_identical;
          Alcotest.test_case "n=8 tree within budget" `Quick
            test_explore_por_n8_within_budget;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "run report totals identical across modes" `Quick
            test_run_report_totals_identical;
          Alcotest.test_case "fast-path rates at the bounds" `Quick
            test_report_fast_path_rates;
          QCheck_alcotest.to_alcotest metrics_match_trace_property;
          Alcotest.test_case "visited-set counts recorded" `Quick
            test_stateset_metrics_recorded;
        ] );
    ]
