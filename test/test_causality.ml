(* Causal span tracing: store invariants, non-perturbation, per-protocol
   golden span digests, and the paper's two-step cross-check — on a
   conflict-free run every commit's measured critical path is exactly two
   message delays for the two-step protocols, while Paxos behind a
   non-leader proxy pays at least three.

   Regenerate the digests (only when the span schema changes) with:
     GOLDEN_PRINT=1 dune exec test/test_causality.exe 2>/dev/null *)

module C = Dsim.Causality
module Span = Stdext.Span
module Json = Stdext.Json

let delta = 100

(* (name, protocol, n, e, f) — the golden-trace grid of test_engine_golden. *)
let protocols =
  [
    ("rgs-task", Core.Rgs.task, 6, 2, 2);
    ("rgs-object", Core.Rgs.obj, 5, 2, 2);
    ("paxos", Baselines.Paxos.protocol, 5, 0, 2);
    ("fast-paxos", Baselines.Fast_paxos.protocol, 7, 2, 2);
  ]

(* Run one engine to quiescence/4000 and return its trace as JSONL (the
   empty string when [record_trace] is off) — the engine's protocol types
   stay local to this function. *)
let run_engine (module P : Proto.Protocol.S) ~n ~e ~f ~seed ~causality ~record_trace =
  let automaton = P.make ~n ~e ~f ~delta in
  let network : Dsim.Network.t = Uniform { min_delay = 30; max_delay = 170 } in
  let inputs = List.init n (fun i -> (0, i, n - 1 - i)) in
  let engine =
    Dsim.Engine.create ~automaton ~n ~network ~seed ~record_trace ~inputs ?causality ()
  in
  ignore (Dsim.Engine.run ~until:4000 engine : Dsim.Engine.run_result);
  if not record_trace then ""
  else
    let enc_msg m = Json.String (Format.asprintf "%a" P.pp_msg m) in
    let enc_v v = Json.Int v in
    Format.asprintf "%a"
      (Dsim.Trace.to_jsonl ~msg:enc_msg ~input:enc_v ~output:enc_v)
      (Dsim.Engine.trace engine)

(* -- store invariants ---------------------------------------------------- *)

(* Every span's parent precedes it; every delivery/timer span has a parent
   (the event that sent the message / armed the timer was itself recorded). *)
let check_store_invariants store =
  let s = C.store store in
  for id = 0 to C.length store - 1 do
    let p = Span.parent s id in
    Alcotest.(check bool)
      (Printf.sprintf "span %d parent %d in [-1, id)" id p)
      true
      (p >= -1 && p < id);
    (match C.kind_of store id with
    | C.Deliver | C.Timer | C.Output ->
        Alcotest.(check bool) (Printf.sprintf "span %d has a parent" id) true (p >= 0)
    | C.Init | C.Input | C.Crash -> ());
    Alcotest.(check bool)
      (Printf.sprintf "span %d start <= finish" id)
      true
      (Span.start s id <= Span.finish s id);
    (* [path] terminates and ends at this span (acyclicity). *)
    match List.rev (C.path store id) with
    | last :: _ -> Alcotest.(check int) "path ends at span" id last
    | [] -> Alcotest.fail "empty path"
  done

let test_invariants_engine () =
  List.iter
    (fun (_, proto, n, e, f) ->
      let store = C.create () in
      let (module P : Proto.Protocol.S) = proto in
      let causality = C.spec ~input:Fun.id ~output:Fun.id store in
      ignore
        (run_engine (module P) ~n ~e ~f ~seed:7 ~causality:(Some causality)
           ~record_trace:false
          : string);
      Alcotest.(check bool) "spans recorded" true (C.length store > 0);
      check_store_invariants store)
    protocols

(* -- non-perturbation ----------------------------------------------------- *)

(* The same run with and without a tracer produces byte-identical traces:
   recording rides entirely outside the schedule and the RNG streams. *)
let test_byte_identity () =
  List.iter
    (fun (name, proto, n, e, f) ->
      let (module P : Proto.Protocol.S) = proto in
      let plain = run_engine (module P) ~n ~e ~f ~seed:3 ~causality:None ~record_trace:true in
      let store = C.create () in
      let causality = C.spec ~input:Fun.id ~output:Fun.id store in
      let traced =
        run_engine (module P) ~n ~e ~f ~seed:3 ~causality:(Some causality)
          ~record_trace:true
      in
      Alcotest.(check bool) (name ^ ": trace non-empty") true (String.length plain > 0);
      Alcotest.(check bool) (name ^ ": spans recorded") true (C.length store > 0);
      Alcotest.(check string) (name ^ ": traced run leaves the trace unchanged") plain traced)
    protocols

(* -- golden span digests -------------------------------------------------- *)

let span_digest proto ~n ~e ~f =
  let (module P : Proto.Protocol.S) = proto in
  let buf = Buffer.create 4096 in
  List.iter
    (fun seed ->
      let store = C.create () in
      let causality = C.spec ~input:Fun.id ~output:Fun.id store in
      ignore
        (run_engine (module P) ~n ~e ~f ~seed ~causality:(Some causality)
           ~record_trace:false
          : string);
      Buffer.add_string buf (Stdext.Rle.encode (C.to_table store)))
    [ 1; 2; 3 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden =
  [
    ("rgs-task", "79b0b158140dc99946c1ef2c8a335970");
    ("rgs-object", "80feb2c4d222d2f89b4d4f1ef0eb9223");
    ("paxos", "3235541ae8190866fe3ab15126f82611");
    ("fast-paxos", "5ec4ad56c8b94f3e80af6c6c8196bcc6");
  ]

let test_golden () =
  List.iter
    (fun (name, proto, n, e, f) ->
      match List.assoc_opt name golden with
      | None -> Alcotest.failf "no golden span digest for %s" name
      | Some expect ->
          Alcotest.(check string) name expect (span_digest proto ~n ~e ~f))
    protocols

(* -- SMR critical paths --------------------------------------------------- *)

let fleet_run ~proto ~n ~e ~f ~clients ~seed =
  let store = C.create () in
  let result =
    Workload.Fleet.run ~protocol:proto ~e ~f ~n ~topology:Workload.Topology.planet5
      ~seed ~causality:store
      {
        Workload.Fleet.clients;
        arrival = Workload.Fleet.Closed { think = 100 };
        keys = 16;
        hot_rate = 0.0;
        read_rate = 0.0;
        horizon = 4000;
        tick = 50;
      }
  in
  (result, store)

(* Conflict-free (single closed-loop client) runs commit on the fast path
   every time: measured delay_steps = 2, matching Checker.Report's
   conflict-free fast rate of 1.0 for the two-step protocols. *)
let test_conflict_free_two_step () =
  List.iter
    (fun (name, proto, n, e, f) ->
      let result, store = fleet_run ~proto ~n ~e ~f ~clients:1 ~seed:11 in
      Alcotest.(check bool) (name ^ ": commands completed") true (result.completed > 0);
      Alcotest.(check bool) (name ^ ": replicas converged") true result.converged;
      check_store_invariants store;
      let paths = Smr.Spans.command_paths store in
      Alcotest.(check bool) (name ^ ": paths reconstructed") true (List.length paths > 0);
      let a = Smr.Spans.attribution paths in
      Alcotest.(check bool) (name ^ ": commits attributed") true (a.commits > 0);
      Alcotest.(check int) (name ^ ": every commit two-step") a.commits a.two_step;
      List.iter
        (fun (steps, _) -> Alcotest.(check int) (name ^ ": delay_steps") 2 steps)
        a.steps_hist)
    [
      ("rgs-task", Core.Rgs.task, 6, 2, 2);
      ("rgs-object", Core.Rgs.obj, 5, 2, 2);
      ("fast-paxos", Baselines.Fast_paxos.protocol, 7, 2, 2);
    ]

(* Paxos behind a non-leader proxy pays the submit relay and the learn
   hop: client 1's commands (proxy 1) can never measure two-step, while
   client 0's (the ballot-0 leader) can. *)
let test_paxos_leader_only () =
  let result, store =
    fleet_run ~proto:Baselines.Paxos.protocol ~n:5 ~e:0 ~f:2 ~clients:2 ~seed:11
  in
  Alcotest.(check bool) "paxos: commands completed" true (result.completed > 0);
  let paths = Smr.Spans.command_paths store in
  let non_leader = List.filter (fun p -> p.Smr.Spans.proxy <> 0) paths in
  Alcotest.(check bool) "paxos: non-leader commits exist" true (List.length non_leader > 0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "paxos proxy %d: delay_steps %d >= 3" p.Smr.Spans.proxy
           p.Smr.Spans.delay_steps)
        true
        (p.Smr.Spans.delay_steps >= 3))
    non_leader;
  match Smr.Spans.predicate "paxos" with
  | Some (Smr.Spans.Leader_only 0) -> ()
  | _ -> Alcotest.fail "paxos predicate should be Leader_only 0"

(* Path accounting: total latency decomposes into wire legs plus
   queueing, and legs are causally ordered. *)
let test_path_accounting () =
  let _, store = fleet_run ~proto:Core.Rgs.task ~n:6 ~e:2 ~f:2 ~clients:8 ~seed:5 in
  let paths = Smr.Spans.command_paths store in
  Alcotest.(check bool) "paths exist" true (List.length paths > 0);
  List.iter
    (fun (p : Smr.Spans.path) ->
      Alcotest.(check bool) "apply after submit" true (p.apply >= p.submit);
      Alcotest.(check bool) "queue_ms >= 0" true (p.queue_ms >= 0);
      Alcotest.(check int) "delay_steps counts legs" (List.length p.legs) p.delay_steps;
      ignore
        (List.fold_left
           (fun prev (l : Smr.Spans.leg) ->
             Alcotest.(check bool) "leg durations non-negative" true
               (l.delivered_at >= l.sent_at);
             Alcotest.(check bool) "legs causally ordered" true (l.sent_at >= prev);
             l.delivered_at)
           0 p.legs))
    paths

(* -- qcheck: invariants over random fleet configurations ------------------ *)

let test_qcheck_invariants =
  QCheck.Test.make ~name:"span store invariants over random fleets" ~count:12
    QCheck.(
      quad (int_range 1 10) (int_range 1 4) (int_range 1 4) (int_range 0 1000))
    (fun (clients, pipeline, batch_max, seed) ->
      let store = C.create () in
      let result =
        Workload.Fleet.run ~protocol:Core.Rgs.task ~e:2 ~f:2 ~n:6
          ~topology:Workload.Topology.planet5 ~seed ~pipeline ~batch_max
          ~causality:store
          {
            Workload.Fleet.clients;
            arrival = Workload.Fleet.Closed { think = 20 };
            keys = 4;
            hot_rate = 0.5;
            read_rate = 0.3;
            horizon = 2500;
            tick = 50;
          }
      in
      check_store_invariants store;
      let paths = Smr.Spans.command_paths store in
      if result.completed > 0 then List.length paths > 0 else true)

(* -- Chrome export -------------------------------------------------------- *)

let test_chrome_export () =
  let _, store = fleet_run ~proto:Core.Rgs.task ~n:6 ~e:2 ~f:2 ~clients:2 ~seed:1 in
  let out = Format.asprintf "%a" C.to_chrome store in
  match Json.parse out with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok json -> (
      match Json.member "traceEvents" json with
      | Some (Json.List events) ->
          Alcotest.(check bool) "has events" true (List.length events > 0);
          let has ph =
            List.exists
              (fun ev ->
                match Json.member "ph" ev with
                | Some (Json.String s) -> s = ph
                | _ -> false)
              events
          in
          Alcotest.(check bool) "has complete events" true (has "X");
          Alcotest.(check bool) "has flow starts" true (has "s");
          Alcotest.(check bool) "has flow finishes" true (has "f")
      | _ -> Alcotest.fail "no traceEvents array")

let () =
  match Sys.getenv_opt "GOLDEN_PRINT" with
  | Some _ ->
      List.iter
        (fun (name, proto, n, e, f) ->
          Printf.printf "    (%S, %S);\n" name (span_digest proto ~n ~e ~f))
        protocols
  | None ->
      Alcotest.run "causality"
        [
          ( "store",
            [
              Alcotest.test_case "invariants (engine runs)" `Quick test_invariants_engine;
              Alcotest.test_case "traced runs leave traces unchanged" `Quick
                test_byte_identity;
              Alcotest.test_case "golden span digests" `Quick test_golden;
              QCheck_alcotest.to_alcotest test_qcheck_invariants;
            ] );
          ( "smr paths",
            [
              Alcotest.test_case "conflict-free runs are 100%% two-step" `Quick
                test_conflict_free_two_step;
              Alcotest.test_case "paxos is two-step only at the leader" `Quick
                test_paxos_leader_only;
              Alcotest.test_case "path accounting" `Quick test_path_accounting;
              Alcotest.test_case "chrome trace_event export" `Quick test_chrome_export;
            ] );
        ]
