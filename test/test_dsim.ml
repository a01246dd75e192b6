(* Tests for the simulation substrate: virtual time, the automaton/action
   layer, the network models, and the engine's event semantics (event
   ordering at equal instants, crashes, timers, manual scheduling,
   determinism). *)

module Pid = Dsim.Pid
module Time = Dsim.Time
module Automaton = Dsim.Automaton
module Network = Dsim.Network
module Engine = Dsim.Engine
module Trace = Dsim.Trace

(* A tiny echo protocol: on input [v], broadcast it; on receiving a value,
   output (src, v). Lets us observe deliveries as outputs. *)
type echo_state = { self : Pid.t }

let echo : (echo_state, int, int, Pid.t * int) Automaton.t =
  {
    init = (fun ~self ~n:_ -> ({ self }, []));
    on_message = (fun s ~src v -> (s, [ Automaton.Output (src, v) ]));
    on_input = (fun s v -> (s, [ Automaton.Broadcast v ]));
    on_timer = Automaton.no_timer;
    state_copy = Fun.id;
    state_fingerprint = None;
  }

let sync_net = Network.Sync_rounds { delta = 10; order = Network.Arrival }

let test_time_rounds () =
  Alcotest.(check int) "t=0 is round 1" 1 (Time.round_of ~delta:10 0);
  Alcotest.(check int) "t=9 is round 1" 1 (Time.round_of ~delta:10 9);
  Alcotest.(check int) "t=10 is round 2" 2 (Time.round_of ~delta:10 10);
  Alcotest.(check int) "round 3 starts at 20" 20 (Time.round_start ~delta:10 3)

let test_pid_helpers () =
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Pid.all ~n:3);
  Alcotest.(check (list int)) "others" [ 0; 2 ] (Pid.others ~n:3 1)

let test_sync_delivery_at_boundary () =
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net ~inputs:[ (0, 0, 42) ] ()
  in
  ignore (Engine.run engine);
  let outputs = Engine.outputs engine in
  Alcotest.(check int) "both peers deliver" 2 (List.length outputs);
  List.iter (fun (t, _, _) -> Alcotest.(check int) "at boundary" 10 t) outputs

let test_sync_mid_round_send () =
  (* A message sent at t=3 (mid round 1) is still delivered at t=10. *)
  let engine =
    Engine.create ~automaton:echo ~n:2 ~network:sync_net ~inputs:[ (3, 0, 1) ] ()
  in
  ignore (Engine.run engine);
  match Engine.outputs engine with
  | [ (t, p, (src, v)) ] ->
      Alcotest.(check int) "boundary" 10 t;
      Alcotest.(check int) "recipient" 1 p;
      Alcotest.(check int) "source" 0 src;
      Alcotest.(check int) "payload" 1 v
  | other -> Alcotest.failf "expected one delivery, got %d" (List.length other)

let test_crash_at_start_takes_no_step () =
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net
      ~inputs:[ (0, 0, 7) ]
      ~crashes:[ (0, 0) ] ()
  in
  ignore (Engine.run engine);
  Alcotest.(check int) "crashed proposer sends nothing" 0 (List.length (Engine.outputs engine));
  Alcotest.(check bool) "flag set" true (Engine.crashed engine 0);
  Alcotest.(check (list int)) "correct pids" [ 1; 2 ] (Engine.correct_pids engine)

let test_crash_before_delivery () =
  (* p1 crashes at the delivery boundary: crashes process first, so the
     message is dropped. *)
  let engine =
    Engine.create ~automaton:echo ~n:2 ~network:sync_net
      ~inputs:[ (0, 0, 7) ]
      ~crashes:[ (10, 1) ] ()
  in
  ignore (Engine.run engine);
  Alcotest.(check int) "no delivery to crashed" 0 (List.length (Engine.outputs engine))

let test_favor_order () =
  (* Three proposers broadcast at t=0; with Favor 2 every recipient handles
     p2's message first. *)
  let first_received = Hashtbl.create 4 in
  let recorder : (echo_state, int, int, Pid.t * int) Automaton.t =
    {
      echo with
      on_message =
        (fun s ~src v ->
          if not (Hashtbl.mem first_received s.self) then
            Hashtbl.replace first_received s.self src;
          (s, [ Automaton.Output (src, v) ]));
    }
  in
  let engine =
    Engine.create ~automaton:recorder ~n:3
      ~network:(Network.Sync_rounds { delta = 10; order = Network.Favor 2 })
      ~inputs:[ (0, 0, 100); (0, 1, 101); (0, 2, 102) ]
      ()
  in
  ignore (Engine.run engine);
  Alcotest.(check int) "p0 heard p2 first" 2 (Hashtbl.find first_received 0);
  Alcotest.(check int) "p1 heard p2 first" 2 (Hashtbl.find first_received 1)

let test_timer_fires_and_cancel () =
  let fired = ref [] in
  let auto : (unit, int, int, unit) Automaton.t =
    {
      init =
        (fun ~self ~n:_ ->
          if Pid.equal self 0 then
            ( (),
              [
                Automaton.Set_timer { id = 1; after = 5 };
                Automaton.Set_timer { id = 2; after = 7 };
                Automaton.Cancel_timer 2;
              ] )
          else ((), []));
      on_message = (fun s ~src:_ _ -> (s, []));
      on_input = Automaton.no_input;
      on_timer =
        (fun s id ->
          fired := id :: !fired;
          (s, []));
      state_copy = Fun.id;
      state_fingerprint = None;
    }
  in
  let engine = Engine.create ~automaton:auto ~n:2 ~network:sync_net () in
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "only timer 1 fired" [ 1 ] !fired

let test_timer_rearm_replaces () =
  let fired = ref 0 in
  let auto : (unit, int, int, unit) Automaton.t =
    {
      init =
        (fun ~self:_ ~n:_ ->
          ( (),
            [
              Automaton.Set_timer { id = 1; after = 5 };
              Automaton.Set_timer { id = 1; after = 9 };
            ] ));
      on_message = (fun s ~src:_ _ -> (s, []));
      on_input = Automaton.no_input;
      on_timer =
        (fun s _ ->
          incr fired;
          (s, []));
      state_copy = Fun.id;
      state_fingerprint = None;
    }
  in
  let engine = Engine.create ~automaton:auto ~n:1 ~network:sync_net () in
  ignore (Engine.run engine);
  Alcotest.(check int) "re-armed timer fires once" 1 !fired

(* A crash or an input naming no process is refused where it is
   scheduled, not when it comes due. *)
let test_bad_pids_rejected () =
  let create ?(inputs = []) ?(crashes = []) () =
    ignore (Engine.create ~automaton:echo ~n:3 ~network:sync_net ~inputs ~crashes ())
  in
  Alcotest.check_raises "crash pid 3"
    (Invalid_argument "Engine.create: crash pid 3 outside [0, 3)")
    (create ~crashes:[ (10, 3) ]);
  Alcotest.check_raises "input pid -1"
    (Invalid_argument "Engine.create: input pid -1 outside [0, 3)")
    (create ~inputs:[ (0, -1, 7) ]);
  let engine = Engine.create ~automaton:echo ~n:3 ~network:sync_net () in
  Alcotest.check_raises "scheduled crash pid 5"
    (Invalid_argument "Engine.schedule_crash: crash pid 5 outside [0, 3)") (fun () ->
      Engine.schedule_crash engine ~at:5 5);
  Alcotest.check_raises "scheduled input pid 3"
    (Invalid_argument "Engine.schedule_input: input pid 3 outside [0, 3)") (fun () ->
      Engine.schedule_input engine ~at:5 3 1);
  create ~inputs:[ (0, 2, 7) ] ~crashes:[ (10, 0) ] ()

let test_run_until_resumable () =
  let engine =
    Engine.create ~automaton:echo ~n:2 ~network:sync_net
      ~inputs:[ (0, 0, 1); (25, 0, 2) ]
      ()
  in
  let r1 = Engine.run ~until:15 engine in
  Alcotest.(check bool) "stopped early" true (r1 = Engine.Reached_until);
  Alcotest.(check int) "one delivery so far" 1 (List.length (Engine.outputs engine));
  let r2 = Engine.run engine in
  Alcotest.(check bool) "drained" true (r2 = Engine.Quiescent);
  Alcotest.(check int) "second delivery" 2 (List.length (Engine.outputs engine))

let test_partial_sync_bounds () =
  (* After GST every delay is within (0, delta]; before GST it is bounded
     by gst + delta. *)
  let delta = 10 and gst = 50 in
  let engine =
    Engine.create ~automaton:echo ~n:2 ~seed:11
      ~network:(Network.Partial_sync { delta; gst; max_pre_gst = 200 })
      ~inputs:(List.init 20 (fun i -> (i * 7, 0, i)))
      ()
  in
  ignore (Engine.run engine);
  let trace = Engine.trace engine in
  List.iter
    (function
      | Trace.Delivered { time; sent_at; _ } ->
          Alcotest.(check bool) "causal" true (time > sent_at);
          let bound = if sent_at >= gst then sent_at + delta else gst + delta in
          Alcotest.(check bool) "within bound" true (time <= bound)
      | _ -> ())
    trace

let test_wan_latency () =
  let latency ~src ~dst = if src = dst then 1 else 30 in
  let engine =
    Engine.create ~automaton:echo ~n:2
      ~network:(Network.Wan { latency; jitter = 0 })
      ~inputs:[ (0, 0, 5) ]
      ()
  in
  ignore (Engine.run engine);
  match Engine.outputs engine with
  | [ (t, _, _) ] -> Alcotest.(check int) "matrix delay" 30 t
  | _ -> Alcotest.fail "expected one delivery"

let test_manual_pending_and_deliver () =
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:Network.Manual ~inputs:[ (0, 0, 9) ] ()
  in
  ignore (Engine.run engine);
  let pending = Engine.pending engine in
  Alcotest.(check int) "two pending broadcasts" 2 (List.length pending);
  Alcotest.(check int) "no outputs yet" 0 (List.length (Engine.outputs engine));
  (match pending with
  | [ a; b ] ->
      Engine.deliver_pending engine ~id:a.id ~at:5;
      Engine.drop_pending engine ~id:b.id
  | _ -> Alcotest.fail "pending shape");
  ignore (Engine.run engine);
  Alcotest.(check int) "exactly one delivered" 1 (List.length (Engine.outputs engine));
  Alcotest.(check int) "pool drained" 0 (List.length (Engine.pending engine))

let test_pending_slot_reuse () =
  (* Pending ids are pool slots recycled LIFO: dropping a message frees
     its slot for the next allocation, and send order (reported by
     [pending]) follows send-order stamps, not id order. *)
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:Network.Manual ~inputs:[ (0, 0, 9) ] ()
  in
  ignore (Engine.run engine);
  let a, b =
    match Engine.pending engine with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "expected two pending broadcasts"
  in
  Alcotest.(check int) "pending_count" 2 (Engine.pending_count engine);
  Engine.drop_pending engine ~id:a.id;
  Alcotest.(check int) "one live after drop" 1 (Engine.pending_count engine);
  let copy_id = Engine.duplicate_pending engine ~id:b.id in
  Alcotest.(check int) "dropped slot reused for the copy" a.id copy_id;
  (match Engine.pending engine with
  | [ first; second ] ->
      Alcotest.(check int) "original first in send order" b.id first.id;
      Alcotest.(check int) "copy last despite smaller id" copy_id second.id;
      Alcotest.(check int) "copy keeps sent_at" b.sent_at second.sent_at
  | _ -> Alcotest.fail "expected two pending after duplication");
  (* A dropped id is no longer addressable until reallocated. *)
  Engine.drop_pending engine ~id:copy_id;
  Alcotest.check_raises "stale id raises" Not_found (fun () ->
      ignore (Engine.duplicate_pending engine ~id:copy_id : int))

let test_pending_fold_iter_agree () =
  let engine =
    Engine.create ~automaton:echo ~n:4 ~network:Network.Manual
      ~inputs:[ (0, 0, 1); (0, 2, 7) ] ()
  in
  ignore (Engine.run engine);
  let records = Engine.pending engine in
  Alcotest.(check int) "six pending broadcasts" 6 (List.length records);
  let of_record (p : _ Engine.pending) = (p.id, p.src, p.dst, p.msg, p.sent_at) in
  let via_fold =
    List.rev
      (Engine.fold_pending engine ~init:[] ~f:(fun acc ~id ~src ~dst ~msg ~sent_at ->
           (id, src, dst, msg, sent_at) :: acc))
  in
  let via_iter = ref [] in
  Engine.iter_pending engine (fun ~id ~src ~dst ~msg ~sent_at ->
      via_iter := (id, src, dst, msg, sent_at) :: !via_iter);
  Alcotest.(check bool) "fold matches pending" true (via_fold = List.map of_record records);
  Alcotest.(check bool) "iter matches fold" true (List.rev !via_iter = via_fold)

let test_determinism () =
  let run () =
    let engine =
      Engine.create ~automaton:echo ~n:4 ~seed:99
        ~network:(Network.Uniform { min_delay = 1; max_delay = 50 })
        ~inputs:[ (0, 0, 1); (0, 1, 2); (3, 2, 3) ]
        ()
    in
    ignore (Engine.run engine);
    Engine.outputs engine
  in
  Alcotest.(check bool) "identical runs" true (run () = run ())

let test_step_budget () =
  (* A self-perpetuating timer must be stopped by the step budget. *)
  let auto : (unit, int, int, unit) Automaton.t =
    {
      init = (fun ~self:_ ~n:_ -> ((), [ Automaton.Set_timer { id = 1; after = 1 } ]));
      on_message = (fun s ~src:_ _ -> (s, []));
      on_input = Automaton.no_input;
      on_timer = (fun s _ -> (s, [ Automaton.Set_timer { id = 1; after = 1 } ]));
      state_copy = Fun.id;
      state_fingerprint = None;
    }
  in
  let engine = Engine.create ~automaton:auto ~n:1 ~network:sync_net ~max_steps:100 () in
  Alcotest.(check bool) "budget exhausts" true (Engine.run engine = Engine.Step_budget_exhausted)

let test_clone_independent () =
  (* Clone mid-run with pending messages; divergent futures must not leak
     between the clone and the original. *)
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:Network.Manual ~inputs:[ (0, 0, 9) ] ()
  in
  ignore (Engine.run engine);
  Alcotest.(check int) "two pending" 2 (List.length (Engine.pending engine));
  let copy = Engine.clone engine in
  (* Deliver everything in the clone. *)
  List.iter
    (fun (m : _ Engine.pending) -> Engine.deliver_pending copy ~id:m.id ~at:5)
    (Engine.pending copy);
  ignore (Engine.run copy);
  Alcotest.(check int) "clone delivered both" 2 (List.length (Engine.outputs copy));
  Alcotest.(check int) "original outputs untouched" 0 (List.length (Engine.outputs engine));
  Alcotest.(check int) "original pool untouched" 2 (List.length (Engine.pending engine));
  (* The original can still take a different future. *)
  (match Engine.pending engine with
  | a :: rest ->
      Engine.deliver_pending engine ~id:a.id ~at:7;
      List.iter
        (fun (m : _ Engine.pending) -> Engine.drop_pending engine ~id:m.id)
        rest
  | [] -> Alcotest.fail "pending vanished");
  ignore (Engine.run engine);
  Alcotest.(check int) "original delivered one" 1 (List.length (Engine.outputs engine))

let test_clone_same_future () =
  (* With a stochastic network, a clone continued identically must produce
     the identical run: the RNG stream is copied, not shared. *)
  let engine =
    Engine.create ~automaton:echo ~n:4 ~seed:13
      ~network:(Network.Uniform { min_delay = 1; max_delay = 40 })
      ~inputs:[ (0, 0, 1); (10, 1, 2); (20, 2, 3) ]
      ()
  in
  ignore (Engine.run ~until:15 engine);
  let copy = Engine.clone engine in
  ignore (Engine.run engine);
  ignore (Engine.run copy);
  Alcotest.(check bool)
    "same outputs" true
    (Engine.outputs engine = Engine.outputs copy)

let test_snapshot_restore () =
  (* A clone that is never stepped is a snapshot: it is unaffected by the
     original running on, and cloning it again restores the capture any
     number of times. *)
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net ~inputs:[ (0, 0, 4); (15, 1, 5) ] ()
  in
  ignore (Engine.run ~until:12 engine);
  let snap = Engine.clone engine in
  ignore (Engine.run engine);
  let final = Engine.outputs engine in
  (* Two restores from the same snapshot reach the same final outputs,
     independently of each other and of the original. *)
  let a = Engine.clone snap and b = Engine.clone snap in
  ignore (Engine.run a);
  Alcotest.(check bool) "restore a replays" true (Engine.outputs a = final);
  ignore (Engine.run b);
  Alcotest.(check bool) "restore b replays" true (Engine.outputs b = final)

let test_uniform_validates_bounds () =
  let run_with ~min_delay ~max_delay =
    let engine =
      Engine.create ~automaton:echo ~n:2
        ~network:(Network.Uniform { min_delay; max_delay })
        ~inputs:[ (0, 0, 1) ]
        ()
    in
    ignore (Engine.run engine)
  in
  let expected = Invalid_argument "Network.Uniform: need 0 < min_delay <= max_delay" in
  Alcotest.check_raises "zero min_delay" expected (fun () ->
      run_with ~min_delay:0 ~max_delay:10);
  Alcotest.check_raises "negative min_delay" expected (fun () ->
      run_with ~min_delay:(-3) ~max_delay:10);
  Alcotest.check_raises "inverted bounds" expected (fun () ->
      run_with ~min_delay:10 ~max_delay:2);
  (* min = max is a valid degenerate (constant-delay) case. *)
  run_with ~min_delay:5 ~max_delay:5

(* -- fault injection ---------------------------------------------------- *)

(* The faults injected so far, by the plan or via drop/duplicate_pending. *)
let fault_counts engine =
  let p = Engine.probe engine in
  (p.Engine.Probe.dropped, p.Engine.Probe.duplicated)

let test_fault_script_drop () =
  let engine =
    Engine.create ~automaton:echo ~n:2 ~network:sync_net ~inputs:[ (0, 0, 1) ]
      ~faults:(Network.Fault.script [ (0, Network.Fault.Drop) ])
      ()
  in
  ignore (Engine.run engine);
  Alcotest.(check int) "message lost" 0 (List.length (Engine.outputs engine));
  let trace = Engine.trace engine in
  Alcotest.(check int) "sent recorded" 1 (Trace.message_count trace);
  Alcotest.(check int) "drop recorded" 1 (Trace.drop_count trace);
  Alcotest.(check (pair int int)) "fault counts" (1, 0) (fault_counts engine)

let test_fault_script_duplicate () =
  (* The copy is re-timed as if sent [extra_delay] later: +2 stays inside
     round 1 (both copies land on the t=10 boundary), +12 lands the copy on
     the next boundary. *)
  let run extra_delay =
    let engine =
      Engine.create ~automaton:echo ~n:2 ~network:sync_net ~inputs:[ (0, 0, 1) ]
        ~faults:(Network.Fault.script [ (0, Network.Fault.Duplicate { extra_delay }) ])
        ()
    in
    ignore (Engine.run engine);
    (Engine.outputs engine, Trace.duplicate_count (Engine.trace engine))
  in
  (match run 2 with
  | [ (10, 1, (0, 1)); (10, 1, (0, 1)) ], 1 -> ()
  | outs, _ -> Alcotest.failf "same-round dup: unexpected %d outputs" (List.length outs));
  match run 12 with
  | [ (10, 1, (0, 1)); (20, 1, (0, 1)) ], 1 -> ()
  | outs, _ -> Alcotest.failf "next-round dup: unexpected %d outputs" (List.length outs)

let test_fault_script_crash_sender () =
  (* p0 broadcasts to p1 then p2; a Crash_sender on the first send delivers
     that message but suppresses the rest of the broadcast — the classic
     partial broadcast that time-scheduled crashes cannot express. *)
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net ~inputs:[ (0, 0, 1) ]
      ~faults:(Network.Fault.script [ (0, Network.Fault.Crash_sender) ])
      ()
  in
  ignore (Engine.run engine);
  (match Engine.outputs engine with
  | [ (10, 1, (0, 1)) ] -> ()
  | outs -> Alcotest.failf "expected only p1's delivery, got %d" (List.length outs));
  Alcotest.(check bool) "sender crashed" true (Engine.crashed engine 0);
  Alcotest.(check int) "one send only" 1 (Trace.message_count (Engine.trace engine))

let test_fault_random_replayable () =
  let run () =
    let engine =
      Engine.create ~automaton:echo ~n:4 ~seed:21
        ~network:(Network.Uniform { min_delay = 1; max_delay = 20 })
        ~inputs:(List.init 10 (fun i -> (i * 3, i mod 4, i)))
        ~faults:
          (Network.Fault.random ~drop_rate:0.3 ~dup_rate:0.3 ~max_drops:5 ~max_dups:5 ())
        ()
    in
    ignore (Engine.run engine);
    (Engine.outputs engine, fault_counts engine)
  in
  let (outs1, counts1) = run () and (outs2, counts2) = run () in
  Alcotest.(check bool) "same fault trace, same run" true (outs1 = outs2);
  Alcotest.(check (pair int int)) "same counts" counts1 counts2;
  let drops, dups = counts1 in
  Alcotest.(check bool) "faults actually fired" true (drops > 0 && dups > 0);
  Alcotest.(check bool) "budgets respected" true (drops <= 5 && dups <= 5)

let test_faults_never_perturb_base_delays () =
  (* A Random plan whose budgets forbid every fault must produce the
     byte-identical run of a fault-free engine: fault decisions draw from
     their own stream, never from the delay RNG. *)
  let run faults =
    let engine =
      Engine.create ~automaton:echo ~n:4 ~seed:77
        ~network:(Network.Uniform { min_delay = 1; max_delay = 30 })
        ~inputs:(List.init 12 (fun i -> (i * 2, i mod 4, i)))
        ~faults ()
    in
    ignore (Engine.run engine);
    Engine.outputs engine
  in
  let base = run Network.Fault.none in
  let gated =
    run (Network.Fault.random ~drop_rate:1.0 ~dup_rate:1.0 ~max_drops:0 ~max_dups:0 ())
  in
  Alcotest.(check bool) "identical delivery schedule" true (base = gated)

let test_fault_state_survives_clone () =
  let engine =
    Engine.create ~automaton:echo ~n:4 ~seed:5
      ~network:(Network.Uniform { min_delay = 1; max_delay = 25 })
      ~inputs:(List.init 12 (fun i -> (i * 4, i mod 4, i)))
      ~faults:
        (Network.Fault.random ~drop_rate:0.4 ~dup_rate:0.4 ~max_drops:4 ~max_dups:4 ())
      ()
  in
  ignore (Engine.run ~until:20 engine);
  let copy = Engine.clone engine in
  ignore (Engine.run engine);
  ignore (Engine.run copy);
  Alcotest.(check bool) "same outputs" true (Engine.outputs engine = Engine.outputs copy);
  Alcotest.(check (pair int int))
    "same fault counts"
    (fault_counts engine) (fault_counts copy)

let test_fault_plan_validation () =
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Fault.random: rates must be within [0, 1]") (fun () ->
      ignore (Network.Fault.random ~drop_rate:1.5 ()));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Fault.random: budgets must be non-negative") (fun () ->
      ignore (Network.Fault.random ~max_drops:(-1) ()));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Fault.script: negative send index") (fun () ->
      ignore (Network.Fault.script [ (-1, Network.Fault.Drop) ]));
  Alcotest.check_raises "duplicate index"
    (Invalid_argument "Fault.script: duplicate send index") (fun () ->
      ignore (Network.Fault.script [ (0, Network.Fault.Drop); (0, Network.Fault.Drop) ]))

let test_crash_at_time_zero_is_well_defined () =
  (* A time-0 crash fires before Ev_init; the process must still end up
     initialised (then crashed) so state/clone/correct_pids agree. *)
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net
      ~inputs:[ (0, 1, 7); (0, 0, 9) ]
      ~crashes:[ (0, 1) ] ()
  in
  ignore (Engine.run engine);
  let s = Engine.state engine 1 in
  Alcotest.(check int) "state is the initial state" 1 s.self;
  Alcotest.(check bool) "flagged crashed" true (Engine.crashed engine 1);
  Alcotest.(check (list int)) "correct pids" [ 0; 2 ] (Engine.correct_pids engine);
  (* The crashed process's input was dropped; p0's broadcast still reaches
     only p2 (deliveries to crashed processes are suppressed). *)
  (match Engine.outputs engine with
  | [ (10, 2, (0, 9)) ] -> ()
  | outs -> Alcotest.failf "expected one delivery to p2, got %d" (List.length outs));
  (* Clone agrees on everything, including the crashed process's state. *)
  let copy = Engine.clone engine in
  Alcotest.(check int) "clone has the state too" 1 (Engine.state copy 1).self;
  Alcotest.(check bool) "clone flags crash" true (Engine.crashed copy 1)

let test_partial_sync_validates () =
  let expected =
    Invalid_argument "Network.Partial_sync: need delta >= 1, gst >= 0, max_pre_gst >= 1"
  in
  let build ~delta ~gst ~max_pre_gst =
    ignore
      (Engine.create ~automaton:echo ~n:2
         ~network:(Network.Partial_sync { delta; gst; max_pre_gst })
         ())
  in
  Alcotest.check_raises "zero delta" expected (fun () ->
      build ~delta:0 ~gst:10 ~max_pre_gst:5);
  Alcotest.check_raises "negative gst" expected (fun () ->
      build ~delta:5 ~gst:(-1) ~max_pre_gst:5);
  Alcotest.check_raises "zero max_pre_gst" expected (fun () ->
      build ~delta:5 ~gst:10 ~max_pre_gst:0);
  (* Valid corner: gst = 0 means synchrony from the start. *)
  build ~delta:5 ~gst:0 ~max_pre_gst:1

let partial_sync_contract_property =
  (* The documented bound — every message delivered by [gst + delta], and
     post-GST sends within [delta] — must hold for arbitrary parameters,
     not just the hand-picked ones of [test_partial_sync_bounds]. This
    pins the fixed cap: the pre-GST delay is capped by the contract bound
    itself, never resampled per message. *)
  QCheck.Test.make ~name:"partial sync: delivered by gst + delta" ~count:100
    QCheck.(
      quad (int_range 1 10) (int_range 0 80) (int_range 1 300) small_nat)
    (fun (delta, gst, max_pre_gst, seed) ->
      let engine =
        Engine.create ~automaton:echo ~n:3 ~seed
          ~network:(Network.Partial_sync { delta; gst; max_pre_gst })
          ~inputs:(List.init 15 (fun i -> (i * 5, i mod 3, i)))
          ()
      in
      ignore (Engine.run engine);
      List.for_all
        (function
          | Trace.Delivered { time; sent_at; _ } ->
              time > sent_at
              && time <= (if sent_at >= gst then sent_at + delta else gst + delta)
          | _ -> true)
        (Engine.trace engine))

let test_trace_contents () =
  let engine =
    Engine.create ~automaton:echo ~n:2 ~network:sync_net ~inputs:[ (0, 0, 3) ]
      ~crashes:[ (20, 1) ] ()
  in
  ignore (Engine.run engine);
  let trace = Engine.trace engine in
  Alcotest.(check int) "one send" 1 (Trace.message_count trace);
  Alcotest.(check int) "one input" 1 (List.length (Trace.inputs trace));
  Alcotest.(check (list (pair int int))) "crash recorded" [ (20, 1) ] (Trace.crashes trace);
  Alcotest.(check bool) "crashed set" true (Pid.Set.mem 1 (Trace.crashed_set trace));
  match Trace.first_output trace with
  | Some (10, 1, (0, 3)) -> ()
  | _ -> Alcotest.fail "unexpected first output"

(* -- telemetry ---------------------------------------------------------- *)

module Json = Stdext.Json

(* One entry per constructor, with every field populated. *)
let all_entry_kinds : (int, int, int) Trace.entry list =
  [
    Trace.Sent { time = 1; src = 0; dst = 1; msg = 7 };
    Trace.Delivered { time = 2; src = 0; dst = 1; msg = 7; sent_at = 1 };
    Trace.Input { time = 3; pid = 1; input = 5 };
    Trace.Output { time = 4; pid = 1; output = 9 };
    Trace.Timer_fired { time = 5; pid = 0; id = 3 };
    Trace.Crashed { time = 6; pid = 2 };
    Trace.Dropped { time = 7; src = 0; dst = 2; msg = 7; sent_at = 6 };
    Trace.Duplicated { time = 8; src = 1; dst = 2; msg = 7; sent_at = 6; extra_delay = 4 };
  ]

let test_trace_pp_golden () =
  let pi = Format.pp_print_int in
  let got =
    Format.asprintf "%a" (Trace.pp ~pp_msg:pi ~pp_input:pi ~pp_output:pi) all_entry_kinds
  in
  let expected =
    String.concat "\n"
      [
        "t=1 p0 -> p1 send 7";
        "t=2 p0 -> p1 recv 7 (sent t=1)";
        "t=3 p1 input 5";
        "t=4 p1 output 9";
        "t=5 p0 timer 3";
        "t=6 p2 CRASH";
        "t=7 p0 -> p2 DROP 7 (sent t=6)";
        "t=8 p1 -> p2 DUP(+4) 7 (sent t=6)";
      ]
  in
  Alcotest.(check string) "pp covers every constructor" expected got

let test_trace_jsonl_roundtrip () =
  let enc i = Json.Int i in
  let text =
    Format.asprintf "%a" (Trace.to_jsonl ~msg:enc ~input:enc ~output:enc) all_entry_kinds
  in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  Alcotest.(check int) "one line per entry" (List.length all_entry_kinds) (List.length lines);
  List.iter2
    (fun entry line ->
      match Json.parse line with
      | Error msg -> Alcotest.fail ("unparseable line: " ^ msg)
      | Ok json ->
          Alcotest.(check bool) "line parses back to entry_to_json" true
            (json = Trace.entry_to_json ~msg:enc ~input:enc ~output:enc entry))
    all_entry_kinds lines

(* The engine's probe and the trace are two views of the same run; every
   probe counter must equal the count recomputed from the trace. *)
let test_probe_matches_trace () =
  let engine =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net
      ~inputs:[ (0, 0, 1); (0, 1, 2) ]
      ~faults:
        (Network.Fault.script
           [ (0, Network.Fault.Drop); (2, Network.Fault.Duplicate { extra_delay = 2 }) ])
      ()
  in
  ignore (Engine.run engine);
  let trace = Engine.trace engine in
  let p = Engine.probe engine in
  let delivered_in_trace =
    List.length (List.filter (function Trace.Delivered _ -> true | _ -> false) trace)
  in
  Alcotest.(check int) "sent" (Trace.message_count trace) p.Engine.Probe.sent;
  Alcotest.(check int) "delivered" delivered_in_trace p.Engine.Probe.delivered;
  Alcotest.(check int) "dropped" (Trace.drop_count trace) p.Engine.Probe.dropped;
  Alcotest.(check int) "duplicated" (Trace.duplicate_count trace) p.Engine.Probe.duplicated;
  Alcotest.(check int) "timer fires" (Trace.timer_fire_count trace) p.Engine.Probe.timer_fires;
  Alcotest.(check int) "decides" (Trace.decide_count trace) p.Engine.Probe.decides;
  Alcotest.(check int) "crashes" (List.length (Trace.crashes trace)) p.Engine.Probe.crashes;
  Alcotest.(check int) "some deliveries happened" 1 (min 1 delivered_in_trace);
  Alcotest.(check (list (pair int int)))
    "decision latencies agree"
    (Trace.decision_latencies trace)
    (Engine.decision_latencies engine)

(* Probe state is part of the execution state: a clone must carry it, so
   the explorer's cloned branches report the probe that re-executing each
   run from time 0 would. *)
let test_probe_survives_clone_and_snapshot () =
  let make () =
    Engine.create ~automaton:echo ~n:3 ~network:sync_net
      ~inputs:[ (0, 0, 1); (12, 1, 2) ]
      ()
  in
  let base = make () in
  ignore (Engine.run ~until:10 base);
  let cloned = Engine.clone base in
  Alcotest.(check bool) "clone copies mid-run probe" true
    (Engine.probe cloned = Engine.probe base);
  ignore (Engine.run base);
  ignore (Engine.run cloned);
  let fresh = make () in
  ignore (Engine.run fresh);
  Alcotest.(check bool) "probe nonzero" true (Engine.probe base <> Engine.Probe.zero);
  List.iter
    (fun (name, e) ->
      Alcotest.(check bool) name true (Engine.probe e = Engine.probe base);
      Alcotest.(check (list (pair int int)))
        (name ^ " latencies")
        (Engine.decision_latencies base)
        (Engine.decision_latencies e))
    [ ("clone finishes identically", cloned);
      ("replay from scratch finishes identically", fresh);
    ]

(* -- fingerprinting ------------------------------------------------------ *)

module Fp = Dsim.Fingerprint

(* Fold a list right-to-left with the element-first signature Fp.set/Fp.map
   expect, so the same physical elements can be folded in two different
   iteration orders. *)
let fold_list f l init = List.fold_left (fun acc x -> f x acc) init l

let test_fingerprint_order_independence () =
  (* set/map use the commutative combiner: any iteration order of the same
     elements must hash identically — the property that makes Pid.Set /
     Pid.Map folds safe regardless of internal tree shape. *)
  let elems = [ 3; 1; 4; 1; 5; 9; 2; 6 ] in
  let shuffled = [ 6; 2; 9; 5; 1; 4; 1; 3 ] in
  Alcotest.(check int)
    "set: iteration order invisible"
    (Fp.set Fp.int ~fold:fold_list elems)
    (Fp.set Fp.int ~fold:fold_list shuffled);
  let bindings = [ (1, 10); (2, 20); (3, 30) ] in
  let binding (k, v) = Fp.mix (Fp.int k) (Fp.int v) in
  let fold_bindings f l init = List.fold_left (fun acc kv -> f kv () acc) init l in
  Alcotest.(check int)
    "map: iteration order invisible"
    (Fp.map (fun kv () -> binding kv) ~fold:fold_bindings bindings)
    (Fp.map (fun kv () -> binding kv) ~fold:fold_bindings (List.rev bindings));
  (* mix, by contrast, is order-sensitive — sequences must not commute. *)
  Alcotest.(check bool) "mix is order-sensitive" true
    (Fp.mix (Fp.int 1) (Fp.int 2) <> Fp.mix (Fp.int 2) (Fp.int 1));
  (* and distinct multisets must not collide just because sums commute. *)
  Alcotest.(check bool) "set distinguishes multisets" true
    (Fp.set Fp.int ~fold:fold_list [ 1; 1; 2 ] <> Fp.set Fp.int ~fold:fold_list [ 1; 2; 2 ])

let test_fingerprint_golden () =
  (* Hard-coded values pin the fingerprint function itself: any change to
     the mixing constants or fold order silently invalidates every visited
     set written by other components, so it must be deliberate and loud.
     Fingerprints are 63-bit native ints (SplitMix64's finalizer with the
     multipliers reduced to 63 bits). *)
  Alcotest.(check int) "int 1" 0x2380F76DFA2EC705 (Fp.int 1);
  Alcotest.(check int) "int 42" 0x2759EA26D4727622 (Fp.int 42);
  Alcotest.(check int) "mix 1 2" 0x006E9A89B3A0DB74 (Fp.mix (Fp.int 1) (Fp.int 2));
  Alcotest.(check int) "list [1;2;3]" 0x09EF9A3BCBFA67F6 (Fp.list Fp.int [ 1; 2; 3 ]);
  Alcotest.(check int) "int -1 (sign bit set)" 0x5A682AFE7965DEBD (Fp.int (-1));
  Alcotest.(check int) "option None" 7 (Fp.option Fp.int None);
  Alcotest.(check int) "bool true" 3 (Fp.bool true)

let test_engine_fingerprint_stability () =
  (* Same construction, run to the same point -> same fingerprint;
     divergent histories -> (almost surely) different fingerprints; and a
     clone fingerprints identically to its source at every point. *)
  let fp_automaton : (echo_state, int, int, Pid.t * int) Automaton.t =
    {
      echo with
      state_fingerprint = Some (fun s -> Fp.int s.self);
    }
  in
  let make inputs =
    Engine.create ~automaton:fp_automaton ~n:3 ~network:sync_net ~seed:0 ~inputs ()
  in
  let a = make [ (0, 0, 7) ] and b = make [ (0, 0, 7) ] in
  Alcotest.(check bool) "hook detected" true (Engine.has_fingerprint a);
  Alcotest.(check int) "fresh engines agree" (Engine.fingerprint a) (Engine.fingerprint b);
  ignore (Engine.run ~until:10 a);
  ignore (Engine.run ~until:10 b);
  Alcotest.(check int) "same run, same fingerprint" (Engine.fingerprint a)
    (Engine.fingerprint b);
  let c = Engine.clone a in
  Alcotest.(check int) "clone fingerprints like source" (Engine.fingerprint a)
    (Engine.fingerprint c);
  (* Echo state records nothing, so divergent histories only show while
     their messages are still in flight: stop before the round boundary
     and the queued payloads (7 vs 8) must separate the fingerprints. *)
  let a5 = make [ (0, 0, 7) ] and d5 = make [ (0, 0, 8) ] in
  ignore (Engine.run ~until:5 a5);
  ignore (Engine.run ~until:5 d5);
  Alcotest.(check bool) "in-flight payloads distinguish" true
    (Engine.fingerprint a5 <> Engine.fingerprint d5);
  (* No hook -> fingerprinting is a loud error, not a silent constant. *)
  let plain = Engine.create ~automaton:echo ~n:3 ~network:sync_net ~seed:0 ~inputs:[] () in
  Alcotest.(check bool) "no hook" false (Engine.has_fingerprint plain);
  match Engine.fingerprint plain with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* Every protocol's [state_fingerprint] hook, pinned through the engine
   digest. The other fingerprint tests compare digests with each other (a
   clone with its source, a predicted child key with the built child), so
   they would all still pass if every hook's digest moved; these constants
   would not. Each protocol runs at its minimal n for e = f = 2 on
   synchronous rounds, process p proposing p mod 3 at time 0: once with
   timers off, and once with timers on and p0 crashing at 1.5Δ, so the
   digests also cover armed timers, heartbeats and whatever the timeouts
   start. At each instant of [digest_instants], the engine and a clone of
   it must both digest to the pinned value.

   The explorer's visited sets and pinned counts rest on these digests.
   Regenerate only when a change is meant to move them (a new field in a
   protocol's state, a new digest layout in the engine, new [Fingerprint]
   combinators), and say why in CHANGES.md:
     GOLDEN_PRINT=1 dune exec test/test_dsim.exe -- test fingerprint *)
let digest_delta = 100

let digest_instants = [ 0; 100; 150; 200; 400; 1000 ]

let digest_protocols =
  [
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
    ("paxos", Baselines.Paxos.protocol);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("epaxos", Epaxos.protocol);
  ]

let protocol_digests (module P : Proto.Protocol.S) ~timers =
  let n = P.min_n ~e:2 ~f:2 in
  let engine =
    Engine.create ~automaton:(P.make ~n ~e:2 ~f:2 ~delta:digest_delta) ~n
      ~network:(Network.Sync_rounds { delta = digest_delta; order = Network.Arrival })
      ~disable_timers:(not timers)
      ~inputs:(List.map (fun p -> (0, p, p mod 3)) (Pid.all ~n))
      ~crashes:(if timers then [ (3 * digest_delta / 2, 0) ] else [])
      ()
  in
  List.split
    (List.map
       (fun at ->
         ignore (Engine.run ~until:at engine : Engine.run_result);
         (Engine.fingerprint engine, Engine.fingerprint (Engine.clone engine)))
       digest_instants)

let pinned_protocol_digests =
  [
    ( ("rgs-task", false),
      [
        0x253CF121770EA3AE; 0x4D989785E6174D50; 0x4D989785E6174D50;
        0x7B68C5078456F3F3; 0x7B68C5078456F3F3; 0x7B68C5078456F3F3;
      ] );
    ( ("rgs-task", true),
      [
        0x1C691CAB889575D8; 0x3C797F411A052F7F; 0x3D9DDCD754CAA827;
        0x2194E85FCD07327A; 0x2A32E043B99F37E0; 0x73DBAB6D7F0433F0;
      ] );
    ( ("rgs-object", false),
      [
        0x3C244DE2EE8C7671; 0x0E54E11F96EF9BD1; 0x0E54E11F96EF9BD1;
        0x279EA98AC78D5041; 0x279EA98AC78D5041; 0x279EA98AC78D5041;
      ] );
    ( ("rgs-object", true),
      [
        0x1F6251FF90E1DFB1; 0x404C63ADDB1EFACB; 0x48E1BE330593405C;
        0x7561A4CF1F992E3E; 0x1A668552654DCBBA; 0x4126B9FCA6E93A69;
      ] );
    ( ("paxos", false),
      [
        0x32B38261BCC2CC75; 0x5D55604398682FEE; 0x5D55604398682FEE;
        0x196D826795182D89; 0x5FFFF16FBE7E4505; 0x5FFFF16FBE7E4505;
      ] );
    ( ("paxos", true),
      [
        0x270B83962D72AE20; 0x05F10A0AAF38B54E; 0x048CA96BABE6041E;
        0x6B2E2B5D80547204; 0x478E5FCECA1BB15E; 0x7F6F374F198A621F;
      ] );
    ( ("fast-paxos", false),
      [
        0x6745C5A3F35EAE21; 0x157ACBABAA3BF772; 0x157ACBABAA3BF772;
        0x22C30434A7F6E083; 0x09426FC9D5A396CA; 0x09426FC9D5A396CA;
      ] );
    ( ("fast-paxos", true),
      [
        0x4AB4105A5FF04364; 0x2A7E510EA8754E7E; 0x015B34274FF07F3D;
        0x5537A9DD6D1578C6; 0x2CA0BE8BB08C42EA; 0x169588D795DFB953;
      ] );
    ( ("epaxos", false),
      [
        0x18D41B88CBA5C1F5; 0x1553C755118D1D3B; 0x1553C755118D1D3B;
        0x4BD118A7806E1FC7; 0x1A0C93A3FB55E561; 0x4563120DC6F8E2E8;
      ] );
    ( ("epaxos", true),
      [
        0x3D4E780738AB49DC; 0x6576D5B5C8C01337; 0x034886F77B0507CD;
        0x7AA1D9F777DB0791; 0x70AA24E171E733CA; 0x399B532C006C608E;
      ] );
  ]

let test_protocol_digests () =
  let cells =
    List.concat_map
      (fun (name, protocol) ->
        List.map
          (fun timers -> ((name, timers), protocol_digests protocol ~timers))
          [ false; true ])
      digest_protocols
  in
  match Sys.getenv_opt "GOLDEN_PRINT" with
  | Some _ ->
      List.iter
        (fun ((name, timers), (digests, _)) ->
          Printf.printf "    ( (%S, %b),\n      [" name timers;
          List.iteri
            (fun i d -> Printf.printf "%s 0x%016X;" (if i mod 3 = 0 then "\n       " else "") d)
            digests;
          print_string "\n      ] );\n")
        cells
  | None ->
      List.iter
        (fun (((name, timers) as cell), (digests, clones)) ->
          let pinned = List.assoc cell pinned_protocol_digests in
          let label = Printf.sprintf "%s, timers %b" name timers in
          Alcotest.(check (list int)) label pinned digests;
          Alcotest.(check (list int)) (label ^ ", clones") pinned clones)
        cells

(* The inputs given to [create] wait in a sorted calendar outside the event
   heap; nothing observable may tell the two apart. Inputs arrive out of
   time order with ties at t=20, where a create-time crash and a later
   [schedule_input] meet them. *)
let test_input_calendar_invisible () =
  let fp_echo : (echo_state, int, int, Pid.t * int) Automaton.t =
    { echo with state_fingerprint = Some (fun s -> Fp.int s.self) }
  in
  let inputs = [ (20, 1, 5); (7, 2, 6); (20, 0, 7); (3, 0, 8); (20, 2, 9) ] in
  let make ?(inputs = inputs) () =
    Engine.create ~automaton:fp_echo ~n:4 ~network:sync_net ~inputs ~crashes:[ (20, 3) ] ()
  in
  let engine = make () in
  Alcotest.(check int) "queue hwm after create = n + inputs + crashes" (4 + 5 + 1)
    (Engine.probe engine).Engine.Probe.queue_hwm;
  Engine.schedule_input engine ~at:20 0 11;
  ignore (Engine.run engine);
  let at_20 =
    List.filter_map
      (function
        | Trace.Crashed { time = 20; pid } -> Some (Printf.sprintf "crash %d" pid)
        | Trace.Input { time = 20; pid; input } -> Some (Printf.sprintf "input %d:%d" pid input)
        | _ -> None)
      (Engine.trace engine)
  in
  Alcotest.(check (list string))
    "crash, then create-time inputs in list order, then the scheduled input"
    [ "crash 3"; "input 1:5"; "input 0:7"; "input 2:9"; "input 0:11" ]
    at_20;
  (* A clone taken between the t=3 and t=7 calendar entries. *)
  let source = make () in
  ignore (Engine.run ~until:5 source);
  let copy = Engine.clone source in
  Alcotest.(check int) "clone fingerprints like its source" (Engine.fingerprint source)
    (Engine.fingerprint copy);
  ignore (Engine.run source);
  ignore (Engine.run copy);
  Alcotest.(check bool) "clone runs to the same trace" true
    (Engine.trace source = Engine.trace copy);
  Alcotest.(check int) "clone ends on the same fingerprint" (Engine.fingerprint source)
    (Engine.fingerprint copy);
  (* An unread input is part of the future: it must reach the digest. *)
  let a = make ()
  and b = make ~inputs:[ (20, 1, 5); (7, 2, 6); (20, 0, 7); (3, 0, 8); (20, 2, 10) ] () in
  ignore (Engine.run ~until:5 a);
  ignore (Engine.run ~until:5 b);
  Alcotest.(check bool) "one unread future input separates fingerprints" true
    (Engine.fingerprint a <> Engine.fingerprint b);
  (* Given at create or scheduled later, the same input digests the same. *)
  let scheduled = make ~inputs:[ (7, 2, 6); (3, 0, 8) ] () in
  List.iter (fun (at, p, v) -> Engine.schedule_input scheduled ~at p v)
    [ (20, 1, 5); (20, 0, 7); (20, 2, 9) ];
  ignore (Engine.run ~until:5 scheduled);
  Alcotest.(check int) "calendar and heap inputs digest alike" (Engine.fingerprint a)
    (Engine.fingerprint scheduled);
  Alcotest.check_raises "input time outside the packing range"
    (Invalid_argument "Engine.create: input time outside the event-queue packing range")
    (fun () -> ignore (make ~inputs:[ (1 lsl 40, 0, 1) ] ()))

(* Armed timers live in an indexed heap: a re-arm moves the timer, a
   cancel removes it, and neither leaves an event behind. A scripted
   process p0 (p1 idle) arms x (id 0) for 100, y (id 5) for 300, a (id 2)
   and then b (id 9) for 60 at t=0. An input at t=30 re-arms x for 50
   (deadline 80, earlier than before) and re-arms a for 30 (deadline 60
   again, so a now fires after b); an input at t=40 cancels y. *)
type timer_cmd = Arm of Automaton.timer_id * Time.t | Cancel of Automaton.timer_id

let timer_script ~init : (unit, int, timer_cmd list, unit) Automaton.t =
  let actions =
    List.map (function
      | Arm (id, after) -> Automaton.Set_timer { id; after }
      | Cancel id -> Automaton.Cancel_timer id)
  in
  {
    init = (fun ~self ~n:_ -> ((), if self = 0 then actions init else []));
    on_message = (fun s ~src:_ _ -> (s, []));
    on_input = (fun s cmds -> (s, actions cmds));
    on_timer = (fun s _ -> (s, []));
    state_copy = Fun.id;
    state_fingerprint = Some (fun () -> Fp.int 0);
  }

let test_timer_heap_semantics () =
  let make () =
    Engine.create
      ~automaton:(timer_script ~init:[ Arm (0, 100); Arm (5, 300); Arm (2, 60); Arm (9, 60) ])
      ~n:2 ~network:sync_net
      ~inputs:[ (30, 0, [ Arm (0, 50); Arm (2, 30) ]); (40, 0, [ Cancel 5 ]) ]
      ()
  in
  let engine = make () in
  Alcotest.(check bool) "quiescent" true (Engine.run engine = Engine.Quiescent);
  let fired =
    List.filter_map
      (function Trace.Timer_fired { time; pid; id } -> Some (time, pid, id) | _ -> None)
      (Engine.trace engine)
  in
  Alcotest.(check (list (triple int int int)))
    "b before a at 60 (a re-set last), x moved to 80, y never"
    [ (60, 0, 9); (60, 0, 2); (80, 0, 0) ]
    fired;
  let p = Engine.probe engine in
  Alcotest.(check int) "timer fires" 3 p.Engine.Probe.timer_fires;
  (* 2 inits + 2 inputs + 3 fires: superseded and cancelled timers are not
     events. *)
  Alcotest.(check int) "steps count effective events only" 7 p.Engine.Probe.steps;
  (* After p0's init: p1's init, 2 unread inputs and 4 armed timers. *)
  Alcotest.(check int) "queue hwm counts armed timers" 7 p.Engine.Probe.queue_hwm;
  Alcotest.(check int) "clock stops at the last effective event" 80 (Engine.now engine);
  (* A clone taken while x, a and b are armed (y already cancelled). *)
  let source = make () in
  ignore (Engine.run ~until:45 source);
  let copy = Engine.clone source in
  Alcotest.(check int) "clone fingerprints like its source" (Engine.fingerprint source)
    (Engine.fingerprint copy);
  ignore (Engine.run source);
  ignore (Engine.run copy);
  Alcotest.(check bool) "clone runs to the same trace" true
    (Engine.trace source = Engine.trace copy && Engine.trace copy = Engine.trace engine);
  Alcotest.(check int) "clone ends on the same fingerprint" (Engine.fingerprint source)
    (Engine.fingerprint copy);
  (* Equal armed deadlines digest equal whatever the arm history: x armed
     once for 100, against x armed for 50, cancelled and re-armed for 80
     at t=20. A different deadline must still separate them. *)
  let history ~init ~at10 ~at20 =
    let e =
      Engine.create ~automaton:(timer_script ~init) ~n:2 ~network:sync_net
        ~inputs:[ (10, 0, at10); (20, 0, at20) ]
        ()
    in
    ignore (Engine.run ~until:20 e);
    Engine.fingerprint e
  in
  let once = history ~init:[ Arm (0, 100) ] ~at10:[] ~at20:[] in
  Alcotest.(check int) "arm history is not part of the digest" once
    (history ~init:[ Arm (0, 50) ] ~at10:[ Cancel 0 ] ~at20:[ Arm (0, 80) ]);
  Alcotest.(check bool) "the armed deadline is" true
    (once <> history ~init:[ Arm (0, 50) ] ~at10:[ Cancel 0 ] ~at20:[ Arm (0, 81) ]);
  Alcotest.check_raises "negative timer id" (Invalid_argument "Engine: negative timer id")
    (fun () ->
      ignore
        (Engine.run
           (Engine.create ~automaton:(timer_script ~init:[ Arm (-1, 10) ]) ~n:2
              ~network:sync_net ())
          : Engine.run_result))

(* -- child keys ------------------------------------------------------------ *)

(* [Engine.child_fingerprint] against the children it describes. A
   protocol at its minimal n for e = f = 1 runs on a manual network; the
   seed picks the proposers and their values, and optionally a process
   crashed at time 0. Each case checks that set-up with timers off and
   nothing else due, and then a drawn variant of it: timers on or off,
   and possibly a crash due mid-round, a crash at a boundary instant or a
   proposal due mid-round (at 1.5Δ). At each of the first two round
   boundaries, every drop subset and every duplication subset (at most
   one of each per run) is combined with per-destination delivery
   orders: the whole product of the destinations' orders when it has at
   most 64 members, otherwise the k-th order of every destination for
   each k, which still puts every order of every destination in some
   child. One table, shared by every node of both set-ups, holds a trial
   record under each order's [digest]; a node takes its record from there
   when an earlier node, or an earlier child of its own, met the same
   digest, and runs the prediction's [trial] otherwise. So a record the
   plain set-up entered must not answer a batch whose destination has a
   timer, a crash or an input the plain one lacked. Every record a node
   uses is checked once against a clone that delivers that batch and
   every message to a crashed process and runs to the next boundary: the
   key of that one leg must be the clone's fingerprint, the record's
   outputs the clone's new outputs at that destination, and the parent's
   fingerprint must not move. Each child is keyed from the records,
   built with [clone], [drop_pending], [duplicate_pending],
   [deliver_pending] and [run], and its fingerprint must equal the key;
   so must the fingerprint of the same child rebuilt from time 0, which
   starts with no digest caches. The second boundary is checked at two
   seed-chosen children of the first, so the second of them takes records
   from its sibling. *)

let key_delta = 100

let key_protocols =
  [|
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("paxos", Baselines.Paxos.protocol);
    ("epaxos", Epaxos.protocol);
  |]

let orders batch =
  if List.length batch <= 4 then Stdext.Combinat.permutations batch
  else [ batch; List.rev batch ]

(* Per-destination order combinations: the full product when small, the
   "k-th order everywhere" diagonal otherwise. *)
let order_combos per_dst =
  let product = List.fold_left (fun a l -> a * List.length l) 1 per_dst in
  if product <= 64 then Stdext.Combinat.cartesian per_dst
  else
    let widest = List.fold_left (fun a l -> max a (List.length l)) 0 per_dst in
    List.init widest (fun k -> List.map (fun l -> List.nth l (k mod List.length l)) per_dst)

let ids l = String.concat ";" (List.map string_of_int l)

(* The live pool by correct destination, ascending, ids in send order
   within each; and the ids to crashed processes, in send order. *)
let delivery_groups engine =
  let live, crashed =
    List.partition
      (fun (p : _ Engine.pending) -> not (Engine.crashed engine p.dst))
      (Engine.pending engine)
  in
  let dsts = List.sort_uniq compare (List.map (fun (p : _ Engine.pending) -> p.dst) live) in
  let ids_to d =
    List.filter_map (fun (p : _ Engine.pending) -> if p.dst = d then Some p.id else None) live
  in
  ( List.map (fun d -> (d, ids_to d)) dsts,
    List.map (fun (p : _ Engine.pending) -> p.id) crashed )

(* Check every child of [engine] at boundary [round]; returns the choices
   made, each with the child it builds and a function rebuilding that
   child from time 0. [fresh] rebuilds [engine] from time 0: an engine
   never fingerprinted has no digest caches, so its first digest is
   computed from scratch and must equal the child's, which the clone
   inherited mostly from caches. [table] is the trial records' table
   shared across nodes; [on_record] sees each record the node uses, with
   its order, once. *)
let check_boundary ~table ?(on_record = fun _ _ -> ()) ~fresh engine ~round ~drops_left
    ~dups_left =
  let at = round * key_delta and until = ((round + 1) * key_delta) - 1 in
  let prediction = Engine.child_fingerprint engine ~at ~until in
  let parent = Engine.fingerprint engine and since = Engine.output_count engine in
  let groups, to_crashed = delivery_groups engine in
  let live = List.concat_map snd groups in
  let checked = Hashtbl.create 16 in
  let trial order =
    let digest = prediction.Engine.digest order in
    let r =
      match Hashtbl.find_opt table digest with
      | Some r -> r
      | None ->
          let r = prediction.Engine.trial order in
          Hashtbl.add table digest r;
          r
    in
    if not (Hashtbl.mem checked order) then begin
      Hashtbl.add checked order ();
      on_record order r;
      let clone = Engine.clone engine in
      List.iter (fun id -> Engine.deliver_pending clone ~id ~at) (order @ to_crashed);
      ignore (Engine.run ~until:at clone);
      ignore (Engine.run ~until clone);
      let fail what =
        QCheck.Test.fail_reportf "boundary %d, trial [%s]: %s" round (ids order) what
      in
      let key = prediction.Engine.key ~drop:[] ~dup:[] ~trials:[ r ] in
      if key <> Engine.fingerprint clone then
        fail
          (Printf.sprintf "one-leg key %d, clone's fingerprint %d" key
             (Engine.fingerprint clone));
      if
        r.Engine.outputs
        <> List.filter (fun (_, p, _) -> p = r.Engine.dst) (Engine.recent_outputs clone ~since)
      then fail "outputs differ from the clone's new outputs at the destination";
      if Engine.fingerprint engine <> parent then fail "the parent's fingerprint moved"
    end;
    r
  in
  List.concat_map
    (fun drop ->
      let kept = List.filter (fun id -> not (List.mem id drop)) live in
      let per_dst =
        List.filter_map
          (fun (_, batch) ->
            match List.filter (fun id -> not (List.mem id drop)) batch with
            | [] -> None
            | kept_batch -> Some (orders kept_batch))
          groups
      in
      List.concat_map
        (fun dup ->
          List.map
            (fun combo ->
              let deliver = List.concat combo @ to_crashed in
              let predicted =
                prediction.Engine.key ~drop ~dup ~trials:(List.map trial combo)
              in
              let extend node =
                List.iter (fun id -> Engine.drop_pending node ~id) drop;
                List.iter (fun id -> ignore (Engine.duplicate_pending node ~id : int)) dup;
                List.iter (fun id -> Engine.deliver_pending node ~id ~at) deliver;
                ignore (Engine.run ~until:at node);
                ignore (Engine.run ~until node);
                node
              in
              let child = extend (Engine.clone engine) in
              let replay () = extend (fresh ()) in
              let fail what digest =
                QCheck.Test.fail_reportf
                  "boundary %d, drop [%s], dup [%s], deliver [%s]: key %d, %s %d" round
                  (ids drop) (ids dup) (ids deliver) predicted what digest
              in
              if Engine.fingerprint child <> predicted then
                fail "child" (Engine.fingerprint child);
              let direct = Engine.fingerprint (replay ()) in
              if direct <> predicted then fail "child rebuilt from time 0" direct;
              ((drop, dup), child, replay))
            (order_combos per_dst))
        (Stdext.Combinat.subsets_up_to dups_left kept))
    (Stdext.Combinat.subsets_up_to drops_left live)

(* What a case adds to its set-up beyond the time-0 proposals and crash. *)
type due = Nothing | Crash_mid_round | Crash_at_boundary | Input_mid_round

let due_name = function
  | Nothing -> "nothing"
  | Crash_mid_round -> "a crash mid-round"
  | Crash_at_boundary -> "a crash at a boundary"
  | Input_mid_round -> "an input mid-round"

(* An engine that has not run time 0 yet, and then the same engine with
   its pool emptied at each of the first three boundaries, timers armed
   if they are on: at each of these nodes the key of the child that
   takes no batch must be the fingerprint of the node run to the next
   boundary. Before time 0 every initialisation, and any crash or input
   at 0, is due in the window. *)
let check_empty_pool engine =
  for round = 0 to 3 do
    let at = round * key_delta and until = ((round + 1) * key_delta) - 1 in
    List.iter
      (fun (p : _ Engine.pending) -> Engine.drop_pending engine ~id:p.id)
      (Engine.pending engine);
    let key = (Engine.child_fingerprint engine ~at ~until).Engine.key ~drop:[] ~dup:[] ~trials:[] in
    ignore (Engine.run ~until:at engine);
    ignore (Engine.run ~until engine);
    if key <> Engine.fingerprint engine then
      QCheck.Test.fail_reportf "empty pool, boundary %d: key %d, fingerprint %d" round key
        (Engine.fingerprint engine)
  done

let child_key_property =
  QCheck.Test.make ~name:"child key = fingerprint of the built child" ~count:30
    QCheck.(
      make
        ~print:(fun (p, seed, crash, timers, due) ->
          Printf.sprintf "%s, seed %d, crash at 0: %b, timers %b, %s" (fst key_protocols.(p)) seed
            crash timers (due_name due))
        Gen.(
          tup5
            (int_bound (Array.length key_protocols - 1))
            (int_bound 1_000_000) bool bool
            (oneofl [ Nothing; Crash_mid_round; Crash_at_boundary; Input_mid_round ])))
    (fun (p, seed, crash, timers, due) ->
      let (module P : Proto.Protocol.S) = snd key_protocols.(p) in
      let n = P.min_n ~e:1 ~f:1 in
      let rng = Random.State.make [| seed |] in
      let proposers =
        match List.filter (fun _ -> Random.State.bool rng) (Pid.all ~n) with
        | [] -> [ Random.State.int rng n ]
        | l -> l
      in
      let proposals = List.map (fun pid -> (0, pid, Random.State.int rng 3)) proposers in
      let crashes = if crash then [ (0, Random.State.int rng n) ] else [] in
      let target = Random.State.int rng n in
      let more_crashes, more_inputs =
        match due with
        | Nothing -> ([], [])
        | Crash_mid_round -> ([ (key_delta + 1 + Random.State.int rng (key_delta - 1), target) ], [])
        | Crash_at_boundary -> ([ ((1 + Random.State.int rng 2) * key_delta, target) ], [])
        | Input_mid_round -> ([], [ (3 * key_delta / 2, target, Random.State.int rng 3) ])
      in
      let create ?(network = Network.Manual) ?faults ~timers ~crashes ~inputs () =
        Engine.create ~automaton:(P.make ~n ~e:1 ~f:1 ~delta:key_delta) ~n ~network
          ~disable_timers:(not timers) ~inputs ~crashes ?faults ()
      in
      let positioned ?network ?faults ~timers ~crashes ~inputs () =
        let engine = create ?network ?faults ~timers ~crashes ~inputs () in
        ignore (Engine.run ~until:(key_delta - 1) engine);
        engine
      in
      let table = Hashtbl.create 64 in
      let check_set_up ~timers ~crashes ~inputs =
        let fresh = positioned ~timers ~crashes ~inputs in
        let engine = fresh () in
        if Engine.pending_count engine > 0 then begin
          let first =
            check_boundary ~table ~fresh engine ~round:1 ~drops_left:1 ~dups_left:1
          in
          let siblings = Array.of_list first in
          List.iter
            (fun i ->
              let (drop, dup), next, replay = siblings.(i) in
              if Engine.pending_count next > 0 then
                ignore
                  (check_boundary ~table ~fresh:replay next ~round:2
                     ~drops_left:(1 - List.length drop) ~dups_left:(1 - List.length dup)
                    : _ list))
            (List.sort_uniq compare
               (List.init 2 (fun _ -> Random.State.int rng (Array.length siblings))))
        end;
        check_empty_pool (create ~timers ~crashes ~inputs ())
      in
      check_set_up ~timers:false ~crashes ~inputs:proposals;
      check_set_up ~timers ~crashes:(crashes @ more_crashes) ~inputs:(proposals @ more_inputs);
      (* Stochastic delays and fault decisions draw from engine-wide
         streams: no key there. *)
      let refused why engine =
        match Engine.child_fingerprint engine ~at:key_delta ~until:((2 * key_delta) - 1) with
        | _ -> QCheck.Test.fail_reportf "a prediction despite %s" why
        | exception Invalid_argument _ -> ()
      in
      refused "a network other than Manual"
        (positioned
           ~network:(Network.Sync_rounds { delta = key_delta; order = Network.Arrival })
           ~timers ~crashes ~inputs:proposals ());
      refused "a fault plan"
        (positioned ~faults:(Network.Fault.random ~drop_rate:0.5 ()) ~timers ~crashes
           ~inputs:proposals ());
      true)

(* A process state with mutable fields, stepped in place, and the hooks
   that go with it. Each process broadcasts its id plus one at time 0; a
   process that has heard from two senders outputs their sum and answers
   the second of them, so delivery orders differ in arrivals, outputs and
   sends. A trial that stepped its source's state rather than a
   [state_copy] of it would change the source's contents. *)
type tally = { mutable arrivals : Pid.t list; mutable sum : int }

let tally : (tally, int, unit, int) Automaton.t =
  {
    init = (fun ~self ~n:_ -> ({ arrivals = []; sum = 0 }, [ Automaton.Broadcast (self + 1) ]));
    on_message =
      (fun s ~src m ->
        s.arrivals <- src :: s.arrivals;
        s.sum <- s.sum + m;
        let second = List.length s.arrivals = 2 in
        (s, if second then [ Automaton.Output s.sum; Send (src, s.sum) ] else []));
    on_input = Automaton.no_input;
    on_timer = Automaton.no_timer;
    state_copy = (fun s -> { arrivals = s.arrivals; sum = s.sum });
    state_fingerprint = Some (fun s -> Fp.mix (Fp.list Fp.int s.arrivals) (Fp.int s.sum));
  }

(* The tally at its first boundary, and at the second one after every
   child of the first that neither drops nor duplicates: those children
   differ in their destinations' arrival orders, and some of them send
   the same answers, so one batch reaches its destination in two
   different states. The records the shared table gives those two
   arrivals must be two records. *)
let test_child_key_mutable_state () =
  let n = 4 in
  let positioned () =
    let engine =
      Engine.create ~automaton:tally ~n ~network:Network.Manual ~disable_timers:true ()
    in
    ignore (Engine.run ~until:(key_delta - 1) engine);
    engine
  in
  let contents engine =
    List.map
      (fun p ->
        let s = Engine.state engine p in
        (s.arrivals, s.sum))
      (Pid.all ~n)
  in
  let table = Hashtbl.create 64 in
  (* Each record used, under its batch's messages and instant, with the
     destination's contents when the batch arrived. *)
  let arrivals = Hashtbl.create 64 and two_states = ref 0 in
  let check_round ~fresh engine ~round ~drops_left ~dups_left =
    let before = contents engine in
    let pool = Engine.pending engine in
    let on_record order (r : int Engine.trial) =
      let batch =
        List.map
          (fun id ->
            let p = List.find (fun (p : _ Engine.pending) -> p.id = id) pool in
            (p.src, p.dst, p.msg, p.sent_at))
          order
      in
      let state = List.nth before r.Engine.dst in
      let earlier = Option.value ~default:[] (Hashtbl.find_opt arrivals (round, batch)) in
      List.iter
        (fun (state', r') ->
          if state' <> state then begin
            incr two_states;
            if r' == r then
              Alcotest.failf "boundary %d: one record for a batch to p%d in two states" round
                r.Engine.dst
          end)
        earlier;
      Hashtbl.replace arrivals (round, batch) ((state, r) :: earlier)
    in
    let children =
      check_boundary ~table ~on_record ~fresh engine ~round ~drops_left ~dups_left
    in
    Alcotest.(check (list (pair (list int) int)))
      (Printf.sprintf "boundary %d: the source's states are as they were" round)
      before (contents engine);
    children
  in
  let first = check_round ~fresh:positioned (positioned ()) ~round:1 ~drops_left:1 ~dups_left:1 in
  let copied =
    match
      List.find_map
        (fun ((drop, dup), _, _) -> match (drop, dup) with [], [ id ] -> Some id | _ -> None)
        first
    with
    | Some id -> id
    | None -> Alcotest.fail "no child duplicates a message"
  in
  let siblings = List.filter (fun ((drop, dup), _, _) -> drop = [] && dup = [ copied ]) first in
  Alcotest.(check bool) "several children copy one message" true (List.length siblings > 1);
  List.iter
    (fun (_, next, replay) ->
      Alcotest.(check bool) "a second boundary" true (Engine.pending_count next > 0);
      ignore (check_round ~fresh:replay next ~round:2 ~drops_left:1 ~dups_left:0 : _ list))
    siblings;
  Alcotest.(check bool) "a batch reached its destination in two states" true (!two_states > 0)

(* Inputs due at a crashed process. The engine drops them without a
   trace, so the values that processes crashed at time 0 propose cannot
   change a run; Checker.Twostep's run memo relies on this. For each of
   the protocols above, a seed, a time-0 crash set (never empty) and an
   intra-round order, two runs whose inputs differ only in the crashed
   processes' values must agree on the outputs, the whole trace, the fault
   counts, the final instant and every probe counter. Every process
   proposes at time 0; each crashed one also gets a second input later in
   the run, so inputs are due at a crashed process at more than one
   instant. Timers are on in half the cases. *)
let crashed_input_property =
  QCheck.Test.make ~name:"values of crashed processes change nothing" ~count:100
    QCheck.(
      make
        ~print:(fun (p, seed, order, timers) ->
          Printf.sprintf "%s, seed %d, order %d, timers %b" (fst key_protocols.(p)) seed order
            timers)
        Gen.(
          quad (int_bound (Array.length key_protocols - 1)) (int_bound 1_000_000) (int_bound 9)
            bool))
    (fun (p, seed, order, timers) ->
      let (module P : Proto.Protocol.S) = snd key_protocols.(p) in
      let rng = Random.State.make [| seed |] in
      let e, f = if Random.State.bool rng then (1, 1) else (2, 2) in
      let n = P.min_n ~e ~f in
      let crashed =
        match List.filter (fun _ -> Random.State.int rng 3 = 0) (Pid.all ~n) with
        | [] -> [ Random.State.int rng n ]
        | l -> l
      in
      let order =
        match order with
        | 0 -> Network.Arrival
        | 1 -> Network.Random_order
        | k -> Network.Favor (k mod n)
      in
      let values = List.map (fun _ -> Random.State.int rng 3) (Pid.all ~n) in
      let late = List.map (fun pid -> (1 + Random.State.int rng (3 * key_delta), pid)) crashed in
      let inputs values =
        List.mapi (fun pid v -> (0, pid, v)) values
        @ List.map (fun (at, pid) -> (at, pid, List.nth values pid)) late
      in
      let changed =
        List.mapi
          (fun pid v -> if List.mem pid crashed then v + 1 + Random.State.int rng 3 else v)
          values
      in
      let run values =
        let engine =
          Engine.create ~automaton:(P.make ~n ~e ~f ~delta:key_delta) ~n
            ~network:(Network.Sync_rounds { delta = key_delta; order })
            ~seed ~disable_timers:(not timers) ~inputs:(inputs values)
            ~crashes:(List.map (fun pid -> (0, pid)) crashed)
            ()
        in
        let result = Engine.run ~until:(10 * key_delta) engine in
        ( result,
          Engine.outputs engine,
          Engine.trace engine,
          Engine.now engine,
          Engine.probe engine )
      in
      let ((_, outputs, trace, _, probe) as a) = run values in
      let b = run changed in
      if a <> b then
        QCheck.Test.fail_reportf
          "crashed [%s]: %d outputs, %d trace entries, %a; the changed run differs"
          (String.concat ";" (List.map string_of_int crashed))
          (List.length outputs) (List.length trace) Engine.Probe.pp probe;
      true)

let () =
  Alcotest.run "dsim"
    [
      ( "time",
        [
          Alcotest.test_case "rounds" `Quick test_time_rounds;
          Alcotest.test_case "pids" `Quick test_pid_helpers;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sync delivery at boundary" `Quick test_sync_delivery_at_boundary;
          Alcotest.test_case "mid-round send" `Quick test_sync_mid_round_send;
          Alcotest.test_case "crash at start" `Quick test_crash_at_start_takes_no_step;
          Alcotest.test_case "crash before delivery" `Quick test_crash_before_delivery;
          Alcotest.test_case "favor order" `Quick test_favor_order;
          Alcotest.test_case "timer fire and cancel" `Quick test_timer_fires_and_cancel;
          Alcotest.test_case "timer re-arm" `Quick test_timer_rearm_replaces;
          Alcotest.test_case "run until / resume" `Quick test_run_until_resumable;
          Alcotest.test_case "bad pids rejected" `Quick test_bad_pids_rejected;
          Alcotest.test_case "step budget" `Quick test_step_budget;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "clone independence" `Quick test_clone_independent;
          Alcotest.test_case "clone same future" `Quick test_clone_same_future;
          Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
          Alcotest.test_case "input calendar invisible" `Quick test_input_calendar_invisible;
          Alcotest.test_case "timer heap semantics" `Quick test_timer_heap_semantics;
        ] );
      ( "networks",
        [
          Alcotest.test_case "partial synchrony bounds" `Quick test_partial_sync_bounds;
          Alcotest.test_case "partial synchrony validates" `Quick test_partial_sync_validates;
          QCheck_alcotest.to_alcotest partial_sync_contract_property;
          Alcotest.test_case "wan matrix" `Quick test_wan_latency;
          Alcotest.test_case "manual pending pool" `Quick test_manual_pending_and_deliver;
          Alcotest.test_case "pending slot reuse" `Quick test_pending_slot_reuse;
          Alcotest.test_case "pending fold/iter agree" `Quick test_pending_fold_iter_agree;
          Alcotest.test_case "uniform validates bounds" `Quick test_uniform_validates_bounds;
        ] );
      ( "faults",
        [
          Alcotest.test_case "scripted drop" `Quick test_fault_script_drop;
          Alcotest.test_case "scripted duplicate" `Quick test_fault_script_duplicate;
          Alcotest.test_case "scripted sender crash" `Quick test_fault_script_crash_sender;
          Alcotest.test_case "random plan replayable" `Quick test_fault_random_replayable;
          Alcotest.test_case "faults never perturb base delays" `Quick
            test_faults_never_perturb_base_delays;
          Alcotest.test_case "fault state survives clone" `Quick
            test_fault_state_survives_clone;
          Alcotest.test_case "plan validation" `Quick test_fault_plan_validation;
          Alcotest.test_case "crash at time 0 well-defined" `Quick
            test_crash_at_time_zero_is_well_defined;
        ] );
      ("trace", [ Alcotest.test_case "contents" `Quick test_trace_contents ]);
      ( "telemetry",
        [
          Alcotest.test_case "trace pp golden" `Quick test_trace_pp_golden;
          Alcotest.test_case "trace jsonl round-trip" `Quick test_trace_jsonl_roundtrip;
          Alcotest.test_case "probe matches trace" `Quick test_probe_matches_trace;
          Alcotest.test_case "probe survives clone/snapshot" `Quick
            test_probe_survives_clone_and_snapshot;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "order independence" `Quick test_fingerprint_order_independence;
          Alcotest.test_case "golden constants" `Quick test_fingerprint_golden;
          Alcotest.test_case "engine fingerprint stability" `Quick
            test_engine_fingerprint_stability;
          Alcotest.test_case "protocol digests" `Quick test_protocol_digests;
        ] );
      ( "child-key",
        [
          QCheck_alcotest.to_alcotest child_key_property;
          Alcotest.test_case "mutable state" `Quick test_child_key_mutable_state;
        ] );
      (* Labels no longer than "fingerprint": alcotest pads every label to
         the longest one and truncates test names to fit. *)
      ("crash-input", [ QCheck_alcotest.to_alcotest crashed_input_property ]);
    ]
