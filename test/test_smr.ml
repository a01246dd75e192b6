(* Tests for the SMR layer and the replicated KV store: log convergence,
   command retry after lost slots, crash tolerance, pipelining + batching,
   and the codec (single-op and batch). *)

module Pid = Dsim.Pid
module Network = Dsim.Network
module Instance = Smr.Replica.Instance
module Kv = Smr.Kv

let delta = 100

let cmd c k v = Kv.encode { Kv.client = c; key = k; action = Kv.Put v }
let rd c k = Kv.encode { Kv.client = c; key = k; action = Kv.Get }

let test_kv_codec_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check bool) "roundtrip" true (Kv.decode (Kv.encode op) = op))
    [
      { Kv.client = 0; key = 0; action = Put 0 };
      { Kv.client = 3; key = 1023; action = Put 1023 };
      { Kv.client = 4000; key = 17; action = Put 3 };
      { Kv.client = 150_000; key = 512; action = Put 7 };
      { Kv.client = Kv.max_client; key = 1023; action = Put 1023 };
      { Kv.client = 0; key = 0; action = Get };
      { Kv.client = 42; key = 512; action = Get };
      { Kv.client = Kv.max_client; key = 1023; action = Get };
    ];
  List.iter
    (fun op ->
      Alcotest.check_raises "range check"
        (Invalid_argument "Kv.encode: field out of range") (fun () ->
          ignore (Kv.encode op)))
    [
      { Kv.client = 0; key = 1024; action = Put 0 };
      { Kv.client = 0; key = 0; action = Put 1024 };
      { Kv.client = Kv.max_client + 1; key = 0; action = Put 0 };
      { Kv.client = -1; key = 0; action = Put 0 };
      { Kv.client = 0; key = 1024; action = Get };
    ];
  Alcotest.(check bool) "is_get on get word" true (Kv.is_get (rd 7 3));
  Alcotest.(check bool) "is_get off put word" false (Kv.is_get (cmd 7 3 9));
  (* Every single-op word sits below the batch-identifier range. *)
  Alcotest.(check bool) "ops below batch_base" true
    (Kv.encode { Kv.client = Kv.max_client; key = 1023; action = Get } < Kv.batch_base)

(* The decimal-radix codec only reached clients 0..4000 and fields 0..999;
   the bit-packed replacement must keep that whole legacy range working. *)
let kv_codec_legacy_property =
  QCheck.Test.make ~name:"kv codec covers the legacy decimal range" ~count:300
    QCheck.(triple (int_bound 4000) (int_bound 999) (int_bound 999))
    (fun (client, key, value) ->
      Kv.decode (Kv.encode { Kv.client; key; action = Put value })
      = { Kv.client; key; action = Put value })

let kv_codec_property =
  QCheck.Test.make ~name:"kv codec roundtrips >= 100k clients" ~count:500
    QCheck.(quad bool (int_bound Kv.max_client) (int_bound 1023) (int_bound 1023))
    (fun (get, client, key, value) ->
      let action = if get then Kv.Get else Kv.Put value in
      Kv.decode (Kv.encode { Kv.client; key; action }) = { Kv.client; key; action })

let test_batch_codec () =
  let reg = Kv.Batch.create () in
  let a = cmd 1 2 3 and b = cmd 4 5 6 and c = cmd 150_000 7 8 in
  (* Singletons pack to themselves: indistinguishable from unbatched. *)
  Alcotest.(check int) "singleton packs to itself" a (Kv.Batch.pack reg [ a ]);
  Alcotest.(check bool) "singleton is not a batch" false (Kv.Batch.is_batch a);
  let id = Kv.Batch.pack reg [ a; b; c ] in
  Alcotest.(check bool) "k>=2 packs to a batch id" true (Kv.Batch.is_batch id);
  Alcotest.(check bool) "id above batch_base" true (id >= Kv.batch_base);
  Alcotest.(check (list int)) "expand inverts pack" [ a; b; c ] (Kv.Batch.expand reg id);
  Alcotest.(check (list int)) "non-batch expands to itself" [ b ] (Kv.Batch.expand reg b);
  Alcotest.(check int) "same content, same id" id (Kv.Batch.pack reg [ a; b; c ]);
  Alcotest.(check bool) "different content, different id" true
    (Kv.Batch.pack reg [ b; a ] <> id);
  Alcotest.(check int) "size of batch" 3 (Kv.Batch.size reg id);
  Alcotest.(check int) "size of single op" 1 (Kv.Batch.size reg a);
  Alcotest.check_raises "empty batch" (Invalid_argument "Kv.Batch.pack: empty batch")
    (fun () -> ignore (Kv.Batch.pack reg []));
  Alcotest.check_raises "nested batch" (Invalid_argument "Kv.Batch.pack: nested batch")
    (fun () -> ignore (Kv.Batch.pack reg [ a; id ]));
  Alcotest.check_raises "unknown id" (Invalid_argument "Kv.Batch.expand: unknown batch id")
    (fun () -> ignore (Kv.Batch.expand reg (Kv.batch_base + 999)))

let batch_codec_property =
  QCheck.Test.make ~name:"batch pack/expand = id for op lists" ~count:200
    QCheck.(list_of_size Gen.(1 -- 10) (triple (int_bound 9999) (int_bound 1023) (int_bound 1023)))
    (fun ops ->
      QCheck.assume (ops <> []);
      let reg = Kv.Batch.create () in
      let words = List.map (fun (c, k, v) -> cmd c k v) ops in
      Kv.Batch.expand reg (Kv.Batch.pack reg words) = words)

let test_kv_store_apply () =
  let store = Kv.empty () in
  Kv.apply store { Kv.client = 0; key = 1; action = Put 10 };
  Kv.apply store { Kv.client = 1; key = 1; action = Put 20 };
  Kv.apply store { Kv.client = 0; key = 2; action = Put 30 };
  Kv.apply store { Kv.client = 2; key = 1; action = Get };
  Alcotest.(check (option int)) "last write wins" (Some 20) (Kv.get store 1);
  Alcotest.(check (option int)) "other key" (Some 30) (Kv.get store 2);
  Alcotest.(check (option int)) "missing" None (Kv.get store 9);
  Alcotest.(check int) "read with default" 0 (Kv.read store 9)

let test_mstore_eval () =
  let open Kv in
  let s = Mstore.empty in
  Alcotest.(check int) "unwritten reads 0" 0 (Mstore.read s 5);
  let s, r1 = Mstore.eval s { client = 0; key = 5; action = Put 11 } in
  Alcotest.(check int) "put returns written value" 11 r1;
  let s, r2 = Mstore.eval s { client = 1; key = 5; action = Get } in
  Alcotest.(check int) "get returns current" 11 r2;
  let s, _ = Mstore.eval s { client = 0; key = 5; action = Put 22 } in
  Alcotest.(check int) "current after overwrite" 22 (Mstore.read s 5);
  Alcotest.(check int) "stale is previous value" 11 (Mstore.stale s 5);
  Alcotest.(check int) "stale of single write" 0 (Mstore.stale s 9)

let run_instance ?(crashes = []) ?(seed = 0) ?pipeline ?batch_max ?faults ~protocol ~n
    ~e ~f ~commands ~until () =
  let t =
    Instance.create ~protocol ~n ~e ~f ~delta
      ~net:(Checker.Scenario.Partial { gst = 3 * delta; max_pre_gst = 2 * delta })
      ~seed ?pipeline ?batch_max ?faults ~commands ~crashes ()
  in
  ignore (Instance.run ~until t);
  t

let test_commands_commit_and_converge () =
  let n = 5 and e = 2 and f = 2 in
  let commands =
    [ (0, 0, cmd 0 1 11); (0, 2, cmd 1 2 22); (50, 4, cmd 2 3 33); (400, 1, cmd 3 1 44) ]
  in
  let t =
    run_instance ~protocol:Core.Rgs.task ~n ~e ~f ~commands ~until:(100 * delta) ()
  in
  Alcotest.(check bool) "logs converge" true (Instance.converged t);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d applied everything" p)
        4
        (List.length (Instance.applied_log t p)))
    (Pid.all ~n)

let test_conflicting_slot_reproposal () =
  (* Two proxies submit simultaneously: both commands must eventually
     commit, one of them after losing slot 0 and reproposing. *)
  let n = 5 and e = 2 and f = 2 in
  let commands = [ (0, 0, cmd 0 1 11); (0, 4, cmd 1 2 22) ] in
  let t =
    run_instance ~protocol:Core.Rgs.obj ~n ~e ~f ~commands ~until:(150 * delta) ()
  in
  Alcotest.(check bool) "converged" true (Instance.converged t);
  let log = Instance.applied_log t 2 in
  Alcotest.(check int) "both commands applied" 2 (List.length log);
  let applied = List.map snd log |> List.sort compare in
  Alcotest.(check (list int)) "exactly the two commands" [ cmd 0 1 11; cmd 1 2 22 ] applied

let test_replica_crash_mid_stream () =
  let n = 5 and e = 2 and f = 2 in
  let commands = List.init 5 (fun i -> (i * 2 * delta, i mod 3, cmd i (i + 1) (i + 1))) in
  let t =
    run_instance ~protocol:Core.Rgs.task ~n ~e ~f ~commands
      ~crashes:[ (5 * delta, 4) ]
      ~until:(200 * delta) ()
  in
  Alcotest.(check bool) "converged despite crash" true (Instance.converged t);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d applied all 5" p)
        5
        (List.length (Instance.applied_log t p)))
    [ 0; 1; 2; 3 ]

let test_kv_replay_agreement () =
  let n = 5 and e = 2 and f = 2 in
  let commands = [ (0, 0, cmd 0 1 11); (0, 1, cmd 1 1 22); (100, 2, cmd 2 1 33) ] in
  let t =
    run_instance ~protocol:Core.Rgs.obj ~n ~e ~f ~commands ~until:(150 * delta) ()
  in
  let stores = List.map (fun p -> Kv.replay (Instance.applied_log t p)) (Pid.all ~n) in
  match stores with
  | first :: rest ->
      List.iter
        (fun s -> Alcotest.(check bool) "same final store" true (Kv.equal_store first s))
        rest
  | [] -> Alcotest.fail "no stores"

(* Pipelining + batching: a burst of commands at one proxy must land in far
   fewer slots than commands, every command exactly once, logs converged. *)
let test_pipelined_batched_burst () =
  let n = 5 and e = 2 and f = 2 in
  let count = 40 in
  let commands = List.init count (fun i -> (i * 3, 0, cmd i (i mod 10) (i + 1))) in
  let t =
    run_instance ~protocol:Core.Rgs.obj ~n ~e ~f ~pipeline:4 ~batch_max:8 ~commands
      ~until:(300 * delta) ()
  in
  Alcotest.(check bool) "converged" true (Instance.converged t);
  let log = Instance.applied_log t 0 in
  Alcotest.(check int) "every command applied once" count (List.length log);
  Alcotest.(check (list int)) "exactly the submitted commands"
    (List.map (fun (_, _, c) -> c) commands)
    (List.sort compare (List.map snd log));
  let slots = List.sort_uniq compare (List.map fst log) in
  Alcotest.(check bool)
    (Printf.sprintf "batched into fewer slots (%d)" (List.length slots))
    true
    (List.length slots < count)

let test_drain_outputs_exactly_once () =
  let n = 5 and e = 2 and f = 2 in
  let commands = List.init 8 (fun i -> (i * 10, 0, cmd i 1 (i + 1))) in
  let t =
    run_instance ~protocol:Core.Rgs.obj ~n ~e ~f ~pipeline:2 ~batch_max:4 ~commands
      ~until:(200 * delta) ()
  in
  let drained = ref [] in
  Instance.drain_new_outputs t ~f:(fun time pid slot c ret ->
      drained := (time, pid, (slot, c, ret)) :: !drained);
  Alcotest.(check int) "drain sees all outputs"
    (List.length (Instance.outputs t))
    (List.length !drained);
  Alcotest.(check bool) "drain matches outputs" true
    (List.rev !drained = Instance.outputs t);
  let again = ref 0 in
  Instance.drain_new_outputs t ~f:(fun _ _ _ _ _ -> incr again);
  Alcotest.(check int) "second drain is empty" 0 !again

(* Read results: a Get committed after a Put must carry the written value
   in its output, on every replica; a [Stale_reads] replica serves the
   key's previous value instead — the checker's canary misbehaviour. *)
let test_read_results_and_stale_mutation () =
  let n = 5 and e = 2 and f = 2 in
  let commands =
    [ (0, 0, cmd 0 1 5); (10 * delta, 0, cmd 1 1 7); (25 * delta, 0, rd 2 1) ]
  in
  let run ?mutation () =
    let t =
      Instance.create ~protocol:Core.Rgs.task ~n ~e ~f ~delta
        ~net:(Checker.Scenario.Partial { gst = 3 * delta; max_pre_gst = 2 * delta })
        ?mutation ~commands ()
    in
    ignore (Instance.run ~until:(100 * delta) t);
    t
  in
  let get_ret t pid =
    List.find_map
      (fun (_, p, (_, c, ret)) -> if Pid.equal p pid && c = rd 2 1 then Some ret else None)
      (Instance.outputs t)
  in
  let t = run () in
  Alcotest.(check bool) "converged" true (Instance.converged t);
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (Printf.sprintf "p%d read result" p)
        (Some 7) (get_ret t p))
    (Pid.all ~n);
  let t = run ~mutation:(Smr.Replica.Stale_reads 2) () in
  Alcotest.(check (option int)) "mutated replica serves stale value" (Some 5) (get_ret t 2);
  Alcotest.(check (option int)) "healthy replica unaffected" (Some 7) (get_ret t 0)

(* The tentpole safety property: across protocol x pipeline/batch x fault
   plan x seed, per-replica applied logs agree on common prefixes and
   replay to equal KV stores wherever logs are complete. *)
let smr_convergence_property ?faults ?(pipeline = 1) ?(batch_max = 1) protocol name =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "smr over %s (pipe %d, batch %d%s): convergence + kv agreement"
         name pipeline batch_max
         (match faults with None -> "" | Some _ -> ", faults"))
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let n = 5 and e = 2 and f = 2 in
      let rng = Stdext.Rng.create ~seed in
      let count = 1 + Stdext.Rng.int rng 8 in
      let commands =
        List.init count (fun i ->
            ( Stdext.Rng.int rng (10 * delta),
              Stdext.Rng.int rng n,
              cmd i (Stdext.Rng.int rng 10) (i + 1) ))
      in
      let crashes =
        if Stdext.Rng.bool rng then [ (Stdext.Rng.int rng (20 * delta), n - 1) ] else []
      in
      let t =
        run_instance ~protocol ~n ~e ~f ~pipeline ~batch_max ?faults ~commands ~crashes
          ~seed ~until:(400 * delta) ()
      in
      if not (Instance.converged t) then false
      else begin
        (* KV agreement on the longest common prefix: replay each pair of
           logs truncated to their common length. *)
        let logs = List.map (fun p -> Instance.applied_log t p) (Pid.all ~n) in
        let truncate l k = List.filteri (fun i _ -> i < k) l in
        List.for_all
          (fun la ->
            List.for_all
              (fun lb ->
                let k = min (List.length la) (List.length lb) in
                Kv.equal_store (Kv.replay (truncate la k)) (Kv.replay (truncate lb k)))
              logs)
          logs
      end)

let drop_dup_faults =
  Network.Fault.random ~drop_rate:0.05 ~dup_rate:0.1 ~max_drops:4 ~max_dups:6
    ~max_extra_delay:delta ()

(* -- golden replica outputs ---------------------------------------------- *)

(* Golden digests of [Instance.outputs]: every (time, pid, slot, command,
   response) a replica emits, for each protocol x pipeline/batch shape x
   fault plan, over an open-loop client fleet on planet5. The digests were
   captured from the persistent-map replica; any change to the replica's
   action order, lane reuse, batching or apply path fails here with the
   offending cell's label.

   Regenerate (only when a behaviour change is intended) with:
     GOLDEN_PRINT=1 dune exec test/test_smr.exe 2>/dev/null *)

let golden_protocols =
  [
    ("rgs-task", Core.Rgs.task);
    ("rgs-object", Core.Rgs.obj);
    ("paxos", Baselines.Paxos.protocol);
    ("fast-paxos", Baselines.Fast_paxos.protocol);
    ("epaxos", Epaxos.protocol);
  ]

let golden_shapes = [ ("p1b1", 1, 1); ("p16b64", 16, 64) ]

let golden_seeds = [ 1; 2 ]

let planet5 = Workload.Topology.planet5

let planet5_delta = Workload.Topology.max_oneway planet5 + 10

(* A fault budget large enough to reach the decisive messages, not just the
   first few broadcasts of the run. *)
let golden_faults =
  Network.Fault.random ~drop_rate:0.02 ~dup_rate:0.05 ~max_drops:64 ~max_dups:64
    ~max_extra_delay:planet5_delta ()

(* 48 Poisson clients offering 40 cmd/s in total for 8 s, a quarter of the
   commands reads, a quarter on a hot key; client c submits to replica
   c mod n. Arrivals never depend on completions. *)
let open_loop_commands ~n ~seed =
  let rng = Stdext.Rng.create ~seed in
  let clients = 48 and horizon = 8_000 in
  let mean_gap = 1000.0 *. float_of_int clients /. 40.0 in
  List.concat
    (List.init clients (fun c ->
         let rec arrivals t acc =
           let t = t +. (mean_gap *. -.log (1.0 -. Stdext.Rng.float rng 1.0)) in
           if t >= float_of_int horizon then List.rev acc
           else
             let key = if Stdext.Rng.int rng 4 = 0 then 0 else Stdext.Rng.int rng 16 in
             let word =
               if Stdext.Rng.int rng 4 = 0 then rd c key else cmd c key (Stdext.Rng.int rng 1024)
             in
             arrivals t ((int_of_float t, c mod n, word) :: acc)
         in
         arrivals 0.0 []))

let golden_run (module P : Proto.Protocol.S) ~pipeline ~batch_max ?faults ~seed () =
  let n = P.min_n ~e:2 ~f:2 in
  let t =
    Instance.create
      ~protocol:(module P)
      ~n ~e:2 ~f:2 ~delta:planet5_delta
      ~net:(Checker.Scenario.Wan { latency = Workload.Topology.latency_fn planet5; jitter = 0 })
      ~seed ~pipeline ~batch_max ?faults
      ~commands:(open_loop_commands ~n ~seed)
      ()
  in
  ignore (Instance.run ~until:20_000 t);
  t

let outputs_text t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (time, pid, (slot, command, ret)) ->
      Printf.bprintf buf "%d %d %d %d %d\n" time pid slot command ret)
    (Instance.outputs t);
  Buffer.contents buf

let golden_cells () =
  List.concat_map
    (fun (pname, proto) ->
      List.concat_map
        (fun (shape, pipeline, batch_max) ->
          List.map
            (fun (fname, faults) ->
              let label = Printf.sprintf "%s/%s/%s" pname shape fname in
              let digest =
                lazy
                  (Digest.to_hex
                     (Digest.string
                        (String.concat ""
                           (List.map
                              (fun seed ->
                                outputs_text
                                  (golden_run proto ~pipeline ~batch_max ?faults ~seed ()))
                              golden_seeds))))
              in
              (label, digest))
            [ ("none", None); ("dropdup", Some golden_faults) ])
        golden_shapes)
    golden_protocols

(* Captured from the persistent-map replica; see the comment above. *)
let golden =
  [
    ("rgs-task/p1b1/none", "e9bcdb9d422471d59da325563cbeec9a");
    ("rgs-task/p1b1/dropdup", "bd3661e2b0645a3b2434960fc20b1990");
    ("rgs-task/p16b64/none", "cb6a8943cfd5312963a867a6fba587df");
    ("rgs-task/p16b64/dropdup", "95adf36d3774e46c393ce97becd3c963");
    ("rgs-object/p1b1/none", "2ed248834a9f62b4a155e80968f1010f");
    ("rgs-object/p1b1/dropdup", "e531529f5ccf8150738836d5710b5612");
    ("rgs-object/p16b64/none", "d128d7eab4db1c4d270f656f78aa3174");
    ("rgs-object/p16b64/dropdup", "b2235f6f3c755add7b33e89c9a537575");
    ("paxos/p1b1/none", "2b7def99ee818dd5a875ac8e1abd6273");
    ("paxos/p1b1/dropdup", "b98f333b5646722ccba077b9f1be1d07");
    ("paxos/p16b64/none", "1d3427df2edda6ef78b60609b508add3");
    ("paxos/p16b64/dropdup", "28759db03cf53be145abde8761e6ce45");
    ("fast-paxos/p1b1/none", "f4d0d499bc008b647c5fd5d703299d9e");
    ("fast-paxos/p1b1/dropdup", "bc6744dcf0300a6bfbd2a2e54d4794c5");
    ("fast-paxos/p16b64/none", "6f7eafc03a043ae1bb2b84a89ac18b3d");
    ("fast-paxos/p16b64/dropdup", "7bb9362f3d528b80354d698f418f19b7");
    ("epaxos/p1b1/none", "781d956573efcba129b1a88803f682d4");
    ("epaxos/p1b1/dropdup", "65e44bd539668f8fee4d37eb1b8dbde1");
    ("epaxos/p16b64/none", "fe455a19b545b7c5c98fcf90651a77ce");
    ("epaxos/p16b64/dropdup", "224e0eb8f7b956950b4f5b5a84871aec");
  ]

let test_golden_outputs () =
  List.iter
    (fun (label, digest) ->
      match List.assoc_opt label golden with
      | None -> Alcotest.failf "no golden digest for %s" label
      | Some expect -> Alcotest.(check string) label expect (Lazy.force digest))
    (golden_cells ())

(* The replica state is mutable, so branching an SMR run with
   [Engine.clone] is sound only if the replica's [state_copy] deep-copies
   it. Branch a busy run at 4 s, run the clone to the horizon first and the
   original after it: both must emit exactly what an unbranched run
   emits. *)
let test_clone_independence () =
  let (module P : Proto.Protocol.S) = Core.Rgs.task in
  let n = P.min_n ~e:2 ~f:2 in
  let build () =
    let batches = Kv.Batch.create () in
    let automaton =
      Smr.Replica.make ~pipeline:16 ~batch_max:64 ~pack:(Kv.Batch.pack batches)
        ~expand:(Kv.Batch.expand batches) (module P) ~n ~e:2 ~f:2 ~delta:planet5_delta
    in
    Dsim.Engine.create ~automaton ~n
      ~network:(Network.Wan { latency = Workload.Topology.latency_fn planet5; jitter = 0 })
      ~seed:3 ~record_trace:false ~faults:golden_faults
      ~inputs:(open_loop_commands ~n ~seed:3)
      ()
  in
  let finish engine =
    ignore (Dsim.Engine.run ~until:20_000 engine : Dsim.Engine.run_result);
    Dsim.Engine.outputs engine
  in
  let unbranched = finish (build ()) in
  let original = build () in
  ignore (Dsim.Engine.run ~until:4_000 original : Dsim.Engine.run_result);
  let branch = Dsim.Engine.clone original in
  let from_clone = finish branch in
  let from_original = finish original in
  let outputs = Alcotest.(list (triple int int (triple int int int))) in
  Alcotest.(check bool) "run is busy" true (List.length unbranched > 1000);
  Alcotest.check outputs "clone = unbranched" unbranched from_clone;
  Alcotest.check outputs "original after clone = unbranched" unbranched from_original

(* -- one Ω per replica ----------------------------------------------------- *)

(* p0, the initial Ω leader, crashes at 5 s while 400 commands arrive at
   the other replicas over the first 10 s. The replicas' Ω must move the
   leadership on, in the slots open at the crash and in every slot opened
   after it, so every command is applied at every correct replica. *)
let test_leader_crash () =
  List.iter
    (fun (name, (module P : Proto.Protocol.S)) ->
      let n = P.min_n ~e:2 ~f:2 in
      let commands =
        List.init 400 (fun i -> (i * 25, 1 + (i mod (n - 1)), cmd i (i mod 16) (i mod 1024)))
      in
      let t =
        Instance.create
          ~protocol:(module P)
          ~n ~e:2 ~f:2 ~delta:planet5_delta
          ~net:(Checker.Scenario.Wan { latency = Workload.Topology.latency_fn planet5; jitter = 0 })
          ~seed:1 ~pipeline:4 ~batch_max:8 ~commands
          ~crashes:[ (5_000, 0) ]
          ()
      in
      ignore (Instance.run ~until:60_000 t);
      Alcotest.(check bool) (name ^ ": logs converge") true (Instance.converged t);
      let offered = List.sort compare (List.map (fun (_, _, c) -> c) commands) in
      List.iter
        (fun p ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s: p%d applied every command once" name p)
            offered
            (List.sort compare (List.map snd (Instance.applied_log t p))))
        (List.tl (Pid.all ~n)))
    [
      ("paxos", Baselines.Paxos.protocol);
      ("fast-paxos", Baselines.Fast_paxos.protocol);
      ("rgs-task", Core.Rgs.task);
    ]

(* A protocol that does nothing but probe its Ω leader, on a proposal and
   on its one timer, so the replica's actions show whom a slot instance
   takes for the leader. *)
module Leader_probe = struct
  module Omega = Proto.Omega

  type msg = Beat of Omega.msg | Probe

  type state = Omega.state

  let name = "leader-probe"

  let pp_msg fmt = function
    | Beat m -> Omega.pp_msg fmt m
    | Probe -> Format.pp_print_string fmt "probe"

  let describe = "sends a probe to its Ω leader"

  let min_n ~e:_ ~f:_ = 1

  let make ~n:_ ~e:_ ~f:_ ~delta =
    let lift (s, actions) = (s, Dsim.Automaton.map_msg (fun m -> Beat m) actions) in
    let probe s = (s, [ Dsim.Automaton.Send (Omega.leader s, Probe) ]) in
    {
      Dsim.Automaton.init =
        (fun ~self ~n ->
          let s, actions = lift (Omega.init ~self ~n ~delta ()) in
          (s, Dsim.Automaton.Set_timer { id = 0; after = delta } :: actions));
      on_message =
        (fun s ~src -> function Beat m -> lift (Omega.on_message s ~src m) | Probe -> (s, []));
      on_input = (fun s _ -> probe s);
      on_timer =
        (fun s id -> if Omega.owns_timer s id then lift (Omega.on_timer s id) else probe s);
      state_copy = Fun.id;
      state_fingerprint = None;
    }

  let omega =
    Some { Omega.wrap = (fun m -> Beat m); unwrap = (function Beat m -> Some m | Probe -> None) }
end

(* A slot instance never runs its own Ω: it starts from the replica's
   suspicions, whether this replica opens the slot or hears of it, and
   follows every later change of them. *)
let test_slots_follow_replica_omega () =
  let module A = Dsim.Automaton in
  let n = 3 in
  let a = Smr.Replica.make (module Leader_probe) ~n ~e:0 ~f:1 ~delta in
  let replica self = fst (a.init ~self ~n) in
  let probed actions = List.filter_map (function A.Send (dst, _) -> Some dst | _ -> None) actions in
  let broadcasts actions = List.filter (function A.Broadcast _ -> true | _ -> false) actions in
  let timers actions =
    List.filter_map (function A.Set_timer { id; _ } -> Some id | _ -> None) actions
  in
  let heartbeat_of_p0 =
    match snd (a.init ~self:0 ~n) with
    | A.Broadcast m :: _ -> m
    | _ -> Alcotest.fail "a replica's Ω heartbeats from time 0"
  in
  let suspect_p0 s = fst (a.on_timer s (Proto.Omega.suspect_timer 0)) in
  (* Opened under suspicion: the proposal probes p1, one announcement
     goes out, and the slot arms its protocol timer and no Ω timer. *)
  let s = suspect_p0 (replica 2) in
  let _, opened = a.on_input s (cmd 0 1 1) in
  Alcotest.(check (list int)) "opened under suspicion" [ 1 ] (probed opened);
  Alcotest.(check int) "one announcement" 1 (List.length (broadcasts opened));
  Alcotest.(check int) "no Ω timer in the slot" 1 (List.length (timers opened));
  (* Heard of under suspicion: p1's announcement of its slot reaches p2,
     whose new instance probes p1 when its timer fires. *)
  let announcement =
    match broadcasts (snd (a.on_input (replica 1) (cmd 0 1 1))) with
    | [ A.Broadcast m ] -> m
    | _ -> Alcotest.fail "p1 announces its slot"
  in
  let s = suspect_p0 (replica 2) in
  let s, heard = a.on_message s ~src:1 announcement in
  Alcotest.(check (list int)) "an announcement sends nothing" [] (probed heard);
  let _, fired = a.on_timer s (List.hd (timers heard)) in
  Alcotest.(check (list int)) "heard of under suspicion" [ 1 ] (probed fired);
  (* Opened before the suspicion: the instance follows the replica's Ω
     as it suspects p0 and as p0's heartbeat clears it. *)
  let s, opened = a.on_input (replica 2) (cmd 0 1 1) in
  Alcotest.(check (list int)) "opened trusting p0" [ 0 ] (probed opened);
  let timer = List.hd (timers opened) in
  let s = suspect_p0 s in
  let s, fired = a.on_timer s timer in
  Alcotest.(check (list int)) "suspicion relayed" [ 1 ] (probed fired);
  let s, _ = a.on_message s ~src:0 heartbeat_of_p0 in
  let _, fired = a.on_timer s timer in
  Alcotest.(check (list int)) "heartbeat relayed" [ 0 ] (probed fired)

let () =
  match Sys.getenv_opt "GOLDEN_PRINT" with
  | Some _ ->
      List.iter
        (fun (label, digest) -> Printf.printf "    (%S, %S);\n" label (Lazy.force digest))
        (golden_cells ());
      exit 0
  | None -> ()

let () =
  Alcotest.run "smr"
    [
      ( "kv",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_kv_codec_roundtrip;
          QCheck_alcotest.to_alcotest kv_codec_legacy_property;
          QCheck_alcotest.to_alcotest kv_codec_property;
          Alcotest.test_case "batch codec" `Quick test_batch_codec;
          QCheck_alcotest.to_alcotest batch_codec_property;
          Alcotest.test_case "store apply" `Quick test_kv_store_apply;
          Alcotest.test_case "mstore eval" `Quick test_mstore_eval;
        ] );
      ( "replication",
        [
          Alcotest.test_case "commit and converge" `Quick test_commands_commit_and_converge;
          Alcotest.test_case "slot reproposal" `Quick test_conflicting_slot_reproposal;
          Alcotest.test_case "replica crash" `Quick test_replica_crash_mid_stream;
          Alcotest.test_case "kv replay agreement" `Quick test_kv_replay_agreement;
          Alcotest.test_case "pipelined batched burst" `Quick test_pipelined_batched_burst;
          Alcotest.test_case "drain exactly once" `Quick test_drain_outputs_exactly_once;
          Alcotest.test_case "read results + stale mutation" `Quick
            test_read_results_and_stale_mutation;
          Alcotest.test_case "clone independence" `Quick test_clone_independence;
          Alcotest.test_case "leader crash" `Quick test_leader_crash;
          Alcotest.test_case "slots follow the replica's Ω" `Quick
            test_slots_follow_replica_omega;
        ] );
      ( "golden",
        [ Alcotest.test_case "replica output digests (protocol x shape x faults)" `Quick
            test_golden_outputs ] );
      ( "convergence",
        [
          QCheck_alcotest.to_alcotest (smr_convergence_property Core.Rgs.obj "rgs-object");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property Baselines.Paxos.protocol "paxos");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~pipeline:4 ~batch_max:8 Core.Rgs.obj "rgs-object");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~pipeline:4 ~batch_max:8 Core.Rgs.task "rgs-task");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~pipeline:4 ~batch_max:8
               Baselines.Paxos.protocol "paxos");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~pipeline:4 ~batch_max:8
               Baselines.Fast_paxos.protocol "fast-paxos");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~pipeline:4 ~batch_max:8 Epaxos.protocol "epaxos");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~faults:drop_dup_faults ~pipeline:4 ~batch_max:8
               Core.Rgs.obj "rgs-object");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~faults:drop_dup_faults ~pipeline:4 ~batch_max:8
               Baselines.Paxos.protocol "paxos");
          QCheck_alcotest.to_alcotest
            (smr_convergence_property ~faults:drop_dup_faults ~pipeline:4 ~batch_max:8
               Epaxos.protocol "epaxos");
        ] );
    ]
