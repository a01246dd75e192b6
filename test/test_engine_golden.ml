(* Cross-engine trace equivalence: golden digests of Trace.to_jsonl.

   The digests below were captured from the engine as of the seed of the
   int-packed hot-path rewrite (boxed Pqueue entries, Map-based pending
   pool and timer table). The rewritten engine must produce byte-identical
   JSONL traces for every (protocol, network, fault plan, seed) cell, so
   any behavioural drift in event ordering, fault decisions, RNG
   consumption or trace rendering fails here with the offending cell's
   label.

   Regenerate (only when a trace-schema change is intended) with:
     GOLDEN_PRINT=1 dune exec test/test_engine_golden.exe 2>/dev/null *)

module Json = Stdext.Json

let delta = 100

let seeds = [ 1; 2; 3 ]

let protocols =
  [
    ("rgs-task", Core.Rgs.task, 6, 2, 2);
    ("rgs-object", Core.Rgs.obj, 5, 2, 2);
    ("paxos", Baselines.Paxos.protocol, 5, 0, 2);
    ("fast-paxos", Baselines.Fast_paxos.protocol, 7, 2, 2);
  ]

let wan_latency ~src ~dst = 20 + (10 * ((src + (3 * dst)) mod 4))

let nets : (string * Dsim.Network.t) list =
  [
    ("sync-arrival", Sync_rounds { delta; order = Dsim.Network.Arrival });
    ("sync-random", Sync_rounds { delta; order = Dsim.Network.Random_order });
    ("partial", Partial_sync { delta; gst = 3 * delta; max_pre_gst = 150 });
    ("uniform", Uniform { min_delay = 30; max_delay = 170 });
    ("wan", Wan { latency = wan_latency; jitter = 15 });
  ]

let fault_plans =
  [
    ("none", Dsim.Network.Fault.none);
    ( "random",
      Dsim.Network.Fault.random ~drop_rate:0.1 ~dup_rate:0.1 ~max_drops:2 ~max_dups:2
        ~max_extra_delay:37 () );
    ( "script",
      Dsim.Network.Fault.script
        [
          (2, Dsim.Network.Fault.Drop);
          (5, Dsim.Network.Fault.Duplicate { extra_delay = 13 });
          (9, Dsim.Network.Fault.Crash_sender);
        ] );
  ]

(* One run's trace as the stable JSONL text. Message payloads are encoded
   through the protocol's printer, so the digest covers the full wire
   content, not just event shapes. *)
let jsonl_of_run (module P : Proto.Protocol.S) ~n ~e ~f ~net ~faults ~seed =
  let automaton = P.make ~n ~e ~f ~delta in
  let inputs = List.init n (fun i -> (0, i, n - 1 - i)) in
  let engine =
    Dsim.Engine.create ~automaton ~n ~network:net ~seed ~inputs ~faults ()
  in
  ignore (Dsim.Engine.run ~until:4000 engine : Dsim.Engine.run_result);
  let enc_msg m = Json.String (Format.asprintf "%a" P.pp_msg m) in
  let enc_v v = Json.Int v in
  Format.asprintf "%a"
    (Dsim.Trace.to_jsonl ~msg:enc_msg ~input:enc_v ~output:enc_v)
    (Dsim.Engine.trace engine)

let digest_of_cell proto ~n ~e ~f ~net ~faults =
  let buf = Buffer.create 4096 in
  List.iter
    (fun seed -> Buffer.add_string buf (jsonl_of_run proto ~n ~e ~f ~net ~faults ~seed))
    seeds;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let cells () =
  List.concat_map
    (fun (pname, proto, n, e, f) ->
      List.concat_map
        (fun (nname, net) ->
          List.map
            (fun (fname, faults) ->
              let label = Printf.sprintf "%s/%s/%s" pname nname fname in
              (label, lazy (digest_of_cell proto ~n ~e ~f ~net ~faults)))
            fault_plans)
        nets)
    protocols

(* Captured from the seed engine; see the header comment. *)
let golden =
  [
    ("rgs-task/sync-arrival/none", "44f8417564d9e4ec630fc005117b469b");
    ("rgs-task/sync-arrival/random", "627707b28ca48e20af66efcf8a40aa92");
    ("rgs-task/sync-arrival/script", "8d8005da8a5d74b9ce7b8bd3e73ed6e2");
    ("rgs-task/sync-random/none", "c0401dd58cbefeeab2a7272f7b5893e6");
    ("rgs-task/sync-random/random", "9380ffce4a1ac7f0d30be1a02c3e37d9");
    ("rgs-task/sync-random/script", "798e3803ff8ccc38954ee10eb0cd7a3f");
    ("rgs-task/partial/none", "a72340009e8d03ebb4159ea215bb463e");
    ("rgs-task/partial/random", "a2431327adf54218be10803b4d89ec76");
    ("rgs-task/partial/script", "bcb8513e7d1612be98ca5b1cca6cbb3b");
    ("rgs-task/uniform/none", "86d11acf0fb5dd8a6751ced8ac773c8b");
    ("rgs-task/uniform/random", "1e4ab8efd90a317ff956033d3bc68021");
    ("rgs-task/uniform/script", "db1e4e8c25827a0273a593bf04d40b90");
    ("rgs-task/wan/none", "08016bab48ca54a3562d0bb0a7322da8");
    ("rgs-task/wan/random", "63db4692dcc1d7564af5370b377cb336");
    ("rgs-task/wan/script", "a9307815fb0f855257ed7be560e13b45");
    ("rgs-object/sync-arrival/none", "0eefbd051155377b407f1a68af783daa");
    ("rgs-object/sync-arrival/random", "b8a2ce31994bfe45ce771806f1b154d1");
    ("rgs-object/sync-arrival/script", "fb4e23c0f5f4d077b676708459bc2ae6");
    ("rgs-object/sync-random/none", "5f23aa73b726965a9754c47274f50750");
    ("rgs-object/sync-random/random", "37defc23f74120a3b7311932467480d3");
    ("rgs-object/sync-random/script", "95eadfd43b9ffe210871127ded05df7a");
    ("rgs-object/partial/none", "c0e61fd0b6c72be196ec520760a88402");
    ("rgs-object/partial/random", "a43184c798f5b03b2b93799fe3d4b8be");
    ("rgs-object/partial/script", "414434ec23ff8fcbe2b131e9c89e6b6f");
    ("rgs-object/uniform/none", "4f5323bb33276b9a54e38e3d966c3864");
    ("rgs-object/uniform/random", "a064807746aa79dfa254ea6f0e8acf22");
    ("rgs-object/uniform/script", "60fad8977e742acece12dcbec81fbcb6");
    ("rgs-object/wan/none", "2eb3825eb162d0bb40fb67d7cbe07e1a");
    ("rgs-object/wan/random", "c2eeae510b35efc2f5559170cfd454d3");
    ("rgs-object/wan/script", "82343c42288362b8eebd07c9e6ffb99a");
    ("paxos/sync-arrival/none", "d32cc3f710219055b36774b60cbc86c3");
    ("paxos/sync-arrival/random", "345f075e657700743ab895b0b8dddeae");
    ("paxos/sync-arrival/script", "3f0c66be050f5c13606b0af581bd923e");
    ("paxos/sync-random/none", "2001834f9e8e17e220bae67951d7fe57");
    ("paxos/sync-random/random", "d473d37ec4d53687292b54d39b0cb87b");
    ("paxos/sync-random/script", "db0870b7bf1769314bbbfa9ee43e6783");
    ("paxos/partial/none", "0e45973b8fe1234318e0b4ad4c3f76f6");
    ("paxos/partial/random", "9f533d7f84b8362e7d1277ed40ce4f60");
    ("paxos/partial/script", "9e61d3b6d56e415dc0c7c497b837a7d6");
    ("paxos/uniform/none", "1c3907f2045dc76a6e2322256513d243");
    ("paxos/uniform/random", "b41a3d6168c2abc374cc4586119081de");
    ("paxos/uniform/script", "c43fad70e2d57616f3117d256e86cbc7");
    ("paxos/wan/none", "f727c7b3374dbcdcc9489ae0d07b5ec2");
    ("paxos/wan/random", "4a43a8d5d1f340477d54efa366fe700d");
    ("paxos/wan/script", "0c8f5aa0db61d082a36153e947cea993");
    ("fast-paxos/sync-arrival/none", "58e5d3646b8f0423e8b2dd666f543318");
    ("fast-paxos/sync-arrival/random", "b8305c56ac251d27ebf6008eb6269d93");
    ("fast-paxos/sync-arrival/script", "4805c6e2e94f6024e0061e78ded108db");
    ("fast-paxos/sync-random/none", "3d8015aa9af1a22410a808bc8622fa16");
    ("fast-paxos/sync-random/random", "4bb6cf7e28b3975d2753cec26a5117cb");
    ("fast-paxos/sync-random/script", "2ce2f2292095dc0df30a9cd33ffbc275");
    ("fast-paxos/partial/none", "707f93bfa673c97f7ee95b1e2c69302b");
    ("fast-paxos/partial/random", "b47f4ca837a9a898903b0b79cae58d6e");
    ("fast-paxos/partial/script", "511e7947640d8a258f10cda44998cfb7");
    ("fast-paxos/uniform/none", "81ec5528bdc792094e64a16d50e1049d");
    ("fast-paxos/uniform/random", "9942ce63a456399f871c975a23f30166");
    ("fast-paxos/uniform/script", "08c7f13d2bf11b164d195912ea0f4ab2");
    ("fast-paxos/wan/none", "2bc654ad80e1100980477d17e5f6217f");
    ("fast-paxos/wan/random", "77d3bae7368c883a20bd8bad130a5ed9");
    ("fast-paxos/wan/script", "bbf177e7289905387b6871ca52b71390");
  ]

let test_golden () =
  List.iter
    (fun (label, digest) ->
      match List.assoc_opt label golden with
      | None -> Alcotest.failf "no golden digest for %s" label
      | Some expect -> Alcotest.(check string) label expect (Lazy.force digest))
    (cells ())

let () =
  match Sys.getenv_opt "GOLDEN_PRINT" with
  | Some _ ->
      List.iter
        (fun (label, digest) ->
          Printf.printf "    (%S, %S);\n" label (Lazy.force digest))
        (cells ())
  | None ->
      Alcotest.run "engine_golden"
        [
          ( "trace equivalence",
            [ Alcotest.test_case "golden digests (protocol x net x faults)" `Quick test_golden ]
          );
        ]
