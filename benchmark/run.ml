(* The repository benchmark.

     bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   runs one workload (see workloads.ml and README.md) in this single
   process and single domain. With --trace 0 it repeats the workload until
   S seconds have passed and at least three repetitions have run, and
   reports the end-to-end metrics: times in host-speed-corrected reference
   seconds (hostspeed.ml), each part of a repetition at its fastest, and
   set-up time as the median of five cold set-up passes, each in a fresh
   process. With --trace 1 it runs one traced repetition and reports the
   per-layer metrics instead. Human-readable lines go to stdout first; the
   last line is one JSON object {correct, attempted, failed, metrics}. Any
   failed correctness gate is reported on stderr and makes the exit code
   1. *)

let end_to_end =
  [ ("setup_s", "s"); ("verdict_s", "s"); ("items_per_s", "1/s"); ("max_heap_mb", "MB") ]

let per_layer =
  [
    ("dsim.self_s", "s");
    ("dsim.self_share", "fraction");
    ("dsim.events_per_commit", "events/commit");
    ("dsim.messages_per_commit", "msgs/commit");
    ("dsim.timer_fires_per_commit", "fires/commit");
    ("dsim.queue_hwm", "events");
    ("dsim.causality.overhead_frac", "fraction");
    ("smr.self_s", "s");
    ("smr.self_share", "fraction");
    ("smr.ns_per_transition", "ns");
    ("smr.transitions_per_commit", "calls/commit");
    ("smr.mean_batch", "cmds/slot");
    ("proto.self_s", "s");
    ("proto.self_share", "fraction");
    ("proto.ns_per_transition", "ns");
    ("proto.transitions_per_commit", "calls/commit");
    ("proto.two_step_frac", "fraction");
    ("proto.delay_steps_p50", "delays");
    ("checker.twostep.configs", "count");
    ("checker.twostep.runs", "count");
    ("checker.twostep.runs_per_s", "1/s");
    ("checker.twostep.rest_self_s", "s");
    ("checker.explore.explored", "count");
    ("checker.explore.distinct_states", "count");
    ("checker.explore.dedup_hits", "count");
    ("checker.explore.por_pruned", "count");
    ("checker.explore.sleep_hits", "count");
    ("checker.explore.distinct_states_per_s", "1/s");
    ("checker.explore.rest_self_s", "s");
    ("checker.safety.self_s", "s");
    ("checker.linearizability.check_s", "s");
    ("checker.linearizability.states", "count");
    ("stdext.stateset.hits", "count");
    ("stdext.stateset.misses", "count");
    ("stdext.stateset.collisions", "count");
    ("stdext.stateset.resizes", "count");
    ("workload.minor_words_per_commit", "words/commit");
    ("workload.residual_s", "s");
    ("workload.knee_cmd_per_s", "cmd/s");
    ("workload.p50_ms", "ms");
    ("workload.p99_ms", "ms");
    ("workload.goodput_cmd_per_s", "cmd/s");
  ]
  @ List.concat_map
      (fun rate ->
        let key m = Printf.sprintf "workload.rung_%g.%s" rate m in
        [ (key "p50_ms", "ms"); (key "p99_ms", "ms"); (key "completed_frac", "fraction") ])
      Ladder.rates
  @ [ ("trace.overhead_frac", "fraction"); ("trace.unexplained_frac", "fraction") ]

let setup_passes = 5

let min_reps = 3

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* One cold set-up pass in a fresh process, timed from spawn to exit, in
   reference seconds: the child reports what its host-speed sampler saw on
   its stdout. *)
let setup_in_child ~workload ~seed =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--setup-only" |]
  in
  let out, into = Unix.pipe ~cloexec:true () in
  let t0 = Layer.now () in
  let pid = Unix.create_process exe args Unix.stdin into Unix.stderr in
  Unix.close into;
  let report = In_channel.input_all (Unix.in_channel_of_descr out) in
  let rec wait () =
    try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  let wall = Layer.now () - t0 in
  Unix.close out;
  match (status, String.split_on_char ' ' (String.trim report)) with
  | Unix.WEXITED 0, [ samples; kernel_ns ] ->
      let samples = int_of_string samples and kernel_ns = int_of_string kernel_ns in
      let span = { Hostspeed.net_ns = wall - kernel_ns; samples; kernel_ns } in
      Hostspeed.reference ~fallback:span span /. 1e9
  | _ -> failwith "set-up pass failed in its own process"

let max_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6

let rep_span (r : Workloads.rep) =
  List.fold_left (fun acc (p : Workloads.part) -> Hostspeed.add acc p.span) Hostspeed.zero r.parts

(* Reference seconds of every part of a repetition. A part too short to
   collect its own host-speed samples uses its repetition's. *)
let reference_parts (r : Workloads.rep) =
  let fallback = rep_span r in
  List.map
    (fun (p : Workloads.part) -> (p.item, Hostspeed.reference ~fallback p.span /. 1e9))
    r.parts

let sum_parts ?(only_items = false) parts =
  List.fold_left (fun acc (item, s) -> if item || not only_items then acc +. s else acc) 0.0 parts

(* Host-speed correction leaves some noise, all of it upward; each part's
   fastest repetition keeps what remains of a burst that hit only some
   repetitions out of the estimate. *)
let fastest reps =
  let parts = List.map reference_parts reps in
  List.fold_left
    (List.map2 (fun (item, a) (_, b) -> (item, Float.min a b)))
    (List.hd parts) (List.tl parts)

let measure (w : Workloads.t) ~seed ~seconds ~fail =
  let setups = ref [] in
  let set_up () = setups := setup_in_child ~workload:w.name ~seed :: !setups in
  w.setup ~seed ~fail;
  (* Set-up passes interleave with the repetitions, so that their median
     samples the whole run rather than one moment of it. *)
  let t0 = Layer.now () in
  let rec loop acc =
    if List.length acc >= min_reps && Layer.seconds_since t0 >= seconds then List.rev acc
    else begin
      if List.length !setups < setup_passes then set_up ();
      Hostspeed.start ();
      let r = w.rep ~seed ~fail in
      Hostspeed.stop ();
      loop (r :: acc)
    end
  in
  let reps = loop [] in
  while List.length !setups < setup_passes do
    set_up ()
  done;
  let first = List.hd reps in
  if List.exists (fun (r : Workloads.rep) -> r.digest <> first.digest) reps then
    fail "virtual-time results differ between repetitions of the same seed";
  List.iter print_endline first.summary;
  List.iteri
    (fun i (r : Workloads.rep) ->
      let whole = rep_span r in
      Printf.printf
        "repetition %d: %.3f s wall, %.3f reference s, %d items; reference kernel %.0f us \
         (nominal %d)\n"
        (i + 1) (Layer.seconds whole.net_ns) (sum_parts (reference_parts r)) r.items
        (float_of_int whole.kernel_ns /. float_of_int (max 1 whole.samples) /. 1e3)
        (Hostspeed.nominal_ns / 1000))
    reps;
  let best = fastest reps in
  let metrics =
    [
      ("setup_s", median !setups);
      ("verdict_s", sum_parts best);
      ("items_per_s", float_of_int first.items /. sum_parts ~only_items:true best);
      ("max_heap_mb", max_heap_mb ());
    ]
  in
  (metrics, List.fold_left (fun acc (r : Workloads.rep) -> acc + r.attempted) 0 reps)

let trace (w : Workloads.t) ~seed ~fail =
  w.setup ~seed ~fail;
  let values, attempted = w.traced ~seed ~fail in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then
        failwith (Printf.sprintf "unlisted per-layer metric %s" name))
    values;
  (* A layer the workload never enters did no work: it reports 0. *)
  ( List.map
      (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name values)))
      per_layer,
    attempted )

let result ~correct ~attempted ~units metrics =
  let metric (name, value) =
    let value = if Float.is_finite value then value else 0.0 in
    ( name,
      Stdext.Json.Obj
        [
          ("value", Stdext.Json.Float value);
          ("unit", Stdext.Json.String (List.assoc name units));
        ] )
  in
  Stdext.Json.to_string
    (Stdext.Json.Obj
       [
         ("correct", Stdext.Json.Bool correct);
         ("attempted", Stdext.Json.Int attempted);
         ("failed", Stdext.Json.Int 0);
         ("metrics", Stdext.Json.Obj (List.map metric metrics));
       ])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and traced = ref 0 in
  let setup_only = ref false in
  let names = List.map (fun (w : Workloads.t) -> w.name) Workloads.all in
  let spec =
    [
      ("--workload", Arg.Symbol (names, ( := ) workload), " workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for at least S seconds (default 15)");
      ("--trace", Arg.Symbol ([ "0"; "1" ], fun s -> traced := int_of_string s), " 1 = traced run");
      ("--setup-only", Arg.Set setup_only, " run one set-up pass and exit");
    ]
  in
  let usage = "run.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        Arg.usage (Arg.align spec) usage;
        exit 2
  in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  if !setup_only then begin
    Hostspeed.start ();
    w.setup ~seed:!seed ~fail;
    Hostspeed.stop ();
    List.iter prerr_endline !failures;
    Printf.printf "%d %d\n" !Hostspeed.samples !Hostspeed.kernel_ns;
    exit (if !failures = [] then 0 else 1)
  end;
  Printf.printf "workload %s, seed %d, %s\n%!" w.name !seed
    (if !traced = 1 then "traced run" else Printf.sprintf "measuring for %g s" !seconds);
  let metrics, attempted, units =
    if !traced = 1 then
      let m, a = trace w ~seed:!seed ~fail in
      (m, a, per_layer)
    else
      let m, a = measure w ~seed:!seed ~seconds:!seconds ~fail in
      (m, a, end_to_end)
  in
  List.iter
    (fun (name, value) -> Printf.printf "%-44s %18.6f %s\n" name value (List.assoc name units))
    metrics;
  let correct = !failures = [] in
  List.iter (fun m -> prerr_endline ("correctness gate failed: " ^ m)) (List.rev !failures);
  print_endline (result ~correct ~attempted ~units metrics);
  exit (if correct then 0 else 1)
