(* Unit and property tests for the stdext utilities: the deterministic RNG,
   the priority queue the engine is built on, and the combinatorics helpers
   the checkers rely on. *)

module Rng = Stdext.Rng
module Pqueue = Stdext.Pqueue
module Combinat = Stdext.Combinat
module Pool = Stdext.Pool
module Metrics = Stdext.Metrics
module Json = Stdext.Json

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.bits64 a) (Rng.bits64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_rng_copy_independent () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_in () =
  let rng = Rng.create ~seed:4 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (v >= -5 && v <= 5)
  done

let test_rng_degenerate_ranges () =
  (* One-element ranges are valid and still consume exactly one draw, so
     pinned-delay network models stay stream-aligned with randomized ones
     (the fault layer relies on fixed draw counts per decision). *)
  let a = Rng.create ~seed:9 and b = Rng.create ~seed:9 in
  Alcotest.(check int) "int _ 1 = 0" 0 (Rng.int a 1);
  Alcotest.(check int) "int_in x x = x" 5 (Rng.int_in b 5 5);
  Alcotest.(check int64) "both consumed one draw" (Rng.bits64 a) (Rng.bits64 b);
  let c = Rng.create ~seed:9 in
  Alcotest.(check int) "int_in over full jitter+1 range" 0 (Rng.int_in c 0 0)

let test_rng_chance_draws () =
  (* chance consumes exactly one draw for every rate, including the
     degenerate 0 and 1, keeping decision streams aligned across rates. *)
  let a = Rng.create ~seed:12 and b = Rng.create ~seed:12 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance a 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance b 1.0);
  Alcotest.(check int64) "aligned after degenerate rates" (Rng.bits64 a) (Rng.bits64 b);
  let r = Rng.create ~seed:13 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Rng.chance r 0.3 then incr hits
  done;
  Alcotest.(check bool) "p=0.3 is roughly 30%" true (!hits > 200 && !hits < 400)

let test_rng_invalid () =
  let rng = Rng.create ~seed:0 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty list") (fun () ->
      ignore (Rng.pick rng ([] : int list)))

let test_shuffle_permutes () =
  let rng = Rng.create ~seed:5 in
  let l = List.init 20 Fun.id in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare s)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun (p, v) -> Pqueue.push q ~priority:p v) [ (3, "c"); (1, "a"); (2, "b") ];
  let drain () = match Pqueue.pop q with Some (_, v) -> v | None -> "!" in
  let x1 = drain () in
  let x2 = drain () in
  let x3 = drain () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~priority:7 v) [ 1; 2; 3; 4 ];
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "insertion order at equal priority" [ 1; 2; 3; 4 ] (drain [])

let test_pqueue_to_list_nondestructive () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~priority:v v) [ 5; 1; 3 ];
  let snapshot = Pqueue.to_list q in
  Alcotest.(check int) "length preserved" 3 (Pqueue.length q);
  Alcotest.(check (list (pair int int)))
    "pop order"
    [ (1, 1); (3, 3); (5, 5) ]
    snapshot

let pqueue_heap_property =
  QCheck.Test.make ~name:"pqueue pops in nondecreasing priority order" ~count:200
    QCheck.(list (int_bound 1000))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q ~priority:p i) priorities;
      let rec drain last =
        match Pqueue.pop q with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain min_int)

let pqueue_stable_order_property =
  (* Values are pushed carrying their submission index; the drain must equal a
     stable sort by priority, i.e. FIFO among equal priorities. The small
     priority range forces plenty of ties. *)
  QCheck.Test.make ~name:"pqueue drain equals stable sort by priority" ~count:300
    QCheck.(list (int_bound 10))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q ~priority:p i) priorities;
      let rec drain acc =
        match Pqueue.pop q with None -> List.rev acc | Some pv -> drain (pv :: acc)
      in
      let expected =
        List.mapi (fun i p -> (p, i)) priorities
        |> List.stable_sort (fun (p1, _) (p2, _) -> compare p1 p2)
      in
      drain [] = expected)

let test_pqueue_growth_from_empty () =
  (* A fresh queue starts with an empty backing array; pushing past every
     doubling threshold must preserve contents and order. *)
  let q = Pqueue.create () in
  Alcotest.(check int) "initially empty" 0 (Pqueue.length q);
  for i = 0 to 99 do
    Pqueue.push q ~priority:(99 - i) i
  done;
  Alcotest.(check int) "all retained" 100 (Pqueue.length q);
  let rec drain acc =
    match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list int)) "sorted" (List.init 100 Fun.id) (drain [])

let test_pqueue_copy_independent () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q ~priority:v v) [ 2; 1; 3 ];
  let c = Pqueue.copy q in
  ignore (Pqueue.pop c);
  Pqueue.push c ~priority:0 0;
  Alcotest.(check int) "original length unchanged" 3 (Pqueue.length q);
  Alcotest.(check (list (pair int int)))
    "original contents unchanged"
    [ (1, 1); (2, 2); (3, 3) ]
    (Pqueue.to_list q);
  Alcotest.(check (list (pair int int)))
    "copy evolved separately"
    [ (0, 0); (2, 2); (3, 3) ]
    (Pqueue.to_list c)

let pqueue_copy_independence_property =
  (* Random contents, then divergent mutations on original and copy: each
     side's drain must be exactly what its own operation history implies —
     the structure-of-arrays copy shares no backing storage. *)
  QCheck.Test.make ~name:"pqueue copy shares no state with the original" ~count:200
    QCheck.(list (int_bound 50))
    (fun priorities ->
      let q = Pqueue.create () in
      List.iteri (fun i p -> Pqueue.push q ~priority:p i) priorities;
      let c = Pqueue.copy q in
      let q_before = Pqueue.to_list q in
      (* Mutate the copy, check the original; then mutate the original,
         check the copy. *)
      Pqueue.push c ~priority:51 (-1);
      ignore (Pqueue.pop c);
      let q_unmoved = Pqueue.to_list q = q_before in
      let c_after = Pqueue.to_list c in
      Pqueue.push q ~priority:52 (-2);
      ignore (Pqueue.pop q);
      q_unmoved && Pqueue.to_list c = c_after)

let test_pqueue_nonalloc_api () =
  (* peek_prio/pop_exn agree with pop/peek; both raise on empty. *)
  let q = Pqueue.create () in
  Alcotest.check_raises "peek_prio empty"
    (Invalid_argument "Pqueue.peek_prio: empty queue") (fun () ->
      ignore (Pqueue.peek_prio q : int));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Pqueue.pop_exn: empty queue") (fun () ->
      ignore (Pqueue.pop_exn q : int));
  List.iter (fun v -> Pqueue.push q ~priority:v v) [ 4; 2; 9 ];
  Alcotest.(check int) "peek_prio is min" 2 (Pqueue.peek_prio q);
  Alcotest.(check int) "pop_exn returns payload" 2 (Pqueue.pop_exn q);
  let seen = ref [] in
  Pqueue.iter_in_order q (fun p v -> seen := (p, v) :: !seen);
  Alcotest.(check (list (pair int int)))
    "iter_in_order matches to_list" (Pqueue.to_list q) (List.rev !seen);
  Alcotest.(check int) "iter_in_order non-destructive" 2 (Pqueue.length q)

let test_pqueue_priority_packing_range () =
  (* The packing contract: priorities span the full +-2^38 documented
     range (negative keys still order correctly through the lsl/lor
     packing), and out-of-range priorities are rejected. *)
  let lim = 1 lsl 38 in
  let q = Pqueue.create () in
  Pqueue.push q ~priority:(lim - 1) "max";
  Pqueue.push q ~priority:(-lim) "min";
  Pqueue.push q ~priority:(-5) "neg1";
  Pqueue.push q ~priority:(-5) "neg2";
  Pqueue.push q ~priority:0 "zero";
  Alcotest.(check (list string))
    "negative priorities order before zero, FIFO on ties"
    [ "min"; "neg1"; "neg2"; "zero"; "max" ]
    (List.map snd (Pqueue.to_list q));
  let reject p =
    Alcotest.check_raises "out of packing range"
      (Invalid_argument "Pqueue.push: priority outside +-2^38 (packing invariant)")
      (fun () -> Pqueue.push q ~priority:p "x")
  in
  reject lim;
  reject (-lim - 1)

let test_pqueue_seq_compaction () =
  (* Drive the 24-bit sequence counter past its limit with a small live
     heap: the transparent renumbering must preserve FIFO-within-priority
     across the compaction boundary. *)
  let q = Pqueue.create () in
  let window = 8 in
  let next = ref 0 in
  for _ = 1 to window do
    Pqueue.push q ~priority:5 !next;
    incr next
  done;
  let expect = ref 0 in
  let total = (1 lsl 24) + 64 in
  for _ = 1 to total do
    Pqueue.push q ~priority:5 !next;
    incr next;
    let v = Pqueue.pop_exn q in
    if v <> !expect then
      Alcotest.failf "FIFO broken across seq compaction: got %d, want %d" v !expect;
    incr expect
  done;
  Alcotest.(check int) "window retained" window (Pqueue.length q)

(* -- pool --------------------------------------------------------------- *)

let test_pool_exactly_once () =
  let hits = Atomic.make 0 in
  Pool.run ~domains:4 (fun pool ->
      let promises =
        List.init 100 (fun i ->
            Pool.submit pool (fun () ->
                Atomic.incr hits;
                i * i))
      in
      List.iteri
        (fun i p -> Alcotest.(check int) "result" (i * i) (Pool.await p))
        promises);
  Alcotest.(check int) "each task ran exactly once" 100 (Atomic.get hits)

let test_pool_map_list_order () =
  let results =
    Pool.run ~domains:3 (fun pool ->
        Pool.map_list pool (fun i -> 2 * i) (List.init 50 Fun.id))
  in
  Alcotest.(check (list int)) "submission order" (List.init 50 (fun i -> 2 * i)) results

let test_pool_exception_reraised () =
  Pool.run ~domains:2 (fun pool ->
      let bad = Pool.submit pool (fun () -> failwith "boom") in
      Alcotest.check_raises "worker exception surfaces on await" (Failure "boom")
        (fun () -> ignore (Pool.await bad : int));
      (* The pool survives a failed task. *)
      let ok = Pool.submit pool (fun () -> 7) in
      Alcotest.(check int) "pool still usable" 7 (Pool.await ok))

let test_pool_inline_mode () =
  (* domains = 1 spawns no domain: jobs run inline on submit. *)
  let results =
    Pool.run ~domains:1 (fun pool ->
        Alcotest.(check int) "no workers" 0 (Pool.size pool);
        Pool.map_list pool (fun i -> i + 1) [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "inline results" [ 2; 3; 4 ] results

let test_pool_shutdown_rejects () =
  let pool = Pool.create ~domains:2 in
  let p = Pool.submit pool (fun () -> 1) in
  Alcotest.(check int) "pre-shutdown" 1 (Pool.await p);
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      ignore (Pool.submit pool (fun () -> 2)))

let test_pool_fifo_order () =
  (* Tasks start in submission order. The explorer depends on it: its
     leftmost unfinished chunk must always be running, or the chunks
     waiting for their budget caps deadlock. One worker stays held by a
     gated blocker while the other, once released, drains five recording
     tasks that were all queued before it could take any. *)
  Pool.run ~domains:2 (fun pool ->
      let started = Atomic.make 0 in
      let blocker gate =
        Pool.submit pool (fun () ->
            Atomic.incr started;
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done)
      in
      let held = Atomic.make false and drainer = Atomic.make false in
      let b1 = blocker held and b2 = blocker drainer in
      while Atomic.get started < 2 do
        Domain.cpu_relax ()
      done;
      let order = Mutex.create () and seen = ref [] in
      let record i () =
        Mutex.lock order;
        seen := i :: !seen;
        Mutex.unlock order
      in
      let tasks = List.init 5 (fun i -> Pool.submit pool (record i)) in
      Atomic.set drainer true;
      List.iter Pool.await tasks;
      Atomic.set held true;
      Pool.await b1;
      Pool.await b2;
      Alcotest.(check (list int)) "FIFO start order" [ 0; 1; 2; 3; 4 ] (List.rev !seen))

let test_subsets_count () =
  let l = List.init 6 Fun.id in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "C(6,%d)" k)
        (Combinat.choose 6 k)
        (List.length (Combinat.subsets_of_size k l)))
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_subsets_distinct_sorted () =
  let subsets = Combinat.subsets_of_size 3 [ 0; 1; 2; 3; 4 ] in
  let sorted = List.sort_uniq compare subsets in
  Alcotest.(check int) "all distinct" (List.length subsets) (List.length sorted);
  List.iter
    (fun s -> Alcotest.(check (list int)) "order preserved" (List.sort compare s) s)
    subsets

let test_subsets_up_to () =
  let l = [ 1; 2; 3; 4 ] in
  (* 1 + 4 + 6 subsets of size <= 2, ascending size, empty first. *)
  let s = Combinat.subsets_up_to 2 l in
  Alcotest.(check int) "count" 11 (List.length s);
  Alcotest.(check (list int)) "empty subset first" [] (List.hd s);
  let sizes = List.map List.length s in
  Alcotest.(check (list int)) "ascending sizes" (List.sort compare sizes) sizes;
  Alcotest.(check int) "distinct" 11 (List.length (List.sort_uniq compare s));
  Alcotest.(check (list (list int))) "k = 0" [ [] ] (Combinat.subsets_up_to 0 l);
  Alcotest.(check (list (list int))) "negative k acts as 0" [ [] ]
    (Combinat.subsets_up_to (-3) l);
  Alcotest.(check int) "k beyond length = powerset" 16
    (List.length (Combinat.subsets_up_to 99 l))

let test_permutations () =
  Alcotest.(check int) "3! perms" 6 (List.length (Combinat.permutations [ 1; 2; 3 ]));
  Alcotest.(check int)
    "distinct" 6
    (List.length (List.sort_uniq compare (Combinat.permutations [ 1; 2; 3 ])));
  Alcotest.(check (list (list int))) "empty" [ [] ] (Combinat.permutations [])

let test_cartesian () =
  Alcotest.(check (list (list int)))
    "2x2 product"
    [ [ 1; 3 ]; [ 1; 4 ]; [ 2; 3 ]; [ 2; 4 ] ]
    (Combinat.cartesian [ [ 1; 2 ]; [ 3; 4 ] ]);
  Alcotest.(check (list (list int))) "nullary product" [ [] ] (Combinat.cartesian []);
  Alcotest.(check (list (list int))) "empty factor" [] (Combinat.cartesian [ [ 1 ]; [] ])

let test_choose_edges () =
  Alcotest.(check int) "C(5,-1)" 0 (Combinat.choose 5 (-1));
  Alcotest.(check int) "C(5,6)" 0 (Combinat.choose 5 6);
  Alcotest.(check int) "C(0,0)" 1 (Combinat.choose 0 0);
  Alcotest.(check int) "C(10,5)" 252 (Combinat.choose 10 5)

(* -- metrics ------------------------------------------------------------ *)

let test_metrics_counter_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.add c 41;
  let g = Metrics.gauge r "g" in
  Metrics.record_max g 7;
  Metrics.record_max g 3;
  Alcotest.(check int) "counter sums" 42 (Metrics.get_counter r "c");
  (match Metrics.find r "g" with
  | Some (Metrics.Gauge 7) -> ()
  | _ -> Alcotest.fail "gauge should keep the max (7)");
  (* re-lookup returns the same underlying metric *)
  Metrics.incr (Metrics.counter r "c");
  Alcotest.(check int) "shared by name" 43 (Metrics.get_counter r "c");
  Alcotest.(check int) "absent counter reads 0" 0 (Metrics.get_counter r "nope")

let test_metrics_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~buckets:[| 1; 2; 4 |] "h" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 5; 100 ];
  match Metrics.find r "h" with
  | Some (Metrics.Histogram { bounds; counts; sum; count }) ->
      Alcotest.(check (array int)) "bounds" [| 1; 2; 4 |] bounds;
      (* <=1: {0,1}; <=2: {2}; <=4: {3,4}; overflow: {5,100} *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 1; 2; 2 |] counts;
      Alcotest.(check int) "sum" 115 sum;
      Alcotest.(check int) "count" 7 count
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_disabled () =
  let c = Metrics.counter Metrics.disabled "c" in
  Metrics.incr c;
  Metrics.add c 10;
  let h = Metrics.histogram Metrics.disabled ~buckets:[| 1 |] "h" in
  Metrics.observe h 5;
  Alcotest.(check bool) "disabled" false (Metrics.is_enabled Metrics.disabled);
  Alcotest.(check int) "no registrations" 0 (List.length (Metrics.snapshot Metrics.disabled))

let test_metrics_kind_conflict () =
  let r = Metrics.create () in
  ignore (Metrics.counter r "x");
  (match Metrics.gauge r "x" with
  | _ -> Alcotest.fail "kind conflict should raise"
  | exception Invalid_argument _ -> ());
  ignore (Metrics.histogram r ~buckets:[| 1; 2 |] "h");
  match Metrics.histogram r ~buckets:[| 3 |] "h" with
  | _ -> Alcotest.fail "bounds conflict should raise"
  | exception Invalid_argument _ -> ()

let test_metrics_multi_domain () =
  let r = Metrics.create () in
  let per_domain = 20_000 and domains = 4 in
  let c = Metrics.counter r "hammered" in
  let h = Metrics.histogram r ~buckets:[| 0; 1; 2 |] "lat" in
  let worker () =
    for i = 1 to per_domain do
      Metrics.incr c;
      Metrics.observe h (i mod 4)
    done
  in
  let spawned = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "all increments merged" (domains * per_domain)
    (Metrics.get_counter r "hammered");
  match Metrics.find r "lat" with
  | Some (Metrics.Histogram { count; counts; _ }) ->
      Alcotest.(check int) "all observations merged" (domains * per_domain) count;
      Alcotest.(check int) "bucket totals merged" (domains * per_domain)
        (Array.fold_left ( + ) 0 counts)
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_dump_jsonl () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "a.count") 3;
  Metrics.record_max (Metrics.gauge r "b.hwm") 9;
  Metrics.observe (Metrics.histogram r ~buckets:[| 1; 2 |] "c.hist") 2;
  let text = Format.asprintf "%a" Metrics.dump_jsonl r in
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  Alcotest.(check int) "one line per metric" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.fail ("unparseable line: " ^ msg)
      | Ok json -> (
          let str k =
            match Option.bind (Json.member k json) Json.to_str with
            | Some s -> s
            | None -> Alcotest.fail ("missing string field " ^ k)
          in
          let int k =
            match Option.bind (Json.member k json) Json.to_int with
            | Some n -> n
            | None -> Alcotest.fail ("missing int field " ^ k)
          in
          ignore (str "metric");
          match str "type" with
          | "counter" | "gauge" -> ignore (int "value")
          | "histogram" ->
              let counts =
                match Json.member "counts" json with
                | Some (Json.List l) -> List.filter_map Json.to_int l
                | _ -> Alcotest.fail "counts not a list"
              in
              Alcotest.(check int) "counts sum to count" (int "count")
                (List.fold_left ( + ) 0 counts)
          | other -> Alcotest.fail ("unknown type " ^ other)))
    lines

(* -- stateset ----------------------------------------------------------- *)

module Stateset = Stdext.Stateset

let test_stateset_add_mem () =
  let s = Stateset.create () in
  Alcotest.(check bool) "absent before add" false (Stateset.mem s 42L);
  Alcotest.(check bool) "first add wins" true (Stateset.add s 42L);
  Alcotest.(check bool) "second add loses" false (Stateset.add s 42L);
  Alcotest.(check bool) "member after add" true (Stateset.mem s 42L);
  Alcotest.(check bool) "other key absent" false (Stateset.mem s 43L);
  Alcotest.(check bool) "negative fingerprints work" true (Stateset.add s (-7L));
  Alcotest.(check bool) "zero works (remapped off the empty slot)" true
    (Stateset.add s 0L);
  Alcotest.(check int) "cardinal" 3 (Stateset.cardinal s)

let test_stateset_hash_compaction () =
  (* Slots retain 62 bits of the fingerprint: keys differing only in bits
     62/63 are deliberately identified (SPIN-style hash compaction). *)
  let s = Stateset.create () in
  let base = 0x123456789ABCL in
  Alcotest.(check bool) "base inserts" true (Stateset.add s base);
  Alcotest.(check bool) "bit 62 aliases" false
    (Stateset.add s (Int64.logor base (Int64.shift_left 1L 62)));
  Alcotest.(check bool) "bit 63 aliases" false
    (Stateset.add s (Int64.logor base (Int64.shift_left 1L 63)));
  Alcotest.(check bool) "bit 61 does not alias" true
    (Stateset.add s (Int64.logor base (Int64.shift_left 1L 61)))

let test_stateset_probing_and_resize () =
  (* A single tiny shard forces long probe chains and repeated doublings;
     contents must survive both. *)
  let metrics = Metrics.create () in
  let s = Stateset.create ~shards:1 ~capacity:2 ~metrics () in
  let key i = Int64.of_int ((i * 2654435761) + 17) in
  for i = 0 to 999 do
    Alcotest.(check bool) "new key inserts" true (Stateset.add s (key i))
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "still present after resizes" true (Stateset.mem s (key i));
    Alcotest.(check bool) "re-add refused" false (Stateset.add s (key i))
  done;
  Alcotest.(check int) "cardinal" 1000 (Stateset.cardinal s);
  Alcotest.(check int) "misses = inserts" 1000 (Metrics.get_counter metrics "stateset.misses");
  Alcotest.(check int) "hits = duplicate adds" 1000 (Metrics.get_counter metrics "stateset.hits");
  Alcotest.(check bool) "resizes happened" true
    (Metrics.get_counter metrics "stateset.resizes" > 0)

let test_stateset_concurrent_determinism () =
  (* Every domain races to insert the same key set; exactly one add per key
     may win across all domains, and the final membership is the key set —
     regardless of scheduling. Tiny initial capacity keeps resizes in the
     race window. *)
  let keys = Array.init 5_000 (fun i -> Int64.of_int ((i * 0x9E3779B1) + 3)) in
  let s = Stateset.create ~shards:4 ~capacity:8 () in
  let domains = 4 in
  let wins = Array.make domains 0 in
  let worker d () =
    let w = ref 0 in
    Array.iter (fun k -> if Stateset.add s k then incr w) keys;
    wins.(d) <- !w
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "exactly one winner per key" (Array.length keys)
    (Array.fold_left ( + ) 0 wins);
  Alcotest.(check int) "cardinal = distinct keys" (Array.length keys) (Stateset.cardinal s);
  Array.iter (fun k -> Alcotest.(check bool) "member" true (Stateset.mem s k)) keys

let test_stateset_concurrent_disjoint () =
  (* Disjoint ranges from each domain: no insert may be lost to a
     concurrent resize. *)
  let per_domain = 4_000 and domains = 4 in
  let s = Stateset.create ~shards:2 ~capacity:4 () in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let k = Int64.of_int ((d * per_domain) + i + 1) in
      assert (Stateset.add s k)
    done
  in
  let spawned = List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "nothing lost under resize contention" (domains * per_domain)
    (Stateset.cardinal s);
  for d = 0 to domains - 1 do
    for i = 0 to per_domain - 1 do
      let k = Int64.of_int ((d * per_domain) + i + 1) in
      if not (Stateset.mem s k) then Alcotest.failf "lost key %Ld" k
    done
  done

(* -- json --------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te\r \x01 é €");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.List []; Json.Obj [] ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round-trips" true (v = v')
  | Error msg -> Alcotest.fail msg

let test_json_parse_basics () =
  Alcotest.(check bool) "unicode escape" true
    (Json.parse {|"é😀"|} = Ok (Json.String "é😀"));
  Alcotest.(check bool) "numbers" true
    (Json.parse "[0, -1, 2.5, 1e3]"
    = Ok (Json.List [ Json.Int 0; Json.Int (-1); Json.Float 2.5; Json.Float 1000. ]));
  let bad s =
    match Json.parse s with Ok _ -> Alcotest.fail ("accepted " ^ s) | Error _ -> ()
  in
  bad "{";
  bad "[1,]";
  bad "1 2";
  bad "tru";
  bad "\"unterminated";
  bad "{\"a\" 1}"

(* -- Rle: run-length integer tables ------------------------------------ *)

module Rle = Stdext.Rle

let sample_table =
  {
    Rle.schema = [ "time"; "pid"; "value" ];
    columns =
      [
        [| 0; 10; 10; 10; 20; 20; 35; 40 |];
        [| 0; 0; 0; 1; 1; 2; 2; 2 |];
        [| -1; 5; 5; 5; 1023; -1; 0; 7 |];
      ];
  }

let test_rle_roundtrip () =
  let enc = Rle.encode sample_table in
  (match Rle.decode enc with
  | Ok t ->
      Alcotest.(check (list string)) "schema" sample_table.Rle.schema t.Rle.schema;
      Alcotest.(check bool) "columns" true (t.Rle.columns = sample_table.Rle.columns)
  | Error e -> Alcotest.fail e);
  let empty = { Rle.schema = [ "a"; "b" ]; columns = [ [||]; [||] ] } in
  (match Rle.decode (Rle.encode empty) with
  | Ok t -> Alcotest.(check int) "empty table round-trips" 0 (Rle.rows t)
  | Error e -> Alcotest.fail e);
  Alcotest.check_raises "ragged columns rejected"
    (Invalid_argument "Rle.encode: ragged columns") (fun () ->
      ignore (Rle.encode { Rle.schema = [ "a"; "b" ]; columns = [ [| 1 |]; [||] ] }))

let test_rle_corruption_detected () =
  let enc = Rle.encode sample_table in
  let expect_error s =
    match Rle.decode s with
    | Ok _ -> Alcotest.fail "decoded corrupted input"
    | Error _ -> ()
  in
  expect_error "";
  expect_error "not an rle table";
  expect_error (String.sub enc 0 (String.length enc - 1));
  expect_error (enc ^ "\x00")

let test_rle_jsonl_roundtrip () =
  let jsonl = Rle.to_jsonl sample_table in
  (match Rle.of_jsonl jsonl with
  | Ok t -> Alcotest.(check bool) "jsonl round-trips" true (t = sample_table)
  | Error e -> Alcotest.fail e);
  let lines = ref [] in
  Rle.iter_jsonl sample_table (fun l -> lines := l :: !lines);
  Alcotest.(check int) "one line per row" (Rle.rows sample_table) (List.length !lines);
  match Rle.of_jsonl "{\"a\": 1}\n{\"b\": 2}\n" with
  | Ok _ -> Alcotest.fail "accepted mismatched schemas"
  | Error _ -> ()

let rle_table_gen =
  QCheck.Gen.(
    let* cols = 1 -- 4 in
    let* rows = 0 -- 60 in
    let* columns =
      list_repeat cols
        (map Array.of_list
           (list_repeat rows
              (frequency
                 [
                   (3, 0 -- 100);
                   (1, map (fun v -> -v) (0 -- 1_000_000));
                   (* Large magnitudes, kept well under the codec's 62-bit
                      signed-delta ceiling. *)
                   (1, map (fun v -> v - (1 lsl 40)) (0 -- (1 lsl 41)));
                 ])))
    in
    return
      {
        Rle.schema = List.mapi (fun i _ -> Printf.sprintf "c%d" i) columns;
        columns;
      })

let rle_roundtrip_property =
  QCheck.Test.make ~name:"rle encode/decode round-trips random tables" ~count:300
    (QCheck.make rle_table_gen) (fun t ->
      match Rle.decode (Rle.encode t) with
      | Ok t' -> t' = t
      | Error _ -> false)

let rle_jsonl_property =
  QCheck.Test.make ~name:"rle jsonl export/import round-trips" ~count:200
    (QCheck.make rle_table_gen) (fun t ->
      (* The JSONL form has no rows to carry a schema on an empty table. *)
      QCheck.assume (Rle.rows t > 0);
      match Rle.of_jsonl (Rle.to_jsonl t) with
      | Ok t' -> t' = t
      | Error _ -> false)

let () =
  Alcotest.run "stdext"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in;
          Alcotest.test_case "degenerate ranges" `Quick test_rng_degenerate_ranges;
          Alcotest.test_case "chance draw discipline" `Quick test_rng_chance_draws;
          Alcotest.test_case "invalid arguments" `Quick test_rng_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "priority order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "to_list snapshot" `Quick test_pqueue_to_list_nondestructive;
          Alcotest.test_case "growth from empty" `Quick test_pqueue_growth_from_empty;
          Alcotest.test_case "copy independence" `Quick test_pqueue_copy_independent;
          QCheck_alcotest.to_alcotest pqueue_heap_property;
          QCheck_alcotest.to_alcotest pqueue_stable_order_property;
          QCheck_alcotest.to_alcotest pqueue_copy_independence_property;
          Alcotest.test_case "non-allocating API" `Quick test_pqueue_nonalloc_api;
          Alcotest.test_case "priority packing range" `Quick
            test_pqueue_priority_packing_range;
          Alcotest.test_case "seq compaction" `Quick test_pqueue_seq_compaction;
        ] );
      ( "pool",
        [
          Alcotest.test_case "tasks run exactly once" `Quick test_pool_exactly_once;
          Alcotest.test_case "map_list order" `Quick test_pool_map_list_order;
          Alcotest.test_case "exception re-raised" `Quick test_pool_exception_reraised;
          Alcotest.test_case "inline mode" `Quick test_pool_inline_mode;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown_rejects;
          Alcotest.test_case "FIFO start order" `Quick test_pool_fifo_order;
        ] );
      ( "combinat",
        [
          Alcotest.test_case "subset counts" `Quick test_subsets_count;
          Alcotest.test_case "subsets distinct" `Quick test_subsets_distinct_sorted;
          Alcotest.test_case "subsets up to" `Quick test_subsets_up_to;
          Alcotest.test_case "permutations" `Quick test_permutations;
          Alcotest.test_case "cartesian" `Quick test_cartesian;
          Alcotest.test_case "choose edge cases" `Quick test_choose_edges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_metrics_histogram;
          Alcotest.test_case "disabled registry" `Quick test_metrics_disabled;
          Alcotest.test_case "kind conflicts" `Quick test_metrics_kind_conflict;
          Alcotest.test_case "multi-domain merge" `Quick test_metrics_multi_domain;
          Alcotest.test_case "dump_jsonl schema" `Quick test_metrics_dump_jsonl;
        ] );
      ( "stateset",
        [
          Alcotest.test_case "add and mem" `Quick test_stateset_add_mem;
          Alcotest.test_case "62-bit hash compaction" `Quick test_stateset_hash_compaction;
          Alcotest.test_case "probing and resize" `Quick test_stateset_probing_and_resize;
          Alcotest.test_case "concurrent insert determinism" `Quick
            test_stateset_concurrent_determinism;
          Alcotest.test_case "concurrent disjoint inserts" `Quick
            test_stateset_concurrent_disjoint;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics and errors" `Quick test_json_parse_basics;
        ] );
      ( "rle",
        [
          Alcotest.test_case "binary round-trip" `Quick test_rle_roundtrip;
          Alcotest.test_case "corruption detected" `Quick test_rle_corruption_detected;
          Alcotest.test_case "jsonl round-trip" `Quick test_rle_jsonl_roundtrip;
          QCheck_alcotest.to_alcotest rle_roundtrip_property;
          QCheck_alcotest.to_alcotest rle_jsonl_property;
        ] );
    ]
