(* Unit and property tests for the stdext utilities: the deterministic RNG,
   the event and timer heaps the engine is built on, and the combinatorics
   helpers the checkers rely on. *)

module Rng = Stdext.Rng
module Pqueue = Stdext.Pqueue
module Iheap = Stdext.Iheap
module Combinat = Stdext.Combinat
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

(* Random interleavings of push, pop and copy-then-diverge against a
   reference model: a list kept stable-sorted by priority. Priorities come
   from a small range so ties are common, and every payload is unique, so
   a payload read from the wrong slot shows. A copy is a new branch that
   later operations drive independently of its source; a copy starts at
   its exact live size, so its next pushes grow it past that capacity.
   This exercises slot reuse under random priorities and after a copy. *)
type pqueue_op = Push of int | Pop | Copy

let pqueue_model_property =
  let op =
    QCheck.Gen.(
      frequency
        [ (6, map (fun p -> Push p) (int_bound 5)); (3, return Pop); (1, return Copy) ])
  in
  let print_op = function
    | Push p -> Printf.sprintf "push %d" p
    | Pop -> "pop"
    | Copy -> "copy"
  in
  let ops =
    QCheck.make
      ~print:QCheck.Print.(list (pair int print_op))
      QCheck.Gen.(list_size (int_range 0 400) (pair (int_bound 3) op))
  in
  QCheck.Test.make ~name:"pqueue matches a stable-sorted model under push/pop/copy"
    ~count:300 ops (fun ops ->
      (* Insert after every entry of priority <= p: FIFO among ties. *)
      let rec insert p v = function
        | (q, _) as x :: rest when q <= p -> x :: insert p v rest
        | rest -> (p, v) :: rest
      in
      let branches = ref [| (Pqueue.create (), ref []) |] in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (fun (b, op) ->
          let q, model = !branches.(b mod Array.length !branches) in
          (match op with
          | Push p ->
              Pqueue.push q ~priority:p !next;
              model := insert p !next !model;
              incr next
          | Pop -> (
              match (Pqueue.pop q, !model) with
              | None, [] -> ()
              | Some got, want :: rest ->
                  if got <> want then ok := false;
                  model := rest
              | _ -> ok := false)
          | Copy ->
              if Array.length !branches < 4 then
                branches := Array.append !branches [| (Pqueue.copy q, ref !model) |]);
          if Pqueue.length q <> List.length !model then ok := false)
        ops;
      !ok && Array.for_all (fun (q, model) -> Pqueue.to_list q = !model) !branches)

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

(* -- iheap -------------------------------------------------------------- *)

(* Random set/remove/pop/copy sequences against a reference model that
   keeps one (priority, stamp) per id and pops the least pair. A case
   draws at most 8 ids from 0-2000, first set in a random order, so the
   position array grows mid-run. Priorities come from 0-5, so ties
   (broken by the latest [set]) are common, and a re-[set] moves an id to
   a later or an earlier priority. A copy is a new branch that later
   operations drive independently of its source. *)
type iheap_op = Set of int * int | Remove of int | Pop_min | Copy_heap

let iheap_model_property =
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun i p -> Set (i, p)) (int_bound 7) (int_bound 5));
          (2, map (fun i -> Remove i) (int_bound 7));
          (2, return Pop_min);
          (1, return Copy_heap);
        ])
  in
  let print_op = function
    | Set (i, p) -> Printf.sprintf "set #%d %d" i p
    | Remove i -> Printf.sprintf "remove #%d" i
    | Pop_min -> "pop"
    | Copy_heap -> "copy"
  in
  let case =
    QCheck.make
      ~print:QCheck.Print.(pair (list int) (list (pair int print_op)))
      QCheck.Gen.(
        pair
          (list_size (int_range 1 8) (int_bound 2000))
          (list_size (int_range 0 300) (pair (int_bound 3) op)))
  in
  QCheck.Test.make ~name:"iheap matches a (priority, last set) model" ~count:300 case
    (fun (ids, ops) ->
      let ids = Array.of_list (List.sort_uniq compare ids) in
      let id_of i = ids.(i mod Array.length ids) in
      (* Model: id -> (priority, stamp); stamps grow across branches. *)
      let stamp = ref 0 in
      let model_min m =
        List.fold_left
          (fun best (id, (p, s)) ->
            match best with
            | Some (_, (bp, bs)) when (bp, bs) <= (p, s) -> best
            | _ -> Some (id, (p, s)))
          None m
      in
      let rec drain_model m =
        match model_min m with
        | None -> []
        | Some (id, (p, _)) -> (id, p) :: drain_model (List.remove_assoc id m)
      in
      let branches = ref [| (Iheap.create (), ref []) |] in
      let ok = ref true in
      let check cond = if not cond then ok := false in
      List.iter
        (fun (b, op) ->
          let h, model = !branches.(b mod Array.length !branches) in
          (match op with
          | Set (i, p) ->
              let id = id_of i in
              Iheap.set h ~id ~priority:p;
              model := (id, (p, !stamp)) :: List.remove_assoc id !model;
              incr stamp
          | Remove i ->
              let id = id_of i in
              Iheap.remove h ~id;
              model := List.remove_assoc id !model
          | Pop_min -> (
              match model_min !model with
              | None -> check (Iheap.is_empty h)
              | Some (id, (p, _)) ->
                  check (Iheap.min_priority h = p);
                  check (Iheap.pop_min h = id);
                  model := List.remove_assoc id !model)
          | Copy_heap ->
              if Array.length !branches < 4 then
                branches := Array.append !branches [| (Iheap.copy h, ref !model) |]);
          check (Iheap.length h = List.length !model);
          Array.iter (fun id -> check (Iheap.mem h ~id = List.mem_assoc id !model)) ids)
        ops;
      Array.iter
        (fun (h, model) ->
          let seen = ref [] in
          Iheap.iter_in_order h (fun ~id ~priority -> seen := (id, priority) :: !seen);
          let want = drain_model !model in
          check (List.rev !seen = want);
          let popped = List.map (fun (_, p) -> (Iheap.pop_min h, p)) want in
          check (popped = want && Iheap.is_empty h))
        !branches;
      !ok)

let test_iheap_basics () =
  let h = Iheap.create () in
  Alcotest.check_raises "min_priority empty"
    (Invalid_argument "Iheap.min_priority: empty heap") (fun () ->
      ignore (Iheap.min_priority h : int));
  Alcotest.check_raises "pop_min empty" (Invalid_argument "Iheap.pop_min: empty heap")
    (fun () -> ignore (Iheap.pop_min h : int));
  Iheap.remove h ~id:3;
  Alcotest.(check bool) "absent id: remove is a no-op" true (Iheap.is_empty h);
  Alcotest.check_raises "negative id" (Invalid_argument "Iheap.set: negative id") (fun () ->
      Iheap.set h ~id:(-1) ~priority:0);
  let lim = 1 lsl 38 in
  Alcotest.check_raises "priority outside the packing range"
    (Invalid_argument "Iheap.set: priority outside +-2^38 (packing invariant)") (fun () ->
      Iheap.set h ~id:0 ~priority:lim);
  Iheap.set h ~id:4 ~priority:(lim - 1);
  Iheap.set h ~id:1000 ~priority:(-lim);
  Iheap.set h ~id:7 ~priority:(-3);
  let order = ref [] in
  Iheap.iter_in_order h (fun ~id ~priority -> order := (id, priority) :: !order);
  Alcotest.(check (list (pair int int)))
    "full packing range, negative priorities first"
    [ (1000, -lim); (7, -3); (4, lim - 1) ]
    (List.rev !order);
  Alcotest.(check int) "iter_in_order non-destructive" 3 (Iheap.length h);
  (* Removing from one subtree re-seats the last entry, taken from the
     other, which may have to move up: id 6 (priority 2) lands under id 1
     (priority 4) when id 3 is removed, and must pop before it. *)
  let h = Iheap.create () in
  List.iter
    (fun (id, priority) -> Iheap.set h ~id ~priority)
    [ (0, 0); (1, 4); (2, 1); (3, 6); (4, 6); (5, 7); (6, 2) ];
  Iheap.remove h ~id:3;
  Alcotest.(check (list int)) "remove sifts the re-seated entry up" [ 0; 2; 6; 1; 4; 5 ]
    (List.init (Iheap.length h) (fun _ -> Iheap.pop_min h))

let test_iheap_seq_compaction () =
  (* One id re-set 2^24 + 64 times, alternating below and above three
     others, drives the 24-bit stamp counter through its renumbering: the
     pop order must still follow (priority, last set). *)
  let h = Iheap.create () in
  Iheap.set h ~id:1 ~priority:3;
  Iheap.set h ~id:2 ~priority:5;
  Iheap.set h ~id:3 ~priority:5;
  let total = (1 lsl 24) + 64 in
  for k = 0 to total - 1 do
    Iheap.set h ~id:0 ~priority:(if k land 1 = 0 then 4 else 6);
    if k = total / 2 then Iheap.set h ~id:2 ~priority:5
  done;
  Alcotest.(check int) "min across renumbering" 3 (Iheap.min_priority h);
  let drain () = List.init (Iheap.length h) (fun _ -> Iheap.pop_min h) in
  Alcotest.(check (list int)) "pop order across renumbering" [ 1; 3; 2; 0 ] (drain ())

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
  Alcotest.(check int) "no registrations" 0 (List.length (Metrics.to_list Metrics.disabled))

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
  Alcotest.(check bool) "absent before add" false (Stateset.mem s 42);
  Alcotest.(check bool) "first add wins" true (Stateset.add s 42);
  Alcotest.(check bool) "second add loses" false (Stateset.add s 42);
  Alcotest.(check bool) "member after add" true (Stateset.mem s 42);
  Alcotest.(check bool) "other key absent" false (Stateset.mem s 43);
  Alcotest.(check bool) "negative fingerprints work" true (Stateset.add s (-7));
  Alcotest.(check bool) "zero works (remapped off the empty slot)" true
    (Stateset.add s 0);
  Alcotest.(check int) "cardinal" 3 (Stateset.cardinal s)

let test_stateset_hash_compaction () =
  (* Slots retain 62 of a fingerprint's 63 bits: keys differing only in
     bit 62, the top bit, are deliberately identified (SPIN-style hash
     compaction); every lower bit still separates keys. *)
  let s = Stateset.create () in
  let base = 0x123456789ABC in
  Alcotest.(check bool) "base inserts" true (Stateset.add s base);
  Alcotest.(check bool) "bit 62 aliases" false (Stateset.add s (base lor (1 lsl 62)));
  Alcotest.(check bool) "bit 61 does not alias" true (Stateset.add s (base lor (1 lsl 61)));
  Alcotest.(check bool) "bit 0 does not alias" true (Stateset.add s (base lxor 1));
  Alcotest.(check int) "cardinal" 3 (Stateset.cardinal s)

let test_stateset_probing_and_resize () =
  (* A tiny table forces long probe chains and repeated doublings;
     contents must survive both. *)
  let s = Stateset.create ~capacity:2 () in
  let key i = (i * 2654435761) + 17 in
  for i = 0 to 999 do
    Alcotest.(check bool) "new key inserts" true (Stateset.add s (key i))
  done;
  for i = 0 to 999 do
    Alcotest.(check bool) "still present after resizes" true (Stateset.mem s (key i));
    Alcotest.(check bool) "re-add refused" false (Stateset.add s (key i))
  done;
  Alcotest.(check int) "cardinal" 1000 (Stateset.cardinal s);
  Alcotest.(check int) "hits" 1000 (Stateset.hits s);
  let metrics = Metrics.create () in
  Stateset.record metrics s;
  Alcotest.(check int) "misses = inserts" 1000 (Metrics.get_counter metrics "stateset.misses");
  Alcotest.(check int) "hits = duplicate adds" 1000 (Metrics.get_counter metrics "stateset.hits");
  Alcotest.(check bool) "resizes happened" true
    (Metrics.get_counter metrics "stateset.resizes" > 0)

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

let test_json_float_text () =
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (Json.to_string (Json.Float f)))
    [
      (0.1, "0.1");
      (0.95, "0.95");
      (1. /. 3., "0.3333333333333333");
      (2.0, "2.0");
      (1234567890123456., "1234567890123456.0");
    ]

(* Every finite float, integral or not and at any magnitude, prints to a
   text that parses back to the same [Float]. *)
let json_float_property =
  QCheck.Test.make ~name:"json floats round-trip" ~count:2000
    QCheck.(map Int64.float_of_bits int64)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      Json.parse (Json.to_string (Json.Float f)) = Ok (Json.Float f))

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
          QCheck_alcotest.to_alcotest pqueue_model_property;
          Alcotest.test_case "non-allocating API" `Quick test_pqueue_nonalloc_api;
          Alcotest.test_case "priority packing range" `Quick
            test_pqueue_priority_packing_range;
          Alcotest.test_case "seq compaction" `Quick test_pqueue_seq_compaction;
        ] );
      ( "iheap",
        [
          Alcotest.test_case "basics and packing range" `Quick test_iheap_basics;
          QCheck_alcotest.to_alcotest iheap_model_property;
          Alcotest.test_case "seq compaction" `Quick test_iheap_seq_compaction;
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
          Alcotest.test_case "dump_jsonl schema" `Quick test_metrics_dump_jsonl;
        ] );
      ( "stateset",
        [
          Alcotest.test_case "add and mem" `Quick test_stateset_add_mem;
          Alcotest.test_case "62-bit hash compaction" `Quick test_stateset_hash_compaction;
          Alcotest.test_case "probing and resize" `Quick test_stateset_probing_and_resize;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse basics and errors" `Quick test_json_parse_basics;
          Alcotest.test_case "shortest float text" `Quick test_json_float_text;
          QCheck_alcotest.to_alcotest json_float_property;
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
