module Pid = Dsim.Pid
module Time = Dsim.Time
module Combinat = Stdext.Combinat
module Metrics = Stdext.Metrics
module Stateset = Stdext.Stateset
module Fingerprint = Dsim.Fingerprint

type result = {
  explored : int;
  violations : int;
  first_violation : Scenario.outcome option;
  truncated : bool;
}

(* Kept only for [benchmark/workloads.ml]; see explore.mli. *)
type dedup = Exact

type por = Sleep

type fault_bounds = { max_drops : int; max_dups : int }

let no_faults = { max_drops = 0; max_dups = 0 }

module Run_report = struct
  type totals = {
    explored : int;
    violations : int;
    truncated : bool;
    depth_histogram : int array;
    fast_runs : int;
    fault_runs : int;
    drops : int;
    dups : int;
    distinct_states : int;  (* visited-set additions; 0 with dedup off *)
    dedup_hits : int;  (* arrivals at an already-visited state *)
    pruned_subtrees : int;  (* hits at interior nodes (a whole subtree cut) *)
    por_pruned : int;  (* children never generated: commuted order combinations *)
    sleep_hits : int;  (* per-destination orders suppressed by trial equivalence *)
    trials : int;  (* orders trial-run *)
    table_hits : int;  (* batches answered from the search's table, with no trial *)
  }

  type sched = { budget : int; budget_cut : bool; fallback : bool; max_fanout : int }

  type t = { totals : totals; sched : sched }

  let fast_path_rate t =
    if t.explored = 0 then 0. else float_of_int t.fast_runs /. float_of_int t.explored

  let mean_depth t =
    if t.explored = 0 then 0.
    else begin
      let sum = ref 0 in
      Array.iteri (fun d c -> sum := !sum + (d * c)) t.depth_histogram;
      float_of_int !sum /. float_of_int t.explored
    end

  let pp fmt t =
    let pp_arr fmt a =
      Array.iteri (fun i v -> Format.fprintf fmt "%s%d" (if i = 0 then "" else " ") v) a
    in
    Format.fprintf fmt
      "@[<v>runs: explored %d, violations %d, truncated %b@,\
       depth histogram: [%a] (mean %.2f)@,\
       fast runs: %d (rate %.3f); fault runs: %d (drops %d, dups %d)@,\
       dedup: distinct states %d, hits %d, pruned subtrees %d@,\
       por: pruned %d, sleep hits %d@,\
       trials: run %d, table hits %d@,\
       sched: budget %d (cut %b), perm-limit fallback %b, max fan-out %d@]"
      t.totals.explored t.totals.violations t.totals.truncated pp_arr
      t.totals.depth_histogram (mean_depth t.totals) t.totals.fast_runs
      (fast_path_rate t.totals) t.totals.fault_runs t.totals.drops t.totals.dups
      t.totals.distinct_states t.totals.dedup_hits t.totals.pruned_subtrees
      t.totals.por_pruned t.totals.sleep_hits t.totals.trials t.totals.table_hits t.sched.budget
      t.sched.budget_cut t.sched.fallback t.sched.max_fanout

  let record registry t =
    let c name v = Metrics.add (Metrics.counter registry name) v in
    c "explore.explored" t.totals.explored;
    c "explore.violations" t.totals.violations;
    c "explore.truncated" (if t.totals.truncated then 1 else 0);
    c "explore.fast_runs" t.totals.fast_runs;
    c "explore.fault_runs" t.totals.fault_runs;
    c "explore.drops" t.totals.drops;
    c "explore.dups" t.totals.dups;
    c "explore.distinct_states" t.totals.distinct_states;
    c "explore.dedup_hits" t.totals.dedup_hits;
    c "explore.pruned_subtrees" t.totals.pruned_subtrees;
    c "explore.por_pruned" t.totals.por_pruned;
    c "explore.sleep_hits" t.totals.sleep_hits;
    c "explore.trials" t.totals.trials;
    c "explore.table_hits" t.totals.table_hits;
    Metrics.record_max (Metrics.gauge registry "explore.max_fanout") t.sched.max_fanout;
    let nbuckets = Array.length t.totals.depth_histogram in
    if nbuckets > 1 then begin
      let h =
        Metrics.histogram registry ~buckets:(Array.init (nbuckets - 1) (fun i -> i))
          "explore.depth"
      in
      Array.iteri
        (fun d count ->
          for _ = 1 to count do
            Metrics.observe h d
          done)
        t.totals.depth_histogram
    end
end

(* One destination's delivery order at a round boundary, with the
   engine's trial record of exactly that order. *)
type leg = { order : int list; trial : Proto.Value.t Dsim.Engine.trial }

(* One round boundary's worth of scheduling decisions: which pending
   messages the adversary loses, which it duplicates (the copy stays in
   the pool and is delivered at a later boundary), and the exact delivery
   order of the rest (as pending ids): one leg per correct destination,
   ascending, then the messages to crashed processes in arrival order.
   With fault bounds at zero this degenerates to the pure delivery-order
   choice. *)
type round_choice = { drop : int list; dup : int list; legs : leg list; to_crashed : int list }

let deliver_list c = List.concat_map (fun l -> l.order) c.legs @ c.to_crashed

let trials c = List.map (fun l -> l.trial) c.legs

(* An explored run ends at a round boundary, not where a [run] call
   returned, and is reported as [Quiescent]. *)
let outcome_of engine = Scenario.outcome_of ~engine_result:Dsim.Engine.Quiescent engine

(* Batches larger than this fall back to two representative delivery
   orders (arrival and reversed) instead of all permutations. *)
let perm_limit = 4

(* Process everything strictly before [round]'s boundary (init and inputs
   at the first level, timers in between later). *)
let advance ~delta engine round = ignore (Dsim.Engine.run ~until:((round * delta) - 1) engine)

(* The engine every exploration starts from, positioned just before the
   first round boundary. *)
let root_engine automaton ~n ~delta ~proposals ~crashes ~disable_timers =
  let engine =
    Dsim.Engine.create ~automaton ~n ~network:Dsim.Network.Manual ~seed:0 ~disable_timers
      ~record_trace:true ~inputs:proposals ~crashes ()
  in
  advance ~delta engine 1;
  engine

(* The child that [choice] leads to, advanced to just before the next
   boundary. Drops and duplications go first (order matters only for id
   determinism — duplication allocates fresh pending ids in [dup] order),
   then the prescribed delivery order. With [reuse] it extends [engine] in
   place instead of a clone — sound only once the parent is dead, i.e. for
   its last child in the DFS; an interior node with [k] admitted children
   then costs at most [k - 1] clones. *)
let extend ~delta ~reuse engine round ({ drop; dup; _ } as choice) =
  let c = if reuse then engine else Dsim.Engine.clone engine in
  let at = round * delta in
  List.iter (fun id -> Dsim.Engine.drop_pending c ~id) drop;
  List.iter (fun id -> ignore (Dsim.Engine.duplicate_pending c ~id : int)) dup;
  List.iter (fun id -> Dsim.Engine.deliver_pending c ~id ~at) (deliver_list choice);
  ignore (Dsim.Engine.run ~until:at c);
  advance ~delta c (round + 1);
  c

(* A destination batch's sleep-set classes: its order count before POR,
   and its kept orders as positions in the batch (send order), each with
   its engine trial record. *)
type classes = { orders : int; kept : (int list * Proto.Value.t Dsim.Engine.trial) list }

module Batches = Hashtbl.Make (Int)

(* What [round_choices_of] keeps across the nodes of one search, keyed
   by {!Dsim.Engine.prediction}'s digests: the classes of every batch the
   engine's trials classified, under the batch's digest in send order;
   the record of every order a sleep set kept, under that order's
   digest; and the counts the report takes from them. *)
type pruning = {
  table : classes Batches.t;
  records : Proto.Value.t Dsim.Engine.trial Batches.t;
  mutable sleep_hits : int;
  mutable por_pruned : int;
  mutable fallback : bool;
  mutable trials : int;
  mutable table_hits : int;
}

(* Every order of a batch of [k] messages, as positions. *)
let orders_of_size k =
  let positions = List.init k Fun.id in
  if k <= perm_limit then Combinat.permutations positions else [ positions; List.rev positions ]

(* Enumerate one round's scheduling decisions: which live pending messages
   to drop (within the remaining drop bound), which of the kept ones to
   duplicate (within the dup bound; the copy stays pooled for a later
   round), and — per correct recipient — every delivery order of the kept
   messages. Fault subsets are enumerated in ascending size with the empty
   choice first, so under a tight budget the no-fault schedules are
   explored before any faulty ones. Messages to crashed processes are
   irrelevant and are appended in arrival order. The pool must not be
   empty. Returns the number of choices, the live messages as (id,
   destination), the ids to crashed processes, and one block per drop
   subset: its drop and each kept batch's legs (fan-out telemetry stays
   with the caller).

   Each drop subset's per-destination orders, and the trials and POR
   bookkeeping behind them, are computed here, eagerly, so [sleep_hits]
   and [por_pruned] do not depend on how much of the product a budget
   lets the caller visit. The drop × dup × order product itself is left
   to the caller to walk: a node's fan-out can run to hundreds of
   thousands of choices, and only the one being explored needs to
   exist.

   A trial is [prediction]'s ({!Dsim.Engine.child_fingerprint}): it
   delivers one destination's kept batch, in one order, on a copy of
   that destination's state, and runs what else that process has due
   before the next boundary (its timers, inputs and crash). Each order
   of a batch is trialled, and one whose outcome an earlier sibling
   order already reached is suppressed and counted in [sleep_hits]. The
   outcome is the destination's new local digest, armed timers, last
   event instant, send count, sent-digest sum and outputs: within one
   batch at one node they fix the one-destination child. An event that
   breaks commutation differentiates the outcomes and keeps both orders.
   The child a kept order generates is determined, process-locally, by
   the per-destination trial classes jointly — nothing crosses processes
   between boundaries — so every suppressed combination would have
   rebuilt an already-generated child state (up to the fingerprint's
   hash compaction, exactly like the visited set). [por_pruned] counts
   the order combinations never multiplied out. A batch with one order
   is trialled too, so that every leg carries the record the child key
   reads.

   A batch's classes are kept in [pruning.table] under its digest, which
   mixes everything a trial reads, so a batch met again — at this node
   under another drop subset, or at any later node — costs one digest
   and one lookup and runs no trial. A batch met for the first time
   looks each order up in [pruning.records] before trialling it; an
   order enters that table as soon as the sleep set keeps it, so the
   orders of one batch are looked up by their own digests too. Each
   distinct kept batch of a node adds its suppressed orders to
   [sleep_hits] once, whether its classes came from trials or from the
   table. *)
let round_choices_of prediction pruning engine ~drops_left ~dups_left =
  (* One pass over the pool in send order: the live messages as (id,
     destination), each correct destination's batch, and the ids to
     crashed processes. Drop subsets are enumerated over the live
     messages in this order — the order the search has always used — so
     the DFS visits fault branches in an unchanged sequence. *)
  let batches = Array.make (Dsim.Engine.n engine) [] in
  let live_rev = ref [] and crashed_rev = ref [] in
  Dsim.Engine.iter_pending engine (fun ~id ~src:_ ~dst ~msg:_ ~sent_at:_ ->
      if Dsim.Engine.crashed engine dst then crashed_rev := id :: !crashed_rev
      else begin
        live_rev := (id, dst) :: !live_rev;
        batches.(dst) <- id :: batches.(dst)
      end);
  let live = List.rev !live_rev and crashed_ids = List.rev !crashed_rev in
  let digest = prediction.Dsim.Engine.digest in
  (* The sleep set over a batch met for the first time: each order's
     record, looked up or trialled, and the classes its outcomes make. *)
  let order ids positions = List.map (Array.get ids) positions in
  let classify ids =
    let orders = orders_of_size (Array.length ids) in
    let seen = Hashtbl.create 8 in
    let kept =
      List.filter_map
        (fun positions ->
          let order = order ids positions in
          let d = digest order in
          let r =
            match Batches.find_opt pruning.records d with
            | Some r -> r
            | None ->
                pruning.trials <- pruning.trials + 1;
                prediction.Dsim.Engine.trial order
          in
          let outcome = Dsim.Engine.(r.local, r.timers, r.last, r.sends, r.sent, r.outputs) in
          if Hashtbl.mem seen outcome then None
          else begin
            Hashtbl.add seen outcome ();
            Batches.replace pruning.records d r;
            Some (positions, r)
          end)
        orders
    in
    { orders = List.length orders; kept }
  in
  (* A kept batch's order count before POR, and its legs after; [count]
     adds its suppressed orders to [sleep_hits]. *)
  let legs_for ~count batch =
    let ids = Array.of_list batch in
    if Array.length ids > perm_limit then pruning.fallback <- true;
    let c =
      let d = digest batch in
      match Batches.find_opt pruning.table d with
      | Some c ->
          pruning.table_hits <- pruning.table_hits + 1;
          c
      | None ->
          let c = classify ids in
          Batches.add pruning.table d c;
          c
    in
    if count then pruning.sleep_hits <- pruning.sleep_hits + c.orders - List.length c.kept;
    (c.orders, List.map (fun (positions, trial) -> { order = order ids positions; trial }) c.kept)
  in
  let whole =
    List.filter_map
      (fun dst ->
        match batches.(dst) with
        | [] -> None
        | rev ->
            let batch = List.rev rev in
            Some (dst, batch, legs_for ~count:true batch))
      (List.init (Array.length batches) Fun.id)
  in
  (* A drop subset changes only the batches it drops from. Each such
     kept batch is counted under the drop subset that lies within it,
     the first to produce it. *)
  let block drop =
    let dropped id = List.mem_assoc id drop in
    let per_dst =
      List.filter_map
        (fun (dst, batch, legs) ->
          if not (List.exists (fun (_, d) -> d = dst) drop) then Some legs
          else
            match List.filter (fun id -> not (dropped id)) batch with
            | [] -> None
            | kept -> Some (legs_for ~count:(List.for_all (fun (_, d) -> d = dst) drop) kept))
        whole
    in
    let product f = List.fold_left (fun acc legs -> acc * f legs) 1 per_dst in
    let full = product fst and reduced = product (fun (_, legs) -> List.length legs) in
    let kept_count = List.length live - List.length drop in
    let dup_sets =
      List.fold_left ( + ) 0
        (List.init (min dups_left kept_count + 1) (Combinat.choose kept_count))
    in
    if full > reduced then
      pruning.por_pruned <- pruning.por_pruned + ((full - reduced) * dup_sets);
    (dup_sets * reduced, (drop, List.map snd per_dst))
  in
  let blocks = List.map block (Combinat.subsets_up_to drops_left live) in
  (List.fold_left (fun a (c, _) -> a + c) 0 blocks, live, crashed_ids, List.map snd blocks)

let synchronous_report (module P : Proto.Protocol.S) ~n ~e ~f ~delta ~proposals
    ?(crashes = []) ~rounds ?(budget = 20_000) ?(disable_timers = true) ?domains:_
    ?clamp_domains:_ ?(faults = no_faults) ?dedup:_ ?por:_ ?(metrics = Metrics.disabled)
    ~check () =
  if faults.max_drops < 0 || faults.max_dups < 0 then
    invalid_arg "Explore.synchronous_report: fault bounds must be non-negative";
  if rounds < 0 then invalid_arg "Explore.synchronous_report: rounds must be non-negative";
  let budget = max budget 0 in
  let root =
    root_engine (P.make ~n ~e ~f ~delta) ~n ~delta ~proposals ~crashes ~disable_timers
  in
  if not (Dsim.Engine.has_fingerprint root) then
    invalid_arg
      "Explore.synchronous_report: the automaton must supply state_fingerprint";
  let visited = Stateset.create () in
  let pruning =
    {
      table = Batches.create 1024;
      records = Batches.create 1024;
      sleep_hits = 0;
      por_pruned = 0;
      fallback = false;
      trials = 0;
      table_hits = 0;
    }
  in
  (* The totals, tallied as the search goes. *)
  let explored = ref 0 and violations = ref 0 and first_violation = ref None in
  let depth_histogram = Array.make (rounds + 1) 0 in
  let fast = ref 0 and fault_runs = ref 0 and drops = ref 0 and dups = ref 0 in
  let pruned = ref 0 and max_fanout = ref 0 and cut = ref false in
  (* [true] = first arrival at a node with fingerprint [fp]: expand it.
     The round number is mixed into the visited-set key so a quiescent
     engine reached at two different depths cannot alias (its clock may
     not have advanced). *)
  let admit fp round =
    let fresh = Stateset.add visited (Fingerprint.mix fp (Fingerprint.int round)) in
    if (not fresh) && round <= rounds then incr pruned;
    fresh
  in
  let evaluate engine ~depth =
    let outcome = outcome_of engine in
    incr explored;
    depth_histogram.(depth) <- depth_histogram.(depth) + 1;
    if
      outcome.Scenario.latencies <> []
      && List.for_all (fun (_, l) -> l <= 2 * delta) outcome.Scenario.latencies
    then incr fast;
    if outcome.Scenario.dropped + outcome.Scenario.duplicated > 0 then incr fault_runs;
    drops := !drops + outcome.Scenario.dropped;
    dups := !dups + outcome.Scenario.duplicated;
    if not (check outcome) then begin
      incr violations;
      if Option.is_none !first_violation then first_violation := Some outcome
    end
  in
  (* The budget cut. Callers ask before keying or building a child, so a
     cut never pays for the engine work of a node it will not visit; the
     first refusal is final. *)
  let allowed () =
    if !explored >= budget then cut := true;
    not !cut
  in
  (* The engine's prediction for a node's children: its per-destination
     trials and each child's exact fingerprint, so only a child whose key
     is new is built. The last choice of a node reuses its engine. *)
  let rec expand engine round ~drops_left ~dups_left =
    if round > rounds then evaluate engine ~depth:rounds
    else if Dsim.Engine.pending_count engine = 0 then evaluate engine ~depth:(round - 1)
    else begin
      let prediction =
        Dsim.Engine.child_fingerprint engine ~at:(round * delta)
          ~until:(((round + 1) * delta) - 1)
      in
      let count, live, to_crashed, blocks =
        round_choices_of prediction pruning engine ~drops_left ~dups_left
      in
      max_fanout := max !max_fanout count;
      let walked = ref 0 in
      let child choice =
        incr walked;
        let last = !walked = count in
        let predicted =
          prediction.Dsim.Engine.key ~drop:choice.drop ~dup:choice.dup ~trials:(trials choice)
        in
        if admit predicted (round + 1) then begin
          let built = extend ~delta ~reuse:last engine round choice in
          if Dsim.Engine.fingerprint built <> predicted then
            failwith "Explore: a built child's fingerprint differs from its prediction";
          expand built (round + 1)
            ~drops_left:(drops_left - List.length choice.drop)
            ~dups_left:(dups_left - List.length choice.dup)
        end
      in
      (* The drop × dup × order product, in the order the search has
         always used: drop subsets, then dup subsets, then one leg per
         destination, the last destination turning fastest (an odometer
         over the destinations' legs). *)
      let block (drop, per_dst) =
        let kept =
          List.filter_map (fun (id, _) -> if List.mem_assoc id drop then None else Some id) live
        in
        let drop = List.map fst drop in
        let legs = Array.of_list (List.map Array.of_list per_dst) in
        let k = Array.length legs in
        let digits = Array.make k 0 in
        (* Step to the next combination; false after the last one, with
           every digit back at 0. *)
        let rec turn d =
          if d < 0 then false
          else if digits.(d) + 1 < Array.length legs.(d) then begin
            digits.(d) <- digits.(d) + 1;
            true
          end
          else begin
            digits.(d) <- 0;
            turn (d - 1)
          end
        in
        List.iter
          (fun dup ->
            let more = ref true in
            while !more && allowed () do
              child
                { drop; dup; legs = List.init k (fun d -> legs.(d).(digits.(d))); to_crashed };
              more := turn (k - 1)
            done)
          (Combinat.subsets_up_to dups_left kept)
      in
      List.iter (fun b -> if not !cut then block b) blocks
    end
  in
  if allowed () && admit (Dsim.Engine.fingerprint root) 1 then
    expand root 1 ~drops_left:faults.max_drops ~dups_left:faults.max_dups;
  Stateset.record metrics visited;
  let res =
    {
      explored = !explored;
      violations = !violations;
      first_violation = !first_violation;
      truncated = !cut || pruning.fallback;
    }
  in
  ( res,
    {
      Run_report.totals =
        {
          Run_report.explored = res.explored;
          violations = res.violations;
          truncated = res.truncated;
          depth_histogram;
          fast_runs = !fast;
          fault_runs = !fault_runs;
          drops = !drops;
          dups = !dups;
          distinct_states = Stateset.cardinal visited;
          dedup_hits = Stateset.hits visited;
          pruned_subtrees = !pruned;
          por_pruned = pruning.por_pruned;
          sleep_hits = pruning.sleep_hits;
          trials = pruning.trials;
          table_hits = pruning.table_hits;
        };
      sched =
        {
          Run_report.budget;
          budget_cut = !cut;
          fallback = pruning.fallback;
          max_fanout = !max_fanout;
        };
    } )
