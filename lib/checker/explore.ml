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

(* Visited-set policy. [Exact] keys each search-tree node on its engine
   fingerprint and prunes the subtree below an already-seen state — sound
   up to 62-bit hash-compaction collisions (see {!Stdext.Stateset}). *)
type dedup = Off | Exact

(* Partial-order reduction policy. [Sleep] cuts, per destination, the
   delivery orders of one round's batch down to outcome representatives:
   before expanding a node, each candidate order is trial-run on that
   destination's batch alone, and orders landing on the fingerprint (plus
   new outputs) of an earlier sibling order are commuted away — the sleep
   set of already-covered interleavings. Deliveries to distinct
   destinations need no trial at all: a delivery only steps its
   destination process, so cross-group orders commute structurally (and
   the enumeration never multiplies them out). The independence relation
   comes entirely from the engine's pending pool
   ({!Dsim.Engine.pending_delivery_groups}) — no per-protocol knowledge.
   Where the engine cannot predict a node's children, the trial is a
   scratch clone, and timer fires and crashes at the boundary instant run
   inside it, so an intervening event that breaks commutation shows up as
   differing trial fingerprints and defeats the pruning. Sound for the
   same reason — and up to the same hash-compaction caveat — as [Exact]
   dedup. *)
type por = No_por | Sleep

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
       sched: budget %d (cut %b), perm-limit fallback %b, max fan-out %d@]"
      t.totals.explored t.totals.violations t.totals.truncated pp_arr
      t.totals.depth_histogram (mean_depth t.totals) t.totals.fast_runs
      (fast_path_rate t.totals) t.totals.fault_runs t.totals.drops t.totals.dups
      t.totals.distinct_states t.totals.dedup_hits t.totals.pruned_subtrees
      t.totals.por_pruned t.totals.sleep_hits t.sched.budget t.sched.budget_cut
      t.sched.fallback t.sched.max_fanout

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
   engine's trial of exactly that order, when one was run. *)
type leg = { order : int list; trial : Proto.Value.t Dsim.Engine.trial option }

(* One round boundary's worth of scheduling decisions: which pending
   messages the adversary loses, which it duplicates (the copy stays in
   the pool and is delivered at a later boundary), and the exact delivery
   order of the rest (as pending ids): one leg per correct destination,
   ascending, then the messages to crashed processes in arrival order.
   With fault bounds at zero this degenerates to the pure delivery-order
   choice. *)
type round_choice = { drop : int list; dup : int list; legs : leg list; to_crashed : int list }

let deliver_list c = List.concat_map (fun l -> l.order) c.legs @ c.to_crashed

let trials c = List.filter_map (fun l -> l.trial) c.legs

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
   its last child in the DFS; an interior node with [k] children then
   costs [k - 1] clones. *)
let extend ~delta ~reuse engine round ({ drop; dup; _ } as choice) =
  let c = if reuse then engine else Dsim.Engine.clone engine in
  let at = round * delta in
  List.iter (fun id -> Dsim.Engine.drop_pending c ~id) drop;
  List.iter (fun id -> ignore (Dsim.Engine.duplicate_pending c ~id : int)) dup;
  List.iter (fun id -> Dsim.Engine.deliver_pending c ~id ~at) (deliver_list choice);
  ignore (Dsim.Engine.run ~until:at c);
  advance ~delta c (round + 1);
  c

(* Enumerate one round's scheduling decisions: which live pending messages
   to drop (within the remaining drop bound), which of the kept ones to
   duplicate (within the dup bound; the copy stays pooled for a later
   round), and — per correct recipient — every delivery order of the kept
   messages. Fault subsets are enumerated in ascending size with the empty
   choice first, so under a tight budget the no-fault schedules are
   explored before any faulty ones. Messages to crashed processes are
   irrelevant and are appended in arrival order. Returns [None] when
   nothing is pending, else the number of choices and the choices
   themselves (fan-out telemetry stays with the caller).

   Each drop subset's per-destination orders, and the trials and POR
   bookkeeping behind them, are computed here, eagerly, so [sleep_hits]
   and [por_pruned] do not depend on how much of the product a budget
   lets the caller visit. The drop × dup × order product itself is a
   lazy sequence: a node's fan-out can run to hundreds of thousands of
   choices, and only the one being explored needs to exist.

   A trial delivers one destination's kept batch, in one order, at the
   boundary. Where [prediction] is the engine's
   ({!Dsim.Engine.child_fingerprint}), the trial runs on a copy of that
   destination's state alone; elsewhere it runs on a scratch clone of
   [engine], which also runs any boundary-instant timer fire or crash
   step (deliveries rank before timers at an instant). With [por =
   Sleep], each destination's order list is first reduced to
   trial-outcome representatives: orders landing on a (fingerprint, new
   outputs) pair already claimed by an earlier sibling are suppressed and
   counted in [sleep_hits]. An event that breaks commutation
   differentiates the trial outcomes and keeps both orders. The child a
   kept order generates is determined, process-locally, by the
   per-destination trial classes jointly — delivering a message only
   steps its destination — so every suppressed combination would have
   rebuilt an already-generated child state (up to the fingerprint's
   hash compaction, exactly like [Exact] dedup). [por_pruned] counts the
   order combinations never multiplied out. With [trial_all], every kept
   order is trialled — single-order batches and, without POR, every order
   — so that each leg carries the trial record the child key reads.
   Trials are memoized per kept batch, so a batch's orders are trialled
   once per node even across fault branches that keep it intact. *)
let round_choices_of ~por ~prediction ~trial_all ~fallback ~sleep_hits ~por_pruned
    ~boundary_at engine ~drops_left ~dups_left =
  if Dsim.Engine.pending_count engine = 0 then None
  else begin
    let orders_for_batch ids =
      if List.length ids <= perm_limit then Combinat.permutations ids
      else begin
        fallback := true;
        [ ids; List.rev ids ]
      end
    in
    let groups, crashed_ids = Dsim.Engine.pending_delivery_groups engine in
    (* Drop subsets are enumerated over the live ids in global send order —
       the same order the pre-POR explorer used — so the DFS visits fault
       branches in an unchanged sequence. *)
    let live_ids =
      List.rev
        (Dsim.Engine.fold_pending engine ~init:[]
           ~f:(fun acc ~id ~src:_ ~dst ~msg:_ ~sent_at:_ ->
             if Dsim.Engine.crashed engine dst then acc else id :: acc))
    in
    (* One order's sleep-set key, and its trial record when the engine
       offers one. *)
    let trial order =
      match prediction with
      | Some p ->
          let r = p.Dsim.Engine.trial order in
          ((r.Dsim.Engine.fingerprint, r.Dsim.Engine.outputs), Some r)
      | None ->
          let scratch = Dsim.Engine.clone engine in
          List.iter (fun id -> Dsim.Engine.deliver_pending scratch ~id ~at:boundary_at) order;
          ignore (Dsim.Engine.run ~until:boundary_at scratch);
          let since = Dsim.Engine.output_count engine in
          ((Dsim.Engine.fingerprint scratch, Dsim.Engine.recent_outputs scratch ~since), None)
    in
    (* A kept batch's order count before POR, and its legs after. *)
    let memo = Hashtbl.create 8 in
    let legs_for batch =
      match Hashtbl.find_opt memo batch with
      | Some entry -> entry
      | None ->
          let orders = orders_for_batch batch in
          let legs =
            match (por, orders) with
            | Sleep, _ :: _ :: _ ->
                let seen = Hashtbl.create 8 in
                List.filter_map
                  (fun order ->
                    let key, record = trial order in
                    if Hashtbl.mem seen key then begin
                      incr sleep_hits;
                      None
                    end
                    else begin
                      Hashtbl.add seen key ();
                      Some { order; trial = record }
                    end)
                  orders
            | _ ->
                List.map
                  (fun order -> { order; trial = (if trial_all then snd (trial order) else None) })
                  orders
          in
          let entry = (List.length orders, legs) in
          Hashtbl.add memo batch entry;
          entry
    in
    let block drop =
      let kept = List.filter (fun id -> not (List.mem id drop)) live_ids in
      let dup_sets = Combinat.subsets_up_to dups_left kept in
      let full = ref 1 in
      let per_dst =
        List.filter_map
          (fun (_, batch) ->
            match List.filter (fun id -> not (List.mem id drop)) batch with
            | [] -> None
            | kept_batch ->
                let orders, legs = legs_for kept_batch in
                full := !full * orders;
                Some legs)
          groups
      in
      let reduced = List.fold_left (fun a l -> a * List.length l) 1 per_dst in
      if !full > reduced then
        por_pruned := !por_pruned + ((!full - reduced) * List.length dup_sets);
      (drop, dup_sets, per_dst, List.length dup_sets * reduced)
    in
    let blocks = List.map block (Combinat.subsets_up_to drops_left live_ids) in
    let count = List.fold_left (fun a (_, _, _, c) -> a + c) 0 blocks in
    let choices =
      Seq.flat_map
        (fun (drop, dup_sets, per_dst, _) ->
          Seq.flat_map
            (fun dup ->
              Seq.map
                (fun legs -> { drop; dup; legs; to_crashed = crashed_ids })
                (Combinat.cartesian_seq per_dst))
            (List.to_seq dup_sets))
        (List.to_seq blocks)
    in
    Some (count, choices)
  end

let synchronous_report (module P : Proto.Protocol.S) ~n ~e ~f ~delta ~proposals
    ?(crashes = []) ~rounds ?(budget = 20_000) ?(disable_timers = true) ?domains:_
    ?clamp_domains:_ ?(faults = no_faults) ?(dedup = Off) ?(por = No_por)
    ?(metrics = Metrics.disabled) ~check () =
  if faults.max_drops < 0 || faults.max_dups < 0 then
    invalid_arg "Explore.synchronous_report: fault bounds must be non-negative";
  let budget = max budget 0 in
  let root =
    root_engine (P.make ~n ~e ~f ~delta) ~n ~delta ~proposals ~crashes ~disable_timers
  in
  if por = Sleep && not (Dsim.Engine.has_fingerprint root) then
    invalid_arg
      "Explore.synchronous_report: POR requires the automaton to supply state_fingerprint";
  let visited =
    match dedup with
    | Off -> None
    | Exact ->
        if not (Dsim.Engine.has_fingerprint root) then
          invalid_arg
            "Explore.synchronous_report: dedup requires the automaton to supply state_fingerprint";
        (* Pre-sized so a full-budget exploration never resizes mid-search:
           every evaluated run inserts at most a handful of interior nodes
           beyond its leaf, so 2x the run budget is a comfortable ceiling
           (capped — capacity is performance-only, the set still grows). *)
        let capacity = min (1 lsl 22) (Stateset.recommended_capacity ~expected:(2 * budget)) in
        Some (Stateset.create ~capacity ())
  in
  (* The totals, tallied as the search goes. *)
  let explored = ref 0 and violations = ref 0 and first_violation = ref None in
  let depth_histogram = Array.make (rounds + 1) 0 in
  let fast = ref 0 and fault_runs = ref 0 and drops = ref 0 and dups = ref 0 in
  let pruned = ref 0 in
  let sleep_hits = ref 0 and por_pruned = ref 0 and max_fanout = ref 0 in
  let cut = ref false and fallback = ref false in
  (* A node's visited-set key. The round number is mixed in so a quiescent
     engine reached at two different depths cannot alias (its clock may
     not have advanced). *)
  let key_of fp round = Fingerprint.mix fp (Fingerprint.int round) in
  (* [true] = first arrival (or dedup off): expand this node. *)
  let admit key round =
    match visited with
    | None -> true
    | Some vs ->
        let fresh = Stateset.add vs key in
        if (not fresh) && round <= rounds then incr pruned;
        fresh
  in
  let check_visited engine round =
    Option.is_none visited
    || admit (key_of (Dsim.Engine.fingerprint engine) round) round
  in
  (* The engine's prediction for a node's children: its per-destination
     trials, and under [Exact] dedup each child's exact fingerprint, so
     only a child whose key is new is built. [None] — neither POR nor
     dedup, or a node where more than the boundary's deliveries could
     happen before the next one — leaves the node on clone trials and the
     build-then-check path. *)
  let predict engine round =
    if por = Sleep || dedup = Exact then
      Dsim.Engine.child_fingerprint engine ~at:(round * delta) ~until:(((round + 1) * delta) - 1)
    else None
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
  (* The last choice of a node reuses its engine, whether or not an
     earlier choice was built. *)
  let rec dfs engine round ~drops_left ~dups_left =
    if check_visited engine round then expand engine round ~drops_left ~dups_left
  and expand engine round ~drops_left ~dups_left =
    if round > rounds then evaluate engine ~depth:rounds
    else begin
      let prediction = predict engine round in
      let keys = match dedup with Exact -> prediction | Off -> None in
      match
        round_choices_of ~por ~prediction ~trial_all:(Option.is_some keys) ~fallback
          ~sleep_hits ~por_pruned ~boundary_at:(round * delta) engine ~drops_left ~dups_left
      with
      | None -> evaluate engine ~depth:(round - 1)
      | Some (count, choices) ->
          max_fanout := max !max_fanout count;
          let child ~last choice =
            let drops_left = drops_left - List.length choice.drop
            and dups_left = dups_left - List.length choice.dup in
            let build () = extend ~delta ~reuse:last engine round choice in
            match keys with
            | None -> dfs (build ()) (round + 1) ~drops_left ~dups_left
            | Some p ->
                let predicted =
                  key_of
                    (p.Dsim.Engine.key ~drop:choice.drop ~dup:choice.dup ~trials:(trials choice))
                    (round + 1)
                in
                if admit predicted (round + 1) then begin
                  let built = build () in
                  if key_of (Dsim.Engine.fingerprint built) (round + 1) <> predicted then
                    failwith "Explore: a built child's fingerprint differs from its prediction";
                  expand built (round + 1) ~drops_left ~dups_left
                end
          in
          let rec walk = function
            | Seq.Nil -> ()
            | Seq.Cons (choice, rest) ->
                if allowed () then begin
                  let next = rest () in
                  child ~last:(match next with Seq.Nil -> true | Seq.Cons _ -> false) choice;
                  walk next
                end
          in
          walk (choices ())
    end
  in
  if allowed () then
    dfs root 1 ~drops_left:faults.max_drops ~dups_left:faults.max_dups;
  Option.iter (Stateset.record metrics) visited;
  let res =
    {
      explored = !explored;
      violations = !violations;
      first_violation = !first_violation;
      truncated = !cut || !fallback;
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
          distinct_states = Option.fold ~none:0 ~some:Stateset.cardinal visited;
          dedup_hits = Option.fold ~none:0 ~some:Stateset.hits visited;
          pruned_subtrees = !pruned;
          por_pruned = !por_pruned;
          sleep_hits = !sleep_hits;
        };
      sched =
        { Run_report.budget; budget_cut = !cut; fallback = !fallback; max_fanout = !max_fanout };
    } )
