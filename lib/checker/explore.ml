module Pid = Dsim.Pid
module Time = Dsim.Time
module Combinat = Stdext.Combinat
module Pool = Stdext.Pool
module Metrics = Stdext.Metrics
module Stateset = Stdext.Stateset
module Fingerprint = Dsim.Fingerprint

type result = {
  explored : int;
  violations : int;
  first_violation : Scenario.outcome option;
  truncated : bool;
}

type mode = [ `Replay | `Snapshot ]

(* Visited-set policy. [Exact] keys each search-tree node on its engine
   fingerprint and prunes the subtree below an already-seen state — sound
   up to 62-bit hash-compaction collisions (see {!Stdext.Stateset}).
   [Symmetry] additionally canonicalises the non-distinguished pids before
   hashing ({!Dsim.Engine.fingerprint}'s [symmetry]), merging states equal
   up to a pid permutation. *)
type dedup = Off | Exact | Symmetry

(* Partial-order reduction policy. [Sleep] cuts, per destination, the
   delivery orders of one round's batch down to outcome representatives:
   before expanding a node, each candidate order is trial-run against a
   scratch clone that delivers only that destination's batch, and orders
   landing on the fingerprint (plus output history) of an earlier sibling
   order are commuted away — the sleep set of already-covered
   interleavings. Deliveries to distinct destinations need no trial at
   all: a delivery only steps its destination process, so cross-group
   orders commute structurally (and the enumeration never multiplies them
   out). The independence relation comes entirely from the engine's
   pending pool ({!Dsim.Engine.pending_delivery_groups}) — no
   per-protocol knowledge. Timer fires, crashes and fault branches are
   inside the trial context (they land at the same boundary instant), so
   an intervening event that breaks commutation shows up as differing
   trial fingerprints and defeats the pruning. Sound for the same reason
   — and up to the same hash-compaction caveat — as [Exact] dedup. *)
type por = No_por | Sleep

type fault_bounds = { max_drops : int; max_dups : int }

let no_faults = { max_drops = 0; max_dups = 0 }

(* Per-run facts captured at evaluation time. They ride in the chunk
   results in DFS order, so the merge can count exactly the sequential
   prefix of the search — which is what makes all [Run_report.totals]
   fields identical across modes, domain counts and scheduling
   interleavings, not just [explored]/[violations]. *)
type run_rec = {
  r_depth : int;
  r_drops : int;
  r_dups : int;
  r_fast : bool;
  r_violation : bool;
}

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

  type sched = { domains : int; budget : int; evals : int; wasted : int; max_fanout : int }

  type t = { totals : totals; sched : sched }

  let totals_equal (a : totals) (b : totals) = a = b

  let fast_path_rate t =
    if t.explored = 0 then 0. else float_of_int t.fast_runs /. float_of_int t.explored

  let mean_depth t =
    if t.explored = 0 then 0.
    else begin
      let sum = ref 0 in
      Array.iteri (fun d c -> sum := !sum + (d * c)) t.depth_histogram;
      float_of_int !sum /. float_of_int t.explored
    end

  let budget_waste_pct s =
    if s.evals = 0 then 0. else 100. *. float_of_int s.wasted /. float_of_int s.evals

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
       sched: domains %d, budget %d, evals %d, wasted %d (%.1f%%), max fan-out %d@]"
      t.totals.explored t.totals.violations t.totals.truncated pp_arr
      t.totals.depth_histogram (mean_depth t.totals) t.totals.fast_runs
      (fast_path_rate t.totals) t.totals.fault_runs t.totals.drops t.totals.dups
      t.totals.distinct_states t.totals.dedup_hits t.totals.pruned_subtrees
      t.totals.por_pruned t.totals.sleep_hits t.sched.domains t.sched.budget t.sched.evals
      t.sched.wasted (budget_waste_pct t.sched) t.sched.max_fanout

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
    c "explore.evals" t.sched.evals;
    c "explore.wasted" t.sched.wasted;
    Metrics.record_max (Metrics.gauge registry "explore.max_fanout") t.sched.max_fanout;
    Metrics.record_max (Metrics.gauge registry "explore.domains") t.sched.domains;
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

(* One round boundary's worth of scheduling decisions: which pending
   messages the adversary loses, which it duplicates (the copy stays in
   the pool and is delivered at a later boundary), and the exact delivery
   order of the rest (as pending ids). With fault bounds at zero this
   degenerates to the pure delivery-order choice. *)
type round_choice = { drop : int list; dup : int list; deliver : int list }

(* A path prescribes one {!round_choice} per round boundary. Pending ids
   are deterministic for a fixed path — duplication allocates fresh ids in
   choice order — so replaying a path always reconstructs the same run.
   Paths are stored as *reversed* prefixes (deepest round first):
   extending a node is then a single cons instead of an O(depth) append,
   and {!replay} reverses once. In [`Replay] mode every DFS node is
   materialised by re-executing its whole path from time 0 (O(depth²)
   engine work along a branch); in [`Snapshot] mode a node keeps its live
   engine and each child extends an {!Dsim.Engine.clone} by one round
   (O(depth)). Both modes visit the exact same nodes in the same order.

   A DFS node carries either representation; the engine of a node has
   processed everything strictly before the coming round boundary, so its
   pending pool holds exactly that round's messages. *)
type ('s, 'm) node =
  | Path of round_choice list  (* reversed: innermost round first *)
  | Engine of ('s, 'm, Proto.Value.t, Proto.Value.t) Dsim.Engine.t

(* The root of a subtree still to explore. [build] materialises the node
   lazily, in whichever task reaches it after the budget check, so a
   fault-branching node's thousands of children cost nothing until they
   are explored. [checked]: the split already admitted this node through
   the visited set and found it a leaf. *)
type ('s, 'm) subtree = {
  build : unit -> ('s, 'm) node;
  round : int;
  drops_left : int;
  dups_left : int;
  checked : bool;
}

(* What one chunk of adjacent subtrees explored. [c_runs] are its
   evaluated runs in DFS order; [c_first_violation] carries its run index
   so the merge can tell whether it falls inside the counted prefix;
   [c_cut] means [allow] refused while work remained. *)
type chunk = {
  c_explored : int;
  c_runs : run_rec list;
  c_first_violation : (int * Scenario.outcome) option;
  c_cut : bool;
  c_fallback : bool;  (* perm_limit fallback hit while expanding *)
}

let rec take_n n = function
  | x :: tl when n > 0 -> x :: take_n (n - 1) tl
  | _ -> []

let outcome_of ~n engine =
  let trace = Dsim.Engine.trace engine in
  let dropped, duplicated = Dsim.Engine.fault_counts engine in
  {
    Scenario.decisions = Dsim.Engine.outputs engine;
    proposals = Dsim.Trace.inputs trace;
    crashes = Dsim.Trace.crashes trace;
    n;
    horizon = Dsim.Engine.now engine;
    messages = Dsim.Trace.message_count trace;
    dropped;
    duplicated;
    latencies = Dsim.Engine.decision_latencies engine;
    engine_result = Dsim.Engine.Quiescent;
  }

(* Enumerate one round's scheduling decisions: which live pending messages
   to drop (within the remaining drop bound), which of the kept ones to
   duplicate (within the dup bound; the copy stays pooled for a later
   round), and — per correct recipient — every delivery order of the kept
   messages. Fault subsets are enumerated in ascending size with the empty
   choice first, so under a tight budget the no-fault schedules are
   explored before any faulty ones. Messages to crashed processes are
   irrelevant and are appended in arrival order. Returns [None] when
   nothing is pending. Shared by the exhaustive DFS and the swarm walkers
   (fan-out telemetry stays with the caller).

   With [por = Sleep], each destination's order list is first reduced to
   trial-outcome representatives: a scratch clone of [engine] delivers
   only that destination's kept batch in the candidate order and runs to
   the boundary; orders landing on an (engine fingerprint, output
   history) pair already claimed by an earlier sibling are suppressed and
   counted in [sleep_hits]. Any boundary-instant timer fire or crash step
   runs inside the trial (deliveries rank before timers at an instant),
   so an event that breaks commutation differentiates the trial outcomes
   and keeps both orders. The child a kept order generates is determined,
   process-locally, by the per-destination trial classes jointly —
   delivering a message only steps its destination — so every suppressed
   combination would have rebuilt an already-generated child state (up to
   the fingerprint's hash compaction, exactly like [Exact] dedup).
   [por_pruned] counts the order combinations never multiplied out.
   Trials are memoized per kept batch, so a batch's orders are trialled
   once per node even across fault branches that keep it intact. *)
let round_choices_of ~perm_limit ~por ~truncated ~sleep_hits ~por_pruned ~boundary_at
    engine ~drops_left ~dups_left =
  if Dsim.Engine.pending_count engine = 0 then None
  else begin
    let orders_for_batch ids =
      if List.length ids <= perm_limit then Combinat.permutations ids
      else begin
        truncated := true;
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
    let reduce_orders =
      match por with
      | No_por -> fun ~batch:_ orders -> orders
      | Sleep ->
          let memo = Hashtbl.create 8 in
          fun ~batch orders ->
            (match orders with
            | [] | [ _ ] -> orders
            | _ -> (
                match Hashtbl.find_opt memo batch with
                | Some reps -> reps
                | None ->
                    let seen = Hashtbl.create 8 in
                    let reps =
                      List.filter
                        (fun order ->
                          let scratch = Dsim.Engine.clone engine in
                          List.iter
                            (fun id ->
                              Dsim.Engine.deliver_pending scratch ~id ~at:boundary_at)
                            order;
                          ignore (Dsim.Engine.run ~until:boundary_at scratch);
                          let key =
                            (Dsim.Engine.fingerprint scratch, Dsim.Engine.outputs scratch)
                          in
                          if Hashtbl.mem seen key then begin
                            Atomic.incr sleep_hits;
                            false
                          end
                          else begin
                            Hashtbl.add seen key ();
                            true
                          end)
                        orders
                    in
                    Hashtbl.add memo batch reps;
                    reps))
    in
    let choices =
      List.concat_map
        (fun drop ->
          let kept = List.filter (fun id -> not (List.mem id drop)) live_ids in
          let dup_sets = Combinat.subsets_up_to dups_left kept in
          let full = ref 1 in
          let per_dst_orders =
            List.filter_map
              (fun (_dst, batch) ->
                match List.filter (fun id -> not (List.mem id drop)) batch with
                | [] -> None
                | kept_batch ->
                    let orders = orders_for_batch kept_batch in
                    full := !full * List.length orders;
                    Some (reduce_orders ~batch:kept_batch orders))
              groups
          in
          let reduced = List.fold_left (fun a o -> a * List.length o) 1 per_dst_orders in
          if !full > reduced then
            ignore (Atomic.fetch_and_add por_pruned ((!full - reduced) * List.length dup_sets));
          let delivers =
            List.map
              (fun combo -> List.concat combo @ crashed_ids)
              (Combinat.cartesian per_dst_orders)
          in
          List.concat_map
            (fun dup -> List.map (fun deliver -> { drop; dup; deliver }) delivers)
            dup_sets)
        (Combinat.subsets_up_to drops_left live_ids)
    in
    Some choices
  end

let synchronous_report (module P : Proto.Protocol.S) ~n ~e ~f ~delta ~proposals
    ?(crashes = []) ~rounds ?(budget = 20_000) ?(perm_limit = 4) ?(disable_timers = true)
    ?(mode = (`Snapshot : mode)) ?(domains = 1) ?(clamp_domains = true)
    ?(faults = no_faults) ?(dedup = Off) ?(por = No_por) ?stateset_capacity
    ?(metrics = Metrics.disabled) ~check () =
  if faults.max_drops < 0 || faults.max_dups < 0 then
    invalid_arg "Explore.synchronous: fault bounds must be non-negative";
  let budget = max budget 0 in
  (* Scheduling telemetry. These are observability-only: nothing below
     branches on them, so they cannot perturb the deterministic result. *)
  let evals_total = Atomic.make 0 in
  let max_fan_seen = Atomic.make 0 in
  let rec record_fanout v =
    let cur = Atomic.get max_fan_seen in
    if v > cur && not (Atomic.compare_and_set max_fan_seen cur v) then record_fanout v
  in
  let fresh () =
    let automaton = P.make ~n ~e ~f ~delta in
    Dsim.Engine.create ~automaton ~n ~network:Dsim.Network.Manual ~seed:0
      ~disable_timers ~record_trace:true ~inputs:proposals ~crashes ()
  in
  (* Visited set shared by every domain, plus the dedup totals. The
     counters are schedule-independent whenever the traversal is
     exhaustive: each distinct state is expanded by exactly one arrival
     (the {!Stateset.add} CAS winner), so arrivals — and hence hits and
     prunes — equal the edge count of the deduplicated state graph no
     matter how domains interleave. *)
  let symmetry = dedup = Symmetry in
  if por = Sleep && not (Dsim.Engine.has_fingerprint (fresh ())) then
    invalid_arg
      "Explore.synchronous: POR requires the automaton to supply state_fingerprint";
  (* Pre-size the visited set so a full-budget exploration never resizes
     mid-search: every evaluated run inserts at most a handful of interior
     nodes beyond its leaf, so 2x the run budget is a comfortable ceiling
     (capped — capacity is performance-only, the set still grows). *)
  let capacity =
    match stateset_capacity with
    | Some c -> c
    | None -> min (1 lsl 22) (Stateset.recommended_capacity ~expected:(2 * budget))
  in
  let visited =
    match dedup with
    | Off -> None
    | Exact | Symmetry ->
        if not (Dsim.Engine.has_fingerprint (fresh ())) then
          invalid_arg
            "Explore.synchronous: dedup requires the automaton to supply state_fingerprint";
        Some (Stateset.create ~capacity ~metrics ())
  in
  let distinct_total = Atomic.make 0 in
  let hits_total = Atomic.make 0 in
  let pruned_total = Atomic.make 0 in
  let sleep_total = Atomic.make 0 in
  let por_pruned_total = Atomic.make 0 in
  (* [true] = first arrival (or dedup off): expand this node. The round
     number is mixed into the key so a quiescent engine reached at two
     different depths cannot alias (its clock may not have advanced). *)
  let check_visited engine round =
    match visited with
    | None -> true
    | Some vs ->
        let key =
          Fingerprint.mix (Dsim.Engine.fingerprint ~symmetry engine) (Fingerprint.int round)
        in
        if Stateset.add vs key then begin
          Atomic.incr distinct_total;
          true
        end
        else begin
          Atomic.incr hits_total;
          if round <= rounds then Atomic.incr pruned_total;
          false
        end
  in
  let boundary round = round * delta in
  (* Process everything strictly before [round]'s boundary (init and inputs
     at the first level, timers in between later). *)
  let advance engine round = ignore (Dsim.Engine.run ~until:(boundary round - 1) engine) in
  (* Apply one round boundary's decisions: drops and duplications first
     (order matters only for id determinism — duplication allocates fresh
     pending ids in [dup] order), then the prescribed delivery order. *)
  let apply_choice engine round { drop; dup; deliver } =
    List.iter (fun id -> Dsim.Engine.drop_pending engine ~id) drop;
    List.iter (fun id -> ignore (Dsim.Engine.duplicate_pending engine ~id : int)) dup;
    List.iter
      (fun id -> Dsim.Engine.deliver_pending engine ~id ~at:(boundary round))
      deliver;
    ignore (Dsim.Engine.run ~until:(boundary round) engine)
  in
  (* Replay [rev_path] from scratch, then advance to just before round
     [length rev_path + 1]'s boundary. *)
  let replay rev_path =
    let engine = fresh () in
    List.iteri
      (fun i choice ->
        advance engine (i + 1);
        apply_choice engine (i + 1) choice)
      (List.rev rev_path);
    advance engine (List.length rev_path + 1);
    engine
  in
  let materialize = function Path rev_path -> replay rev_path | Engine e -> e in
  let round_choices ~truncated engine ~round ~drops_left ~dups_left =
    let r =
      round_choices_of ~perm_limit ~por ~truncated ~sleep_hits:sleep_total
        ~por_pruned:por_pruned_total ~boundary_at:(boundary round) engine ~drops_left
        ~dups_left
    in
    (match r with Some choices -> record_fanout (List.length choices) | None -> ());
    r
  in
  (* The child of [node] (whose engine is [engine]) that [choice] leads
     to. With [reuse] it extends the parent engine in place instead of a
     clone — sound only once the parent is dead, i.e. for its last child
     in a sequential DFS; an interior node with [k] children then costs
     [k - 1] clones. *)
  let extend ~reuse node engine round choice =
    match node with
    | Path rev_path -> Path (choice :: rev_path)
    | Engine _ ->
        let c = if reuse then engine else Dsim.Engine.clone engine in
        apply_choice c round choice;
        advance c (round + 1);
        Engine c
  in
  (* Sequential DFS over adjacent subtrees, in order. [allow k] answers
     whether the chunk may go on after [k] evaluated runs; the first
     refusal cuts it for good, so its evaluated runs are always a
     DFS-order prefix of its subtrees. That prefix property is all the
     merge needs to re-impose the sequential budget cut exactly. *)
  let explore_chunk ~allow subtrees =
    let explored = ref 0 and cut = ref false and fallback = ref false in
    let runs_rev = ref [] and first_violation = ref None in
    let allowed () =
      if (not !cut) && not (allow !explored) then cut := true;
      not !cut
    in
    let evaluate engine ~depth =
      Atomic.incr evals_total;
      let outcome = outcome_of ~n engine in
      let violation = not (check outcome) in
      if violation && !first_violation = None then
        first_violation := Some (!explored, outcome);
      runs_rev :=
        {
          r_depth = depth;
          r_drops = outcome.Scenario.dropped;
          r_dups = outcome.Scenario.duplicated;
          r_fast =
            outcome.Scenario.latencies <> []
            && List.for_all (fun (_, l) -> l <= 2 * delta) outcome.Scenario.latencies;
          r_violation = violation;
        }
        :: !runs_rev;
      incr explored
    in
    (* Callers check [allowed] before building [node], so a cut never pays
       for the engine work of a node it will not visit. *)
    let rec dfs ~checked node round ~drops_left ~dups_left =
      let engine = materialize node in
      if checked || check_visited engine round then begin
        if round > rounds then evaluate engine ~depth:rounds
        else
          match round_choices ~truncated:fallback engine ~round ~drops_left ~dups_left with
          | None -> evaluate engine ~depth:(round - 1)
          | Some choices ->
              let last = List.length choices - 1 in
              List.iteri
                (fun i choice ->
                  if allowed () then
                    dfs ~checked:false
                      (extend ~reuse:(i = last) node engine round choice)
                      (round + 1)
                      ~drops_left:(drops_left - List.length choice.drop)
                      ~dups_left:(dups_left - List.length choice.dup))
                choices
      end
    in
    List.iter
      (fun t ->
        if allowed () then
          dfs ~checked:t.checked (t.build ()) t.round ~drops_left:t.drops_left
            ~dups_left:t.dups_left)
      subtrees;
    {
      c_explored = !explored;
      c_runs = List.rev !runs_rev;
      c_first_violation = !first_violation;
      c_cut = !cut;
      c_fallback = !fallback;
    }
  in
  (* Domains beyond the hardware's parallelism add stop-the-world GC
     handshakes and context switches without adding throughput: on a
     single-core host, 4 domains time-slicing one CPU run the same work
     several times slower than one. [domains] is therefore a ceiling, not
     a demand — clamped to [Domain.recommended_domain_count ()] unless the
     caller (in practice: the determinism tests, which want real OS-thread
     interleaving regardless of host size) opts out. *)
  let domains =
    max 1 (if clamp_domains then min domains (Domain.recommended_domain_count ()) else domains)
  in
  (* Static split: expand the top of the tree level by level, in DFS
     order, until there are at least [4 * domains] subtrees (one domain
     keeps the root whole). Expansion runs the same visited check and
     choice enumeration as [dfs], so every node is still admitted and
     expanded exactly once, and nodes of one level never share a visited
     key with another level's. A node the split admits as a leaf becomes
     a [checked] subtree holding its node. Children of an expanded node
     may be built concurrently by different chunks, so each clones. *)
  let split_fallback = ref false in
  let rec split level =
    if domains <= 1 || List.length level >= 4 * domains then level
    else begin
      let grew = ref false in
      let expand t =
        if t.checked then [ t ]
        else begin
          let node = t.build () in
          let engine = materialize node in
          if not (check_visited engine t.round) then []
          else begin
            let leaf = [ { t with build = (fun () -> node); checked = true } ] in
            if t.round > rounds then leaf
            else
              match
                round_choices ~truncated:split_fallback engine ~round:t.round
                  ~drops_left:t.drops_left ~dups_left:t.dups_left
              with
              | None -> leaf
              | Some choices ->
                  grew := true;
                  List.map
                    (fun choice ->
                      {
                        build = (fun () -> extend ~reuse:false node engine t.round choice);
                        round = t.round + 1;
                        drops_left = t.drops_left - List.length choice.drop;
                        dups_left = t.dups_left - List.length choice.dup;
                        checked = false;
                      })
                    choices
          end
        end
      in
      let next = List.concat_map expand level in
      if !grew then split next else next
    end
  in
  let root =
    {
      build =
        (fun () ->
          match mode with
          | `Replay -> Path []
          | `Snapshot ->
              let engine = fresh () in
              advance engine 1;
              Engine engine);
      round = 1;
      drops_left = faults.max_drops;
      dups_left = faults.max_dups;
      checked = false;
    }
  in
  let subtrees = split [ root ] in
  let chunks =
    let per_chunk = max 1 ((List.length subtrees + (8 * domains) - 1) / (8 * domains)) in
    Array.of_list (Combinat.chunks per_chunk subtrees)
  in
  let nchunks = Array.length chunks in
  (* The budget across chunks. Chunk [j] may count [cap j] runs: the
     budget minus the runs counted by the chunks before it, known once [j]
     is the leftmost unfinished chunk. Until then it runs ahead, drawing
     one token per evaluation from a shared allowance of [budget / 4]
     ([ahead]), and waits for its cap when the allowance is spent. So a
     chunk is never cut before its cap and nothing is ever re-run. When
     the leftmost chunk finishes, each chunk the frontier passes returns
     its tokens except those spent on runs beyond its cap; the merge
     discards those runs, and they never exceed [budget / 4] in total.
     The leftmost unfinished chunk never waits, and the pool starts tasks
     in FIFO order, so it is always running and the waiting chunks cannot
     deadlock. *)
  let lock = Mutex.create () and wake = Condition.create () in
  let ahead = ref (budget / 4) and leftmost = ref 0 and remaining = ref budget in
  let finished = Array.make nchunks (-1) in
  let drawn = Array.make nchunks 0 in
  let allow j =
    let cap = ref (-1) in
    fun k ->
      if !cap >= 0 then k < !cap
      else if k < drawn.(j) then true
      else begin
        Mutex.lock lock;
        let rec decide () =
          if !leftmost = j then begin
            cap := !remaining;
            k < !cap
          end
          else if !ahead > 0 then begin
            decr ahead;
            drawn.(j) <- drawn.(j) + 1;
            true
          end
          else begin
            Condition.wait wake lock;
            decide ()
          end
        in
        let ok = decide () in
        Mutex.unlock lock;
        ok
      end
  in
  let finish j explored =
    Mutex.lock lock;
    finished.(j) <- explored;
    while !leftmost < nchunks && finished.(!leftmost) >= 0 do
      let e = finished.(!leftmost) in
      let take = min e !remaining in
      ahead := !ahead + drawn.(!leftmost) - (e - take);
      remaining := !remaining - take;
      incr leftmost
    done;
    Condition.broadcast wake;
    Mutex.unlock lock
  in
  let run_chunk j =
    match explore_chunk ~allow:(allow j) chunks.(j) with
    | c ->
        finish j c.c_explored;
        c
    | exception ex ->
        finish j 0;
        raise ex
  in
  let results =
    Pool.run ~domains:(min domains nchunks) (fun pool ->
        Pool.map_list pool run_chunk (List.init nchunks Fun.id))
  in
  (* Merge in DFS order: each chunk counts what its cap allows, so the
     counted runs are exactly the sequential exploration's. A chunk marks
     the cut if it is reached with nothing remaining, counted only in
     part, or cut by its cap. *)
  let remaining = ref budget and cut = ref false and fallback = ref !split_fallback in
  let counted_rev = ref [] and first_violation = ref None in
  List.iter
    (fun c ->
      let take = min c.c_explored !remaining in
      if !remaining = 0 || take < c.c_explored || c.c_cut then cut := true;
      if c.c_fallback then fallback := true;
      counted_rev := List.rev_append (take_n take c.c_runs) !counted_rev;
      (match c.c_first_violation with
      | Some (i, o) when i < take && !first_violation = None -> first_violation := Some o
      | _ -> ());
      remaining := !remaining - take)
    results;
  let depth_histogram = Array.make (rounds + 1) 0 in
  let explored = ref 0 and violations = ref 0 and fast = ref 0 in
  let fault_runs = ref 0 and drops = ref 0 and dups = ref 0 in
  List.iter
    (fun r ->
      incr explored;
      depth_histogram.(r.r_depth) <- depth_histogram.(r.r_depth) + 1;
      if r.r_violation then incr violations;
      if r.r_fast then incr fast;
      if r.r_drops + r.r_dups > 0 then incr fault_runs;
      drops := !drops + r.r_drops;
      dups := !dups + r.r_dups)
    !counted_rev;
  let res =
    {
      explored = !explored;
      violations = !violations;
      first_violation = !first_violation;
      truncated = !cut || !fallback;
    }
  in
  let evals = Atomic.get evals_total in
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
          distinct_states = Atomic.get distinct_total;
          dedup_hits = Atomic.get hits_total;
          pruned_subtrees = Atomic.get pruned_total;
          por_pruned = Atomic.get por_pruned_total;
          sleep_hits = Atomic.get sleep_total;
        };
      sched =
        {
          Run_report.domains;
          budget;
          evals;
          wasted = evals - res.explored;
          max_fanout = Atomic.get max_fan_seen;
        };
    } )

let synchronous protocol ~n ~e ~f ~delta ~proposals ?crashes ~rounds ?budget ?perm_limit
    ?disable_timers ?mode ?domains ?clamp_domains ?faults ?dedup ?por ?stateset_capacity
    ?metrics ~check () =
  fst
    (synchronous_report protocol ~n ~e ~f ~delta ~proposals ?crashes ~rounds ?budget
       ?perm_limit ?disable_timers ?mode ?domains ?clamp_domains ?faults ?dedup ?por
       ?stateset_capacity ?metrics ~check ())

module Swarm_report = struct
  type t = {
    walkers : int;
    runs : int;
    violations : int;
    distinct_states : int;
    dedup_hits : int;
    sleep_hits : int;
    por_pruned : int;
    fallback : bool;
  }

  let distinct_states_per_sec t ~wall_s =
    if wall_s <= 0. then 0. else float_of_int t.distinct_states /. wall_s

  let pp fmt t =
    Format.fprintf fmt
      "@[<v>swarm: walkers %d, runs %d, violations %d@,\
       coverage: distinct states %d, revisits %d@,\
       por: pruned %d, sleep hits %d, perm-limit fallback %b@]"
      t.walkers t.runs t.violations t.distinct_states t.dedup_hits t.por_pruned
      t.sleep_hits t.fallback
end

(* Randomized swarm search: [walkers] seeded random walkers, each
   descending the schedule tree from the root by picking uniformly among
   the (POR-reduced) choices at every boundary, sharing one visited set —
   used to *count* coverage, never to prune, so every walk completes.
   Walker [w]'s trajectory depends only on [(seed, w)] and its fixed
   share of the budget (ceil-division), so the whole report is
   deterministic for a given configuration regardless of how the domains
   schedule the walkers. *)
let swarm_report (module P : Proto.Protocol.S) ~n ~e ~f ~delta ~proposals ?(crashes = [])
    ~rounds ?(budget = 20_000) ?(perm_limit = 4) ?(disable_timers = true) ?(walkers = 4)
    ?(seed = 0) ?domains ?(clamp_domains = true) ?(faults = no_faults) ?(por = Sleep)
    ?stateset_capacity ?(metrics = Metrics.disabled) ~check () =
  if faults.max_drops < 0 || faults.max_dups < 0 then
    invalid_arg "Explore.swarm: fault bounds must be non-negative";
  if walkers <= 0 then invalid_arg "Explore.swarm: walkers must be positive";
  let fresh () =
    let automaton = P.make ~n ~e ~f ~delta in
    Dsim.Engine.create ~automaton ~n ~network:Dsim.Network.Manual ~seed:0
      ~disable_timers ~record_trace:true ~inputs:proposals ~crashes ()
  in
  if not (Dsim.Engine.has_fingerprint (fresh ())) then
    invalid_arg "Explore.swarm: swarm search requires the automaton to supply state_fingerprint";
  (* Each walk inserts at most [rounds + 1] keys. *)
  let capacity =
    match stateset_capacity with
    | Some c -> c
    | None ->
        min (1 lsl 22) (Stateset.recommended_capacity ~expected:((rounds + 1) * budget))
  in
  let visited = Stateset.create ~capacity ~metrics () in
  let distinct_total = Atomic.make 0 in
  let hits_total = Atomic.make 0 in
  let sleep_total = Atomic.make 0 in
  let por_pruned_total = Atomic.make 0 in
  let fallback_any = Atomic.make false in
  let visit engine round =
    let key = Fingerprint.mix (Dsim.Engine.fingerprint engine) (Fingerprint.int round) in
    if Stateset.add visited key then Atomic.incr distinct_total
    else Atomic.incr hits_total
  in
  let boundary round = round * delta in
  let advance engine round = ignore (Dsim.Engine.run ~until:(boundary round - 1) engine) in
  let apply_choice engine round { drop; dup; deliver } =
    List.iter (fun id -> Dsim.Engine.drop_pending engine ~id) drop;
    List.iter (fun id -> ignore (Dsim.Engine.duplicate_pending engine ~id : int)) dup;
    List.iter
      (fun id -> Dsim.Engine.deliver_pending engine ~id ~at:(boundary round))
      deliver;
    ignore (Dsim.Engine.run ~until:(boundary round) engine)
  in
  let root =
    let engine = fresh () in
    advance engine 1;
    engine
  in
  (* One random descent; visits count coverage at every node, including
     the terminal one, mirroring the exhaustive explorer's per-node
     visited check so the two [distinct_states] figures are comparable. *)
  let walk_one rng =
    let engine = Dsim.Engine.clone root in
    let truncated = ref false in
    let rec go round ~drops_left ~dups_left =
      visit engine round;
      if round <= rounds then begin
        match
          round_choices_of ~perm_limit ~por ~truncated ~sleep_hits:sleep_total
            ~por_pruned:por_pruned_total ~boundary_at:(boundary round) engine ~drops_left
            ~dups_left
        with
        | None -> ()
        | Some choices ->
            let choice = Stdext.Rng.pick rng choices in
            apply_choice engine round choice;
            advance engine (round + 1);
            go (round + 1)
              ~drops_left:(drops_left - List.length choice.drop)
              ~dups_left:(dups_left - List.length choice.dup)
      end
    in
    go 1 ~drops_left:faults.max_drops ~dups_left:faults.max_dups;
    if !truncated then Atomic.set fallback_any true;
    outcome_of ~n engine
  in
  (* Fixed ceil-division share per walker: the shares sum to the budget,
     and no walker can take another's, so trajectories — hence all the
     coverage counters — do not depend on domain scheduling. *)
  let quota w = max 0 ((budget / walkers) + if w < budget mod walkers then 1 else 0) in
  let walker w =
    let rng = Stdext.Rng.stream ~seed w in
    let violations = ref 0 in
    let first = ref None in
    for _ = 1 to quota w do
      let outcome = walk_one rng in
      if not (check outcome) then begin
        incr violations;
        if !first = None then first := Some outcome
      end
    done;
    (quota w, !violations, !first)
  in
  let domains =
    let d = match domains with Some d -> d | None -> walkers in
    if clamp_domains then min d (max 1 (Domain.recommended_domain_count ())) else d
  in
  let results =
    Pool.run ~domains (fun pool -> Pool.map_list pool walker (List.init walkers Fun.id))
  in
  let runs = List.fold_left (fun a (r, _, _) -> a + r) 0 results in
  let violations = List.fold_left (fun a (_, v, _) -> a + v) 0 results in
  let first =
    List.fold_left
      (fun acc (_, _, fv) -> match acc with Some _ -> acc | None -> fv)
      None results
  in
  (* A swarm run is a sample of the schedule tree, never an exhaustive
     search, so the result is always reported as truncated. *)
  let res = { explored = runs; violations; first_violation = first; truncated = true } in
  ( res,
    {
      Swarm_report.walkers;
      runs;
      violations;
      distinct_states = Atomic.get distinct_total;
      dedup_hits = Atomic.get hits_total;
      sleep_hits = Atomic.get sleep_total;
      por_pruned = Atomic.get por_pruned_total;
      fallback = Atomic.get fallback_any;
    } )

let swarm protocol ~n ~e ~f ~delta ~proposals ?crashes ~rounds ?budget ?perm_limit
    ?disable_timers ?walkers ?seed ?domains ?clamp_domains ?faults ?por
    ?stateset_capacity ?metrics ~check () =
  fst
    (swarm_report protocol ~n ~e ~f ~delta ~proposals ?crashes ~rounds ?budget ?perm_limit
       ?disable_timers ?walkers ?seed ?domains ?clamp_domains ?faults ?por
       ?stateset_capacity ?metrics ~check ())
