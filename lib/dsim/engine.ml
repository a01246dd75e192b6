module Rng = Stdext.Rng
module Pqueue = Stdext.Pqueue
module Iheap = Stdext.Iheap

module Probe = struct
  type t = {
    steps : int;
    sent : int;
    delivered : int;
    dropped : int;
    duplicated : int;
    timer_fires : int;
    crashes : int;
    decides : int;
    queue_hwm : int;
  }

  let zero =
    {
      steps = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      duplicated = 0;
      timer_fires = 0;
      crashes = 0;
      decides = 0;
      queue_hwm = 0;
    }

  let pp fmt p =
    Format.fprintf fmt
      "steps %d, sent %d, delivered %d, dropped %d, duplicated %d, timers %d, crashes \
       %d, decides %d, queue hwm %d"
      p.steps p.sent p.delivered p.dropped p.duplicated p.timer_fires p.crashes p.decides
      p.queue_hwm

  let record registry p =
    let open Stdext in
    let c name v = Metrics.add (Metrics.counter registry name) v in
    c "engine.steps" p.steps;
    c "engine.sent" p.sent;
    c "engine.delivered" p.delivered;
    c "engine.dropped" p.dropped;
    c "engine.duplicated" p.duplicated;
    c "engine.timer_fires" p.timer_fires;
    c "engine.crashes" p.crashes;
    c "engine.decides" p.decides;
    Metrics.record_max (Metrics.gauge registry "engine.queue_hwm") p.queue_hwm
end

(* [origin] is the causal-span id of the event during which the delivery
   was sent, or [-1] when no tracer is attached.  It rides outside the
   priority packing, so stamping it never perturbs scheduling. Timers are
   not events of this heap: see the timer heap below. *)
type ('msg, 'input) event =
  | Ev_crash of Pid.t
  | Ev_init of Pid.t
  | Ev_input of Pid.t * 'input
  (* Inline record: a queued delivery is one block, not a variant pointing
     at a separate record. Deliveries dominate the queue, so this halves
     the hot path's event allocations. *)
  | Ev_deliver of { src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t; origin : int }

let input_rank = 2

let deliver_rank = 3

(* Events at equal time are processed by rank; see the .mli. Rank 4 is the
   timers', which live in their own heap, so no two sources ever tie at a
   timer's priority. *)
let rank = function
  | Ev_crash _ -> 0
  | Ev_init _ -> 1
  | Ev_input _ -> input_rank
  | Ev_deliver _ -> deliver_rank

let timer_rank = 4

let priority ~time ev = (time * 8) + rank ev

let input_priority time = (time * 8) + input_rank

(* Times are non-negative, so the arithmetic shift is exact. *)
let time_of_priority prio = prio asr 3

type 'msg pending = { id : int; src : Pid.t; dst : Pid.t; msg : 'msg; sent_at : Time.t }

(* The pending pool is a structure of arrays indexed by pending id: a
   send claims a slot (LIFO freelist first, then the high-water mark), a
   delivery/drop releases it. [pd_src.(s) = -1] marks a free slot, whose
   [pd_sent] cell holds the next freelist link instead of a timestamp.
   Send order is recovered from the [pd_seq] stamps — ids are reused, so
   slot order is not send order. At most [2^pd_slot_bits] slots may be
   live at once (the seq/slot packing in [live_slots_in_send_order]);
   each id is at most that many ints plus one payload pointer, and
   [clone] copies the live prefix with five [Array.sub] calls. *)
let pd_slot_bits = 20

let pd_slot_limit = 1 lsl pd_slot_bits

let no_slot = -1

(* The inputs given to [create] never enter the heap: they are stable-
   sorted by time into this immutable calendar, which [run] reads through
   the engine's [cal_next] cursor and merges with the heap by priority.
   The engine pushed them at creation, right after the Ev_init events, so
   they carry the smallest sequence stamps of their priority — a heap
   entry never precedes a calendar entry of equal priority (both are then
   inputs, and the heap's was scheduled later). Clones share the arrays. *)
type 'input calendar = {
  cal_times : Time.t array;
  cal_pids : Pid.t array;
  cal_inputs : 'input array;
}

(* Armed timers live in an indexed heap, one entry per (pid, timer id)
   cell [id * n + pid] at priority [deadline * 8 + timer_rank]: arming
   re-keys the cell in place and cancelling removes it, so a cancelled or
   superseded timer is never popped. A larger timer id only extends the
   heap's position array — existing cells keep their numbers. *)

type ('state, 'msg, 'input, 'output) t = {
  automaton : ('state, 'msg, 'input, 'output) Automaton.t;
  n : int;
  network : Network.t;
  rng : Rng.t;
  states : 'state option array;  (* None until Ev_init ran *)
  crashed_flags : bool array;
  queue : (('msg, 'input) event) Pqueue.t;
  calendar : 'input calendar;
  mutable cal_next : int;  (* first unread calendar entry *)
  timers : Iheap.t;  (* armed timers by cell *)
  (* Causal origin of each cell's last arm. Stays empty unless a tracer is
     attached: cells run past 10^5 on long SMR runs. *)
  mutable timer_origins : int array;
  mutable now : Time.t;
  mutable trace_rev : ('msg, 'input, 'output) Trace.entry list;
  record_trace : bool;
  disable_timers : bool;
  max_steps : int;
  mutable steps : int;
  mutable outputs_rev : (Time.t * Pid.t * 'output) list;
  mutable pd_src : int array;  (* -1 = free slot *)
  mutable pd_dst : int array;
  mutable pd_sent : int array;  (* sent_at, or next freelist link when free *)
  mutable pd_seq : int array;  (* send-order stamp *)
  mutable pd_origin : int array;  (* causal origin of the send, -1 untraced *)
  mutable pd_msgs : 'msg array;
  mutable pd_hwm : int;  (* slots 0 .. pd_hwm-1 have been allocated at least once *)
  mutable pd_free : int;  (* freelist head, -1 when empty *)
  mutable pd_live : int;
  mutable pd_next_seq : int;
  (* Per-destination scratch used by [handle_deliver_batch], reverse
     arrival order. Contents are transient — cleared before the batch is
     processed — so [clone] just allocates fresh empties. *)
  batch_scratch : (Pid.t * 'msg * Time.t * int) list array;
  (* Causal span tracer: [None] (the default) stamps [-1] origins and
     records nothing — the inert branch costs one match per event.  When
     attached, [cur_node] tracks the span id of the event currently being
     processed so [send]/[set_timer] can stamp it as the origin of what
     they schedule.  The store is shared by [clone]s (see the .mli). *)
  causality : ('input, 'output) Causality.spec option;
  mutable cur_node : int;
  (* Fault-injection state. The decision stream draws from [fault_rng], a
     stream derived from (but disjoint from) the engine seed, so enabling
     faults never perturbs the base network model's delay samples. The
     counters enforce the plan's budgets; all three are part of [clone]
     (ints are copied by the functional record update, the rng explicitly),
     so branched explorations replay the identical fault trace. *)
  fault_plan : Network.Fault.plan;
  fault_rng : Rng.t;
  mutable sends : int;  (* global send index, keys Fault.Script entries *)
  mutable faults_dropped : int;
  mutable faults_duplicated : int;
  (* Probe state: event counters beyond the ones the engine already keeps
     (steps, sends, fault counters), the event-queue high-water mark, and
     per-pid first-input/first-output instants for decision latency. All of
     it is cloned by value — ints via the functional record update, the
     arrays explicitly — so a branched exploration's per-engine probes stay
     independent. *)
  mutable p_delivered : int;
  mutable p_timer_fires : int;
  mutable p_crashes : int;
  mutable p_decides : int;
  mutable p_queue_hwm : int;
  first_input : Time.t option array;
  first_output : Time.t option array;
  (* Digest caches behind {!fingerprint}, allocated by its first call:
     until then both arrays are empty, and the upkeep below is one length
     test per step or send. [loc_fp.(p)] is p's local digest, reset
     to [stale] whenever p steps, initialises or crashes; [pd_fp.(s)] is
     slot s's message digest, reset when the slot is claimed again (slots
     past its length are stale). [pend_fp] is the pool's multiset digest,
     valid while [(pd_next_seq, pd_live)] still equals [(pend_fp_seq,
     pend_fp_live)]: a send raises the first and a delivery or drop lowers
     the second, so no pool change leaves the pair as it was. Clones copy
     all of it — a clone's digests are its source's. *)
  mutable loc_fp : int array;
  mutable pd_fp : int array;
  mutable pend_fp : int;
  mutable pend_fp_seq : int;
  mutable pend_fp_live : int;
}

(* Marks a cache cell as not computed. A real digest that happens to equal
   it is merely recomputed on every use. *)
let stale = min_int

type run_result = Quiescent | Reached_until | Step_budget_exhausted

(* Callers test [t.record_trace] first, so an untraced run never builds
   the entry. *)
let record t entry = t.trace_rev <- entry :: t.trace_rev

let unread_inputs t = Array.length t.calendar.cal_times - t.cal_next

(* Timer-free engines (the checkers' default) never call into the timer
   heap on the hot path: the [disable_timers] guard is a field read, a
   call into another library is not. *)
let note_queue_len t =
  let armed = if t.disable_timers then 0 else Iheap.length t.timers in
  let len = Pqueue.length t.queue + unread_inputs t + armed in
  if len > t.p_queue_hwm then t.p_queue_hwm <- len

let push_event t ~at ev =
  Pqueue.push t.queue ~priority:(priority ~time:at ev) ev;
  note_queue_len t

(* Same range as the heap's packed keys (see {!Pqueue}). *)
let prio_limit = 1 lsl 38

let calendar_of inputs =
  let entries = Array.of_list inputs in
  Array.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) entries;
  let time_of (at, _, _) =
    let prio = input_priority at in
    if prio < -prio_limit || prio >= prio_limit then
      invalid_arg "Engine.create: input time outside the event-queue packing range";
    at
  in
  {
    cal_times = Array.map time_of entries;
    cal_pids = Array.map (fun (_, p, _) -> p) entries;
    cal_inputs = Array.map (fun (_, _, i) -> i) entries;
  }

(* Offset mixing the engine seed into the fault stream's seed: the two
   SplitMix64 streams must differ even for seed 0, and stay reproducible
   from the single user-facing seed. *)
let fault_seed_mix = 0x2545F4914F6CDD1D

let check_pid ~caller ~what ~n p =
  if p < 0 || p >= n then
    invalid_arg (Printf.sprintf "%s: %s pid %d outside [0, %d)" caller what p n)

let create ~automaton ~n ~network ?(seed = 0) ?(record_trace = true)
    ?(disable_timers = false) ?(max_steps = 5_000_000) ?(inputs = []) ?(crashes = [])
    ?(faults = Network.Fault.none) ?causality () =
  if n < 1 then invalid_arg "Engine.create: n must be >= 1";
  Network.validate network;
  List.iter (fun (_, p) -> check_pid ~caller:"Engine.create" ~what:"crash" ~n p) crashes;
  List.iter (fun (_, p, _) -> check_pid ~caller:"Engine.create" ~what:"input" ~n p) inputs;
  let t =
    {
      automaton;
      n;
      network;
      rng = Rng.create ~seed;
      states = Array.make n None;
      crashed_flags = Array.make n false;
      queue = Pqueue.create ();
      calendar = calendar_of inputs;
      cal_next = 0;
      timers = Iheap.create ();
      timer_origins = [||];
      now = Time.zero;
      trace_rev = [];
      record_trace;
      disable_timers;
      max_steps;
      steps = 0;
      outputs_rev = [];
      pd_src = [||];
      pd_dst = [||];
      pd_sent = [||];
      pd_seq = [||];
      pd_origin = [||];
      pd_msgs = [||];
      pd_hwm = 0;
      pd_free = no_slot;
      pd_live = 0;
      pd_next_seq = 0;
      batch_scratch = Array.make n [];
      causality;
      cur_node = -1;
      fault_plan = faults;
      fault_rng = Rng.create ~seed:(seed lxor fault_seed_mix);
      sends = 0;
      faults_dropped = 0;
      faults_duplicated = 0;
      p_delivered = 0;
      p_timer_fires = 0;
      p_crashes = 0;
      p_decides = 0;
      p_queue_hwm = 0;
      first_input = Array.make n None;
      first_output = Array.make n None;
      loc_fp = [||];
      pd_fp = [||];
      pend_fp = 0;
      pend_fp_seq = -1;
      pend_fp_live = 0;
    }
  in
  List.iter (fun p -> push_event t ~at:Time.zero (Ev_init p)) (Pid.all ~n);
  List.iter (fun (at, p) -> push_event t ~at (Ev_crash p)) crashes;
  t

(* Branch a run: duplicate every piece of mutable engine state. Immutable
   payloads (trace entries, queued events, pending payloads, the input
   calendar — its cursor is a plain int) are shared;
   process states go through the automaton's [state_copy] hook. The flat
   pool is copied up to its live prefix and the timer heap as live entries
   plus its position array — straight-line [Array.sub]/[Array.copy] blits
   of unboxed ints. Reads the source engine only. *)
let clone t =
  {
    t with
    rng = Rng.copy t.rng;
    fault_rng = Rng.copy t.fault_rng;
    states = Array.map (Option.map t.automaton.Automaton.state_copy) t.states;
    crashed_flags = Array.copy t.crashed_flags;
    queue = Pqueue.copy t.queue;
    timers = Iheap.copy t.timers;
    timer_origins = Array.copy t.timer_origins;
    pd_src = Array.sub t.pd_src 0 t.pd_hwm;
    pd_dst = Array.sub t.pd_dst 0 t.pd_hwm;
    pd_sent = Array.sub t.pd_sent 0 t.pd_hwm;
    pd_seq = Array.sub t.pd_seq 0 t.pd_hwm;
    pd_origin = Array.sub t.pd_origin 0 t.pd_hwm;
    pd_msgs = Array.sub t.pd_msgs 0 t.pd_hwm;
    batch_scratch = Array.make t.n [];
    first_input = Array.copy t.first_input;
    first_output = Array.copy t.first_output;
    loc_fp = Array.copy t.loc_fp;
    pd_fp = Array.sub t.pd_fp 0 (Int.min (Array.length t.pd_fp) t.pd_hwm);
  }

let now t = t.now

let n t = t.n

let state t p =
  match t.states.(p) with
  | Some s -> s
  | None ->
      (* Unreachable once [run] has processed time 0: Ev_init initialises
         every process, and [do_crash] initialises even processes crashed
         before their Ev_init. *)
      invalid_arg "Engine.state: process not initialised (run the engine first)"

let crashed t p = t.crashed_flags.(p)

(* [pid]'s local content is about to change. *)
let touch t pid = if Array.length t.loc_fp > 0 then t.loc_fp.(pid) <- stale

let correct_pids t = List.filter (fun p -> not t.crashed_flags.(p)) (Pid.all ~n:t.n)

let trace t = List.rev t.trace_rev

let outputs t = List.rev t.outputs_rev

let output_count t = t.p_decides

let recent_outputs t ~since =
  let total = t.p_decides in
  if since < 0 then invalid_arg "Engine.recent_outputs: negative since";
  if since >= total then []
  else begin
    (* [outputs_rev] is newest-first: the first [total - since] entries are
       exactly the outputs emitted after the cursor; consing while walking
       them restores chronological order. O(total - since). *)
    let rec take acc k l =
      if k = 0 then acc
      else match l with [] -> acc | x :: rest -> take (x :: acc) (k - 1) rest
    in
    take [] (total - since) t.outputs_rev
  end

let schedule_input t ~at p input =
  check_pid ~caller:"Engine.schedule_input" ~what:"input" ~n:t.n p;
  if at < t.now then invalid_arg "Engine.schedule_input: at < now";
  push_event t ~at (Ev_input (p, input))

let schedule_crash t ~at p =
  check_pid ~caller:"Engine.schedule_crash" ~what:"crash" ~n:t.n p;
  if at < t.now then invalid_arg "Engine.schedule_crash: at < now";
  push_event t ~at (Ev_crash p)

(* Crash-stop [pid] right now. Crashes scheduled at time 0 fire before
   Ev_init (crashes rank first at equal instants), so the process may not
   be initialised yet: give it its initial state but drop the init actions
   — the process exists, it just never takes a step. [state], [clone] and
   [correct_pids] then agree on a well-defined initialised-then-crashed
   process instead of [state] raising. *)
let do_crash t pid =
  if not t.crashed_flags.(pid) then begin
    (match t.states.(pid) with
    | None ->
        let s, _dropped_init_actions = t.automaton.init ~self:pid ~n:t.n in
        t.states.(pid) <- Some s
    | Some _ -> ());
    t.crashed_flags.(pid) <- true;
    touch t pid;
    t.p_crashes <- t.p_crashes + 1;
    (* [cur_node] is [-1] for scheduled crashes (root spans) and the
       in-flight event's span for mid-transition [Crash_sender] faults. *)
    (match t.causality with
    | None -> ()
    | Some spec ->
        ignore
          (Causality.record spec.Causality.store ~kind:Causality.Crash ~pid
             ~parent:t.cur_node ~start:t.now ~finish:t.now ~payload:(-1) ~aux:(-1)
            : int));
    if t.record_trace then record t (Trace.Crashed { time = t.now; pid })
  end

(* -- pending pool ------------------------------------------------------- *)

let grow_pending t msg =
  let cap = Array.length t.pd_src in
  let new_cap = min pd_slot_limit (max 16 (2 * cap)) in
  if new_cap = cap then invalid_arg "Engine: more than 2^20 live pending messages";
  let sub a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 t.pd_hwm;
    b
  in
  t.pd_src <- sub t.pd_src no_slot;
  t.pd_dst <- sub t.pd_dst 0;
  t.pd_sent <- sub t.pd_sent 0;
  t.pd_seq <- sub t.pd_seq 0;
  t.pd_origin <- sub t.pd_origin (-1);
  t.pd_msgs <- sub t.pd_msgs msg

(* Claim a slot and fill it; returns the new pending id. Freed slots are
   reused LIFO — deterministic, so branched explorations assign identical
   ids along identical paths. *)
let add_pending t ~src ~dst ~sent_at ~origin msg =
  let s =
    if t.pd_free >= 0 then begin
      let s = t.pd_free in
      t.pd_free <- t.pd_sent.(s);
      s
    end
    else begin
      if t.pd_hwm = Array.length t.pd_src then grow_pending t msg;
      let s = t.pd_hwm in
      t.pd_hwm <- s + 1;
      s
    end
  in
  t.pd_live <- t.pd_live + 1;
  if s < Array.length t.pd_fp then t.pd_fp.(s) <- stale;
  t.pd_src.(s) <- src;
  t.pd_dst.(s) <- dst;
  t.pd_sent.(s) <- sent_at;
  t.pd_seq.(s) <- t.pd_next_seq;
  t.pd_next_seq <- t.pd_next_seq + 1;
  t.pd_origin.(s) <- origin;
  t.pd_msgs.(s) <- msg;
  s

(* The payload pointer stays in [pd_msgs] until the slot is reused; pool
   payloads are small immutable protocol messages, so the retention is
   bounded by the pool's high-water mark and harmless. *)
let free_pending t s =
  t.pd_src.(s) <- no_slot;
  t.pd_sent.(s) <- t.pd_free;
  t.pd_free <- s;
  t.pd_live <- t.pd_live - 1

let pending_live t s = s >= 0 && s < t.pd_hwm && t.pd_src.(s) >= 0

(* Live slots in send order: the (unique, monotone) seq stamp and the slot
   pack into one int, so a single monomorphic sort recovers both. *)
let live_slots_in_send_order t =
  let a = Array.make t.pd_live 0 in
  let j = ref 0 in
  for s = 0 to t.pd_hwm - 1 do
    if t.pd_src.(s) >= 0 then begin
      a.(!j) <- (t.pd_seq.(s) lsl pd_slot_bits) lor s;
      incr j
    end
  done;
  Array.sort Int.compare a;
  a

let pending_count t = t.pd_live

let iter_pending t f =
  let slots = live_slots_in_send_order t in
  Array.iter
    (fun packed ->
      let s = packed land (pd_slot_limit - 1) in
      f ~id:s ~src:t.pd_src.(s) ~dst:t.pd_dst.(s) ~msg:t.pd_msgs.(s)
        ~sent_at:t.pd_sent.(s))
    slots

let fold_pending t ~init ~f =
  let slots = live_slots_in_send_order t in
  Array.fold_left
    (fun acc packed ->
      let s = packed land (pd_slot_limit - 1) in
      f acc ~id:s ~src:t.pd_src.(s) ~dst:t.pd_dst.(s) ~msg:t.pd_msgs.(s)
        ~sent_at:t.pd_sent.(s))
    init slots

let pending t =
  List.rev
    (fold_pending t ~init:[] ~f:(fun acc ~id ~src ~dst ~msg ~sent_at ->
         { id; src; dst; msg; sent_at } :: acc))

(* -- sending ------------------------------------------------------------ *)

(* Queue a send for delivery at [at] — or, under [Manual] timing, park it
   in the pending pool, where [at] is meaningless. *)
let enqueue_send t ~src ~dst ~msg ~origin ~at =
  match t.network with
  | Network.Manual -> ignore (add_pending t ~src ~dst ~sent_at:t.now ~origin msg : int)
  | _ -> push_event t ~at (Ev_deliver { src; dst; msg; sent_at = t.now; origin })

(* [Manual] timing draws nothing from [rng]: its sends wait in the pool. *)
let sample_delivery t ~rng ~now ~src ~dst =
  match t.network with
  | Network.Manual -> now
  | net -> Network.delivery_time net ~rng ~now ~src ~dst

let send t ~src ~dst msg =
  (* A crashed process sends nothing: [Crash_sender] flips the flag
     mid-transition, suppressing the remainder of a broadcast. *)
  if not t.crashed_flags.(src) then begin
    let index = t.sends in
    t.sends <- index + 1;
    if t.record_trace then record t (Trace.Sent { time = t.now; src; dst; msg });
    (* [cur_node] is the span of the event whose transition is sending —
       always [-1] when no tracer is attached, so the stamp is free. *)
    let origin = t.cur_node in
    let action =
      Network.Fault.decide t.fault_plan ~rng:t.fault_rng ~index
        ~drops_used:t.faults_dropped ~dups_used:t.faults_duplicated
    in
    (* The original's delivery time is sampled unconditionally — also when
       the message is then dropped — so the base model consumes the exact
       same RNG stream with and without a fault plan. *)
    let at = sample_delivery t ~rng:t.rng ~now:t.now ~src ~dst in
    match action with
    | Network.Fault.Deliver -> enqueue_send t ~src ~dst ~msg ~origin ~at
    | Network.Fault.Drop ->
        t.faults_dropped <- t.faults_dropped + 1;
        if t.record_trace then
          record t (Trace.Dropped { time = t.now; src; dst; msg; sent_at = t.now })
    | Network.Fault.Duplicate { extra_delay } ->
        t.faults_duplicated <- t.faults_duplicated + 1;
        if t.record_trace then
          record t
            (Trace.Duplicated { time = t.now; src; dst; msg; sent_at = t.now; extra_delay });
        enqueue_send t ~src ~dst ~msg ~origin ~at;
        (* The copy is timed as if re-sent [extra_delay] ticks later, and
           samples from the fault stream so the base stream stays aligned.
           It cannot precede the original under Sync_rounds/Manual, and may
           under the stochastic models — duplication makes no ordering
           promise between the two copies. *)
        let at =
          sample_delivery t ~rng:t.fault_rng ~now:(t.now + extra_delay) ~src ~dst
        in
        enqueue_send t ~src ~dst ~msg ~origin ~at
    | Network.Fault.Crash_sender ->
        enqueue_send t ~src ~dst ~msg ~origin ~at;
        do_crash t src
  end

(* -- timers ------------------------------------------------------------- *)

let timer_cell t ~pid ~id =
  if id < 0 then invalid_arg "Engine: negative timer id";
  (id * t.n) + pid

let set_timer_origin t cell =
  let cap = Array.length t.timer_origins in
  if cell >= cap then begin
    let origins = Array.make (max (cell + 1) (2 * cap)) (-1) in
    Array.blit t.timer_origins 0 origins 0 cap;
    t.timer_origins <- origins
  end;
  t.timer_origins.(cell) <- t.cur_node

let set_timer t ~pid ~id ~after =
  if not t.disable_timers then begin
    let cell = timer_cell t ~pid ~id in
    Iheap.set t.timers ~id:cell ~priority:(((t.now + max 0 after) * 8) + timer_rank);
    if Option.is_some t.causality then set_timer_origin t cell;
    note_queue_len t
  end

let cancel_timer t ~pid ~id =
  if not t.disable_timers then Iheap.remove t.timers ~id:(timer_cell t ~pid ~id)

(* -- event processing --------------------------------------------------- *)

(* A recursive walk rather than [List.iter] over a closure: no allocation
   per step. *)
let rec apply_actions t ~pid = function
  | [] -> ()
  | action :: rest ->
      (match action with
      | Automaton.Send (dst, msg) -> send t ~src:pid ~dst msg
      | Automaton.Broadcast msg ->
          (* Same order as [Pid.others] (ascending, skipping self), without
             materialising the recipient list per broadcast. *)
          for dst = 0 to t.n - 1 do
            if dst <> pid then send t ~src:pid ~dst msg
          done
      | Automaton.Set_timer { id; after } -> set_timer t ~pid ~id ~after
      | Automaton.Cancel_timer id -> cancel_timer t ~pid ~id
      | Automaton.Output output ->
          t.outputs_rev <- (t.now, pid, output) :: t.outputs_rev;
          t.p_decides <- t.p_decides + 1;
          if Option.is_none t.first_output.(pid) then t.first_output.(pid) <- Some t.now;
          (match t.causality with
          | None -> ()
          | Some spec ->
              ignore
                (Causality.record spec.Causality.store ~kind:Causality.Output ~pid
                   ~parent:t.cur_node ~start:t.now ~finish:t.now
                   ~payload:(spec.Causality.output_payload output) ~aux:(-1)
                  : int));
          if t.record_trace then record t (Trace.Output { time = t.now; pid; output }));
      apply_actions t ~pid rest

(* Store a transition's new state and run its actions. A state handed back
   physically unchanged (mutable states are) is already stored, so the
   [Some] box is skipped. *)
let commit_step t ~pid s (s', actions) =
  touch t pid;
  if s' != s then t.states.(pid) <- Some s';
  apply_actions t ~pid actions

let handle_deliver t ~src ~dst ~msg ~sent_at ~origin =
  if not t.crashed_flags.(dst) then begin
    t.p_delivered <- t.p_delivered + 1;
    if t.record_trace then
      record t (Trace.Delivered { time = t.now; src; dst; msg; sent_at });
    (match t.causality with
    | None -> ()
    | Some spec ->
        t.cur_node <-
          Causality.record spec.Causality.store ~kind:Causality.Deliver ~pid:dst
            ~parent:origin ~start:sent_at ~finish:t.now ~payload:(-1) ~aux:src);
    match t.states.(dst) with
    | None -> ()  (* not initialised: crashed before init *)
    | Some s -> commit_step t ~pid:dst s (t.automaton.on_message s ~src msg)
  end

(* Collect every further Ev_deliver sharing [prio] (same instant, and the
   delivery rank — so any event at equal priority is a delivery), bucket
   them into the per-destination scratch lists, reorder each group with
   the synchronous order policy, then process groups by ascending
   destination. The scratch array replaces a per-batch hash table; the
   RNG-visible order (one [order_batch_by] call per non-empty destination,
   ascending) is identical, and sent_at rides along instead of being
   re-matched after the fact. *)
let handle_deliver_batch t ~order ~src ~dst ~msg ~sent_at ~origin ~prio =
  let scratch = t.batch_scratch in
  scratch.(dst) <- (src, msg, sent_at, origin) :: scratch.(dst);
  while (not (Pqueue.is_empty t.queue)) && Pqueue.peek_prio t.queue = prio do
    match Pqueue.pop_exn t.queue with
    | Ev_deliver { src; dst; msg; sent_at; origin } ->
        scratch.(dst) <- (src, msg, sent_at, origin) :: scratch.(dst)
    | _ -> assert false  (* delivery rank at this instant: always Ev_deliver *)
  done;
  for d = 0 to t.n - 1 do
    match scratch.(d) with
    | [] -> ()
    | rev_group ->
        scratch.(d) <- [];
        let group = List.rev rev_group in
        let ordered = Network.order_batch_by order ~rng:t.rng ~src:(fun (s, _, _, _) -> s) group in
        List.iter
          (fun (src, msg, sent_at, origin) ->
            handle_deliver t ~src ~dst:d ~msg ~sent_at ~origin)
          ordered
  done

let handle_input t pid input =
  if not t.crashed_flags.(pid) then begin
    touch t pid;
    if Option.is_none t.first_input.(pid) then t.first_input.(pid) <- Some t.now;
    if t.record_trace then record t (Trace.Input { time = t.now; pid; input });
    (match t.causality with
    | None -> ()
    | Some spec ->
        t.cur_node <-
          Causality.record spec.Causality.store ~kind:Causality.Input ~pid ~parent:(-1)
            ~start:t.now ~finish:t.now ~payload:(spec.Causality.input_payload input)
            ~aux:(-1));
    match t.states.(pid) with
    | None -> ()
    | Some s -> commit_step t ~pid s (t.automaton.on_input s input)
  end

let handle_event t ~prio ev =
  match ev with
  | Ev_crash pid ->
      (* Scheduled crashes are causal roots; [cur_node] may still hold the
         previous event's span, so reset it before [do_crash] records. *)
      t.cur_node <- -1;
      do_crash t pid
  | Ev_init pid ->
      if not t.crashed_flags.(pid) then begin
        (match t.causality with
        | None -> ()
        | Some spec ->
            t.cur_node <-
              Causality.record spec.Causality.store ~kind:Causality.Init ~pid
                ~parent:(-1) ~start:t.now ~finish:t.now ~payload:(-1) ~aux:(-1));
        let s, actions = t.automaton.init ~self:pid ~n:t.n in
        touch t pid;
        t.states.(pid) <- Some s;
        apply_actions t ~pid actions
      end
  | Ev_input (pid, input) -> handle_input t pid input
  | Ev_deliver { src; dst; msg; sent_at; origin } -> begin
      match t.network with
      | Network.Sync_rounds { order; _ } ->
          handle_deliver_batch t ~order ~src ~dst ~msg ~sent_at ~origin ~prio
      | _ -> handle_deliver t ~src ~dst ~msg ~sent_at ~origin
    end

(* A popped cell is always live; a crashed process's timer is a step
   without a fire. *)
let fire_timer t cell =
  let pid = cell mod t.n in
  if not t.crashed_flags.(pid) then begin
    let id = cell / t.n in
    t.p_timer_fires <- t.p_timer_fires + 1;
    if t.record_trace then record t (Trace.Timer_fired { time = t.now; pid; id });
    (match t.causality with
    | None -> ()
    | Some spec ->
        t.cur_node <-
          Causality.record spec.Causality.store ~kind:Causality.Timer ~pid
            ~parent:t.timer_origins.(cell) ~start:t.now ~finish:t.now ~payload:id ~aux:(-1));
    match t.states.(pid) with
    | None -> ()
    | Some s -> commit_step t ~pid s (t.automaton.on_timer s id)
  end

(* The stepping loop allocates nothing per event: the bound is hoisted to
   a plain int, the next event's time is read off the packed priority
   without building an option, and pop returns the payload directly. It
   merges three sources by priority. The timer heap's head goes first only
   when strictly below both others (rank 4 is the timers' alone, so it
   never ties). Between the other two the calendar's head goes first when
   its priority is at most the heap's: a tie is input against input, and
   calendar inputs were scheduled first. Real priorities stay below 2^38,
   so [max_int] marks a drained source. *)
let run ?until t =
  let ubound = match until with None -> max_int | Some u -> u in
  let cal = t.calendar in
  let cal_len = Array.length cal.cal_times in
  let timers = t.timers and timers_off = t.disable_timers in
  let rec loop () =
    if t.steps >= t.max_steps then Step_budget_exhausted
    else begin
      let c = t.cal_next in
      let cal_prio = if c < cal_len then input_priority cal.cal_times.(c) else max_int in
      let heap_prio = if Pqueue.is_empty t.queue then max_int else Pqueue.peek_prio t.queue in
      let timer_prio =
        if timers_off || Iheap.is_empty timers then max_int else Iheap.min_priority timers
      in
      let event_prio = Int.min cal_prio heap_prio in
      let prio = Int.min event_prio timer_prio in
      if prio = max_int then Quiescent
      else begin
        let time = time_of_priority prio in
        if time > ubound then Reached_until
        else begin
          t.steps <- t.steps + 1;
          if time > t.now then t.now <- time;
          if timer_prio < event_prio then fire_timer t (Iheap.pop_min timers)
          else if cal_prio <= heap_prio then begin
            t.cal_next <- c + 1;
            handle_input t cal.cal_pids.(c) cal.cal_inputs.(c)
          end
          else handle_event t ~prio (Pqueue.pop_exn t.queue);
          loop ()
        end
      end
    end
  in
  loop ()

(* -- manual network control --------------------------------------------- *)

(* The delivery of live pending message [id]. *)
let delivery t id =
  Ev_deliver
    {
      src = t.pd_src.(id);
      dst = t.pd_dst.(id);
      msg = t.pd_msgs.(id);
      sent_at = t.pd_sent.(id);
      origin = t.pd_origin.(id);
    }

let deliver_pending t ~id ~at =
  if not (pending_live t id) then raise Not_found;
  if at < t.now then invalid_arg "Engine.deliver_pending: at < now";
  let ev = delivery t id in
  free_pending t id;
  push_event t ~at ev

let drop_pending t ~id =
  if pending_live t id then begin
    t.faults_dropped <- t.faults_dropped + 1;
    if t.record_trace then
      record t
        (Trace.Dropped
         {
           time = t.now;
           src = t.pd_src.(id);
           dst = t.pd_dst.(id);
           msg = t.pd_msgs.(id);
           sent_at = t.pd_sent.(id);
         });
    free_pending t id
  end

let duplicate_pending t ~id =
  if not (pending_live t id) then raise Not_found;
  (* Read before allocating: the copy's slot claim may grow the arrays. *)
  let src = t.pd_src.(id) and dst = t.pd_dst.(id) and sent_at = t.pd_sent.(id) in
  let msg = t.pd_msgs.(id) in
  t.faults_duplicated <- t.faults_duplicated + 1;
  if t.record_trace then
    record t (Trace.Duplicated { time = t.now; src; dst; msg; sent_at; extra_delay = 0 });
  (* The copy keeps the original's sent_at (and causal origin): it is the
     same message on the wire twice, not a re-send by the automaton. *)
  add_pending t ~src ~dst ~sent_at ~origin:(t.pd_origin.(id)) msg

let probe t =
  {
    Probe.steps = t.steps;
    sent = t.sends;
    delivered = t.p_delivered;
    dropped = t.faults_dropped;
    duplicated = t.faults_duplicated;
    timer_fires = t.p_timer_fires;
    crashes = t.p_crashes;
    decides = t.p_decides;
    queue_hwm = t.p_queue_hwm;
  }

(* -- fingerprinting ----------------------------------------------------- *)

let has_fingerprint t = Option.is_some t.automaton.Automaton.state_fingerprint

module Fp = Fingerprint

let state_fp_of t ~caller =
  match t.automaton.Automaton.state_fingerprint with
  | Some state_fp -> state_fp
  | None -> invalid_arg (caller ^ ": automaton has no state_fingerprint hook")

(* Constructor tags below are small odd constants; each case mixes its tag
   first so different event shapes can't alias. *)
let input_fp pid input = Fp.mix (Fp.mix 41 (Fp.int pid)) (Fp.structural input)

let event_fp = function
  | Ev_crash pid -> Fp.mix 31 (Fp.int pid)
  | Ev_init pid -> Fp.mix 37 (Fp.int pid)
  | Ev_input (pid, input) -> input_fp pid input
  (* [origin] is excluded everywhere below: span ids are observability
     bookkeeping with no influence on future behaviour (and always -1 in
     the explorer, which never attaches a tracer). *)
  | Ev_deliver { src; dst; msg; sent_at; origin = _ } ->
      Fp.mix
        (Fp.mix (Fp.mix (Fp.mix 43 (Fp.int src)) (Fp.int dst)) (Fp.structural msg))
        (Fp.int sent_at)

let header_fp ~n ~now ~sends ~dropped ~duplicated =
  let fp = Fp.mix (Fp.int n) (Fp.int now) in
  let fp = Fp.mix fp (Fp.int sends) in
  let fp = Fp.mix fp (Fp.int dropped) in
  Fp.mix fp (Fp.int duplicated)

let event_pid = function
  | Ev_crash pid | Ev_init pid | Ev_input (pid, _) -> pid
  | Ev_deliver { dst; _ } -> dst

(* Feed [f] the event queue — heap and unread calendar merged — in pop
   order, with each calendar entry as the input event it stands for. *)
let iter_queue t f =
  let cal = t.calendar in
  let c = ref t.cal_next in
  let calendar_upto bound =
    while !c < Array.length cal.cal_times && input_priority cal.cal_times.(!c) <= bound do
      f (input_priority cal.cal_times.(!c)) (Ev_input (cal.cal_pids.(!c), cal.cal_inputs.(!c)));
      incr c
    done
  in
  if not (Pqueue.is_empty t.queue) then
    Pqueue.iter_in_order t.queue (fun prio ev ->
        calendar_upto prio;
        f prio ev);
  calendar_upto max_int

let queue_step acc prio ev = Fp.mix (Fp.mix acc prio) ev

(* Each process's armed timers as (timer id, deadline), in pop order. *)
let armed t =
  let by_pid = Array.make t.n [] in
  if not (Iheap.is_empty t.timers) then begin
    Iheap.iter_in_order t.timers (fun ~id:cell ~priority ->
        let pid = cell mod t.n in
        by_pid.(pid) <- (cell / t.n, time_of_priority priority) :: by_pid.(pid));
    Array.iteri (fun pid timers -> by_pid.(pid) <- List.rev timers) by_pid
  end;
  by_pid

(* One process's armed timers, (id, deadline) in its pop order; 0 when
   none is armed. Equal deadlines pop in the order the process armed
   them, so the order is the process's own history. *)
let pid_timers_fp pid = function
  | [] -> 0
  | timers ->
      List.fold_left
        (fun acc (id, deadline) -> Fp.mix acc (Fp.mix (Fp.int id) (Fp.int deadline)))
        (Fp.mix 71 (Fp.int pid))
        timers

(* The processes' timer digests, summed: the global arm order that breaks
   ties between processes leaves no mark. The bare tag 73 when none is
   armed. *)
let timers_fp t =
  if Iheap.is_empty t.timers then 73
  else Array.fold_left Fp.commute 73 (Array.mapi pid_timers_fp (armed t))

(* -- digest caches -- *)

let ensure_caches t =
  if Array.length t.loc_fp = 0 then t.loc_fp <- Array.make t.n stale;
  let len = Array.length t.pd_fp in
  if len < t.pd_hwm then begin
    let cells = Array.make (Int.max t.pd_hwm (2 * len)) stale in
    Array.blit t.pd_fp 0 cells 0 len;
    t.pd_fp <- cells
  end

(* Everything pid-local: the protocol state's digest [st] (see
   [state_digest]), crash flag, latency probes. *)
let local_fp st ~crashed ~first_input ~first_output =
  let fp = Fp.mix st (Fp.bool crashed) in
  let fp = Fp.mix fp (Fp.option Fp.int first_input) in
  Fp.mix fp (Fp.option Fp.int first_output)

let state_digest state_fp = function None -> 53 | Some s -> Fp.mix 59 (state_fp s)

let cached_local t state_fp pid =
  let v = t.loc_fp.(pid) in
  if v <> stale then v
  else begin
    let st = state_digest state_fp t.states.(pid) in
    let v =
      local_fp st ~crashed:t.crashed_flags.(pid) ~first_input:t.first_input.(pid)
        ~first_output:t.first_output.(pid)
    in
    t.loc_fp.(pid) <- v;
    v
  end

(* One pending message; the pool folds these commutatively. *)
let slot_fp ~src ~dst msg ~sent_at =
  Fp.mix
    (Fp.mix (Fp.mix (Fp.mix 61 (Fp.int src)) (Fp.int dst)) (Fp.structural msg))
    (Fp.int sent_at)

let cached_slot t s =
  let v = t.pd_fp.(s) in
  if v <> stale then v
  else begin
    let v = slot_fp ~src:t.pd_src.(s) ~dst:t.pd_dst.(s) t.pd_msgs.(s) ~sent_at:t.pd_sent.(s) in
    t.pd_fp.(s) <- v;
    v
  end

let cached_pool t =
  if t.pend_fp_seq = t.pd_next_seq && t.pend_fp_live = t.pd_live then t.pend_fp
  else begin
    let pend = ref 67 in
    for s = 0 to t.pd_hwm - 1 do
      if t.pd_src.(s) >= 0 then pend := Fp.commute !pend (cached_slot t s)
    done;
    t.pend_fp <- !pend;
    t.pend_fp_seq <- t.pd_next_seq;
    t.pend_fp_live <- t.pd_live;
    !pend
  end

(* Header, then each process's local digest, the pool (a multiset: slot
   ids and seq stamps are allocation accidents), the event queue in pop
   order and the armed timers; the .mli lists what is left out and why. *)
let fingerprint t =
  let state_fp = state_fp_of t ~caller:"Engine.fingerprint" in
  ensure_caches t;
  let fp =
    ref
      (header_fp ~n:t.n ~now:t.now ~sends:t.sends ~dropped:t.faults_dropped
         ~duplicated:t.faults_duplicated)
  in
  for pid = 0 to t.n - 1 do
    fp := Fp.mix !fp (cached_local t state_fp pid)
  done;
  fp := Fp.mix !fp (cached_pool t);
  iter_queue t (fun prio ev -> fp := queue_step !fp (Fp.int prio) (event_fp ev));
  Fp.mix !fp (timers_fp t)

type 'output trial = {
  dst : Pid.t;
  local : Fp.t;
  timers : Fp.t;
  last : Time.t;
  steps : int;
  sends : int;
  sent : Fp.t;
  batch : Fp.t;
  outputs : (Time.t * Pid.t * 'output) list;
}

type 'output prediction = {
  digest : int list -> Fp.t;
  trial : int list -> 'output trial;
  key : drop:int list -> dup:int list -> trials:'output trial list -> Fp.t;
}

(* The child of [t] that drops [drop], duplicates [dup], delivers its
   batches at [at] and runs to the horizon [max at until] differs from [t]
   in few places: the clock, the send and fault counters, the local
   content and armed timers of each process that takes a step, the queue,
   which loses every event due by the horizon, and the pool, which loses
   the dropped and delivered messages and gains the copies and whatever
   was sent. Under [Manual] timing nothing crosses processes before the
   horizon: a delivery, an input or a timer fire steps its own process, a
   crash stops its own, and every send waits in the pool. So each
   process's part is its own evolution on a copy of its state — its batch
   if it takes one, then its own events and timers in the engine's order —
   and the parts do not interact. A destination's part is a trial; a
   process that takes no batch but has something due evolves once per
   node, inside [key]. The pool and the timers are sums of per-slot and
   per-process digests, so they are updated by adding and subtracting.
   Everything else — the queue beyond the horizon, the processes with
   nothing to do — is [t]'s. A trial reads its destination's local
   digest, armed timers and events due by the horizon, the horizon,
   whether timers are on, [at] and its batch's messages in order, so
   [digest] mixes exactly those. *)
let child_fingerprint t ~at ~until =
  let state_fp = state_fp_of t ~caller:"Engine.child_fingerprint" in
  (match t.network with
  | Network.Manual -> ()
  | _ -> invalid_arg "Engine.child_fingerprint: the network is not Manual");
  (match t.fault_plan with
  | Network.Fault.No_faults -> ()
  | _ -> invalid_arg "Engine.child_fingerprint: the engine has a fault plan");
  if at < t.now then invalid_arg "Engine.child_fingerprint: at < now";
  let horizon = Int.max at until in
  ensure_caches t;
  let pool = cached_pool t in
  let locals = Array.init t.n (cached_local t state_fp) in
  (* Each process's events due by the horizon, in pop order, and the
     queue beyond it as (priority, event) digests. *)
  let due = Array.make t.n [] and tail_rev = ref [] in
  iter_queue t (fun prio ev ->
      if time_of_priority prio <= horizon then begin
        let pid = event_pid ev in
        due.(pid) <- (prio, ev) :: due.(pid)
      end
      else tail_rev := (Fp.int prio, event_fp ev) :: !tail_rev);
  let tail = List.rev !tail_rev in
  let armed = armed t in
  (* Per process: its armed timers' digest, whether it steps before the
     horizon without a batch, and what its evolution reads beyond its
     local digest, [at] and its batch. *)
  let timers = Array.make t.n 0 and busy = Array.make t.n false and window = Array.make t.n 0 in
  let base = Fp.mix (Fp.int horizon) (Fp.bool t.disable_timers) in
  for pid = 0 to t.n - 1 do
    let events = List.rev due.(pid) in
    due.(pid) <- events;
    timers.(pid) <- pid_timers_fp pid armed.(pid);
    busy.(pid) <-
      (match (events, armed.(pid)) with
      | [], [] -> false
      | [], (_, deadline) :: _ -> deadline <= horizon
      | _ :: _, _ -> true);
    window.(pid) <-
      List.fold_left
        (fun acc (prio, ev) -> queue_step acc (Fp.int prio) (event_fp ev))
        (Fp.mix base timers.(pid))
        events
  done;
  (* A child delivers every message to a crashed process: a no-op that
     only takes it out of the pool. *)
  let to_crashed = ref 0 and delivered_to_crashed = ref 0 in
  for s = 0 to t.pd_hwm - 1 do
    if t.pd_src.(s) >= 0 && t.crashed_flags.(t.pd_dst.(s)) then begin
      to_crashed := !to_crashed + cached_slot t s;
      incr delivered_to_crashed
    end
  done;
  let to_crashed = !to_crashed and delivered_to_crashed = !delivered_to_crashed in
  (* The one correct process a batch goes to. *)
  let batch_dst ids =
    let dst =
      match ids with
      | id :: _ when pending_live t id && not t.crashed_flags.(t.pd_dst.(id)) -> t.pd_dst.(id)
      | _ -> invalid_arg "Engine.child_fingerprint: a trial takes live ids to a correct process"
    in
    List.iter
      (fun id ->
        if not (pending_live t id && t.pd_dst.(id) = dst) then
          invalid_arg "Engine.child_fingerprint: a trial's ids must be live, to one process")
      ids;
    dst
  in
  let digest ids =
    let dst = batch_dst ids in
    List.fold_left
      (fun acc id -> Fp.mix acc (cached_slot t id))
      (Fp.mix (Fp.mix (Fp.mix 79 locals.(dst)) (Fp.int at)) window.(dst))
      ids
  in
  let budget = t.max_steps - t.steps in
  (* [pid]'s own evolution to the horizon on a copy of its state: [batch]
     delivered at [at] after the deliveries already queued at that
     priority, its due events, and its timers, the earliest first only
     when strictly below the next event — [run]'s merge restricted to one
     process. Equal deadlines fire in the order they were last armed. *)
  let evolve pid batch =
    let automaton = t.automaton in
    let st = ref (Option.map automaton.Automaton.state_copy t.states.(pid)) in
    let crashed = ref t.crashed_flags.(pid) in
    let first_input = ref t.first_input.(pid) and first_output = ref t.first_output.(pid) in
    let armed = ref armed.(pid) in
    let steps = ref 0 and last = ref min_int in
    let sends = ref 0 and sent = ref 0 and outputs_rev = ref [] in
    let send now d msg =
      incr sends;
      sent := !sent + slot_fp ~src:pid ~dst:d msg ~sent_at:now
    in
    let disarm id = List.filter (fun (id', _) -> id' <> id) !armed in
    let rec act now = function
      | [] -> ()
      | action :: rest ->
          (match action with
          | Automaton.Send (d, msg) -> send now d msg
          | Automaton.Broadcast msg ->
              for d = 0 to t.n - 1 do
                if d <> pid then send now d msg
              done
          | Automaton.Set_timer { id; after } ->
              if not t.disable_timers then begin
                ignore (timer_cell t ~pid ~id : int);
                let deadline = now + max 0 after in
                let rec insert = function
                  | (_, d) as timer :: later when d <= deadline -> timer :: insert later
                  | later -> (id, deadline) :: later
                in
                armed := insert (disarm id)
              end
          | Automaton.Cancel_timer id ->
              if not t.disable_timers then begin
                ignore (timer_cell t ~pid ~id : int);
                armed := disarm id
              end
          | Automaton.Output output ->
              outputs_rev := (now, pid, output) :: !outputs_rev;
              if Option.is_none !first_output then first_output := Some now);
          act now rest
    in
    let step now (s, actions) =
      st := Some s;
      act now actions
    in
    let handle now = function
      | Ev_crash _ ->
          if not !crashed then begin
            if Option.is_none !st then st := Some (fst (automaton.init ~self:pid ~n:t.n));
            crashed := true
          end
      | Ev_init _ -> if not !crashed then step now (automaton.init ~self:pid ~n:t.n)
      | Ev_input (_, input) -> (
          if (not !crashed) && Option.is_none !first_input then first_input := Some now;
          match !st with
          | Some s when not !crashed -> step now (automaton.on_input s input)
          | _ -> ())
      | Ev_deliver { src; msg; _ } -> (
          match !st with
          | Some s when not !crashed -> step now (automaton.on_message s ~src msg)
          | _ -> ())
    in
    let tick now =
      if !steps >= budget then
        invalid_arg "Engine.child_fingerprint: the child would exhaust the step budget";
      incr steps;
      last := now
    in
    let rec loop events =
      let event_prio = match events with (prio, _) :: _ -> prio | [] -> max_int in
      match !armed with
      | (id, deadline) :: later when deadline <= horizon && (deadline * 8) + timer_rank < event_prio
        ->
          tick deadline;
          armed := later;
          (match !st with
          | Some s when not !crashed -> step deadline (automaton.on_timer s id)
          | _ -> ());
          loop events
      | _ -> (
          match events with
          | [] -> ()
          | (prio, ev) :: rest ->
              let now = time_of_priority prio in
              tick now;
              handle now ev;
              loop rest)
    in
    let batch_prio = (at * 8) + deliver_rank in
    let deliveries = List.map (fun id -> (batch_prio, delivery t id)) batch in
    let rec with_batch = function
      | (prio, _) as event :: rest when prio <= batch_prio -> event :: with_batch rest
      | rest -> deliveries @ rest
    in
    loop (with_batch due.(pid));
    {
      dst = pid;
      local =
        local_fp (state_digest state_fp !st) ~crashed:!crashed ~first_input:!first_input
          ~first_output:!first_output;
      timers = pid_timers_fp pid !armed;
      last = !last;
      steps = !steps;
      sends = !sends;
      sent = !sent;
      batch = List.fold_left (fun acc id -> acc + cached_slot t id) 0 batch;
      outputs = List.rev !outputs_rev;
    }
  in
  let trial ids = evolve (batch_dst ids) ids in
  (* Each process's part of a child in which it takes no batch: its
     evolution when something is due by the horizon, else [t]'s.
     Computed once per process, when a key first needs it. *)
  let idle = Array.make t.n None in
  let idle_part pid =
    match idle.(pid) with
    | Some r -> r
    | None ->
        let r =
          if busy.(pid) then evolve pid []
          else
            {
              dst = pid;
              local = locals.(pid);
              timers = timers.(pid);
              last = t.now;
              steps = 0;
              sends = 0;
              sent = 0;
              batch = 0;
              outputs = [];
            }
        in
        idle.(pid) <- Some r;
        r
  in
  let slots ids = List.fold_left (fun acc id -> acc + cached_slot t id) 0 ids in
  (* Scratch for [key]'s first pass; each call overwrites every cell. *)
  let child_locals = Array.make t.n 0 in
  let key ~drop ~dup ~trials =
    let sends = ref t.sends and pend = ref (pool - slots drop + slots dup - to_crashed) in
    let now = ref (if delivered_to_crashed > 0 then at else t.now) in
    let steps = ref (t.steps + delivered_to_crashed) and timers_sum = ref 73 in
    let rest = ref trials in
    for pid = 0 to t.n - 1 do
      let r =
        match !rest with
        | r :: more when r.dst = pid ->
            rest := more;
            r
        | _ -> idle_part pid
      in
      sends := !sends + r.sends;
      pend := !pend + r.sent - r.batch;
      now := Int.max !now r.last;
      steps := !steps + r.steps;
      timers_sum := Fp.commute !timers_sum r.timers;
      child_locals.(pid) <- r.local
    done;
    if !rest <> [] then
      invalid_arg "Engine.child_fingerprint: trials not in ascending destination order";
    if !steps > t.max_steps then
      invalid_arg "Engine.child_fingerprint: the child would exhaust the step budget";
    let fp =
      ref
        (header_fp ~n:t.n ~now:!now ~sends:!sends
           ~dropped:(t.faults_dropped + List.length drop)
           ~duplicated:(t.faults_duplicated + List.length dup))
    in
    for pid = 0 to t.n - 1 do
      fp := Fp.mix !fp child_locals.(pid)
    done;
    let fp = List.fold_left (fun acc (p, e) -> queue_step acc p e) (Fp.mix !fp !pend) tail in
    Fp.mix fp !timers_sum
  in
  { digest; trial; key }

let decision_latencies t =
  let acc = ref [] in
  for pid = t.n - 1 downto 0 do
    match (t.first_input.(pid), t.first_output.(pid)) with
    | Some in_t, Some out_t -> acc := (pid, out_t - in_t) :: !acc
    | _ -> ()
  done;
  !acc
