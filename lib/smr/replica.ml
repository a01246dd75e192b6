module Pid = Dsim.Pid
module Automaton = Dsim.Automaton
module Value = Proto.Value
module Omega = Proto.Omega
module Iset = Set.Make (Int)

type mutation = Stale_reads of Pid.t

type 'pmsg msg = Slot of { slot : int; payload : 'pmsg } | Omega_msg of Omega.msg

let pp_msg pp_payload fmt = function
  | Slot { slot; payload } -> Format.fprintf fmt "[slot %d] %a" slot pp_payload payload
  | Omega_msg m -> Format.fprintf fmt "[replica] %a" Omega.pp_msg m

(* Timers are virtualized through a small pool of {e lanes}: a slot that
   needs timers borrows a lane, global timer id = lane * stride + inner id,
   and the lane is reclaimed (all armed timers cancelled) the moment the
   slot decides.  This keeps the engine's flat timer table bounded by the
   number of {e undecided} slots rather than the total slot count.  Lanes
   hold protocol timers only, which stay below [Omega.timer_base]; the
   replica's beat timer takes [Omega.timer_base] itself, in the unused
   top of lane 0, so the timer cells stay dense. *)
let lane_stride = 2048

let max_lanes = 256

let beat_timer = Omega.timer_base

(* Beats of silence after which the replica suspects a peer: Ω's 3Δ. *)
let suspicion_beats = 3

(* One consensus slot as this replica sees it. A slot exists once its
   instance does; [value] and [mine] are meaningful only while [decided]
   and [inflight] are set. *)
type 'pstate slot = {
  mutable inst : 'pstate;
  mutable decided : bool;
  mutable value : Value.t;  (* the decided value (possibly a batch) *)
  mutable inflight : bool;  (* I proposed [mine] here and it is undecided *)
  mutable mine : Value.t;
  mutable lane : int;  (* timer lane, or -1 *)
}

type 'pstate state = {
  self : Pid.t;
  n : int;
  mutable slots : 'pstate slot option array;  (* indexed by slot, grown by doubling *)
  mutable top : int;  (* 1 + the highest slot with an instance *)
  mutable decided_count : int;
  mutable inflight_count : int;
  mutable applied_rev : (int * Value.t) list;  (* expanded commands, newest first *)
  mutable next_apply : int;
  mutable store : Kv.Mstore.t;  (* KV state after the applied prefix: read results *)
  (* My submitted commands not yet proposed: a front/back queue (front
     oldest-first, back newest-first) for O(1) amortized enqueue. *)
  mutable queue_front : Value.t list;
  mutable queue_back : Value.t list;
  mutable queue_len : int;
  slot_of_lane : int array;  (* -1 for a free lane *)
  armed : Iset.t array;  (* per lane: inner timer ids armed and not cancelled *)
  mutable free_lanes : int list;  (* reused LIFO *)
  (* The failure detector behind the slots' Ω (see the .mli). Beats are
     numbered from 0, the one of [init] at time 0. *)
  mutable beat : int;  (* the next beat's number *)
  heard : int array;  (* per peer: the value of [beat] when its last message arrived *)
  sent : bool array;  (* per peer: something went out on the link since the last beat *)
  mutable suspected : Pid.Set.t;
}

let applied s = List.rev s.applied_rev

let decided_slots s = s.decided_count

let suspected s = s.suspected

let find s slot = if slot < Array.length s.slots then s.slots.(slot) else None

let queue_push_front s vs =
  s.queue_front <- vs @ s.queue_front;
  s.queue_len <- s.queue_len + List.length vs

(* Requires a non-empty queue. *)
let queue_pop s =
  if s.queue_front = [] then begin
    s.queue_front <- List.rev s.queue_back;
    s.queue_back <- []
  end;
  match s.queue_front with
  | v :: rest ->
      s.queue_front <- rest;
      s.queue_len <- s.queue_len - 1;
      v
  | [] -> assert false

let make (type pm ps) ?(pipeline = 1) ?(batch_max = 1) ?pack ?expand ?mutation
    (module P : Proto.Protocol.S with type msg = pm and type state = ps) ~n ~e ~f ~delta =
  if pipeline < 1 then invalid_arg "Replica.make: pipeline < 1";
  if batch_max < 1 then invalid_arg "Replica.make: batch_max < 1";
  let pack =
    match pack with
    | Some pack -> pack
    | None -> (
        function [ v ] -> v | _ -> invalid_arg "Replica.make: batch_max > 1 needs ~pack")
  in
  let expand = match expand with Some expand -> expand | None -> fun v -> [ v ] in
  let inner = P.make ~n ~e ~f ~delta in
  let has_omega = Option.is_some P.omega in
  (* A fresh instance depends only on (self, n): build each replica's
     once, and hand every new slot a copy of it. *)
  let fresh = Array.make n None in
  let fresh_instance self =
    let ps, actions =
      match fresh.(self) with
      | Some cached -> cached
      | None ->
          let built = inner.init ~self ~n in
          fresh.(self) <- Some built;
          built
    in
    (inner.state_copy ps, actions)
  in
  (* A slot instance's own Ω stays silent: the replica's detector stands
     in for it. Its messages are recognised through the protocol's [omega]
     hook, its timers by Ω's reserved ids. *)
  let omega_msg, wrap_omega =
    match P.omega with
    | Some o -> ((fun payload -> Option.is_some (o.Omega.unwrap payload)), o.Omega.wrap)
    | None -> ((fun _ -> false), fun _ -> invalid_arg "Replica: the protocol has no Ω")
  in
  let alloc_lane s slot sl =
    if sl.lane < 0 then
      match s.free_lanes with
      | [] -> ()
      | lane :: rest ->
          s.free_lanes <- rest;
          sl.lane <- lane;
          s.slot_of_lane.(lane) <- slot
  in
  (* Rewrite one instance transition's actions into the multiplexed space;
     timer actions allocate and update the slot's lane, and every send
     marks its links busy until the next beat. The instance's Ω actions
     are dropped, except that [announce] keeps its messages: the init
     heartbeat of a slot this replica opens announces the slot to every
     replica, which is what moves their [top] past it. *)
  let wrap_actions ?(announce = false) s slot sl actions =
    List.filter_map
      (function
        | Automaton.Send (dst, payload) ->
            if (not announce) && omega_msg payload then None
            else begin
              s.sent.(dst) <- true;
              Some (Automaton.Send (dst, Slot { slot; payload }))
            end
        | Automaton.Broadcast payload ->
            if (not announce) && omega_msg payload then None
            else begin
              Array.fill s.sent 0 s.n true;
              Some (Automaton.Broadcast (Slot { slot; payload }))
            end
        | Automaton.Set_timer { id; _ } | Automaton.Cancel_timer id when id >= Omega.timer_base ->
            None
        | Automaton.Set_timer { id; after } ->
            assert (id >= 0 && id < lane_stride);
            (* Decided slots get no timers; losing a timer is
               liveness-only, so it is also the safe degradation when
               lanes run out. *)
            if sl.decided then None
            else begin
              alloc_lane s slot sl;
              if sl.lane < 0 then None
              else begin
                s.armed.(sl.lane) <- Iset.add id s.armed.(sl.lane);
                Some (Automaton.Set_timer { id = (sl.lane * lane_stride) + id; after })
              end
            end
        | Automaton.Cancel_timer id ->
            if sl.lane < 0 then None
            else begin
              s.armed.(sl.lane) <- Iset.remove id s.armed.(sl.lane);
              Some (Automaton.Cancel_timer ((sl.lane * lane_stride) + id))
            end
        | Automaton.Output _ -> None (* decisions are intercepted separately *))
      actions
  in
  let install s slot sl =
    let cap = Array.length s.slots in
    if slot >= cap then begin
      let slots = Array.make (max (2 * cap) (slot + 1)) None in
      Array.blit s.slots 0 slots 0 cap;
      s.slots <- slots
    end;
    s.slots.(slot) <- Some sl;
    s.top <- max s.top (slot + 1)
  in
  (* Run one instance transition, harvesting any decision from its
     actions. *)
  let step_instance ?announce s slot transition =
    let sl, init_actions =
      match find s slot with
      | Some sl -> (sl, [])
      | None ->
          (* Lazy instance creation: the slot's init timers land in a
             freshly borrowed lane, and the instance starts from the
             replica's current suspicions, fed in as fires of Ω's suspect
             timers (which decide nothing). *)
          let seed q (ps, actions) =
            let ps, more = inner.on_timer ps (Omega.suspect_timer q) in
            (ps, actions @ more)
          in
          let ps, actions = Pid.Set.fold seed s.suspected (fresh_instance s.self) in
          let sl =
            { inst = ps; decided = false; value = 0; inflight = false; mine = 0; lane = -1 }
          in
          install s slot sl;
          (sl, wrap_actions ?announce s slot sl actions)
    in
    let pstate', actions = transition sl.inst in
    let decision =
      List.find_map (function Automaton.Output v -> Some v | _ -> None) actions
    in
    sl.inst <- pstate';
    (sl, init_actions @ wrap_actions s slot sl actions, decision)
  in
  let rec take_batch s k acc =
    if k = 0 || s.queue_len = 0 then List.rev acc else take_batch s (k - 1) (queue_pop s :: acc)
  in
  (* Keep proposing while the pipeline window has room: each proposal
     drains up to [batch_max] queued commands into one value, in the next
     slot this replica believes free (above everything it has seen). *)
  let rec refill s =
    if s.inflight_count >= pipeline || s.queue_len = 0 then []
    else begin
      let value = match take_batch s batch_max [] with [ v ] -> v | ops -> pack ops in
      let sl, actions, decision =
        step_instance ~announce:true s s.top (fun ps -> inner.on_input ps value)
      in
      assert (decision = None);
      sl.inflight <- true;
      sl.mine <- value;
      s.inflight_count <- s.inflight_count + 1;
      actions @ refill s
    end
  in
  (* The per-command response value: Put returns the value written, Get the
     key's current value against the replica's own applied-prefix store — a
     mutated replica serves Gets from the key's previous value instead (one
     write stale), which is exactly the bug the object-level
     linearizability checker exists to catch. *)
  let apply_command s word =
    if word < 0 || word >= Kv.batch_base then 0
    else begin
      let op = Kv.decode word in
      let stale_here =
        match mutation with
        | Some (Stale_reads pid) -> Pid.equal s.self pid && op.Kv.action = Kv.Get
        | None -> false
      in
      let store, ret = Kv.Mstore.eval s.store op in
      let ret = if stale_here then Kv.Mstore.stale s.store op.Kv.key else ret in
      s.store <- store;
      ret
    end
  in
  (* Apply newly contiguous decisions, expanding batches so every client
     command gets its own (slot, command, response) output. *)
  let rec drain_applies s acc =
    match find s s.next_apply with
    | Some { decided = true; value; _ } ->
        let slot = s.next_apply in
        let acc =
          List.fold_left
            (fun acc op ->
              let ret = apply_command s op in
              s.applied_rev <- (slot, op) :: s.applied_rev;
              Automaton.Output (slot, op, ret) :: acc)
            acc (expand value)
        in
        s.next_apply <- slot + 1;
        drain_applies s acc
    | _ -> List.rev acc
  in
  (* Reclaim the slot's timer lane, cancelling everything still armed so
     the lane can be reused without stale fires crossing slots. *)
  let cancel_slot_lane s sl =
    let lane = sl.lane in
    if lane < 0 then []
    else begin
      let cancels =
        Iset.fold
          (fun id acc -> Automaton.Cancel_timer ((lane * lane_stride) + id) :: acc)
          s.armed.(lane) []
      in
      sl.lane <- -1;
      s.slot_of_lane.(lane) <- -1;
      s.armed.(lane) <- Iset.empty;
      s.free_lanes <- lane :: s.free_lanes;
      cancels
    end
  in
  (* A slot decided: record, reclaim its lane, apply, and refill the
     pipeline (reproposing our commands first if the slot went to someone
     else's value). *)
  let handle_decision s sl value =
    if sl.decided then []
    else begin
      sl.decided <- true;
      sl.value <- value;
      s.decided_count <- s.decided_count + 1;
      let cancels = cancel_slot_lane s sl in
      let applies = drain_applies s [] in
      let proposals =
        if not sl.inflight then []
        else begin
          sl.inflight <- false;
          s.inflight_count <- s.inflight_count - 1;
          (* Lost the slot: the batched commands go back to the front of
             the queue, in order, for rebatching. *)
          if not (Value.equal sl.mine value) then queue_push_front s (expand sl.mine);
          refill s
        end
      in
      cancels @ applies @ proposals
    end
  in
  let init ~self ~n:n' =
    assert (n = n');
    ( {
        self;
        n;
        slots = Array.make 64 None;
        top = 0;
        decided_count = 0;
        inflight_count = 0;
        applied_rev = [];
        next_apply = 0;
        store = Kv.Mstore.empty;
        queue_front = [];
        queue_back = [];
        queue_len = 0;
        slot_of_lane = Array.make max_lanes (-1);
        armed = Array.make max_lanes Iset.empty;
        free_lanes = List.init max_lanes Fun.id;
        beat = 1;
        heard = Array.make n 0;
        sent = Array.make n false;
        suspected = Pid.Set.empty;
      },
      (* Beat 0: a heartbeat on every link. *)
      if has_omega then
        [
          Automaton.Broadcast (Omega_msg Omega.Heartbeat);
          Automaton.Set_timer { id = beat_timer; after = delta };
        ]
      else [] )
  in
  let step s slot transition =
    let sl, actions, decision = step_instance s slot transition in
    match decision with
    | None -> (s, actions)
    | Some value -> (s, actions @ handle_decision s sl value)
  in
  (* Feed one of Ω's inputs to every live instance, in slot order: only
     slots from [next_apply] up can be undecided. *)
  let relay s transition =
    let top = s.top in
    let rec go slot acc =
      if slot >= top then List.concat (List.rev acc)
      else
        match find s slot with
        | Some sl when not sl.decided -> go (slot + 1) (snd (step s slot transition) :: acc)
        | _ -> go (slot + 1) acc
    in
    go s.next_apply []
  in
  (* Any message from [src] is a heartbeat. One from a suspected peer
     first relays the trust into every live instance, as a heartbeat. *)
  let hear s src =
    s.heard.(src) <- s.beat;
    if not (Pid.Set.mem src s.suspected) then []
    else begin
      s.suspected <- Pid.Set.remove src s.suspected;
      relay s (fun ps -> inner.on_message ps ~src (wrap_omega Omega.Heartbeat))
    end
  in
  let on_message s ~src msg =
    let trusted = hear s src in
    match msg with
    | Slot { slot; payload } ->
        let actions =
          if omega_msg payload then
            (* An announcement: the slot exists, and its instance's Ω
               follows the replica's detector alone. *)
            let _, actions, _ = step_instance s slot (fun ps -> (ps, [])) in
            actions
          else snd (step s slot (fun ps -> inner.on_message ps ~src payload))
        in
        (s, trusted @ actions)
    | Omega_msg Omega.Heartbeat -> (s, trusted)
  in
  (* A beat: suspect each peer silent for [suspicion_beats] whole beat
     periods, relaying the suspicion into every live instance as a fire
     of Ω's suspect timer, then heartbeat the links nothing went out on
     since the last beat. *)
  let on_beat s =
    let beat = s.beat in
    s.beat <- beat + 1;
    let relayed = ref [] in
    for q = 0 to s.n - 1 do
      if q <> s.self && beat - s.heard.(q) >= suspicion_beats && not (Pid.Set.mem q s.suspected)
      then begin
        s.suspected <- Pid.Set.add q s.suspected;
        relayed := relay s (fun ps -> inner.on_timer ps (Omega.suspect_timer q)) :: !relayed
      end
    done;
    let actions = ref [ Automaton.Set_timer { id = beat_timer; after = delta } ] in
    for q = s.n - 1 downto 0 do
      if q <> s.self && not s.sent.(q) then
        actions := Automaton.Send (q, Omega_msg Omega.Heartbeat) :: !actions;
      s.sent.(q) <- false
    done;
    (s, List.concat (List.rev !relayed) @ !actions)
  in
  let on_input s cmd =
    s.queue_back <- cmd :: s.queue_back;
    s.queue_len <- s.queue_len + 1;
    (s, refill s)
  in
  let on_timer s id =
    if id = beat_timer then on_beat s
    else
      let slot = s.slot_of_lane.(id / lane_stride) in
      if slot < 0 then (s, []) (* stale fire from a reclaimed lane *)
      else step s slot (fun ps -> inner.on_timer ps (id mod lane_stride))
  in
  (* The state is mutable: copy the slot table, every slot record (with its
     instance state, through the inner automaton), the lane arrays and the
     detector's per-peer arrays. *)
  let copy_slot sl = { sl with inst = inner.Automaton.state_copy sl.inst } in
  let state_copy s =
    {
      s with
      slots = Array.map (Option.map copy_slot) s.slots;
      slot_of_lane = Array.copy s.slot_of_lane;
      armed = Array.copy s.armed;
      heard = Array.copy s.heard;
      sent = Array.copy s.sent;
    }
  in
  (* Not explored with dedup: the SMR wrapper runs under stochastic
     networks, where engine fingerprints must not key a visited set. *)
  { Automaton.init; on_message; on_input; on_timer; state_copy; state_fingerprint = None }

module Instance = struct
  type packed =
    | E : ('ps state, 'pm msg, Value.t, int * Value.t * int) Dsim.Engine.t -> packed

  type t = {
    packed : packed;
    n : int;
    mutable drained : int;  (* engine outputs already handed to [drain_new_outputs] *)
  }

  let create ~protocol ~n ~e ~f ~delta ~net ?(seed = 0) ?(pipeline = 1) ?(batch_max = 1)
      ?(commands = []) ?(crashes = []) ?faults ?causality ?mutation
      ?(max_steps = 20_000_000) () =
    let (module P : Proto.Protocol.S) = protocol in
    let batches = Kv.Batch.create () in
    let automaton =
      make ~pipeline ~batch_max ~pack:(Kv.Batch.pack batches)
        ~expand:(Kv.Batch.expand batches) ?mutation
        (module P)
        ~n ~e ~f ~delta
    in
    (* Commands are already packed int words, so the span payload encoders
       are identity on inputs and project the command out of apply
       outputs — (pid, payload) then keys submit/apply span matching. *)
    let causality =
      Option.map
        (fun store ->
          Dsim.Causality.spec ~input:Fun.id
            ~output:(fun ((_slot, cmd, _ret) : int * Value.t * int) -> cmd)
            store)
        causality
    in
    let engine =
      Dsim.Engine.create ~automaton ~n
        ~network:(Checker.Scenario.to_network ~delta net)
        ~seed ~record_trace:false ~max_steps
        ~inputs:commands ~crashes ?faults ?causality ()
    in
    { packed = E engine; n; drained = 0 }

  let run ?until t =
    let (E engine) = t.packed in
    Dsim.Engine.run ?until engine

  let now t =
    let (E engine) = t.packed in
    Dsim.Engine.now engine

  let probe t =
    let (E engine) = t.packed in
    Dsim.Engine.probe engine

  let applied_log t pid =
    let (E engine) = t.packed in
    applied (Dsim.Engine.state engine pid)

  let outputs t =
    let (E engine) = t.packed in
    Dsim.Engine.outputs engine

  let submit t ~at ~proxy cmd =
    let (E engine) = t.packed in
    Dsim.Engine.schedule_input engine ~at proxy cmd

  let drain_new_outputs t ~f =
    let (E engine) = t.packed in
    let total = Dsim.Engine.output_count engine in
    if total > t.drained then begin
      let fresh = Dsim.Engine.recent_outputs engine ~since:t.drained in
      t.drained <- total;
      List.iter (fun (time, pid, (slot, cmd, ret)) -> f time pid slot cmd ret) fresh
    end

  let converged t =
    let (E engine) = t.packed in
    let logs =
      List.map (fun p -> applied (Dsim.Engine.state engine p)) (Pid.all ~n:t.n)
    in
    let rec prefix_agree a b =
      match (a, b) with
      | [], _ | _, [] -> true
      | x :: xs, y :: ys -> x = y && prefix_agree xs ys
    in
    let rec all_pairs = function
      | [] -> true
      | l :: rest -> List.for_all (prefix_agree l) rest && all_pairs rest
    in
    all_pairs logs
end
