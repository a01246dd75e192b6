module Pid = Dsim.Pid
module Automaton = Dsim.Automaton
module Value = Proto.Value
module Ballot = Proto.Ballot
module Omega = Proto.Omega

type mode = Task | Object

let pp_mode fmt = function
  | Task -> Format.pp_print_string fmt "task"
  | Object -> Format.pp_print_string fmt "object"

type msg =
  | Propose of Value.t
  | Two_b of { bal : Ballot.t; value : Value.t }
  | Decide of Value.t
  | One_a of Ballot.t
  | One_b of {
      bal : Ballot.t;
      vbal : Ballot.t;
      value : Value.t option;
      proposer : Pid.t option;
      decided : Value.t option;
    }
  | Two_a of { bal : Ballot.t; value : Value.t }
  | Omega_msg of Omega.msg

let pp_opt = Proto.Util.pp_opt

let pp_msg fmt = function
  | Propose v -> Format.fprintf fmt "Propose(%a)" Value.pp v
  | Two_b { bal; value } -> Format.fprintf fmt "2B(%a,%a)" Ballot.pp bal Value.pp value
  | Decide v -> Format.fprintf fmt "Decide(%a)" Value.pp v
  | One_a b -> Format.fprintf fmt "1A(%a)" Ballot.pp b
  | One_b { bal; vbal; value; proposer; decided } ->
      Format.fprintf fmt "1B(%a,vbal=%a,val=%a,prop=%a,dec=%a)" Ballot.pp bal Ballot.pp
        vbal (pp_opt Value.pp) value (pp_opt Pid.pp) proposer (pp_opt Value.pp) decided
  | Two_a { bal; value } -> Format.fprintf fmt "2A(%a,%a)" Ballot.pp bal Value.pp value
  | Omega_msg m -> Omega.pp_msg fmt m

let omega =
  { Omega.wrap = (fun m -> Omega_msg m); unwrap = (function Omega_msg m -> Some m | _ -> None) }

(* Leader-side bookkeeping for one slow ballot this process started. *)
type slow = {
  sballot : Ballot.t;
  one_bs : Recovery.reply Pid.Map.t;
  computed : bool;  (* value selection already ran for this ballot *)
  svalue : Value.t option;  (* value sent in our 2A *)
  two_bs : Pid.Set.t;  (* matching 2B(sballot, svalue) votes *)
}

type state = {
  self : Pid.t;
  n : int;
  e : int;
  f : int;
  delta : int;
  mode : mode;
  bal : Ballot.t;  (* 𝗯𝗮𝗹: current ballot *)
  vbal : Ballot.t;  (* 𝘃𝗯𝗮𝗹: last ballot with a slow-path vote *)
  value : Value.t option;  (* 𝘃𝗮𝗹: current vote *)
  proposer : Pid.t option;  (* who proposed [value] at ballot 0 *)
  initial : Value.t option;  (* 𝗶𝗻𝗶𝘁𝗶𝗮𝗹_𝘃𝗮𝗹 *)
  heard : Value.t option;
  (* First proposal ever received, even when we could not vote for it. A
     leader with no proposal of its own falls back to it at line 19 —
     otherwise a proposal arriving after ballot 0 has been abandoned could
     never reach a decision (the Ω leader might never propose), violating
     the object's wait-freedom. Liveness-only: any heard value was
     proposed, so Validity is untouched, and lines 13-18 still take
     precedence. *)
  decided : Value.t option;
  fast_acks : Pid.Set.t;  (* 2B(0, initial) senders *)
  slow : slow option;
  omega : Omega.state;
}

let current_ballot s = s.bal

let voted_value s = s.value

let initial_value s = s.initial

let decided_value s = s.decided

let new_ballot_timer = 1

(* The paper's timer schedule (§C.1): first 2Δ, then every 5Δ. *)
let initial_timeout s = 2 * s.delta

let steady_timeout s = 5 * s.delta

let send_to_all s m = Proto.Util.send_to_all ~n:s.n m

let broadcast_others s m = Proto.Util.send_others ~n:s.n ~self:s.self m

(* decide v (lines 8-9 / 11): record, output, tell everyone. *)
let decide s v =
  match s.decided with
  | Some _ -> (s, [])
  | None ->
      let s = { s with value = Some v; decided = Some v } in
      (s, (Automaton.Output v :: broadcast_others s (Decide v)))

(* First disjunct of line 7: fast-path decision check. *)
let try_fast_decide s =
  match (s.decided, s.initial) with
  | None, Some v
    when Ballot.is_fast s.bal
         && (s.value = None || s.value = Some v)
         && Pid.Set.cardinal (Pid.Set.add s.self s.fast_acks) >= s.n - s.e ->
      decide s v
  | _ -> (s, [])

(* Lines 2-4: adopt an initial value and announce it. *)
let propose s v =
  if s.value <> None || s.initial <> None || s.decided <> None then (s, [])
  else begin
    let s = { s with initial = Some v } in
    let s, decide_actions = try_fast_decide s in
    (s, broadcast_others s (Propose v) @ decide_actions)
  end

(* Lines 5-6: vote for a fast-ballot proposal. *)
let on_propose s ~src v =
  let s = if s.heard = None then { s with heard = Some v } else s in
  let object_ok =
    match s.mode with
    | Task -> true
    | Object -> ( match s.initial with None -> true | Some own -> Value.equal v own)
  in
  if
    Ballot.is_fast s.bal && s.value = None
    && Value.geq_bottom v s.initial
    && object_ok
  then begin
    let s = { s with value = Some v; proposer = Some src } in
    (* Voting for our own value (proposed by someone else too) may complete
       our fast quorum. *)
    let s, decide_actions = try_fast_decide s in
    (s, Automaton.Send (src, Two_b { bal = Ballot.fast; value = v }) :: decide_actions)
  end
  else (s, [])

let on_two_b s ~src ~bal ~value =
  if Ballot.is_fast bal then begin
    (* A vote for our own fast-ballot proposal. *)
    match s.initial with
    | Some v when Value.equal v value ->
        let s = { s with fast_acks = Pid.Set.add src s.fast_acks } in
        try_fast_decide s
    | Some _ | None -> (s, [])
  end
  else begin
    (* Second disjunct of line 7: a slow-ballot vote for our 2A. *)
    match s.slow with
    | Some slow when Ballot.equal slow.sballot bal && slow.svalue = Some value ->
        let slow = { slow with two_bs = Pid.Set.add src slow.two_bs } in
        let s = { s with slow = Some slow } in
        if Pid.Set.cardinal slow.two_bs >= s.n - s.f then decide s value else (s, [])
    | Some _ | None -> (s, [])
  end

let on_decide s v = decide s v

(* Lines 20-22: join a higher ballot and report our state. *)
let on_one_a s ~src b =
  if b > s.bal then begin
    let s = { s with bal = b } in
    let reply =
      One_b
        {
          bal = b;
          vbal = s.vbal;
          value = s.value;
          proposer = s.proposer;
          decided = s.decided;
        }
    in
    (s, [ Automaton.Send (src, reply) ])
  end
  else (s, [])

(* Lines 12-19: the leader gathered a 1B; at n-f replies select a value. *)
let on_one_b s ~src ~bal reply =
  match s.slow with
  | Some slow when Ballot.equal slow.sballot bal && not slow.computed ->
      let one_bs = Pid.Map.add src reply slow.one_bs in
      if Pid.Map.cardinal one_bs >= s.n - s.f then begin
        let replies = List.map snd (Pid.Map.bindings one_bs) in
        let choice =
          let fallback = if s.initial <> None then s.initial else s.heard in
          Recovery.select ~n:s.n ~e:s.e ~f:s.f ~initial:fallback ~replies
        in
        match Recovery.value_of_choice choice with
        | Some v ->
            let slow =
              { slow with one_bs; computed = true; svalue = Some v }
            in
            ({ s with slow = Some slow }, send_to_all s (Two_a { bal; value = v }))
        | None ->
            (* Nothing to propose (object mode, nobody proposed yet). *)
            ({ s with slow = Some { slow with one_bs; computed = true } }, [])
      end
      else ({ s with slow = Some { slow with one_bs } }, [])
  | Some _ | None -> (s, [])

(* Lines 23-25: accept a slow-ballot proposal and vote for it. *)
let on_two_a s ~src ~bal ~value =
  if s.bal <= bal then begin
    let s = { s with value = Some value; bal; vbal = bal } in
    (s, [ Automaton.Send (src, Two_b { bal; value }) ])
  end
  else (s, [])

(* §C.1: on timeout, re-arm and, if Ω elects us, start the next ballot we
   own. *)
let on_new_ballot_timer s =
  let rearm = Automaton.Set_timer { id = new_ballot_timer; after = steady_timeout s } in
  if s.decided <> None then (s, [])
  else if Pid.equal (Omega.leader s.omega) s.self then begin
    let b = Ballot.next_owned ~n:s.n ~self:s.self ~above:s.bal in
    let slow =
      {
        sballot = b;
        one_bs = Pid.Map.empty;
        computed = false;
        svalue = None;
        two_bs = Pid.Set.empty;
      }
    in
    ({ s with slow = Some slow }, rearm :: send_to_all s (One_a b))
  end
  else (s, [ rearm ])

(* Structural hash for the explorer's dedup. Per the {!Dsim.Fingerprint}
   contract, sets and maps fold commutatively so the digest is
   independent of construction order. *)
let fingerprint s =
  let module Fp = Dsim.Fingerprint in
  let reply (r : Recovery.reply) =
    let fp = Fp.mix 103 (Fp.int r.sender) in
    let fp = Fp.mix fp (Fp.int r.vbal) in
    let fp = Fp.mix fp (Fp.option Fp.int r.value) in
    let fp = Fp.mix fp (Fp.option Fp.int r.proposer) in
    Fp.mix fp (Fp.option Fp.int r.decided)
  in
  let slow_fp sl =
    let fp = Fp.mix 107 (Fp.int sl.sballot) in
    let fp =
      Fp.mix fp (Fp.map (fun p r -> Fp.mix (Fp.int p) (reply r)) ~fold:Pid.Map.fold sl.one_bs)
    in
    let fp = Fp.mix fp (Fp.bool sl.computed) in
    let fp = Fp.mix fp (Fp.option Fp.int sl.svalue) in
    Fp.mix fp (Fp.set Fp.int ~fold:Pid.Set.fold sl.two_bs)
  in
  let fp = Fp.mix 109 (Fp.int s.self) in
  let fp = Fp.mix fp (Fp.int s.e) in
  let fp = Fp.mix fp (Fp.int s.f) in
  let fp = Fp.mix fp (Fp.int (match s.mode with Task -> 0 | Object -> 1)) in
  let fp = Fp.mix fp (Fp.int s.bal) in
  let fp = Fp.mix fp (Fp.int s.vbal) in
  let fp = Fp.mix fp (Fp.option Fp.int s.value) in
  let fp = Fp.mix fp (Fp.option Fp.int s.proposer) in
  let fp = Fp.mix fp (Fp.option Fp.int s.initial) in
  let fp = Fp.mix fp (Fp.option Fp.int s.heard) in
  let fp = Fp.mix fp (Fp.option Fp.int s.decided) in
  let fp = Fp.mix fp (Fp.set Fp.int ~fold:Pid.Set.fold s.fast_acks) in
  let fp = Fp.mix fp (Fp.option slow_fp s.slow) in
  Fp.mix fp (Omega.fingerprint s.omega)

let make ~mode ~n ~e ~f ~delta =
  let init ~self ~n:n' =
    assert (n = n');
    let omega, omega_actions = Omega.init ~self ~n ~delta () in
    let s =
      {
        self;
        n;
        e;
        f;
        delta;
        mode;
        bal = Ballot.fast;
        vbal = Ballot.fast;
        value = None;
        proposer = None;
        initial = None;
        heard = None;
        decided = None;
        fast_acks = Pid.Set.empty;
        slow = None;
        omega;
      }
    in
    let actions =
      Automaton.Set_timer { id = new_ballot_timer; after = initial_timeout s }
      :: Automaton.map_msg (fun m -> Omega_msg m) omega_actions
    in
    (s, actions)
  in
  let on_message s ~src msg =
    match msg with
    | Propose v -> on_propose s ~src v
    | Two_b { bal; value } -> on_two_b s ~src ~bal ~value
    | Decide v -> on_decide s v
    | One_a b -> on_one_a s ~src b
    | One_b { bal; vbal; value; proposer; decided } ->
        let reply = { Recovery.sender = src; vbal; value; proposer; decided } in
        on_one_b s ~src ~bal reply
    | Two_a { bal; value } -> on_two_a s ~src ~bal ~value
    | Omega_msg m ->
        let omega, actions = Omega.on_message s.omega ~src m in
        ({ s with omega }, Automaton.map_msg (fun m -> Omega_msg m) actions)
  in
  let on_input s v = propose s v in
  let on_timer s id =
    if id = new_ballot_timer then on_new_ballot_timer s
    else if Omega.owns_timer s.omega id then begin
      let omega, actions = Omega.on_timer s.omega id in
      ({ s with omega }, Automaton.map_msg (fun m -> Omega_msg m) actions)
    end
    else (s, [])
  in
  {
    Automaton.init;
    on_message;
    on_input;
    on_timer;
    state_copy = Fun.id;
    state_fingerprint = Some fingerprint;
  }

let package mode name describe formulation : Proto.Protocol.t =
  let module P = struct
    type nonrec state = state

    type nonrec msg = msg

    let name = name

    let pp_msg = pp_msg

    let describe = describe

    let min_n ~e ~f = Proto.Bounds.required formulation ~e ~f

    let make ~n ~e ~f ~delta = make ~mode ~n ~e ~f ~delta

    let omega = Some omega
  end in
  (module P)

let task =
  package Task "rgs-task"
    "the paper's protocol, consensus task (n >= max{2e+f, 2f+1})" Proto.Bounds.Task

let obj =
  package Object "rgs-object"
    "the paper's protocol, consensus object (n >= max{2e+f-1, 2f+1})" Proto.Bounds.Object
