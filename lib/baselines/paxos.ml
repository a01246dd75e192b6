module Pid = Dsim.Pid
module Automaton = Dsim.Automaton
module Value = Proto.Value
module Ballot = Proto.Ballot
module Omega = Proto.Omega
module Util = Proto.Util

type msg =
  | Submit of Value.t  (* proposer -> leader *)
  | One_a of Ballot.t
  | One_b of { bal : Ballot.t; vbal : Ballot.t; value : Value.t option }
  | Two_a of { bal : Ballot.t; value : Value.t }
  | Two_b of { bal : Ballot.t; value : Value.t }
  | Decide of Value.t
  | Omega_msg of Omega.msg

let pp_msg fmt = function
  | Submit v -> Format.fprintf fmt "Submit(%a)" Value.pp v
  | One_a b -> Format.fprintf fmt "1A(%a)" Ballot.pp b
  | One_b { bal; vbal; value } ->
      Format.fprintf fmt "1B(%a,vbal=%a,val=%a)" Ballot.pp bal Ballot.pp vbal
        (Util.pp_opt Value.pp) value
  | Two_a { bal; value } -> Format.fprintf fmt "2A(%a,%a)" Ballot.pp bal Value.pp value
  | Two_b { bal; value } -> Format.fprintf fmt "2B(%a,%a)" Ballot.pp bal Value.pp value
  | Decide v -> Format.fprintf fmt "Decide(%a)" Value.pp v
  | Omega_msg m -> Omega.pp_msg fmt m

let omega =
  { Omega.wrap = (fun m -> Omega_msg m); unwrap = (function Omega_msg m -> Some m | _ -> None) }

(* Leader-side bookkeeping for the ballot this process runs. Ballot 0 is
   owned by p0 and skips phase 1. *)
type leading = {
  lballot : Ballot.t;
  one_bs : (Ballot.t * Value.t option) Pid.Map.t;
  lvalue : Value.t option;  (* value proposed in our 2A *)
  two_bs : Pid.Set.t;
}

type state = {
  self : Pid.t;
  n : int;
  f : int;
  delta : int;
  bal : Ballot.t;
  vbal : Ballot.t;
  value : Value.t option;
  initial : Value.t option;
  submitted : Value.t option;  (* earliest Submit we saw, as leader *)
  decided : Value.t option;
  leading : leading option;
  grace_used : bool;
      (* a ballot in flight gets one timer period to finish before the
         leader abandons it for a fresh one *)
  omega : Omega.state;
}

let decided_value s = s.decided

let ballot_timer = 1

(* Ballot 0 belongs to p0; positive ballots follow the usual round-robin. *)
let ballot_owner ~n b = if b = 0 then 0 else Ballot.leader_of ~n b

let send_two_a s lballot v =
  Util.send_to_all ~n:s.n (Two_a { bal = lballot; value = v })

(* As the owner of [lballot] with phase 1 complete, propose [v]. *)
let lead_phase2 s lballot v =
  let leading =
    { lballot; one_bs = Pid.Map.empty; lvalue = Some v; two_bs = Pid.Set.empty }
  in
  ({ s with leading = Some leading }, send_two_a s lballot v)

let decide s v =
  match s.decided with
  | Some _ -> (s, [])
  | None ->
      let s = { s with value = Some v; decided = Some v } in
      (s, Automaton.Output v :: Util.send_others ~n:s.n ~self:s.self (Decide v))

(* The ballot-0 leader proposes the first value it learns of; everyone else
   forwards to the current leader estimate. *)
let try_lead_fast s =
  if
    Pid.equal s.self (ballot_owner ~n:s.n 0)
    && s.bal = 0 && s.leading = None && s.decided = None
  then begin
    match (s.initial, s.submitted) with
    | Some v, _ | None, Some v -> lead_phase2 s 0 v
    | None, None -> (s, [])
  end
  else (s, [])

let propose s v =
  if s.initial <> None || s.decided <> None then (s, [])
  else begin
    let s = { s with initial = Some v } in
    let leader = Omega.leader s.omega in
    if Pid.equal leader s.self then begin
      let s, actions = try_lead_fast s in
      (* A non-p0 process that believes itself leader waits for its timer to
         start a ballot; nothing to do here. *)
      (s, actions)
    end
    else (s, [ Automaton.Send (leader, Submit v) ])
  end

let on_submit s v =
  let s = if s.submitted = None then { s with submitted = Some v } else s in
  try_lead_fast s

let on_one_a s ~src b =
  if b > s.bal then
    ( { s with bal = b },
      [ Automaton.Send (src, One_b { bal = b; vbal = s.vbal; value = s.value }) ] )
  else (s, [])

let on_one_b s ~src ~bal ~vbal ~value =
  match s.leading with
  | Some l when Ballot.equal l.lballot bal && l.lvalue = None ->
      let one_bs = Pid.Map.add src (vbal, value) l.one_bs in
      if Pid.Map.cardinal one_bs >= s.n - s.f then begin
        (* Classic rule: adopt the vote of the highest ballot, else be free. *)
        let best =
          Pid.Map.fold
            (fun _ (vb, v) acc ->
              match (v, acc) with
              | Some v, None -> Some (vb, v)
              | Some v, Some (vb', _) when vb > vb' -> Some (vb, v)
              | _ -> acc)
            one_bs None
        in
        let free_choice =
          match (s.initial, s.submitted) with
          | Some v, _ | None, Some v -> Some v
          | None, None -> None
        in
        let choice = match best with Some (_, v) -> Some v | None -> free_choice in
        match choice with
        | Some v ->
            let l = { l with one_bs; lvalue = Some v } in
            ({ s with leading = Some l }, send_two_a s bal v)
        | None -> ({ s with leading = Some { l with one_bs } }, [])
      end
      else ({ s with leading = Some { l with one_bs } }, [])
  | Some _ | None -> (s, [])

let on_two_a s ~src ~bal ~value =
  if bal >= s.bal then
    ( { s with bal; vbal = bal; value = Some value },
      [ Automaton.Send (src, Two_b { bal; value }) ] )
  else (s, [])

let on_two_b s ~src ~bal ~value =
  match s.leading with
  | Some l when Ballot.equal l.lballot bal && l.lvalue = Some value ->
      let l = { l with two_bs = Pid.Set.add src l.two_bs } in
      let s = { s with leading = Some l } in
      if Pid.Set.cardinal l.two_bs >= s.n - s.f then decide s value else (s, [])
  | Some _ | None -> (s, [])

let on_ballot_timer s =
  let rearm = Automaton.Set_timer { id = ballot_timer; after = 5 * s.delta } in
  if s.decided <> None then (s, [])
  else if Pid.equal (Omega.leader s.omega) s.self then begin
    match s.leading with
    | Some { lvalue = Some _; _ } when not s.grace_used ->
        (* Phase 2 in flight: let it finish before abandoning the ballot. *)
        ({ s with grace_used = true }, [ rearm ])
    | _ ->
        if Pid.equal s.self (ballot_owner ~n:s.n 0) && s.bal = 0 && s.leading = None then begin
          (* We are the initial leader and still idle: maybe we just have
             no value yet; retry the fast start. *)
          let s, actions = try_lead_fast s in
          ({ s with grace_used = false }, rearm :: actions)
        end
        else begin
          let b = Ballot.next_owned ~n:s.n ~self:s.self ~above:s.bal in
          let leading =
            { lballot = b; one_bs = Pid.Map.empty; lvalue = None; two_bs = Pid.Set.empty }
          in
          ( { s with leading = Some leading; grace_used = false },
            rearm :: Util.send_to_all ~n:s.n (One_a b) )
        end
  end
  else begin
    (* Re-forward our proposal: the leader may have changed or crashed. *)
    let resubmit =
      match (s.initial, s.decided) with
      | Some v, None -> [ Automaton.Send (Omega.leader s.omega, Submit v) ]
      | _ -> []
    in
    (s, rearm :: resubmit)
  end

(* Structural hash for the explorer's dedup (see {!Dsim.Fingerprint}):
   unordered containers folded commutatively. *)
let fingerprint s =
  let module Fp = Dsim.Fingerprint in
  let leading_fp l =
    let fp = Fp.mix 113 (Fp.int l.lballot) in
    let fp =
      Fp.mix fp
        (Fp.map
           (fun p (vbal, v) -> Fp.mix (Fp.mix (Fp.int p) (Fp.int vbal)) (Fp.option Fp.int v))
           ~fold:Pid.Map.fold l.one_bs)
    in
    let fp = Fp.mix fp (Fp.option Fp.int l.lvalue) in
    Fp.mix fp (Fp.set Fp.int ~fold:Pid.Set.fold l.two_bs)
  in
  let fp = Fp.mix 127 (Fp.int s.self) in
  let fp = Fp.mix fp (Fp.int s.f) in
  let fp = Fp.mix fp (Fp.int s.bal) in
  let fp = Fp.mix fp (Fp.int s.vbal) in
  let fp = Fp.mix fp (Fp.option Fp.int s.value) in
  let fp = Fp.mix fp (Fp.option Fp.int s.initial) in
  let fp = Fp.mix fp (Fp.option Fp.int s.submitted) in
  let fp = Fp.mix fp (Fp.option Fp.int s.decided) in
  let fp = Fp.mix fp (Fp.option leading_fp s.leading) in
  let fp = Fp.mix fp (Fp.bool s.grace_used) in
  Fp.mix fp (Omega.fingerprint s.omega)

let make ~n ~f ~delta =
  let init ~self ~n:n' =
    assert (n = n');
    let omega, omega_actions = Omega.init ~self ~n ~delta () in
    let s =
      {
        self;
        n;
        f;
        delta;
        bal = 0;
        vbal = 0;
        value = None;
        initial = None;
        submitted = None;
        decided = None;
        leading = None;
        grace_used = false;
        omega;
      }
    in
    let actions =
      Automaton.Set_timer { id = ballot_timer; after = 2 * delta }
      :: Automaton.map_msg (fun m -> Omega_msg m) omega_actions
    in
    (s, actions)
  in
  let on_message s ~src msg =
    match msg with
    | Submit v -> on_submit s v
    | One_a b -> on_one_a s ~src b
    | One_b { bal; vbal; value } -> on_one_b s ~src ~bal ~vbal ~value
    | Two_a { bal; value } -> on_two_a s ~src ~bal ~value
    | Two_b { bal; value } -> on_two_b s ~src ~bal ~value
    | Decide v -> decide s v
    | Omega_msg m ->
        let omega, actions = Omega.on_message s.omega ~src m in
        ({ s with omega }, Automaton.map_msg (fun m -> Omega_msg m) actions)
  in
  let on_input s v = propose s v in
  let on_timer s id =
    if id = ballot_timer then on_ballot_timer s
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

let protocol : Proto.Protocol.t =
  (module struct
    type nonrec state = state

    type nonrec msg = msg

    let name = "paxos"

    let pp_msg = pp_msg

    let describe = "leader-driven single-decree Paxos (n >= 2f+1, not e-two-step)"

    let min_n ~e:_ ~f = (2 * f) + 1

    let make ~n ~e:_ ~f ~delta = make ~n ~f ~delta

    let omega = Some omega
  end)
