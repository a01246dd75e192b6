module Pid = Dsim.Pid
module Automaton = Dsim.Automaton
module Value = Proto.Value
module Ballot = Proto.Ballot
module Votes = Proto.Votes
module Omega = Proto.Omega
module Util = Proto.Util

type msg =
  | Propose of Value.t
  | Vote of { bal : Ballot.t; value : Value.t }  (* fast-ballot 2B, sent to all *)
  | One_a of Ballot.t
  | One_b of { bal : Ballot.t; vbal : Ballot.t; value : Value.t option }
  | Two_a of { bal : Ballot.t; value : Value.t }
  | Two_b of { bal : Ballot.t; value : Value.t }
  | Decide of Value.t
  | Omega_msg of Omega.msg

let pp_msg fmt = function
  | Propose v -> Format.fprintf fmt "Propose(%a)" Value.pp v
  | Vote { bal; value } -> Format.fprintf fmt "Vote(%a,%a)" Ballot.pp bal Value.pp value
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

type leading = {
  lballot : Ballot.t;
  one_bs : (Ballot.t * Value.t option) Pid.Map.t;
  lvalue : Value.t option;
  two_bs : Pid.Set.t;
}

type state = {
  self : Pid.t;
  n : int;
  e : int;
  f : int;
  delta : int;
  bal : Ballot.t;
  vbal : Ballot.t;
  value : Value.t option;
  initial : Value.t option;
  decided : Value.t option;
  fast_votes : Votes.t;  (* ballot-0 votes observed, as a learner *)
  leading : leading option;
  omega : Omega.state;
}

let decided_value s = s.decided

let ballot_timer = 1

let decide s v =
  match s.decided with
  | Some _ -> (s, [])
  | None ->
      let s = { s with decided = Some v } in
      (s, Automaton.Output v :: Util.send_others ~n:s.n ~self:s.self (Decide v))

(* Learner role: check whether some value has a fast quorum of votes. *)
let try_fast_learn s =
  if s.decided <> None then (s, [])
  else begin
    match Votes.max_value_with_count_at_least (s.n - s.e) s.fast_votes with
    | Some v -> decide s v
    | None -> (s, [])
  end

(* Acceptor role: vote at ballot 0 for the first proposal received, and
   announce the vote to every learner. *)
let fast_vote s v =
  if Ballot.is_fast s.bal && s.value = None then begin
    let s = { s with value = Some v; vbal = 0 } in
    let s = { s with fast_votes = Votes.add v s.self s.fast_votes } in
    let announce = Util.send_others ~n:s.n ~self:s.self (Vote { bal = 0; value = v }) in
    let s, decide_actions = try_fast_learn s in
    (s, announce @ decide_actions)
  end
  else (s, [])

(* The proposal is sent to every acceptor including ourselves: an acceptor
   votes for the first proposal {e delivered} to it, so the scheduler keeps
   the freedom to order our own proposal among the others — Definition 4
   quantifies existentially over exactly this choice. *)
let propose s v =
  if s.initial <> None || s.decided <> None then (s, [])
  else begin
    let s = { s with initial = Some v } in
    (s, Util.send_to_all ~n:s.n (Propose v))
  end

let on_vote s ~src ~bal ~value =
  if Ballot.is_fast bal then begin
    let s = { s with fast_votes = Votes.add value src s.fast_votes } in
    try_fast_learn s
  end
  else (s, [])

let on_one_a s ~src b =
  if b > s.bal then
    ( { s with bal = b },
      [ Automaton.Send (src, One_b { bal = b; vbal = s.vbal; value = s.value }) ] )
  else (s, [])

(* Coordinated recovery: with [bmax = 0], any value holding >= n-e-f
   ballot-0 votes among the replies may have been fast-decided and must be
   proposed; it is unique when n >= 2e+f+1. *)
let pick_value s one_bs =
  let replies = List.map snd (Pid.Map.bindings one_bs) in
  let bmax = List.fold_left (fun acc (vb, _) -> max acc vb) 0 replies in
  if bmax > 0 then begin
    match List.find_opt (fun (vb, v) -> vb = bmax && v <> None) replies with
    | Some (_, Some v) -> Some v
    | _ -> None
  end
  else begin
    let votes =
      Pid.Map.fold
        (fun q (vb, v) acc ->
          match v with Some v when vb = 0 -> Votes.add v q acc | _ -> acc)
        one_bs Votes.empty
    in
    match Votes.max_value_with_count_at_least (s.n - s.e - s.f) votes with
    | Some v -> Some v
    | None -> (
        match s.initial with
        | Some v -> Some v
        | None -> Votes.max_value_with_count_at_least 1 votes)
  end

let on_one_b s ~src ~bal ~vbal ~value =
  match s.leading with
  | Some l when Ballot.equal l.lballot bal && l.lvalue = None ->
      let one_bs = Pid.Map.add src (vbal, value) l.one_bs in
      if Pid.Map.cardinal one_bs >= s.n - s.f then begin
        match pick_value s one_bs with
        | Some v ->
            let l = { l with one_bs; lvalue = Some v } in
            ( { s with leading = Some l },
              Util.send_to_all ~n:s.n (Two_a { bal; value = v }) )
        | None -> ({ s with leading = Some { l with one_bs } }, [])
      end
      else ({ s with leading = Some { l with one_bs } }, [])
  | Some _ | None -> (s, [])

let on_two_a s ~src ~bal ~value =
  if bal >= s.bal && bal > 0 then
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
    let b = Ballot.next_owned ~n:s.n ~self:s.self ~above:s.bal in
    let leading =
      { lballot = b; one_bs = Pid.Map.empty; lvalue = None; two_bs = Pid.Set.empty }
    in
    ({ s with leading = Some leading }, rearm :: Util.send_to_all ~n:s.n (One_a b))
  end
  else (s, [ rearm ])

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
  let fp = Fp.mix 131 (Fp.int s.self) in
  let fp = Fp.mix fp (Fp.int s.e) in
  let fp = Fp.mix fp (Fp.int s.f) in
  let fp = Fp.mix fp (Fp.int s.bal) in
  let fp = Fp.mix fp (Fp.int s.vbal) in
  let fp = Fp.mix fp (Fp.option Fp.int s.value) in
  let fp = Fp.mix fp (Fp.option Fp.int s.initial) in
  let fp = Fp.mix fp (Fp.option Fp.int s.decided) in
  let fp = Fp.mix fp (Votes.fingerprint s.fast_votes) in
  let fp = Fp.mix fp (Fp.option leading_fp s.leading) in
  Fp.mix fp (Omega.fingerprint s.omega)

let make ~n ~e ~f ~delta =
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
        bal = 0;
        vbal = 0;
        value = None;
        initial = None;
        decided = None;
        fast_votes = Votes.empty;
        leading = None;
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
    | Propose v -> fast_vote s v
    | Vote { bal; value } -> on_vote s ~src ~bal ~value
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

    let name = "fast-paxos"

    let pp_msg = pp_msg

    let describe = "Fast Paxos (Lamport), n >= max{2e+f+1, 2f+1}"

    let min_n ~e ~f = Proto.Bounds.required Proto.Bounds.Lamport_fast ~e ~f

    let make ~n ~e ~f ~delta = make ~n ~e ~f ~delta

    let omega = Some omega
  end)
