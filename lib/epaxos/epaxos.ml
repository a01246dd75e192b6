module Pid = Dsim.Pid
module Automaton = Dsim.Automaton
module Util = Proto.Util

module Cmd = struct
  type t = { origin : Pid.t; key : int; payload : int }

  let interferes a b = a.key = b.key

  let pp fmt c = Format.fprintf fmt "cmd(%a,k%d,%d)" Pid.pp c.origin c.key c.payload
end

let epaxos_e ~f = Proto.Bounds.epaxos_e ~f

let fast_quorum ~n ~f = n - epaxos_e ~f

type attrs = { seq : int; deps : Pid.Set.t }

let attrs_equal a b = a.seq = b.seq && Pid.Set.equal a.deps b.deps

let pp_attrs fmt a =
  Format.fprintf fmt "seq=%d deps={%a}" a.seq
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Pid.pp)
    (Pid.Set.elements a.deps)

type status = S_preaccepted | S_accepted | S_committed | S_executed

type inst = {
  cmd : Cmd.t option;  (* None encodes the no-op a recovery may commit *)
  attrs : attrs;
  status : status;
  ballot : int;  (* highest ballot joined *)
  vballot : int;  (* ballot at which [attrs] were (pre)accepted *)
  pristine : bool;
      (* preaccepted with exactly the command leader's original attributes.
         A fast commit requires n-e identical (hence pristine) preaccepts,
         so every recovery quorum contains a pristine witness of the only
         attributes that can have been fast-committed. *)
}

type msg =
  | Pre_accept of { inst : Pid.t; cmd : Cmd.t; attrs : attrs; bal : int }
  | Pre_accept_ok of { inst : Pid.t; attrs : attrs; bal : int }
  | Accept of { inst : Pid.t; cmd : Cmd.t option; attrs : attrs; bal : int }
  | Accept_ok of { inst : Pid.t; bal : int }
  | Commit of { inst : Pid.t; cmd : Cmd.t option; attrs : attrs }
  | Prepare of { inst : Pid.t; bal : int }
  | Prepare_ok of {
      inst : Pid.t;
      bal : int;
      status : status;
      cmd : Cmd.t option;
      attrs : attrs;
      vballot : int;
      pristine : bool;
    }
  | Nack of { inst : Pid.t; bal : int }

let pp_msg fmt = function
  | Pre_accept { inst; cmd; attrs; bal } ->
      Format.fprintf fmt "PreAccept(i%d,%a,%a,b%d)" inst Cmd.pp cmd pp_attrs attrs bal
  | Pre_accept_ok { inst; attrs; bal } ->
      Format.fprintf fmt "PreAcceptOk(i%d,%a,b%d)" inst pp_attrs attrs bal
  | Accept { inst; attrs; bal; _ } -> Format.fprintf fmt "Accept(i%d,%a,b%d)" inst pp_attrs attrs bal
  | Accept_ok { inst; bal } -> Format.fprintf fmt "AcceptOk(i%d,b%d)" inst bal
  | Commit { inst; attrs; _ } -> Format.fprintf fmt "Commit(i%d,%a)" inst pp_attrs attrs
  | Prepare { inst; bal } -> Format.fprintf fmt "Prepare(i%d,b%d)" inst bal
  | Prepare_ok { inst; bal; _ } -> Format.fprintf fmt "PrepareOk(i%d,b%d)" inst bal
  | Nack { inst; bal } -> Format.fprintf fmt "Nack(i%d,b%d)" inst bal

type output = Committed of Cmd.t | Executed of Cmd.t

let pp_output fmt = function
  | Committed c -> Format.fprintf fmt "committed %a" Cmd.pp c
  | Executed c -> Format.fprintf fmt "executed %a" Cmd.pp c

(* Command-leader progress on the own instance. *)
type phase =
  | Idle
  | Collecting of { attrs : attrs; oks : attrs Pid.Map.t }
  | Accepting of { attrs : attrs; cmd : Cmd.t option; bal : int; oks : Pid.Set.t }
  | Settled

(* An ongoing explicit-prepare recovery we lead for a stalled instance. *)
type recovery = {
  rbal : int;
  oks : (status * Cmd.t option * attrs * int * bool) Pid.Map.t;
  acted : bool;
}

type state = {
  self : Pid.t;
  n : int;
  f : int;
  delta : int;
  instances : inst Pid.Map.t;
  phase : phase;
  recoveries : recovery Pid.Map.t;
  executed_rev : Cmd.t list;
}

let executed s = List.rev s.executed_rev

let committed_count s =
  Pid.Map.cardinal
    (Pid.Map.filter (fun _ i -> i.status = S_committed || i.status = S_executed) s.instances)

let progress_timer = 1

let find_inst s j = Pid.Map.find_opt j s.instances

let set_inst s j i = { s with instances = Pid.Map.add j i s.instances }

(* Interference bookkeeping: the attributes a replica assigns to [cmd] in
   instance [inst], given everything it has seen. *)
let local_attrs s ~inst ~cmd ~base =
  Pid.Map.fold
    (fun j i acc ->
      match i.cmd with
      | Some c when (not (Pid.equal j inst)) && Cmd.interferes c cmd ->
          { seq = max acc.seq (i.attrs.seq + 1); deps = Pid.Set.add j acc.deps }
      | _ -> acc)
    s.instances base

(* -- execution ----------------------------------------------------------

   Execute committed instances in dependency order: repeatedly look for an
   unexecuted committed instance whose (transitive) dependencies are all
   committed, take its strongly connected component in the committed
   dependency graph, and execute it in (seq, instance) order. With one
   instance per replica the graphs are tiny, so a simple DFS suffices. *)

let try_execute s =
  (* [ready_component] must consult the CURRENT state on every loop
     iteration — an instance executed in a previous iteration would
     otherwise be re-collected through a dependency edge and executed
     twice. *)
  let ready_component s start =
    (* Collect the component reachable from [start] through dependency
       edges restricted to unexecuted instances; fail if any dependency is
       not committed yet. *)
    let rec visit j (seen, acc) =
      if Pid.Set.mem j seen then Some (seen, acc)
      else begin
        match find_inst s j with
        | Some { status = S_executed; _ } -> Some (seen, acc)
        | Some ({ status = S_committed; _ } as i) ->
            let seen = Pid.Set.add j seen in
            Pid.Set.fold
              (fun dep acc_opt -> Option.bind acc_opt (visit dep))
              i.attrs.deps
              (Some (seen, (j, i) :: acc))
        | Some { status = S_preaccepted | S_accepted; _ } | None -> None
      end
    in
    visit start (Pid.Set.empty, [])
  in
  let rec loop s outputs =
    let candidate =
      Pid.Map.fold
        (fun j i acc ->
          match acc with
          | Some _ -> acc
          | None -> if i.status = S_committed then ready_component s j else None)
        s.instances None
    in
    match candidate with
    | None | Some (_, []) -> (s, List.rev outputs)
    | Some (_, component) ->
        let ordered =
          List.sort
            (fun (j1, i1) (j2, i2) ->
              match compare i1.attrs.seq i2.attrs.seq with
              | 0 -> Pid.compare j1 j2
              | c -> c)
            component
        in
        let s, outputs =
          List.fold_left
            (fun (s, outputs) (j, i) ->
              let s = set_inst s j { i with status = S_executed } in
              let outputs =
                match i.cmd with
                | Some c -> Automaton.Output (Executed c) :: outputs
                | None -> outputs
              in
              let s =
                match i.cmd with
                | Some c -> { s with executed_rev = c :: s.executed_rev }
                | None -> s
              in
              (s, outputs))
            (s, outputs) ordered
        in
        loop s outputs
  in
  loop s []

(* -- commit -------------------------------------------------------------- *)

let commit s ~inst ~cmd ~attrs =
  match find_inst s inst with
  | Some { status = S_committed | S_executed; _ } -> (s, [])
  | existing ->
      let ballot = match existing with Some i -> i.ballot | None -> 0 in
      let s =
        set_inst s inst
          { cmd; attrs; status = S_committed; ballot; vballot = ballot; pristine = false }
      in
      let commit_outputs =
        match cmd with
        | Some c when Pid.equal c.Cmd.origin s.self -> [ Automaton.Output (Committed c) ]
        | _ -> []
      in
      let announce = Util.send_others ~n:s.n ~self:s.self (Commit { inst; cmd; attrs }) in
      let s, exec_outputs = try_execute s in
      (s, commit_outputs @ announce @ exec_outputs)

(* The committer broadcasts; receivers only record and execute. *)
let on_commit s ~inst ~cmd ~attrs =
  match find_inst s inst with
  | Some { status = S_committed | S_executed; _ } -> (s, [])
  | existing ->
      let ballot = match existing with Some i -> i.ballot | None -> 0 in
      let s =
        set_inst s inst
          { cmd; attrs; status = S_committed; ballot; vballot = ballot; pristine = false }
      in
      let s, exec_outputs = try_execute s in
      let outputs =
        match cmd with
        | Some c when Pid.equal c.Cmd.origin s.self -> Automaton.Output (Committed c) :: exec_outputs
        | _ -> exec_outputs
      in
      (s, outputs)

(* -- client command at its leader ---------------------------------------- *)

let on_client s cmd =
  match (s.phase, find_inst s s.self) with
  | Idle, None ->
      let attrs = local_attrs s ~inst:s.self ~cmd ~base:{ seq = 1; deps = Pid.Set.empty } in
      let s =
        set_inst s s.self
          { cmd = Some cmd; attrs; status = S_preaccepted; ballot = 0; vballot = 0; pristine = true }
      in
      let s = { s with phase = Collecting { attrs; oks = Pid.Map.empty } } in
      ( s,
        Util.send_others ~n:s.n ~self:s.self
          (Pre_accept { inst = s.self; cmd; attrs; bal = 0 }) )
  | _ -> (s, [])

let on_pre_accept s ~src ~inst ~cmd ~attrs ~bal =
  match find_inst s inst with
  | Some { status = S_committed | S_executed; _ } -> (s, [])
  | Some i when bal < i.ballot -> (s, [ Automaton.Send (src, Nack { inst; bal }) ])
  | _ ->
      let merged = local_attrs s ~inst ~cmd ~base:attrs in
      let s =
        set_inst s inst
          {
            cmd = Some cmd;
            attrs = merged;
            status = S_preaccepted;
            ballot = bal;
            vballot = bal;
            pristine = attrs_equal merged attrs;
          }
      in
      (s, [ Automaton.Send (src, Pre_accept_ok { inst; attrs = merged; bal }) ])

let start_accept s ~cmd ~attrs ~bal =
  let s =
    set_inst s s.self
      { cmd; attrs; status = S_accepted; ballot = bal; vballot = bal; pristine = false }
  in
  let s = { s with phase = Accepting { attrs; cmd; bal; oks = Pid.Set.singleton s.self } } in
  (s, Util.send_others ~n:s.n ~self:s.self (Accept { inst = s.self; cmd; attrs; bal }))

let on_pre_accept_ok s ~src ~inst ~attrs ~bal =
  if not (Pid.equal inst s.self) then (s, [])
  else begin
    match (s.phase, find_inst s s.self) with
    | Collecting { attrs = mine; oks }, Some own when own.ballot = bal ->
        let oks = Pid.Map.add src attrs oks in
        let s = { s with phase = Collecting { attrs = mine; oks } } in
        let matching =
          Pid.Map.cardinal (Pid.Map.filter (fun _ a -> attrs_equal a mine) oks)
        in
        let e = epaxos_e ~f:s.f in
        if matching + 1 >= s.n - e then begin
          (* fast path: the leader's attributes were confirmed unchanged *)
          let s = { s with phase = Settled } in
          commit s ~inst:s.self ~cmd:own.cmd ~attrs:mine
        end
        else begin
          let received = Pid.Map.cardinal oks in
          let outstanding = s.n - 1 - received in
          if matching + 1 + outstanding < s.n - e && received + 1 >= s.n - s.f then begin
            (* fast path unreachable: merge all replies and go slow *)
            let merged =
              Pid.Map.fold
                (fun _ a acc ->
                  { seq = max acc.seq a.seq; deps = Pid.Set.union acc.deps a.deps })
                oks mine
            in
            start_accept s ~cmd:own.cmd ~attrs:merged ~bal
          end
          else (s, [])
        end
    | _ -> (s, [])
  end

let on_accept s ~src ~inst ~cmd ~attrs ~bal =
  match find_inst s inst with
  | Some { status = S_committed | S_executed; _ } -> (s, [])
  | Some i when bal < i.ballot -> (s, [ Automaton.Send (src, Nack { inst; bal }) ])
  | _ ->
      let s =
        set_inst s inst
          { cmd; attrs; status = S_accepted; ballot = bal; vballot = bal; pristine = false }
      in
      (s, [ Automaton.Send (src, Accept_ok { inst; bal }) ])

let on_accept_ok s ~src ~inst ~bal =
  if not (Pid.equal inst s.self) then (s, [])
  else begin
    match s.phase with
    | Accepting { attrs; cmd; bal = b; oks } when b = bal ->
        let oks = Pid.Set.add src oks in
        let s = { s with phase = Accepting { attrs; cmd; bal; oks } } in
        if Pid.Set.cardinal oks >= s.n - s.f then begin
          let s = { s with phase = Settled } in
          commit s ~inst:s.self ~cmd ~attrs
        end
        else (s, [])
    | _ -> (s, [])
  end

(* -- recovery: explicit prepare ------------------------------------------ *)

let on_prepare s ~src ~inst ~bal =
  match find_inst s inst with
  | Some i when bal > i.ballot ->
      let s = set_inst s inst { i with ballot = bal } in
      ( s,
        [
          Automaton.Send
            ( src,
              Prepare_ok
                {
                  inst;
                  bal;
                  status = i.status;
                  cmd = i.cmd;
                  attrs = i.attrs;
                  vballot = i.vballot;
                  pristine = i.pristine;
                } );
        ] )
  | Some _ -> (s, [ Automaton.Send (src, Nack { inst; bal }) ])
  | None ->
      (* We know nothing of this instance: join the ballot with an empty
         report. *)
      let s =
        set_inst s inst
          {
            cmd = None;
            attrs = { seq = 0; deps = Pid.Set.empty };
            status = S_preaccepted;
            ballot = bal;
            vballot = 0;
            pristine = false;
          }
      in
      ( s,
        [
          Automaton.Send
            ( src,
              Prepare_ok
                {
                  inst;
                  bal;
                  status = S_preaccepted;
                  cmd = None;
                  attrs = { seq = 0; deps = Pid.Set.empty };
                  vballot = 0;
                  pristine = false;
                } );
        ] )

(* Recovery value selection, per the EPaxos paper's explicit prepare:
   committed > accepted (highest vballot) > at least floor((f+1)/2)
   identical preaccepts not from the instance owner > any preaccept >
   no-op. Each selected continuation runs through a full Accept round at
   the recovery ballot, except committed which re-broadcasts Commit. *)
let rec conclude_recovery s ~inst ~(rec_ : recovery) =
  match find_inst s inst with
  | Some { status = S_committed | S_executed; _ } ->
      (* A Commit raced ahead of our prepare quorum: nothing to recover. *)
      ({ s with recoveries = Pid.Map.remove inst s.recoveries }, [])
  | Some _ | None -> conclude_recovery_needed s ~inst ~rec_

and conclude_recovery_needed s ~inst ~(rec_ : recovery) =
  let replies = Pid.Map.bindings rec_.oks in
  let committed =
    List.find_opt (fun (_, (st, _, _, _, _)) -> st = S_committed || st = S_executed) replies
  in
  let run_accept s cmd attrs =
    let bal = rec_.rbal in
    if Pid.equal inst s.self then start_accept s ~cmd ~attrs ~bal
    else begin
      (* We recover someone else's instance: run the Accept round from
         here, counting Accept_oks in the recovery entry. *)
      let s =
        set_inst s inst
          { cmd; attrs; status = S_accepted; ballot = bal; vballot = bal; pristine = false }
      in
      ( { s with recoveries = Pid.Map.add inst { rec_ with acted = true } s.recoveries },
        Util.send_others ~n:s.n ~self:s.self (Accept { inst; cmd; attrs; bal }) )
    end
  in
  match committed with
  | Some (_, (_, cmd, attrs, _, _)) ->
      let s = { s with recoveries = Pid.Map.remove inst s.recoveries } in
      commit s ~inst ~cmd ~attrs
  | None -> begin
      let accepted =
        List.filter (fun (_, (st, _, _, _, _)) -> st = S_accepted) replies
        |> List.sort (fun (_, (_, _, _, v1, _)) (_, (_, _, _, v2, _)) -> compare v2 v1)
      in
      match accepted with
      | (_, (_, cmd, attrs, _, _)) :: _ -> run_accept s cmd attrs
      | [] -> begin
          let preaccepts =
            List.filter_map
              (fun (p, (st, cmd, attrs, _, pristine)) ->
                match (st, cmd) with
                | S_preaccepted, Some c when not (Pid.equal p inst) ->
                    Some (c, attrs, pristine)
                | _ -> None)
              replies
          in
          (* A fast commit needed n-e pristine preaccepts, which intersect
             our n-f quorum; all pristine replies carry the leader's
             original (identical) attributes, so they pin down the only
             possibly-committed attributes. Without a pristine witness no
             fast commit happened and any merged choice is safe; merge
             everything for determinism. *)
          match List.find_opt (fun (_, _, pristine) -> pristine) preaccepts with
          | Some (c, a, _) -> run_accept s (Some c) a
          | None -> begin
              match preaccepts with
              | (c, _, _) :: _ ->
                  let merged =
                    List.fold_left
                      (fun acc (_, a, _) ->
                        { seq = max acc.seq a.seq; deps = Pid.Set.union acc.deps a.deps })
                      { seq = 0; deps = Pid.Set.empty } preaccepts
                  in
                  run_accept s (Some c) merged
              | [] ->
                  (* nobody knows the command: commit a no-op so execution
                     can proceed past this instance *)
                  let s = { s with recoveries = Pid.Map.remove inst s.recoveries } in
                  commit s ~inst ~cmd:None ~attrs:{ seq = 0; deps = Pid.Set.empty }
            end
        end
    end

let on_prepare_ok s ~src ~inst ~bal ~status ~cmd ~attrs ~vballot ~pristine =
  match Pid.Map.find_opt inst s.recoveries with
  | Some rec_ when rec_.rbal = bal && not rec_.acted ->
      let oks = Pid.Map.add src (status, cmd, attrs, vballot, pristine) rec_.oks in
      let rec_ = { rec_ with oks } in
      let s = { s with recoveries = Pid.Map.add inst rec_ s.recoveries } in
      if Pid.Map.cardinal oks >= s.n - s.f then
        conclude_recovery s ~inst ~rec_:{ rec_ with acted = true }
      else (s, [])
  | _ -> (s, [])

(* -- progress timer ------------------------------------------------------ *)

(* Any instance we know about (it blocks execution, or it is our own) that
   is still uncommitted after a timeout triggers an explicit prepare led by
   us with a ballot unique to this replica. *)
let on_progress_timer s =
  (* Long, per-replica staggered periods: recovery is a last resort, and
     dueling or premature recoveries while the command leader is merely
     slow re-open the known explicit-prepare subtleties (see the .mli). *)
  let rearm =
    Automaton.Set_timer { id = progress_timer; after = (8 + (3 * s.self)) * s.delta }
  in
  let stalled =
    Pid.Map.fold
      (fun j i acc ->
        match i.status with
        | S_preaccepted | S_accepted ->
            if Pid.Map.mem j s.recoveries then acc else (j, i) :: acc
        | S_committed | S_executed -> acc)
      s.instances []
  in
  let s, actions =
    List.fold_left
      (fun (s, actions) (j, (i : inst)) ->
        if Pid.equal j s.self then begin
          (* our own instance: if the collecting phase stalled (crashed
             acceptors), force the slow path with what we have *)
          match s.phase with
          | Collecting { attrs = mine; oks } when Pid.Map.cardinal oks + 1 >= s.n - s.f ->
              let merged =
                Pid.Map.fold
                  (fun _ a acc ->
                    { seq = max acc.seq a.seq; deps = Pid.Set.union acc.deps a.deps })
                  oks mine
              in
              let s, acts = start_accept s ~cmd:i.cmd ~attrs:merged ~bal:i.ballot in
              (s, acts @ actions)
          | _ -> (s, actions)
        end
        else begin
          let bal = ((i.ballot / s.n) + 1) * s.n + s.self in
          let rec_ = { rbal = bal; oks = Pid.Map.empty; acted = false } in
          let s = { s with recoveries = Pid.Map.add j rec_ s.recoveries } in
          (s, Util.send_to_all ~n:s.n (Prepare { inst = j; bal }) @ actions)
        end)
      (s, []) stalled
  in
  (s, rearm :: actions)

(* Structural hash for the explorer's dedup (see {!Dsim.Fingerprint}):
   unordered containers fold commutatively, the executed log sequentially
   (execution order is semantics). *)
let fingerprint s =
  let module Fp = Dsim.Fingerprint in
  let cmd (c : Cmd.t) = Fp.mix (Fp.mix (Fp.int c.origin) (Fp.int c.key)) (Fp.int c.payload) in
  let attrs_fp a = Fp.mix (Fp.int a.seq) (Fp.set Fp.int ~fold:Pid.Set.fold a.deps) in
  let by_pid fp m = Fp.map (fun p x -> Fp.mix (Fp.int p) (fp x)) ~fold:Pid.Map.fold m in
  let status_fp = function
    | S_preaccepted -> 0
    | S_accepted -> 1
    | S_committed -> 2
    | S_executed -> 3
  in
  let inst_fp i =
    let fp = Fp.mix 137 (Fp.option cmd i.cmd) in
    let fp = Fp.mix fp (attrs_fp i.attrs) in
    let fp = Fp.mix fp (Fp.int (status_fp i.status)) in
    let fp = Fp.mix fp (Fp.int i.ballot) in
    let fp = Fp.mix fp (Fp.int i.vballot) in
    Fp.mix fp (Fp.bool i.pristine)
  in
  let phase_fp = function
    | Idle -> 139
    | Collecting { attrs; oks } ->
        Fp.mix (Fp.mix 149 (attrs_fp attrs)) (by_pid attrs_fp oks)
    | Accepting { attrs; cmd = c; bal; oks } ->
        Fp.mix
          (Fp.mix (Fp.mix (Fp.mix 151 (attrs_fp attrs)) (Fp.option cmd c)) (Fp.int bal))
          (Fp.set Fp.int ~fold:Pid.Set.fold oks)
    | Settled -> 157
  in
  let recovery_fp r =
    let fp = Fp.mix 163 (Fp.int r.rbal) in
    let fp =
      Fp.mix fp
        (Fp.map
           (fun p (st, c, a, vb, pr) ->
             Fp.mix
               (Fp.mix
                  (Fp.mix (Fp.mix (Fp.mix (Fp.int p) (Fp.int (status_fp st))) (Fp.option cmd c))
                     (attrs_fp a))
                  (Fp.int vb))
               (Fp.bool pr))
           ~fold:Pid.Map.fold r.oks)
    in
    Fp.mix fp (Fp.bool r.acted)
  in
  let fp = Fp.mix 167 (Fp.int s.self) in
  let fp = Fp.mix fp (Fp.int s.f) in
  let fp = Fp.mix fp (by_pid inst_fp s.instances) in
  let fp = Fp.mix fp (phase_fp s.phase) in
  let fp = Fp.mix fp (by_pid recovery_fp s.recoveries) in
  Fp.mix fp (Fp.list cmd s.executed_rev)

let make ~n ~f ~delta =
  let init ~self ~n:n' =
    assert (n = n');
    let s =
      {
        self;
        n;
        f;
        delta;
        instances = Pid.Map.empty;
        phase = Idle;
        recoveries = Pid.Map.empty;
        executed_rev = [];
      }
    in
    (s, [ Automaton.Set_timer { id = progress_timer; after = (8 + (3 * self)) * delta } ])
  in
  let on_message s ~src msg =
    match msg with
    | Pre_accept { inst; cmd; attrs; bal } -> on_pre_accept s ~src ~inst ~cmd ~attrs ~bal
    | Pre_accept_ok { inst; attrs; bal } -> on_pre_accept_ok s ~src ~inst ~attrs ~bal
    | Accept { inst; cmd; attrs; bal } -> on_accept s ~src ~inst ~cmd ~attrs ~bal
    | Accept_ok { inst; bal } ->
        if Pid.equal inst s.self then on_accept_ok s ~src ~inst ~bal
        else begin
          (* an Accept we sent while recovering someone else's instance *)
          match Pid.Map.find_opt inst s.recoveries with
          | Some rec_ when rec_.rbal = bal ->
              let oks =
                Pid.Map.add src
                  (S_accepted, None, { seq = 0; deps = Pid.Set.empty }, -1, false)
                  rec_.oks
              in
              (* count Accept_oks distinctly: reuse vballot = -1 markers *)
              let count =
                Pid.Map.cardinal (Pid.Map.filter (fun _ (_, _, _, v, _) -> v = -1) oks) + 1
              in
              let s = { s with recoveries = Pid.Map.add inst { rec_ with oks } s.recoveries } in
              if count >= s.n - s.f then begin
                match find_inst s inst with
                | Some i ->
                    let s = { s with recoveries = Pid.Map.remove inst s.recoveries } in
                    commit s ~inst ~cmd:i.cmd ~attrs:i.attrs
                | None -> (s, [])
              end
              else (s, [])
          | _ -> (s, [])
        end
    | Commit { inst; cmd; attrs } -> on_commit s ~inst ~cmd ~attrs
    | Prepare { inst; bal } -> on_prepare s ~src ~inst ~bal
    | Prepare_ok { inst; bal; status; cmd; attrs; vballot; pristine } ->
        on_prepare_ok s ~src ~inst ~bal ~status ~cmd ~attrs ~vballot ~pristine
    | Nack _ -> (s, [])
  in
  let on_input s cmd = on_client s cmd in
  let on_timer s id = if id = progress_timer then on_progress_timer s else (s, []) in
  {
    Automaton.init;
    on_message;
    on_input;
    on_timer;
    state_copy = Fun.id;
    state_fingerprint = Some fingerprint;
  }

let debug_instances s =
  Pid.Map.bindings s.instances
  |> List.map (fun (j, i) ->
         ( j,
           Format.asprintf "%s %a %s b%d"
             (match i.status with
             | S_preaccepted -> "pre"
             | S_accepted -> "acc"
             | S_committed -> "com"
             | S_executed -> "exe")
             pp_attrs i.attrs
             (match i.cmd with Some c -> Format.asprintf "%a" Cmd.pp c | None -> "noop")
             i.ballot ))

(* EPaxos as a single-shot consensus protocol, so the SMR layer (and the
   protocol tables) can run it next to Paxos and the RGS algorithms.  Every
   adapted command targets one shared key, so all concurrent proposals
   interfere and EPaxos's dependency-ordered execution yields one total
   order; the decision is the payload of the first command a replica
   executes, which agreement on execution order makes uniform. *)
module Consensus = struct
  type nonrec msg = msg

  type nonrec state = { inner : state; decided : bool }

  let name = "epaxos"

  let pp_msg = pp_msg

  let describe =
    "EPaxos commit protocol as single-shot consensus (n >= 2f+1, fast under no contention)"

  let min_n ~e:_ ~f = (2 * f) + 1

  let make ~n ~e:_ ~f ~delta =
    let inner = make ~n ~f ~delta in
    let wrap (decided : bool) (st, actions) =
      let decided, rev =
        List.fold_left
          (fun (decided, rev) action ->
            match action with
            | Automaton.Send (dst, m) -> (decided, Automaton.Send (dst, m) :: rev)
            | Automaton.Broadcast m -> (decided, Automaton.Broadcast m :: rev)
            | Automaton.Set_timer t -> (decided, Automaton.Set_timer t :: rev)
            | Automaton.Cancel_timer id -> (decided, Automaton.Cancel_timer id :: rev)
            | Automaton.Output (Committed _) -> (decided, rev)
            | Automaton.Output (Executed c) ->
                if decided then (decided, rev)
                else (true, Automaton.Output c.Cmd.payload :: rev))
          (decided, []) actions
      in
      ({ inner = st; decided }, List.rev rev)
    in
    let init ~self ~n = wrap false (inner.Automaton.init ~self ~n) in
    let on_message s ~src m = wrap s.decided (inner.Automaton.on_message s.inner ~src m) in
    let on_input s v =
      wrap s.decided
        (inner.Automaton.on_input s.inner
           { Cmd.origin = s.inner.self; key = 0; payload = v })
    in
    let on_timer s id = wrap s.decided (inner.Automaton.on_timer s.inner id) in
    let state_copy s = { s with inner = inner.Automaton.state_copy s.inner } in
    let state_fingerprint =
      Option.map
        (fun fp s -> Dsim.Fingerprint.mix (fp s.inner) (Dsim.Fingerprint.bool s.decided))
        inner.Automaton.state_fingerprint
    in
    { Automaton.init; on_message; on_input; on_timer; state_copy; state_fingerprint }

  let omega = None
end

let protocol : Proto.Protocol.t = (module Consensus)
