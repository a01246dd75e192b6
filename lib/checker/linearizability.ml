module Value = Proto.Value
module Imap = Map.Make (Int)

type verdict = { linearizable : bool; reason : string option }

let fail reason = { linearizable = false; reason = Some reason }

let check (o : Scenario.outcome) =
  match o.decisions with
  | [] -> { linearizable = true; reason = None }
  | (first_time, _, _) :: _ -> begin
      let values = List.sort_uniq Value.compare (List.map (fun (_, _, v) -> v) o.decisions) in
      match values with
      | [ v ] ->
          (* The deciding value must come from an invocation that started
             before the first response completed. *)
          let witness =
            List.exists
              (fun (t, _, proposed) -> Value.equal proposed v && t <= first_time)
              o.proposals
          in
          if witness then { linearizable = true; reason = None }
          else
            fail
              (Format.asprintf
                 "decided %a, but no propose(%a) was invoked before the first response"
                 Value.pp v Value.pp v)
      | _ ->
          fail
            (Format.asprintf "conflicting decisions: %a"
               (Format.pp_print_list ~pp_sep:Format.pp_print_space Value.pp)
               values)
    end

(* ------------------------------------------------------------------ *)
(* WGL search over KV histories.                                       *)

type stats = { ops : int; keys : int; states : int }

type witness = {
  key : int;
  window_start : Dsim.Time.t;
  window_end : Dsim.Time.t;
  events : History.t;
}

type outcome = {
  ok : bool;
  reason : string option;
  witness : witness option;
  stats : stats;
}

let pp_witness fmt w =
  Format.fprintf fmt "@[<v>key %d not linearizable in window [%d, %d]:@,%a@]" w.key
    w.window_start w.window_end
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut History.pp_event)
    w.events

(* The search works on a flattened op: [respond = max_int] marks an
   incomplete write (linearizable anywhere after its invocation, or
   never); incomplete reads never make it here. [ev] is carried only to
   reconstruct witness windows as history events. *)
type sop = {
  skey : int;
  read : bool;
  value : int;  (* written value, or the value a read returned *)
  invoke : int;
  respond : int;
  ev : History.event;
}

(* Turn a history into search ops, or reject it with a reason — this is
   the never-assert boundary: whatever a run (or a corrupted history
   file) hands us becomes either a well-formed search or a failing
   outcome. *)
let flatten (events : History.t) : (sop list, string) result =
  let exception Bad of string in
  try
    Ok
      (List.filter_map
         (fun (e : History.event) ->
           if e.History.invoke < 0 then
             raise (Bad (Format.asprintf "negative invoke time: %a" History.pp_event e));
           match (e.History.respond, e.History.ret) with
           | Some r, _ when r < e.History.invoke ->
               raise (Bad (Format.asprintf "response before invocation: %a" History.pp_event e))
           | Some _, None ->
               raise (Bad (Format.asprintf "complete op without return value: %a" History.pp_event e))
           | None, Some _ ->
               raise (Bad (Format.asprintf "incomplete op with return value: %a" History.pp_event e))
           | respond, ret -> (
               let mk read value respond =
                 Some { skey = e.History.key; read; value; invoke = e.History.invoke; respond; ev = e }
               in
               match (e.History.kind, respond, ret) with
               | History.Read, Some r, Some v -> mk true v r
               | History.Read, None, None -> None  (* unconstrained *)
               | History.Write w, Some r, Some _ -> mk false w r
               | History.Write w, None, None -> mk false w max_int
               | _, Some _, None | _, None, Some _ ->
                   (* already rejected above; keep the checker assert-free *)
                   raise (Bad (Format.asprintf "inconsistent op: %a" History.pp_event e))))
         events)
  with Bad msg -> Error msg

(* One WGL search: linearize a minimal remaining op (invoked no later
   than every remaining op's response), DFS with backtracking, memoizing
   failed (pending-set, store) states.  [free_init] leaves never-written
   keys unconstrained (a read pins them) — used when checking witness
   suffixes cut loose from time zero; the full history starts from the
   all-zeros store the KV spec prescribes. *)
let search ~free_init ~states (ops : sop array) : bool =
  (* Incomplete writes whose value no read of their key returned are
     irrelevant: they impose no constraint (they may linearize never), and
     linearizing one can only overwrite state some read needs, so every
     linearization of the pruned set extends to the full set and vice
     versa.  Dropping them up front is what keeps fleets with hundreds of
     in-flight writes at the horizon tractable — each surviving op costs
     search states, each dropped one costs nothing. *)
  let read_vals = Hashtbl.create 64 in
  Array.iter (fun o -> if o.read then Hashtbl.replace read_vals (o.skey, o.value) ()) ops;
  let ops =
    Array.of_list
      (List.filter
         (fun o -> o.read || o.respond <> max_int || Hashtbl.mem read_vals (o.skey, o.value))
         (Array.to_list ops))
  in
  let n = Array.length ops in
  (* A write is [unread] at a search node when no {e remaining} read of
     its key returns its value: such writes are interchangeable starters
     (whenever some candidate unread write begins a valid linearization
     of the remaining ops, so does any other — no remaining read can
     directly follow an unread write, so it can be moved to the front),
     which lets the branch loop try just one per node instead of
     permuting the whole overlapping-write window.  [reads_left] tracks,
     per (key, value), how many unlinearized reads still return it; the
     counts fall as reads are linearized, so writes whose readers are
     already placed stop branching too. *)
  let reads_left : (int * int, int ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      if o.read then
        match Hashtbl.find_opt reads_left (o.skey, o.value) with
        | Some c -> incr c
        | None -> Hashtbl.add reads_left (o.skey, o.value) (ref 1))
    ops;
  let unread o =
    (not o.read)
    &&
    match Hashtbl.find_opt reads_left (o.skey, o.value) with
    | None -> true
    | Some c -> !c = 0
  in
  if n = 0 then true
  else begin
    (* Branch over candidates in respond order (incomplete ops last): an
       op that must finish early usually linearizes early, so trying it
       first steers the DFS down a valid order instead of exploring and
       memoizing doomed permutations of the concurrency window. *)
    let order = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = compare ops.(a).respond ops.(b).respond in
        if c <> 0 then c else compare ops.(a).invoke ops.(b).invoke)
      order;
    let linearized = Bytes.make ((n + 7) / 8) '\000' in
    let marked i = Char.code (Bytes.get linearized (i / 8)) land (1 lsl (i mod 8)) <> 0 in
    let mark i =
      Bytes.set linearized (i / 8)
        (Char.chr (Char.code (Bytes.get linearized (i / 8)) lor (1 lsl (i mod 8))))
    in
    let unmark i =
      Bytes.set linearized (i / 8)
        (Char.chr (Char.code (Bytes.get linearized (i / 8)) land lnot (1 lsl (i mod 8)) land 0xff))
    in
    let complete_left =
      ref (Array.fold_left (fun acc o -> if o.respond = max_int then acc else acc + 1) 0 ops)
    in
    let failed : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
    let buf = Buffer.create 64 in
    let memo_key store =
      Buffer.clear buf;
      Buffer.add_bytes buf linearized;
      Imap.iter
        (fun k v ->
          Buffer.add_char buf '|';
          Buffer.add_string buf (string_of_int k);
          Buffer.add_char buf ':';
          Buffer.add_string buf (string_of_int v))
        store;
      Buffer.contents buf
    in
    (* The value a candidate op would need the store to take, or [None]
       if it cannot be linearized at [store] (a read of the wrong value). *)
    let step store (o : sop) =
      if not o.read then Some (Imap.add o.skey o.value store)
      else
        match Imap.find_opt o.skey store with
        | Some v -> if v = o.value then Some store else None
        | None ->
            if free_init then Some (Imap.add o.skey o.value store)
            else if o.value = 0 then Some store
            else None
    in
    let rec take i store' =
      let o = ops.(i) in
      mark i;
      if o.respond <> max_int then decr complete_left;
      if o.read then decr (Hashtbl.find reads_left (o.skey, o.value));
      if go store' then true
      else begin
        unmark i;
        if o.respond <> max_int then incr complete_left;
        if o.read then incr (Hashtbl.find reads_left (o.skey, o.value));
        false
      end
    and go store =
      !complete_left = 0
      || begin
           let key = memo_key store in
           if Hashtbl.mem failed key then false
           else begin
             incr states;
             let min_resp = ref max_int in
             for i = 0 to n - 1 do
               if (not (marked i)) && ops.(i).respond < !min_resp then min_resp := ops.(i).respond
             done;
             (* A candidate read of a key whose current value is {e known}
                and matching can be linearized greedily: no remaining op
                precedes it in real time, so any linearization of the rest
                admits moving the read to the front — if the search fails
                with it first, it fails outright, and no other branch need
                be tried.  (A read that {e pins} an unknown initial value
                is a real choice and still branches below.) *)
             let greedy = ref (-1) in
             let i = ref 0 in
             while !greedy < 0 && !i < n do
               let o = ops.(!i) in
               if
                 (not (marked !i))
                 && o.invoke <= !min_resp
                 && o.read
                 && (match Imap.find_opt o.skey store with
                    | Some v -> v = o.value
                    | None -> (not free_init) && o.value = 0)
               then greedy := !i;
               incr i
             done;
             let ok =
               if !greedy >= 0 then take !greedy store
               else begin
                 (* Identical candidate incomplete writes are interchangeable;
                    trying one per (key, value) signature covers them all. *)
                 let tried = Hashtbl.create 8 in
                 let tried_unread = ref false in
                 let ok = ref false in
                 let r = ref 0 in
                 while (not !ok) && !r < n do
                   let i = order.(!r) in
                   let o = ops.(i) in
                   if (not (marked i)) && o.invoke <= !min_resp then begin
                     let o_unread = unread o in
                     let skip =
                       (o.respond = max_int && Hashtbl.mem tried (o.skey, o.value))
                       || (o_unread && !tried_unread)
                     in
                     if not skip then begin
                       if o.respond = max_int then Hashtbl.add tried (o.skey, o.value) ();
                       if o_unread then tried_unread := true;
                       match step store o with
                       | None -> ()
                       | Some store' -> if take i store' then ok := true
                     end
                   end;
                   incr r
                 done;
                 !ok
               end
             in
             if not ok then Hashtbl.add failed key ();
             ok
           end
         end
    in
    go Imap.empty
  end

(* Shrink a failing op set to a small window.  Truncating at time [t]
   keeps ops invoked by [t] and makes later responses incomplete (reads
   drop, writes stay linearizable-anywhere); an op invoked after [t]
   cannot rescue a contradiction among ops responded by [t] — it cannot
   linearize before anything that already responded — so truncation
   failure is monotone in [t] and the first failing response time is the
   window's end.  From the truncated set, discarding ops that responded
   before [s] with the initial value left free only removes constraints,
   so suffix failure is monotone (downward) in [s]: the largest still-
   failing [s] is the window's start. *)
let minimize ~states ~key (ops : sop array) =
  let finite_resps =
    Array.to_list ops
    |> List.filter_map (fun o -> if o.respond = max_int then None else Some o.respond)
    |> List.sort_uniq compare |> Array.of_list
  in
  let truncate t =
    Array.to_list ops
    |> List.filter_map (fun o ->
           if o.invoke > t then None
           else if o.respond <= t then Some o
           else if o.read then None
           else Some { o with respond = max_int })
    |> Array.of_list
  in
  let fails_at t = not (search ~free_init:false ~states (truncate t)) in
  (* First failing response-time index; the full set fails, so one exists
     (the last index at the latest). *)
  let m = Array.length finite_resps in
  let lo = ref 0 and hi = ref (m - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fails_at finite_resps.(mid) then hi := mid else lo := mid + 1
  done;
  let window_end = if m = 0 then 0 else finite_resps.(!lo) in
  let base = truncate window_end in
  let suffix s = Array.of_list (List.filter (fun o -> o.respond >= s) (Array.to_list base)) in
  let fails_from s = not (search ~free_init:true ~states (suffix s)) in
  let base_resps =
    Array.to_list base
    |> List.filter_map (fun o -> if o.respond = max_int then None else Some o.respond)
    |> List.sort_uniq compare |> Array.of_list
  in
  let mb = Array.length base_resps in
  let window_start, window_ops =
    if mb = 0 || not (fails_from base_resps.(0)) then
      (* Even the whole truncated set needs the zero initial value to be
         contradictory: the window is anchored at time zero. *)
      (0, base)
    else begin
      let lo = ref 0 and hi = ref (mb - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if fails_from base_resps.(mid) then lo := mid else hi := mid - 1
      done;
      (base_resps.(!lo), suffix base_resps.(!lo))
    end
  in
  let events = History.sort (Array.to_list window_ops |> List.map (fun o -> o.ev)) in
  { key; window_start; window_end; events }

let empty_stats = { ops = 0; keys = 0; states = 0 }

let check_history (events : History.t) : outcome =
  match flatten events with
  | Error reason -> { ok = false; reason = Some ("malformed history: " ^ reason); witness = None; stats = empty_stats }
  | Ok sops ->
      let states = ref 0 in
      let by_key =
        List.fold_left
          (fun acc o ->
            Imap.update o.skey (fun l -> Some (o :: Option.value ~default:[] l)) acc)
          Imap.empty sops
      in
      let stats () =
        { ops = List.length events; keys = Imap.cardinal by_key; states = !states }
      in
      let failure =
        Imap.bindings by_key
        |> List.find_map (fun (key, group) ->
               let arr = Array.of_list (List.rev group) in
               if search ~free_init:false ~states arr then None
               else Some (minimize ~states ~key arr))
      in
      match failure with
      | None -> { ok = true; reason = None; witness = None; stats = stats () }
      | Some w ->
          let reason =
            Printf.sprintf "key %d: no valid linearization of %d ops in window [%d, %d]"
              w.key (List.length w.events) w.window_start w.window_end
          in
          { ok = false; reason = Some reason; witness = Some w; stats = stats () }
