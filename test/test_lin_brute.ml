(* Cross-validation of the WGL linearizability checker against a
   brute-force reference on random small histories (promoted from the
   ad-hoc fuzz harness that shipped with the checker).

   The reference enumerates every linearization of a multi-key int
   register map, zero-initialized, without decomposing by key:
   incomplete writes may take effect anywhere after their invoke or
   never, incomplete reads are unconstrained (dropped).  The per-key WGL
   search must agree with it on every trial. *)

module H = Checker.History
module L = Checker.Linearizability

let brute (events : H.t) : bool =
  (* ops: (key, is_read, value, invoke, respond option) *)
  let ops =
    List.filter_map
      (fun (e : H.event) ->
        match (e.H.kind, e.H.respond, e.H.ret) with
        | H.Read, None, _ -> None
        | H.Read, Some r, Some v -> Some (e.H.key, true, v, e.H.invoke, Some r)
        | H.Write w, Some r, Some _ -> Some (e.H.key, false, w, e.H.invoke, Some r)
        | H.Write w, None, _ -> Some (e.H.key, false, w, e.H.invoke, None)
        | _ -> assert false)
      events
  in
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let used = Array.make n false in
  let module Im = Map.Make (Int) in
  let value store k = Option.value ~default:0 (Im.find_opt k store) in
  let rec go store placed skipped =
    if placed + skipped = n then true
    else begin
      (* minimality: candidate if invoke <= min respond of remaining *)
      let min_resp = ref max_int in
      for i = 0 to n - 1 do
        if not used.(i) then
          match arr.(i) with
          | _, _, _, _, Some r -> if r < !min_resp then min_resp := r
          | _ -> ()
      done;
      let ok = ref false in
      for i = 0 to n - 1 do
        if (not !ok) && not used.(i) then begin
          let k, is_read, v, invoke, respond = arr.(i) in
          if invoke <= !min_resp then begin
            (* option: linearize now *)
            if is_read then begin
              if value store k = v then begin
                used.(i) <- true;
                if go store (placed + 1) skipped then ok := true;
                used.(i) <- false
              end
            end
            else begin
              used.(i) <- true;
              if go (Im.add k v store) (placed + 1) skipped then ok := true;
              used.(i) <- false
            end
          end;
          (* option: never linearize (incomplete only) *)
          if (not !ok) && respond = None then begin
            used.(i) <- true;
            if go store placed (skipped + 1) then ok := true;
            used.(i) <- false
          end
        end
      done;
      !ok
    end
  in
  go Im.empty 0 0

let random_history st =
  let nops = 4 + Random.State.int st 5 in
  let nkeys = 1 + Random.State.int st 3 in
  let nvals = 3 in
  List.init nops (fun i ->
      let key = Random.State.int st nkeys in
      let invoke = Random.State.int st 12 in
      let dur = Random.State.int st 20 in
      let complete = Random.State.int st 10 < 8 in
      let is_read = Random.State.bool st in
      if is_read then
        if complete then
          {
            H.client = i;
            key;
            kind = H.Read;
            invoke;
            respond = Some (invoke + dur);
            ret = Some (Random.State.int st nvals);
          }
        else { H.client = i; key; kind = H.Read; invoke; respond = None; ret = None }
      else
        let v = 1 + Random.State.int st (nvals - 1) in
        if complete then
          {
            H.client = i;
            key;
            kind = H.Write v;
            invoke;
            respond = Some (invoke + dur);
            ret = Some v;
          }
        else { H.client = i; key; kind = H.Write v; invoke; respond = None; ret = None })

let test_agreement () =
  let st = Random.State.make [| 42 |] in
  for trial = 1 to 400 do
    let events = random_history st in
    let expect = brute events in
    let pk = (L.check_history events).L.ok in
    if pk <> expect then begin
      List.iter (fun e -> Format.eprintf "  %a@." H.pp_event e) (H.sort events);
      Alcotest.failf "trial %d: brute=%b perkey=%b" trial expect pk
    end
  done

let () =
  Alcotest.run "lin_brute"
    [
      ( "wgl vs brute force",
        [ Alcotest.test_case "400 random histories agree" `Quick test_agreement ] );
    ]
