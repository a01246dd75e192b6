module Metrics = Stdext.Metrics
module Json = Stdext.Json

type t = {
  protocol : string;
  n : int;
  e : int;
  f : int;
  delta : int;
  decided : int;
  fast : int;
  fast_path_rate : float;
  latency_hist : (int * int) list;
  messages : int;
}

(* Ticks -> whole message delays, rounding up: a decision 2Δ after the
   proposal is a two-delay (two-step) decision; anything in (2Δ, 3Δ] took
   a third step. *)
let delays_of ~delta ticks = (ticks + delta - 1) / delta

let record registry report =
  let pre = "report." ^ report.protocol ^ "." in
  let c name v = Metrics.add (Metrics.counter registry (pre ^ name)) v in
  c "decided" report.decided;
  c "fast" report.fast;
  c "messages" report.messages;
  let h =
    Metrics.histogram registry ~buckets:[| 1; 2; 3; 4; 5; 6; 7; 8 |]
      (pre ^ "latency_delays")
  in
  List.iter
    (fun (d, count) ->
      for _ = 1 to count do
        Metrics.observe h d
      done)
    report.latency_hist

(* The e-two-step definitions are existential: process [p] decides in two
   steps in SOME synchronous run — realised by the delivery order that
   favors [p] (its proposal is accepted first everywhere; see
   {!Twostep}). So the fast-path rate is measured per target: one
   conflict-free run per pid under [Favor p], scoring [p]'s own latency.
   An order-insensitive protocol (Fast Paxos under unanimity) scores the
   same in every run; a fixed-leader protocol (Paxos) is fast only for
   the leader, rate 1/n. *)
let conflict_free (module P : Proto.Protocol.S) ?n ~e ~f ~delta ?(value = 1)
    ?(metrics = Metrics.disabled) () =
  let n = match n with Some n -> n | None -> P.min_n ~e ~f in
  let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun _ -> value)) in
  let messages = ref 0 in
  let delays =
    List.filter_map
      (fun target ->
        let outcome =
          Scenario.run
            (module P)
            ~n ~e ~f ~delta
            ~net:(Scenario.Sync (`Favor target))
            ~proposals ~disable_timers:true ~metrics
            ~until:(20 * delta) ()
        in
        messages := !messages + outcome.Scenario.messages;
        List.assoc_opt target outcome.Scenario.latencies
        |> Option.map (delays_of ~delta))
      (List.init n Fun.id)
  in
  let decided = List.length delays in
  let fast = List.length (List.filter (fun d -> d <= 2) delays) in
  let latency_hist =
    List.sort_uniq compare delays
    |> List.map (fun d -> (d, List.length (List.filter (Int.equal d) delays)))
  in
  let report =
    {
      protocol = P.name;
      n;
      e;
      f;
      delta;
      decided;
      fast;
      fast_path_rate = (if n = 0 then 0. else float_of_int fast /. float_of_int n);
      latency_hist;
      messages = !messages;
    }
  in
  if Metrics.is_enabled metrics then record metrics report;
  report

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s (n=%d, e=%d, f=%d): fast-path rate %.2f (%d/%d decided in <= 2 delays), %d \
     messages@,"
    t.protocol t.n t.e t.f t.fast_path_rate t.fast t.n t.messages;
  Format.fprintf fmt "  decision latency (message delays):";
  List.iter
    (fun (d, count) ->
      Format.fprintf fmt "@,    %d delay%s: %s %d" d
        (if d = 1 then " " else "s")
        (String.make (min count 40) '#')
        count)
    t.latency_hist;
  if t.latency_hist = [] then Format.fprintf fmt "@,    (no decisions)";
  Format.fprintf fmt "@]"

let to_json t =
  Json.Obj
    [
      ("protocol", Json.String t.protocol);
      ("n", Json.Int t.n);
      ("e", Json.Int t.e);
      ("f", Json.Int t.f);
      ("delta", Json.Int t.delta);
      ("decided", Json.Int t.decided);
      ("fast", Json.Int t.fast);
      ("fast_path_rate", Json.Float t.fast_path_rate);
      ("messages", Json.Int t.messages);
      ( "latency_hist",
        Json.List
          (List.map
             (fun (d, c) -> Json.Obj [ ("delays", Json.Int d); ("count", Json.Int c) ])
             t.latency_hist) );
    ]
