module Pid = Dsim.Pid
module Time = Dsim.Time
module Value = Proto.Value
module Combinat = Stdext.Combinat
module Fp = Dsim.Fingerprint

type failure = {
  witness_e : Pid.t list;
  config : (Pid.t * Value.t) list;
  target : Pid.t option;
  item : int;
}

type order = [ `Favor of Pid.t | `Random ]

type run = {
  crashed : Pid.t list;
  proposals : (Pid.t * Value.t) list;
  order : order;
  seed : int;
}

(* Literal separators, not break hints: a report prints one failure per
   line however long the lists grow. *)
let pp_space fmt () = Format.pp_print_char fmt ' '

let pp_pids = Format.pp_print_list ~pp_sep:pp_space Pid.pp

let pp_config =
  let pp_pair fmt (p, v) = Format.fprintf fmt "%a:%a" Pid.pp p Value.pp v in
  Format.pp_print_list ~pp_sep:pp_space pp_pair

let pp_failure fmt f =
  Format.fprintf fmt "item %d: E=[%a] config=[%a]%a" f.item pp_pids f.witness_e pp_config
    f.config
    (fun fmt -> function
      | None -> ()
      | Some p -> Format.fprintf fmt " target=%a" Pid.pp p)
    f.target

let pp_run fmt r =
  Format.fprintf fmt "E=[%a] config=[%a] order=%a seed=%d" pp_pids r.crashed pp_config
    r.proposals
    (fun fmt -> function
      | `Favor p -> Format.fprintf fmt "favor %a" Pid.pp p
      | `Random -> Format.pp_print_string fmt "random")
    r.order r.seed

type report = {
  checked_configs : int;
  checked_runs : int;
  simulated_runs : int;
  unsafe_runs : int;
  first_unsafe : run option;
  failures : failure list;
}

let ok r = r.failures = [] && r.unsafe_runs = 0

let pp_report fmt r =
  let counts fmt r =
    Format.fprintf fmt "%d configurations, %d runs, %d simulated" r.checked_configs
      r.checked_runs r.simulated_runs
  in
  if ok r then Format.fprintf fmt "OK (%a)" counts r
  else begin
    Format.fprintf fmt "FAILED (%a):" counts r;
    Option.iter
      (fun run -> Format.fprintf fmt "@\n%d unsafe runs, first: %a" r.unsafe_runs pp_run run)
      r.first_unsafe;
    List.iter (Format.fprintf fmt "@\n%a" pp_failure) r.failures
  end

(* The memo's key: everything the engine reads of one candidate run under
   a fixed crash set. A process in E crashes at time 0, before any input
   is due, so the engine drops its proposal without a trace (Dsim.Engine's
   contract on inputs to crashed processes): the key keeps the correct
   processes' proposals only, in the order the engine takes them. *)
module Key = struct
  type t = { inputs : (Time.t * Pid.t * Value.t) list; order : order; seed : int }

  let equal (a : t) b = a = b

  (* Every proposal counts: [Hashtbl.hash] stops after ten meaningful
     words, which covers only the first few. *)
  let hash k =
    let input (at, p, v) = Fp.mix (Fp.mix (Fp.int at) (Fp.int p)) (Fp.int v) in
    let order = match k.order with `Favor q -> q | `Random -> -1 in
    Fp.mix (Fp.mix (Fp.list input k.inputs) (Fp.int order)) (Fp.int k.seed)
end

module Memo = Hashtbl.Make (Key)

(* What the search reads of a simulated run. *)
type verdict = { safe : bool; early : Pid.t list (* decided by 2Δ *) }

type tally = {
  mutable configs : int;
  mutable runs : int;
  mutable simulated : int;
  mutable unsafe : int;
  mutable first_unsafe : run option;
  mutable failures_rev : failure list;
}

let config_of proposals = List.map (fun (_, p, v) -> (p, v)) proposals

(* Shared search: does there exist an E-faulty synchronous run, starting
   from the given proposals, that is two-step for [target] (or for anybody
   when [target = None])? Candidate runs must also be safe: an unsafe one
   is no witness, and the tally keeps it, which fails the check. [memo]
   holds the verdicts of the runs already simulated under [crashed]. *)
let exists_two_step protocol ~n ~e ~f ~delta ~tally ~memo ~crashed ~proposals ~target
    ~random_orders =
  let correct = List.filter (fun p -> not (List.mem p crashed)) (Pid.all ~n) in
  let inputs = List.filter (fun (_, p, _) -> not (List.mem p crashed)) proposals in
  let simulate order seed =
    tally.simulated <- tally.simulated + 1;
    let outcome =
      Scenario.run protocol ~n ~e ~f ~delta
        ~net:(Scenario.Sync (order :> [ `Arrival | `Random | `Favor of Pid.t ]))
        ~proposals ~crashes:(Scenario.crash_at_start crashed) ~seed ~disable_timers:true
        ~until:(3 * delta) ()
    in
    { safe = Safety.safe outcome; early = Scenario.decided_by outcome ~deadline:(2 * delta) }
  in
  let try_order (order, seed) =
    tally.runs <- tally.runs + 1;
    let key = { Key.inputs; order; seed } in
    let v =
      match Memo.find_opt memo key with
      | Some v -> v
      | None ->
          let v = simulate order seed in
          Memo.add memo key v;
          v
    in
    if not v.safe then begin
      tally.unsafe <- tally.unsafe + 1;
      if tally.first_unsafe = None then
        tally.first_unsafe <- Some { crashed; proposals = config_of proposals; order; seed };
      false
    end
    else
      match target with
      | Some p -> List.mem p v.early
      | None -> v.early <> []
  in
  let favor_orders =
    (* Favouring the eventual winner is how the paper's existence proofs
       construct the run; try the target (or every correct process) first. *)
    match target with
    | Some p -> List.map (fun q -> (`Favor q, 0)) (p :: correct)
    | None -> List.map (fun q -> (`Favor q, 0)) correct
  in
  let random = List.init random_orders (fun i -> (`Random, i + 1)) in
  List.exists try_order (favor_orders @ random)

let check_gen ~items protocol ~n ~e ~f ~delta ~random_orders =
  let tally =
    { configs = 0; runs = 0; simulated = 0; unsafe = 0; first_unsafe = None; failures_rev = [] }
  in
  List.iter
    (fun crashed ->
      (* Runs under different crash sets never share an engine input. *)
      let memo = Memo.create 64 in
      List.iter
        (fun (item, proposals, target) ->
          tally.configs <- tally.configs + 1;
          if
            not
              (exists_two_step protocol ~n ~e ~f ~delta ~tally ~memo ~crashed ~proposals
                 ~target ~random_orders)
          then
            tally.failures_rev <-
              { witness_e = crashed; config = config_of proposals; target; item }
              :: tally.failures_rev)
        (items ~crashed))
    (Combinat.subsets_of_size e (Pid.all ~n));
  {
    checked_configs = tally.configs;
    checked_runs = tally.runs;
    simulated_runs = tally.simulated;
    unsafe_runs = tally.unsafe;
    first_unsafe = tally.first_unsafe;
    failures = List.rev tally.failures_rev;
  }

let check_task protocol ~n ~e ~f ~delta ~values ?(random_orders = 5) () =
  if values = [] then invalid_arg "Twostep.check_task: empty value domain";
  let items ~crashed =
    let correct = List.filter (fun p -> not (List.mem p crashed)) (Pid.all ~n) in
    (* Item 1: every initial configuration, some process decides two-step. *)
    let all_configs =
      Combinat.cartesian (List.init n (fun _ -> values))
      |> List.map (fun vs -> (1, Scenario.all_proposals_at_zero ~n vs, None))
    in
    (* Item 2: same-value configurations, every correct process can decide
       two-step. The crashed processes' proposals are irrelevant (they take
       no step), so we give everyone the same value. *)
    let same_value =
      List.concat_map
        (fun v ->
          let proposals = Scenario.all_proposals_at_zero ~n (List.init n (fun _ -> v)) in
          List.map (fun p -> (2, proposals, Some p)) correct)
        values
    in
    all_configs @ same_value
  in
  check_gen ~items protocol ~n ~e ~f ~delta ~random_orders

let check_object protocol ~n ~e ~f ~delta ~values ?(random_orders = 5) () =
  if values = [] then invalid_arg "Twostep.check_object: empty value domain";
  let items ~crashed =
    let correct = List.filter (fun p -> not (List.mem p crashed)) (Pid.all ~n) in
    (* Item 1: only [p] proposes [v]; the run must be two-step for [p]. *)
    let solo =
      List.concat_map
        (fun v ->
          List.map (fun p -> (1, [ (Time.zero, p, v) ], Some p)) correct)
        values
    in
    (* Item 2: all correct processes propose the same [v] at the beginning
       of the first round; two-step for each correct [p]. *)
    let same_value =
      List.concat_map
        (fun v ->
          let proposals = List.map (fun q -> (Time.zero, q, v)) correct in
          List.map (fun p -> (2, proposals, Some p)) correct)
        values
    in
    solo @ same_value
  in
  check_gen ~items protocol ~n ~e ~f ~delta ~random_orders
