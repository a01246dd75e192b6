module Vmap = Map.Make (Int)

(* [supporters] is the set semantics every caller should see; [raw_adds]
   counts every [add] including repeats. The raw count exists only so the
   mutation test can demonstrate that the set semantics is load-bearing:
   counting raw adds double-counts duplicated messages and breaks
   agreement under a duplicating network. *)
type entry = { supporters : Dsim.Pid.Set.t; raw_adds : int }

type t = entry Vmap.t

let empty = Vmap.empty

let add v pid t =
  let e =
    Option.value
      ~default:{ supporters = Dsim.Pid.Set.empty; raw_adds = 0 }
      (Vmap.find_opt v t)
  in
  Vmap.add v
    { supporters = Dsim.Pid.Set.add pid e.supporters; raw_adds = e.raw_adds + 1 }
    t

let fingerprint t =
  let module Fp = Dsim.Fingerprint in
  Fp.map
    (fun v e ->
      Fp.mix
        (Fp.mix (Fp.int v) (Fp.set Fp.int ~fold:Dsim.Pid.Set.fold e.supporters))
        (Fp.int e.raw_adds))
    ~fold:Vmap.fold t

let supporters v t =
  match Vmap.find_opt v t with
  | None -> Dsim.Pid.Set.empty
  | Some e -> e.supporters

module Mutation = struct
  let suppress = ref true

  let without_duplicate_suppression f =
    suppress := false;
    Fun.protect ~finally:(fun () -> suppress := true) f
end

let entry_count e =
  if !Mutation.suppress then Dsim.Pid.Set.cardinal e.supporters
  else e.raw_adds

let count v t = match Vmap.find_opt v t with None -> 0 | Some e -> entry_count e

let tally t = Vmap.fold (fun v e acc -> (v, entry_count e) :: acc) t [] |> List.rev

let values_with_count_at_least k t =
  List.filter_map (fun (v, c) -> if c >= k then Some v else None) (tally t)

let values_with_count_exactly k t =
  List.filter_map (fun (v, c) -> if c = k then Some v else None) (tally t)

let max_value_with_count_at_least k t =
  match List.rev (values_with_count_at_least k t) with [] -> None | v :: _ -> Some v

let total_pids t =
  Vmap.fold (fun _ e acc -> Dsim.Pid.Set.union e.supporters acc) t Dsim.Pid.Set.empty
  |> Dsim.Pid.Set.cardinal
