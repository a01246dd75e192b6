let rec subsets_of_size k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
        let with_x = List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest) in
        let without_x = subsets_of_size k rest in
        with_x @ without_x

let subsets_up_to k l =
  let k = max 0 (min k (List.length l)) in
  List.concat (List.init (k + 1) (fun i -> subsets_of_size i l))

(* Insert [x] at every position of [l]. *)
let rec insertions x l =
  match l with
  | [] -> [ [ x ] ]
  | y :: ys -> (x :: l) :: List.map (fun t -> y :: t) (insertions x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: rest -> List.concat_map (insertions x) (permutations rest)

let rec cartesian = function
  | [] -> [ [] ]
  | choices :: rest ->
      let tails = cartesian rest in
      List.concat_map (fun c -> List.map (fun t -> c :: t) tails) choices

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 0 to k - 1 do
      acc := !acc * (n - i) / (i + 1)
    done;
    !acc
  end
