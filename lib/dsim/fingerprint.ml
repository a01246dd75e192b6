type t = int

let zero = 0

(* SplitMix64's finalizer on OCaml's 63-bit native ints: the same shifts,
   and the multipliers reduced to their low 63 bits (odd, so still
   bijective). Native ints keep every digest unboxed — no [Int64]
   allocation per combinator call. *)
let finalize z =
  let z = (z lxor (z lsr 30)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 27)) * 0x14d049bb133111eb in
  z lxor (z lsr 31)

(* Absorb-then-avalanche: multiplying the accumulator by an odd constant
   before adding the next word makes the combiner order-sensitive, and the
   finalizer spreads every input bit over the word. *)
let mix acc x = finalize ((acc * 0x5851F42D4C957F2D) + x)

(* Addition of finalized element hashes: commutative and associative, so
   any fold order over an unordered container yields the same value. Each
   element is avalanched first so that structured element values don't
   cancel each other. *)
let commute a b = a + b

let int i = finalize i

let bool b = if b then 3 else 5

let option f = function None -> 7 | Some x -> mix 11 (f x)

let list f l = List.fold_left (fun acc x -> mix acc (f x)) 13 l

let set elt ~fold s = fold (fun x acc -> commute acc (finalize (elt x))) s 17

let map binding ~fold m = fold (fun k v acc -> commute acc (finalize (binding k v))) m 19

let structural v = finalize (Hashtbl.hash_param 256 256 v)
