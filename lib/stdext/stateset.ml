(* Slot states: 0 = empty, anything with the sign bit set = a stored key.
   [encode] forces the sign bit on, so a key can never collide with the
   empty sentinel; the price is that bit 62, the top bit of a 63-bit
   fingerprint, is lost, leaving 62 significant bits — see the .mli on why
   that is an acceptable hash-compaction trade. *)

let empty_slot = 0

let encode fp = fp lor min_int

(* Where a key starts probing. Mixing rather than taking the raw low bits
   keeps probe sequences spread out even if the fingerprints themselves
   are clustered (e.g. a fingerprint function that varies only in its low
   bits). The multiplier is an odd 62-bit mixing constant (OCaml int
   literals must fit 63 bits). *)
let slot_hash key = (key * 0x2545F4914F6CDD1D) lxor (key lsr 29)

type t = {
  mutable table : int array;  (* power-of-two length *)
  mutable count : int;  (* distinct keys stored: the adds that inserted *)
  mutable hits : int;  (* adds that found their key present *)
  mutable collisions : int;  (* occupied slots probed past, over all adds *)
  mutable resizes : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = 1024) () =
  {
    table = Array.make (pow2_at_least (max 4 capacity) 4) empty_slot;
    count = 0;
    hits = 0;
    collisions = 0;
    resizes = 0;
  }

(* Insert a key known to be absent. *)
let insert_fresh table key =
  let mask = Array.length table - 1 in
  let rec probe i = if table.(i) = empty_slot then table.(i) <- key else probe ((i + 1) land mask) in
  probe (slot_hash key land mask)

let resize t =
  t.resizes <- t.resizes + 1;
  let fresh = Array.make (2 * Array.length t.table) empty_slot in
  Array.iter (fun key -> if key <> empty_slot then insert_fresh fresh key) t.table;
  t.table <- fresh

let add t fp =
  let key = encode fp in
  let table = t.table in
  let mask = Array.length table - 1 in
  let rec probe i collisions =
    let v = table.(i) in
    if v = key then begin
      t.hits <- t.hits + 1;
      t.collisions <- t.collisions + collisions;
      false
    end
    else if v = empty_slot then begin
      table.(i) <- key;
      t.count <- t.count + 1;
      t.collisions <- t.collisions + collisions;
      (* Resize at 3/4 load: linear probing degrades sharply beyond it. *)
      if 4 * t.count > 3 * Array.length table then resize t;
      true
    end
    else probe ((i + 1) land mask) (collisions + 1)
  in
  probe (slot_hash key land mask) 0

let mem t fp =
  let key = encode fp in
  let table = t.table in
  let mask = Array.length table - 1 in
  let rec probe i =
    let v = table.(i) in
    v = key || (v <> empty_slot && probe ((i + 1) land mask))
  in
  probe (slot_hash key land mask)

let cardinal t = t.count

let hits t = t.hits

let record registry t =
  let c name v = Metrics.add (Metrics.counter registry name) v in
  c "stateset.hits" t.hits;
  c "stateset.misses" t.count;
  c "stateset.collisions" t.collisions;
  c "stateset.resizes" t.resizes
