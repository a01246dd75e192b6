(* Slot states: 0 = empty, 1 = sealed (resize in progress), anything with
   the sign bit set = a stored key. [encode] forces the sign bit on, so a
   key can never collide with the two sentinels; the price is that bit 62,
   the top bit of a 63-bit fingerprint, is lost, leaving 62 significant
   bits — see the .mli on why that is an acceptable hash-compaction
   trade. *)

let empty_slot = 0

let sealed_slot = 1

let encode fp = fp lor min_int

(* Where a key starts probing. Mixing rather than taking the raw low bits
   keeps probe sequences spread out even if the fingerprints themselves
   are clustered (e.g. a fingerprint function that varies only in its low
   bits). Both multipliers are odd 62-bit mixing constants (OCaml int
   literals must fit 63 bits). *)
let slot_hash key = (key * 0x2545F4914F6CDD1D) lxor (key lsr 29)

(* The shard index must use bits the in-shard probe does not, or every key
   in a shard would start probing at the same slot. *)
let shard_hash key = (key * 0x3C79AC492BA7B653) lsr 40

type shard = {
  lock : Mutex.t;  (* serialises resizes; never taken on the fast path *)
  table : int Atomic.t array Atomic.t;
  count : int Atomic.t;  (* distinct keys stored in this shard *)
}

type t = {
  shards : shard array;
  shard_mask : int;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_collisions : Metrics.counter;
  m_resizes : Metrics.counter;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let make_table size = Array.init size (fun _ -> Atomic.make empty_slot)

(* [create]'s capacity that absorbs [expected] keys with no resize: tables
   grow at 3/4 load, so ask for a third more slots than keys and let
   [create]'s per-shard power-of-two rounding only ever round up. *)
let recommended_capacity ~expected = max 1024 ((max 0 expected * 4 / 3) + 1)

let create ?(shards = 16) ?(capacity = 1024) ?(metrics = Metrics.disabled) () =
  let nshards = pow2_at_least (max 1 shards) 1 in
  let per_shard = pow2_at_least (max 4 (capacity / nshards)) 4 in
  {
    shards =
      Array.init nshards (fun _ ->
          {
            lock = Mutex.create ();
            table = Atomic.make (make_table per_shard);
            count = Atomic.make 0;
          });
    shard_mask = nshards - 1;
    m_hits = Metrics.counter metrics "stateset.hits";
    m_misses = Metrics.counter metrics "stateset.misses";
    m_collisions = Metrics.counter metrics "stateset.collisions";
    m_resizes = Metrics.counter metrics "stateset.resizes";
  }

let shard_of t key = t.shards.(shard_hash key land t.shard_mask)

(* Insert [key] into [table] assuming no concurrent writers and no
   duplicates (resize-time copy). *)
let copy_into table key =
  let mask = Array.length table - 1 in
  let rec probe i =
    if Atomic.get table.(i) = empty_slot then Atomic.set table.(i) key
    else probe ((i + 1) land mask)
  in
  probe (slot_hash key land mask)

(* Double [shard]'s table. Sealing every empty slot first makes the old
   table immutable: a writer's CAS on a sealed slot fails, and it then
   waits for the new table pointer before retrying, so no insert can land
   in the old table after the copy has read it. Occupied slots are
   write-once (empty -> key, never mutated), so reading them concurrently
   with late [mem] probes is safe. *)
let resize t shard old_table =
  Mutex.lock shard.lock;
  if Atomic.get shard.table == old_table then begin
    Metrics.incr t.m_resizes;
    let n = Array.length old_table in
    let fresh = make_table (2 * n) in
    for i = 0 to n - 1 do
      let rec seal () =
        let v = Atomic.get old_table.(i) in
        if v = empty_slot && not (Atomic.compare_and_set old_table.(i) empty_slot sealed_slot)
        then seal ()
        else v
      in
      let v = seal () in
      if v <> empty_slot && v <> sealed_slot then copy_into fresh v
    done;
    Atomic.set shard.table fresh
  end;
  Mutex.unlock shard.lock

(* Spin until a resize in progress publishes its new table. The window is
   the resizer's copy loop; a [Domain.cpu_relax] keeps the wait polite. *)
let rec await_table shard old_table =
  let table = Atomic.get shard.table in
  if table == old_table then begin
    Domain.cpu_relax ();
    await_table shard old_table
  end
  else table

let load_exceeded table count =
  (* Resize at 3/4 load: linear probing degrades sharply beyond it. *)
  4 * count > 3 * Array.length table

let add t fp =
  let key = encode fp in
  let shard = shard_of t key in
  let rec attempt table =
    let mask = Array.length table - 1 in
    let rec probe i collisions =
      let v = Atomic.get table.(i) in
      if v = key then begin
        Metrics.incr t.m_hits;
        if collisions > 0 then Metrics.add t.m_collisions collisions;
        false
      end
      else if v = empty_slot then begin
        if Atomic.compare_and_set table.(i) empty_slot key then begin
          let count = 1 + Atomic.fetch_and_add shard.count 1 in
          Metrics.incr t.m_misses;
          if collisions > 0 then Metrics.add t.m_collisions collisions;
          if load_exceeded table count then resize t shard table;
          true
        end
        else
          (* Lost the slot race: re-examine the same slot — the winner may
             have stored exactly our key, which must report "present", not
             silently claim a second slot. *)
          probe i collisions
      end
      else if v = sealed_slot then attempt (await_table shard table)
      else probe ((i + 1) land mask) (collisions + 1)
    in
    probe (slot_hash key land mask) 0
  in
  attempt (Atomic.get shard.table)

let mem t fp =
  let key = encode fp in
  let shard = shard_of t key in
  let rec attempt table =
    let mask = Array.length table - 1 in
    let rec probe i =
      let v = Atomic.get table.(i) in
      if v = key then true
      else if v = empty_slot then false
      else if v = sealed_slot then attempt (await_table shard table)
      else probe ((i + 1) land mask)
    in
    probe (slot_hash key land mask)
  in
  attempt (Atomic.get shard.table)

let cardinal t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.count) 0 t.shards
