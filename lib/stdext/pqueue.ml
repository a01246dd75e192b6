(* Index binary min-heap with int-packed keys.

   Each entry's (priority, insertion sequence) pair is packed into one
   OCaml int — [key = (priority lsl seq_bits) lor seq] — so the heap order
   is a single monomorphic [<] on an unboxed int array. Payloads do not
   move with their keys: [push] writes each payload once into a slot of
   [vals], and the heap-ordered [slots] array maps every heap position to
   its payload's slot. Sifts therefore move two unboxed ints per level and
   never go through the write barrier, which is what makes this the
   simulation engine's hot-path queue. Positions [size ..] of [slots] hold
   the free slots as a stack (so [slots] is always a permutation of the
   capacity): a pop parks its freed slot at the old last position, and the
   next push takes it from there, reusing slots LIFO. Packing invariants
   (see the .mli): [seq_bits = 24] bits of sequence, priorities within
   +-2^38. The sequence counter is renumbered in place (pop order
   preserved) when it overflows, so FIFO-within-priority survives
   arbitrarily long runs. *)

let seq_bits = 24

let seq_limit = 1 lsl seq_bits

let prio_limit = 1 lsl 38

type 'a t = {
  mutable keys : int array;  (* heap position -> packed key *)
  mutable slots : int array;  (* heap position -> payload slot; free stack past [size] *)
  mutable vals : 'a array;  (* payload slot -> payload *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; slots = [||]; vals = [||]; size = 0; next_seq = 0 }

(* Only the live entries are copied, laid out densely (slot i holds the
   payload at heap position i), so cloning a drained queue with a large
   retained capacity costs (almost) nothing, and the copy's free-slot
   stack is empty: its first push grows into fresh slots. *)
let copy t =
  let n = t.size in
  {
    keys = Array.sub t.keys 0 n;
    slots = Array.init n Fun.id;
    vals = Array.init n (fun i -> t.vals.(t.slots.(i)));
    size = n;
    next_seq = t.next_seq;
  }

let is_empty t = t.size = 0

let length t = t.size

let prio_of_key k = k asr seq_bits

(* Renumber sequence stamps 0..size-1 in pop order, moving each slot index
   with its key. A sorted key array is already a valid min-heap, so the
   rewritten prefix needs no sifting; payloads and the free-slot stack
   stay where they are. Runs once every [seq_limit] pushes at worst. *)
let compact t =
  let n = t.size in
  let keys = t.keys and slots = t.slots in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
  let sorted_keys = Array.map (fun p -> keys.(p)) order in
  let sorted_slots = Array.map (fun p -> slots.(p)) order in
  for i = 0 to n - 1 do
    keys.(i) <- (prio_of_key sorted_keys.(i) lsl seq_bits) lor i;
    slots.(i) <- sorted_slots.(i)
  done;
  t.next_seq <- n

(* Called when every slot is live; the new positions get fresh slots. *)
let grow t v =
  let cap = Array.length t.keys in
  let new_cap = max 16 (2 * cap) in
  let keys = Array.make new_cap 0 in
  let slots = Array.init new_cap Fun.id in
  let vals = Array.make new_cap v in
  Array.blit t.keys 0 keys 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  t.keys <- keys;
  t.slots <- slots;
  t.vals <- vals

let push t ~priority value =
  if priority < -prio_limit || priority >= prio_limit then
    invalid_arg "Pqueue.push: priority outside +-2^38 (packing invariant)";
  if t.next_seq >= seq_limit then compact t;
  if t.size = Array.length t.keys then grow t value;
  let key = (priority lsl seq_bits) lor t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let keys = t.keys and slots = t.slots in
  let slot = slots.(t.size) in
  t.vals.(slot) <- value;
  (* Hole-based sift-up: slide ancestors down, write once. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      keys.(!i) <- keys.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  slots.(!i) <- slot

(* Remove the root, re-seat the last entry with a hole-based sift-down,
   and park the root's slot on the free stack at the vacated position. *)
let remove_min t =
  let size = t.size - 1 in
  t.size <- size;
  let keys = t.keys and slots = t.slots in
  let freed = slots.(0) in
  if size > 0 then begin
    let key = keys.(size) and slot = slots.(size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let r = l + 1 in
        let c = if r < size && keys.(r) < keys.(l) then r else l in
        if keys.(c) < key then begin
          keys.(!i) <- keys.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- key;
    slots.(!i) <- slot
  end;
  slots.(size) <- freed

let peek_prio t =
  if t.size = 0 then invalid_arg "Pqueue.peek_prio: empty queue";
  prio_of_key t.keys.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Pqueue.pop_exn: empty queue";
  let v = t.vals.(t.slots.(0)) in
  remove_min t;
  v

let pop t =
  if t.size = 0 then None
  else begin
    let prio = prio_of_key t.keys.(0) in
    let v = t.vals.(t.slots.(0)) in
    remove_min t;
    Some (prio, v)
  end

let peek t =
  if t.size = 0 then None else Some (prio_of_key t.keys.(0), t.vals.(t.slots.(0)))

let iter_in_order t f =
  let c = copy t in
  while c.size > 0 do
    let prio = prio_of_key c.keys.(0) in
    let v = c.vals.(c.slots.(0)) in
    remove_min c;
    f prio v
  done

let to_list t =
  let acc = ref [] in
  iter_in_order t (fun prio v -> acc := (prio, v) :: !acc);
  List.rev !acc
