(* Indexed binary min-heap over dense non-negative int ids.

   Each entry is an id with a packed key [(priority lsl seq_bits) lor seq],
   as in {!Pqueue}: heap order is one monomorphic [<] on unboxed ints, and
   the sequence stamp (fresh on every [set]) makes ties pop in the order of
   their last [set]. Three int arrays hold the heap: [keys] and [ids] by
   heap position, and [pos] mapping every id to its heap position, or -1
   when the id is absent. Sifts move two ints per level and store the
   moved id's new position; nothing goes through the write barrier.
   [pos] grows to cover the largest id ever set, so ids should be dense.
   The sequence counter is renumbered in pop order when it overflows,
   exactly like {!Pqueue}'s. *)

let seq_bits = 24

let seq_limit = 1 lsl seq_bits

let prio_limit = 1 lsl 38

let absent = -1

type t = {
  mutable keys : int array;  (* heap position -> packed key *)
  mutable ids : int array;  (* heap position -> id *)
  mutable pos : int array;  (* id -> heap position, [absent] when not in the heap *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; ids = [||]; pos = [||]; size = 0; next_seq = 0 }

let copy t =
  {
    keys = Array.sub t.keys 0 t.size;
    ids = Array.sub t.ids 0 t.size;
    pos = Array.copy t.pos;
    size = t.size;
    next_seq = t.next_seq;
  }

let is_empty t = t.size = 0

let length t = t.size

let mem t ~id = id >= 0 && id < Array.length t.pos && t.pos.(id) <> absent

let prio_of_key k = k asr seq_bits

let min_priority t =
  if t.size = 0 then invalid_arg "Iheap.min_priority: empty heap";
  prio_of_key t.keys.(0)

(* Heap positions sorted by key: pop order. Keys are unique (each carries
   its own stamp), so the sort needs no tie-break. *)
let positions_in_order t =
  let keys = t.keys in
  let order = Array.init t.size Fun.id in
  Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) order;
  order

(* Renumber stamps 0..size-1 in pop order. A sorted key array is a valid
   min-heap, so the rewritten prefix needs no sifting. *)
let compact t =
  let order = positions_in_order t in
  let sorted_keys = Array.map (fun p -> t.keys.(p)) order in
  let sorted_ids = Array.map (fun p -> t.ids.(p)) order in
  for i = 0 to t.size - 1 do
    t.keys.(i) <- (prio_of_key sorted_keys.(i) lsl seq_bits) lor i;
    t.ids.(i) <- sorted_ids.(i);
    t.pos.(sorted_ids.(i)) <- i
  done;
  t.next_seq <- t.size

let grow_heap t =
  let cap = Array.length t.keys in
  let new_cap = max 16 (2 * cap) in
  let extend a =
    let b = Array.make new_cap 0 in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.keys <- extend t.keys;
  t.ids <- extend t.ids

let grow_pos t id =
  let cap = Array.length t.pos in
  let new_cap = max (id + 1) (max 16 (2 * cap)) in
  let pos = Array.make new_cap absent in
  Array.blit t.pos 0 pos 0 cap;
  t.pos <- pos

(* Hole-based sifts: slide entries into the hole, write [key]/[id] once. *)
let sift_up t i key id =
  let keys = t.keys and ids = t.ids and pos = t.pos in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < keys.(parent) then begin
      let moved = ids.(parent) in
      keys.(!i) <- keys.(parent);
      ids.(!i) <- moved;
      pos.(moved) <- !i;
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  ids.(!i) <- id;
  pos.(id) <- !i

let sift_down t i key id =
  let keys = t.keys and ids = t.ids and pos = t.pos in
  let size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c = if r < size && keys.(r) < keys.(l) then r else l in
      if keys.(c) < key then begin
        let moved = ids.(c) in
        keys.(!i) <- keys.(c);
        ids.(!i) <- moved;
        pos.(moved) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  keys.(!i) <- key;
  ids.(!i) <- id;
  pos.(id) <- !i

let set t ~id ~priority =
  if id < 0 then invalid_arg "Iheap.set: negative id";
  if priority < -prio_limit || priority >= prio_limit then
    invalid_arg "Iheap.set: priority outside +-2^38 (packing invariant)";
  if id >= Array.length t.pos then grow_pos t id;
  if t.next_seq >= seq_limit then compact t;
  let key = (priority lsl seq_bits) lor t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let i = t.pos.(id) in
  if i = absent then begin
    if t.size = Array.length t.keys then grow_heap t;
    let i = t.size in
    t.size <- i + 1;
    sift_up t i key id
  end
  else if key < t.keys.(i) then sift_up t i key id
  else sift_down t i key id

(* Re-seat the last entry in the hole left at position [i]. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  t.pos.(t.ids.(i)) <- absent;
  if i < last then begin
    let key = t.keys.(last) and id = t.ids.(last) in
    if i > 0 && key < t.keys.((i - 1) / 2) then sift_up t i key id
    else sift_down t i key id
  end

let remove t ~id = if mem t ~id then remove_at t t.pos.(id)

let pop_min t =
  if t.size = 0 then invalid_arg "Iheap.pop_min: empty heap";
  let id = t.ids.(0) in
  remove_at t 0;
  id

let iter_in_order t f =
  Array.iter
    (fun p -> f ~id:t.ids.(p) ~priority:(prio_of_key t.keys.(p)))
    (positions_in_order t)
