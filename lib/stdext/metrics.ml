(* Each metric is a row of [nshards] atomic cells; a writer picks the cell
   indexed by its domain id, so concurrent domains (the explorer runs a
   handful) almost always hit distinct cells and the update is one
   uncontended fetch-and-add. Reads fold over the row. The shard count is a
   power of two so the index is a mask, and larger than the pool sizes in
   use; collisions only cost contention, never correctness. *)

let nshards = 16

let shard_index () = (Domain.self () :> int) land (nshards - 1)

type kind = Kcounter | Kgauge | Khistogram

type metric = {
  kind : kind;
  cells : int Atomic.t array;  (* counters/gauges: nshards; histograms: nshards * row *)
  bounds : int array;  (* empty unless histogram *)
}

type t = {
  reg_enabled : bool;
  lock : Mutex.t;
  mutable by_name : (string * metric) list;
}

(* Handles resolve the registry lookup once; [enabled] is the only field
   hot paths touch when telemetry is off. *)
type counter = { c_enabled : bool; c_cells : int Atomic.t array }

type gauge = { g_enabled : bool; g_cells : int Atomic.t array }

type histogram = {
  h_enabled : bool;
  h_bounds : int array;
  h_table : int array;
      (* direct value -> bucket-index map for values in [0, max bound];
         empty when the bounds don't admit a small dense table *)
  h_cells : int Atomic.t array;  (* nshards rows of (#bounds + 3): buckets, overflow, sum, count *)
  h_row : int;
}

let create ?(enabled = true) () =
  { reg_enabled = enabled; lock = Mutex.create (); by_name = [] }

let disabled = create ~enabled:false ()

let is_enabled t = t.reg_enabled

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

let register t name kind ~bounds ~cells_per_shard =
  Mutex.lock t.lock;
  let m =
    match List.assoc_opt name t.by_name with
    | Some m ->
        if m.kind <> kind then begin
          Mutex.unlock t.lock;
          invalid_arg
            (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name m.kind)
               (kind_name kind))
        end;
        if m.bounds <> bounds then begin
          Mutex.unlock t.lock;
          invalid_arg (Printf.sprintf "Metrics: %S re-registered with different buckets" name)
        end;
        m
    | None ->
        let m =
          {
            kind;
            cells = Array.init (nshards * cells_per_shard) (fun _ -> Atomic.make 0);
            bounds;
          }
        in
        t.by_name <- (name, m) :: t.by_name;
        m
  in
  Mutex.unlock t.lock;
  m

let counter t name =
  if not t.reg_enabled then { c_enabled = false; c_cells = [||] }
  else
    let m = register t name Kcounter ~bounds:[||] ~cells_per_shard:1 in
    { c_enabled = true; c_cells = m.cells }

let gauge t name =
  if not t.reg_enabled then { g_enabled = false; g_cells = [||] }
  else
    let m = register t name Kgauge ~bounds:[||] ~cells_per_shard:1 in
    { g_enabled = true; g_cells = m.cells }

let scan_bucket bounds v =
  let nb = Array.length bounds in
  let rec bucket i = if i >= nb || v <= bounds.(i) then i else bucket (i + 1) in
  bucket 0

(* Largest top bound for which [observe] precomputes a direct
   value -> bucket table. Every histogram in this repository (depth and
   latency buckets) is far below it; histograms with huge bounds fall
   back to the linear scan. *)
let max_bucket_table = 4096

let bucket_table bounds =
  let nb = Array.length bounds in
  if nb = 0 then [||]
  else begin
    let maxb = bounds.(nb - 1) in
    if maxb < 0 || maxb > max_bucket_table then [||]
    else Array.init (maxb + 1) (fun v -> scan_bucket bounds v)
  end

let histogram t ~buckets name =
  if not t.reg_enabled then
    { h_enabled = false; h_bounds = [||]; h_table = [||]; h_cells = [||]; h_row = 0 }
  else begin
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly increasing")
      buckets;
    let bounds = Array.copy buckets in
    (* Row layout per shard: one cell per bound, overflow, sum, count. *)
    let row = Array.length bounds + 3 in
    let m = register t name Khistogram ~bounds ~cells_per_shard:row in
    {
      h_enabled = true;
      h_bounds = bounds;
      h_table = bucket_table bounds;
      h_cells = m.cells;
      h_row = row;
    }
  end

let add c n =
  if c.c_enabled then ignore (Atomic.fetch_and_add c.c_cells.(shard_index ()) n)

let incr c = add c 1

let record_max g v =
  if g.g_enabled then begin
    let cell = g.g_cells.(shard_index ()) in
    let rec loop () =
      let cur = Atomic.get cell in
      if v > cur && not (Atomic.compare_and_set cell cur v) then loop ()
    in
    loop ()
  end

let observe h v =
  if h.h_enabled then begin
    let nb = Array.length h.h_bounds in
    (* In-range observations resolve in one branchless array load; only
       negative values or bounds too large for the table pay the scan. *)
    let bucket =
      if v >= 0 && v < Array.length h.h_table then Array.unsafe_get h.h_table v
      else if nb > 0 && Array.length h.h_table > 0 && v > h.h_bounds.(nb - 1) then nb
      else scan_bucket h.h_bounds v
    in
    let base = shard_index () * h.h_row in
    ignore (Atomic.fetch_and_add h.h_cells.(base + bucket) 1);
    ignore (Atomic.fetch_and_add h.h_cells.(base + nb + 1) v);
    ignore (Atomic.fetch_and_add h.h_cells.(base + nb + 2) 1)
  end

(* -- read side ---------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { bounds : int array; counts : int array; sum : int; count : int }

let merge (m : metric) =
  match m.kind with
  | Kcounter -> Counter (Array.fold_left (fun acc c -> acc + Atomic.get c) 0 m.cells)
  | Kgauge -> Gauge (Array.fold_left (fun acc c -> max acc (Atomic.get c)) 0 m.cells)
  | Khistogram ->
      let nb = Array.length m.bounds in
      let row = nb + 3 in
      let counts = Array.make (nb + 1) 0 in
      let sum = ref 0 in
      let count = ref 0 in
      for s = 0 to nshards - 1 do
        let base = s * row in
        for b = 0 to nb do
          counts.(b) <- counts.(b) + Atomic.get m.cells.(base + b)
        done;
        sum := !sum + Atomic.get m.cells.(base + nb + 1);
        count := !count + Atomic.get m.cells.(base + nb + 2)
      done;
      Histogram { bounds = Array.copy m.bounds; counts; sum = !sum; count = !count }

let to_list t =
  Mutex.lock t.lock;
  let metrics = t.by_name in
  Mutex.unlock t.lock;
  List.map (fun (name, m) -> (name, merge m)) metrics
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name =
  Mutex.lock t.lock;
  let m = List.assoc_opt name t.by_name in
  Mutex.unlock t.lock;
  Option.map merge m

let get_counter t name = match find t name with Some (Counter n) -> n | _ -> 0

let value_to_json name = function
  | Counter n ->
      Json.Obj [ ("metric", Json.String name); ("type", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge n ->
      Json.Obj [ ("metric", Json.String name); ("type", Json.String "gauge"); ("value", Json.Int n) ]
  | Histogram { bounds; counts; sum; count } ->
      Json.Obj
        [
          ("metric", Json.String name);
          ("type", Json.String "histogram");
          ("le", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) bounds)));
          ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) counts)));
          ("sum", Json.Int sum);
          ("count", Json.Int count);
        ]

let dump_jsonl fmt t =
  List.iter
    (fun (name, v) -> Format.fprintf fmt "%s@." (Json.to_string (value_to_json name v)))
    (to_list t)

let pp_table fmt t =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf fmt "%-40s %12d@." name n
      | Gauge n -> Format.fprintf fmt "%-40s %12d (max)@." name n
      | Histogram { bounds; counts; sum; count } ->
          let mean = if count = 0 then 0.0 else float_of_int sum /. float_of_int count in
          Format.fprintf fmt "%-40s %12d obs, mean %.2f@." name count mean;
          Array.iteri
            (fun i c ->
              if c > 0 then
                if i < Array.length bounds then
                  Format.fprintf fmt "%-40s   <= %-8d %8d@." "" bounds.(i) c
                else
                  let last =
                    if Array.length bounds = 0 then "0"
                    else string_of_int bounds.(Array.length bounds - 1)
                  in
                  Format.fprintf fmt "%-40s    > %-8s %8d@." "" last c)
            counts)
    (to_list t)
