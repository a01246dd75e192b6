(* Each metric is one row of plain int cells: a counter or gauge has one
   cell, a histogram one per bucket plus overflow, sum and count. *)

type kind = Kcounter | Kgauge | Khistogram

type metric = {
  kind : kind;
  cells : int array;
  bounds : int array;  (* empty unless histogram *)
}

type t = { reg_enabled : bool; mutable by_name : (string * metric) list }

(* Handles resolve the registry lookup once; [enabled] is the only field
   hot paths touch when telemetry is off. *)
type counter = { c_enabled : bool; c_cells : int array }

type gauge = { g_enabled : bool; g_cells : int array }

type histogram = {
  h_enabled : bool;
  h_bounds : int array;
  h_table : int array;
      (* direct value -> bucket-index map for values in [0, max bound];
         empty when the bounds don't admit a small dense table *)
  h_cells : int array;  (* #bounds + 3 cells: buckets, overflow, sum, count *)
}

let create ?(enabled = true) () = { reg_enabled = enabled; by_name = [] }

let disabled = create ~enabled:false ()

let is_enabled t = t.reg_enabled

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

let register t name kind ~bounds ~cells =
  match List.assoc_opt name t.by_name with
  | Some m ->
      if m.kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %S is a %s, not a %s" name (kind_name m.kind)
             (kind_name kind));
      if m.bounds <> bounds then
        invalid_arg (Printf.sprintf "Metrics: %S re-registered with different buckets" name);
      m
  | None ->
      let m = { kind; cells = Array.make cells 0; bounds } in
      t.by_name <- (name, m) :: t.by_name;
      m

let counter t name =
  if not t.reg_enabled then { c_enabled = false; c_cells = [||] }
  else { c_enabled = true; c_cells = (register t name Kcounter ~bounds:[||] ~cells:1).cells }

let gauge t name =
  if not t.reg_enabled then { g_enabled = false; g_cells = [||] }
  else { g_enabled = true; g_cells = (register t name Kgauge ~bounds:[||] ~cells:1).cells }

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
  if not t.reg_enabled then { h_enabled = false; h_bounds = [||]; h_table = [||]; h_cells = [||] }
  else begin
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly increasing")
      buckets;
    let bounds = Array.copy buckets in
    let m = register t name Khistogram ~bounds ~cells:(Array.length bounds + 3) in
    { h_enabled = true; h_bounds = bounds; h_table = bucket_table bounds; h_cells = m.cells }
  end

let add c n = if c.c_enabled then c.c_cells.(0) <- c.c_cells.(0) + n

let incr c = add c 1

let record_max g v = if g.g_enabled && v > g.g_cells.(0) then g.g_cells.(0) <- v

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
    let cells = h.h_cells in
    cells.(bucket) <- cells.(bucket) + 1;
    cells.(nb + 1) <- cells.(nb + 1) + v;
    cells.(nb + 2) <- cells.(nb + 2) + 1
  end

(* -- read side ---------------------------------------------------------- *)

type value =
  | Counter of int
  | Gauge of int
  | Histogram of { bounds : int array; counts : int array; sum : int; count : int }

let read (m : metric) =
  match m.kind with
  | Kcounter -> Counter m.cells.(0)
  | Kgauge -> Gauge m.cells.(0)
  | Khistogram ->
      let nb = Array.length m.bounds in
      Histogram
        {
          bounds = Array.copy m.bounds;
          counts = Array.sub m.cells 0 (nb + 1);
          sum = m.cells.(nb + 1);
          count = m.cells.(nb + 2);
        }

let to_list t =
  List.map (fun (name, m) -> (name, read m)) t.by_name
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t name = Option.map read (List.assoc_opt name t.by_name)

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
