(* Each metric is one row of plain int cells: a counter or gauge has one
   cell, a histogram one per bucket plus overflow, sum and count. *)

type kind = Kcounter | Kgauge | Khistogram

type metric = {
  kind : kind;
  cells : int array;
  bounds : int array;  (* empty unless histogram *)
}

type t = { reg_enabled : bool; mutable by_name : (string * metric) list }

(* Handles resolve the registry lookup once; a disabled handle's updates
   do nothing. *)
type counter = { c_enabled : bool; c_cells : int array }

type gauge = { g_enabled : bool; g_cells : int array }

type histogram = {
  h_enabled : bool;
  h_bounds : int array;
  h_cells : int array;  (* #bounds + 3 cells: buckets, overflow, sum, count *)
}

let create () = { reg_enabled = true; by_name = [] }

let disabled = { reg_enabled = false; by_name = [] }

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

let histogram t ~buckets name =
  if not t.reg_enabled then { h_enabled = false; h_bounds = [||]; h_cells = [||] }
  else begin
    Array.iteri
      (fun i b ->
        if i > 0 && b <= buckets.(i - 1) then
          invalid_arg "Metrics.histogram: buckets must be strictly increasing")
      buckets;
    let bounds = Array.copy buckets in
    let m = register t name Khistogram ~bounds ~cells:(Array.length bounds + 3) in
    { h_enabled = true; h_bounds = bounds; h_cells = m.cells }
  end

let add c n = if c.c_enabled then c.c_cells.(0) <- c.c_cells.(0) + n

let incr c = add c 1

let record_max g v = if g.g_enabled && v > g.g_cells.(0) then g.g_cells.(0) <- v

let observe h v =
  if h.h_enabled then begin
    let nb = Array.length h.h_bounds in
    let rec bucket i = if i >= nb || v <= h.h_bounds.(i) then i else bucket (i + 1) in
    let bucket = bucket 0 in
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
