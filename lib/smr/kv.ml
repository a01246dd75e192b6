type action = Put of int | Get

type op = { client : int; key : int; action : action }

let pp_op fmt { client; key; action } =
  match action with
  | Put value -> Format.fprintf fmt "c%d: put k%d <- %d" client key value
  | Get -> Format.fprintf fmt "c%d: get k%d" client key

(* Bit layout of a single-op command word (always < 2^47):
     bits  0..9   value   (0..1023; zero for Get)
     bits 10..19  key     (0..1023)
     bits 20..45  client  (0..2^26 - 1)
     bit  46      kind    (0 = Put, 1 = Get)
   Put words therefore coincide with the pre-read codec's whole range.
   Words >= 2^47 are batch identifiers handed out by [Batch.pack]. *)

let value_bits = 10
let key_bits = 10
let client_bits = 26
let value_mask = (1 lsl value_bits) - 1
let key_mask = (1 lsl key_bits) - 1
let client_mask = (1 lsl client_bits) - 1
let max_client = client_mask
let kind_bit = 1 lsl (value_bits + key_bits + client_bits)
let batch_base = kind_bit lsl 1

let encode { client; key; action } =
  if key < 0 || key > key_mask || client < 0 || client > client_mask then
    invalid_arg "Kv.encode: field out of range";
  let base = (client lsl (key_bits + value_bits)) lor (key lsl value_bits) in
  match action with
  | Put value ->
      if value < 0 || value > value_mask then invalid_arg "Kv.encode: field out of range";
      base lor value
  | Get -> kind_bit lor base

let decode cmd =
  if cmd < 0 || cmd >= batch_base then invalid_arg "Kv.decode: not a single-op command";
  {
    client = (cmd lsr (key_bits + value_bits)) land client_mask;
    key = (cmd lsr value_bits) land key_mask;
    action = (if cmd land kind_bit <> 0 then Get else Put (cmd land value_mask));
  }

let is_get cmd = cmd >= 0 && cmd < batch_base && cmd land kind_bit <> 0

module Batch = struct
  (* A content-addressed intern table: a batch of k >= 2 ops is proposed
     through consensus as a single small identifier word, and every replica
     of one [Replica.Instance] shares the registry, so the id expands to
     the same op list wherever it is applied.  Singletons stay themselves,
     keeping one-command batches indistinguishable from the unbatched
     protocol (and the legacy codec). *)

  type t = {
    by_content : (Proto.Value.t list, Proto.Value.t) Hashtbl.t;
    by_id : (Proto.Value.t, Proto.Value.t list) Hashtbl.t;
    mutable next : Proto.Value.t;
  }

  let create () = { by_content = Hashtbl.create 64; by_id = Hashtbl.create 64; next = batch_base }

  let is_batch v = v >= batch_base

  let pack t ops =
    match ops with
    | [] -> invalid_arg "Kv.Batch.pack: empty batch"
    | [ v ] -> v
    | ops -> (
        List.iter
          (fun v -> if is_batch v then invalid_arg "Kv.Batch.pack: nested batch")
          ops;
        match Hashtbl.find_opt t.by_content ops with
        | Some id -> id
        | None ->
            let id = t.next in
            t.next <- t.next + 1;
            Hashtbl.add t.by_content ops id;
            Hashtbl.add t.by_id id ops;
            id)

  let expand t v =
    if not (is_batch v) then [ v ]
    else
      match Hashtbl.find_opt t.by_id v with
      | Some ops -> ops
      | None -> invalid_arg "Kv.Batch.expand: unknown batch id"

  let size t v = if is_batch v then List.length (expand t v) else 1
end

type store = (int, int) Hashtbl.t

let empty () = Hashtbl.create 64

let apply store { key; action; _ } =
  match action with Put value -> Hashtbl.replace store key value | Get -> ()

let get store key = Hashtbl.find_opt store key

let read store key = Option.value ~default:0 (get store key)

let replay log =
  let store = empty () in
  List.iter (fun (_, cmd) -> apply store (decode cmd)) log;
  store

let bindings store =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) store [] |> List.sort compare

let equal_store a b = bindings a = bindings b

let pp_store fmt store =
  Format.pp_print_list ~pp_sep:Format.pp_print_space
    (fun fmt (k, v) -> Format.fprintf fmt "k%d=%d" k v)
    fmt (bindings store)

module Mstore = struct
  (* Persistent variant for replica-internal state: [Replica.state_copy]
     shares it between a state and its copy instead of copying the whole
     store, and the previous-value shadow map is what the deliberate
     stale-read mutation serves reads from. *)

  module Imap = Map.Make (Int)

  type t = { cur : int Imap.t; prev : int Imap.t }

  let empty = { cur = Imap.empty; prev = Imap.empty }

  let read t key = Option.value ~default:0 (Imap.find_opt key t.cur)

  let stale t key = Option.value ~default:0 (Imap.find_opt key t.prev)

  let eval t { key; action; _ } =
    match action with
    | Put value ->
        ({ cur = Imap.add key value t.cur; prev = Imap.add key (read t key) t.prev }, value)
    | Get -> (t, read t key)
end
