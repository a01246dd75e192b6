type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a promise = {
  pm : Mutex.t;
  pc : Condition.t;
  mutable st : 'a state;
}

(* Pending jobs form a FIFO queue: no job starts before one submitted
   earlier has started. *)
type t = {
  m : Mutex.t;
  work_available : Condition.t;
  jobs : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let size t = List.length t.workers

(* Jobs never raise: submit wraps the task so that any exception is stored
   in the promise instead of killing the worker. *)
let rec worker_loop t =
  Mutex.lock t.m;
  let rec next () =
    match Queue.take_opt t.jobs with
    | Some _ as job -> job
    | None ->
        if t.closed then None
        else begin
          Condition.wait t.work_available t.m;
          next ()
        end
  in
  match next () with
  | None -> Mutex.unlock t.m
  | Some job ->
      Mutex.unlock t.m;
      job ();
      worker_loop t

let create ~domains =
  let t =
    {
      m = Mutex.create ();
      work_available = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [];
    }
  in
  if domains > 1 then t.workers <- List.init domains (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let fulfill promise st =
  Mutex.lock promise.pm;
  promise.st <- st;
  Condition.broadcast promise.pc;
  Mutex.unlock promise.pm

let submit t f =
  let promise = { pm = Mutex.create (); pc = Condition.create (); st = Pending } in
  let job () =
    match f () with
    | v -> fulfill promise (Done v)
    | exception e -> fulfill promise (Failed (e, Printexc.get_raw_backtrace ()))
  in
  if t.workers = [] then begin
    if t.closed then invalid_arg "Pool.submit: pool is shut down";
    job ()
  end
  else begin
    Mutex.lock t.m;
    if t.closed then begin
      Mutex.unlock t.m;
      invalid_arg "Pool.submit: pool is shut down"
    end;
    Queue.push job t.jobs;
    Condition.signal t.work_available;
    Mutex.unlock t.m
  end;
  promise

let await promise =
  Mutex.lock promise.pm;
  let rec wait () =
    match promise.st with
    | Pending ->
        Condition.wait promise.pc promise.pm;
        wait ()
    | st -> st
  in
  let st = wait () in
  Mutex.unlock promise.pm;
  match st with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map_list t f xs =
  let promises = List.map (fun x -> submit t (fun () -> f x)) xs in
  List.map await promises

let shutdown t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.m;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

let run ~domains f =
  let pool = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
