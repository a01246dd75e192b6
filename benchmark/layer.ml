(* Outside-in layer timing. A layer is whatever sits behind an automaton
   boundary — a protocol from [Proto.Protocol.S], or the replica automaton
   of [Smr.Replica.make] — and the wrapper counts every transition the
   engine dispatches into it and times a sample of them. Wrappers nest: a
   replica wrapper's time includes the protocol transitions it calls, so
   self times are differences (outer minus inner), computed by the caller.

   Reading the clock around every transition costs about 50 ns, which on
   the SMR ladders inflated the traced engine time by 12%. One transition
   in [sample_every], picked by a fixed pseudo-random sequence (so the
   choice is independent of what the transition does), is timed instead,
   and totals are scaled up by calls / sampled. *)

let sample_every = 8

type t = {
  mutable sampled_ns : int;  (* wall time inside the sampled transitions *)
  mutable sampled : int;
  mutable calls : int;  (* transitions dispatched *)
  mutable timer_fires : int;
  mutable sends : int;  (* messages the transitions asked the engine to send *)
  mutable outputs : int;  (* environment outputs (decisions, applies) *)
  mutable draw : int;  (* xorshift state *)
}

let create () =
  {
    sampled_ns = 0;
    sampled = 0;
    calls = 0;
    timer_fires = 0;
    sends = 0;
    outputs = 0;
    draw = 0x2545F491;
  }

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

let seconds_since t0 = seconds (now () - t0)

(* Estimated wall time inside the layer's transitions, in ns. *)
let ns t = if t.sampled = 0 then 0 else t.sampled_ns * t.calls / t.sampled

let sample t =
  let x = t.draw in
  let x = x lxor ((x lsl 13) land 0xFFFF_FFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0xFFFF_FFFF) in
  t.draw <- x;
  x land (sample_every - 1) = 0

let count t ~n ((_, actions) as r) =
  t.calls <- t.calls + 1;
  List.iter
    (function
      | Dsim.Automaton.Send _ -> t.sends <- t.sends + 1
      | Dsim.Automaton.Broadcast _ -> t.sends <- t.sends + n - 1
      | Dsim.Automaton.Output _ -> t.outputs <- t.outputs + 1
      | Dsim.Automaton.Set_timer _ | Dsim.Automaton.Cancel_timer _ -> ())
    actions;
  r

let timed t ~n transition =
  if sample t then begin
    let t0 = now () in
    let r = transition () in
    t.sampled_ns <- t.sampled_ns + (now () - t0);
    t.sampled <- t.sampled + 1;
    count t ~n r
  end
  else count t ~n (transition ())

let automaton t ~n (a : ('s, 'm, 'i, 'o) Dsim.Automaton.t) : ('s, 'm, 'i, 'o) Dsim.Automaton.t =
  {
    a with
    init = (fun ~self ~n:size -> timed t ~n (fun () -> a.init ~self ~n:size));
    on_message = (fun s ~src m -> timed t ~n (fun () -> a.on_message s ~src m));
    on_input = (fun s i -> timed t ~n (fun () -> a.on_input s i));
    on_timer =
      (fun s id ->
        t.timer_fires <- t.timer_fires + 1;
        timed t ~n (fun () -> a.on_timer s id));
  }

(* The same protocol, every transition of every automaton it builds
   counted and sampled into [t]. Checkers and the replica take it wherever
   they take the original. *)
let protocol t (module P : Proto.Protocol.S) : Proto.Protocol.t =
  (module struct
    include P

    let make ~n ~e ~f ~delta = automaton t ~n (P.make ~n ~e ~f ~delta)
  end)
