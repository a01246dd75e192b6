(* Host-speed correction for measuring runs.

   Other tenants of the machine slow this process down by up to 1.6x, in
   bursts lasting from a second to more than a minute; a run that falls
   in a burst reads up to 60% slow, whatever the code does. While a part
   of the workload runs, a wall-clock timer interrupts it every
   [interval] seconds to run a fixed reference kernel and time it. The
   kernel is benchmark code over the standard library only, so no change
   to the repository can speed it up or slow it down; when it runs slower
   than [nominal_ns], the host is slower by that factor. A part's
   reference time is its wall time minus the kernel's own time, scaled by
   nominal / mean kernel time. On the development box this brought the
   spread of repeated verify-rgs-n9 and explore-faults-n6 repetitions
   over four minutes from 13% to 2%. *)

(* A random cyclic permutation of 4096 slots (Sattolo's algorithm with a
   fixed linear congruential generator). *)
let ring =
  let a = Array.init 4_096 Fun.id in
  let state = ref 12_345 in
  for i = 4_095 downto 1 do
    state := ((!state * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
    let j = !state mod i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Dependent loads around a 32 KB ring plus integer mixing. It allocates
   nothing and its data stays in the core's caches, so its speed follows
   the host's CPU speed and not this process's heap: on the development
   box it ran 1.17 ms during both a 4 MB and a 94 MB workload. *)
let kernel () =
  let x = ref 0 and acc = ref 0 in
  for _ = 1 to 150 do
    for _ = 0 to 4_095 do
      x := Array.unsafe_get ring !x;
      acc := !acc + (!x lxor (!acc lsl 1))
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* One kernel pass on the development box. Only ratios between runs
   matter, so its exact value does not. *)
let nominal_ns = 1_150_000

let interval = 0.04

(* Fewer samples than this and a part borrows its repetition's mean. *)
let min_samples = 4

let samples = ref 0

let kernel_ns = ref 0

let sample _ =
  let t0 = Layer.now () in
  kernel ();
  kernel_ns := !kernel_ns + (Layer.now () - t0);
  incr samples

let start () =
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle sample);
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigalrm Sys.Signal_default

(* What the sampler saw while [f] ran: wall time net of the kernel's own
   time, kernel passes, and their total time. *)
type span = { net_ns : int; samples : int; kernel_ns : int }

let measure f =
  let s0 = !samples and k0 = !kernel_ns in
  let t0 = Layer.now () in
  let r = f () in
  let wall = Layer.now () - t0 in
  let k = !kernel_ns - k0 in
  (r, { net_ns = wall - k; samples = !samples - s0; kernel_ns = k })

let add a b =
  {
    net_ns = a.net_ns + b.net_ns;
    samples = a.samples + b.samples;
    kernel_ns = a.kernel_ns + b.kernel_ns;
  }

let zero = { net_ns = 0; samples = 0; kernel_ns = 0 }

(* [s] in reference nanoseconds, using [fallback]'s samples when [s] has
   too few of its own. *)
let reference ~fallback s =
  let src = if s.samples >= min_samples then s else fallback in
  if src.samples = 0 || src.kernel_ns = 0 then float_of_int s.net_ns
  else
    float_of_int s.net_ns *. float_of_int nominal_ns *. float_of_int src.samples
    /. float_of_int src.kernel_ns
