(* Virtual cycle clock.

   All RTOS-simulator time is counted in CPU cycles of the modelled
   microcontroller; the benchmark boards in the paper all run at 64 MHz,
   which is the default frequency here.  Wall-clock-independent time makes
   every experiment deterministic and reproducible. *)

(* [now] is an immediate int, not a boxed int64: a fleet keeps one clock
   per device, and every advance of a boxed field would allocate.  At
   64 MHz a 63-bit int counts cycles for over two thousand years. *)
type t = { mutable now : int; frequency_hz : int }

let default_frequency_hz = 64_000_000

let create ?(frequency_hz = default_frequency_hz) () = { now = 0; frequency_hz }

let now t = Int64.of_int t.now
let frequency_hz t = t.frequency_hz

let advance t cycles =
  if cycles < 0 then invalid_arg "Clock.advance: negative";
  t.now <- t.now + cycles

let advance_to t time =
  if Int64.compare time (Int64.of_int t.now) > 0 then
    t.now <- Int64.to_int time

let cycles_of_us t us = us * t.frequency_hz / 1_000_000

let us_of_cycles t cycles =
  Int64.to_float cycles *. 1_000_000.0 /. float_of_int t.frequency_hz

let ms_of_cycles t cycles = us_of_cycles t cycles /. 1000.0
