(* Measurement utilities for the experiment harness.

   Host wall-clock timings (warmup + repetitions + median) and RAM
   measurement via [Obj.reachable_words].  All "measured" columns in
   EXPERIMENTS.md come from here; modelled columns come from
   [Footprint]. *)

(* CLOCK_MONOTONIC nanoseconds, the same clock as [Obs.now_ns]. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* ns per call over one batch of [n] calls of [f]. *)
let batch_ns n f =
  let t0 = now_ns () in
  for _ = 1 to n do
    f ()
  done;
  (now_ns () -. t0) /. float_of_int n

let median values =
  let sorted = List.sort compare values in
  List.nth sorted (List.length sorted / 2)

(* [time_ns f] returns the median wall-clock nanoseconds of one call.
   Fast operations are automatically batched so the per-sample duration
   stays well above the clock's resolution. *)
let time_ns ?(warmup = 3) ?(repetitions = 15) f =
  let call () = ignore (Sys.opaque_identity (f ())) in
  for _ = 1 to warmup do
    call ()
  done;
  (* rough single-shot estimate to size the batch *)
  let rough = Float.max 20.0 (batch_ns 1 call) in
  let batch = max 1 (int_of_float (200_000.0 /. rough)) in
  median (List.init repetitions (fun _ -> batch_ns batch call))

(* For very fast operations: amortize over a batch, return ns/op. *)
let time_ns_batched ?(batch = 1000) ?(warmup = 2) ?(repetitions = 9) f =
  let run_batch () =
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  time_ns ~warmup ~repetitions run_batch /. float_of_int batch

(* Wall-clock ns/run, best of [trials] batches: the cheap per-push
   counterpart of a statistical fit, shared by the dispatch, spawn and
   edge smokes. *)
let wall_ns ?(warmup = 2) ?(iters = 5) ?(trials = 3) f =
  for _ = 1 to warmup do
    f ()
  done;
  List.fold_left Float.min infinity (List.init trials (fun _ -> batch_ns iters f))

(* Paired, interleaved trials: [trials] rounds, each calling every thunk
   of [fs] once, in order and back to back, so the samples of one round
   all see the same host speed.  [samples.(i).(r)] is what thunk [i]
   returned in round [r]. *)
let interleaved ~trials fs =
  let samples = Array.map (fun _ -> Array.make trials 0.0) fs in
  for r = 0 to trials - 1 do
    Array.iteri (fun i f -> samples.(i).(r) <- f ()) fs
  done;
  samples

(* The median over rounds of [num.(r) /. den.(r)]: a host stall lands in
   one round, and one round cannot decide the median. *)
let median_ratio num den = median (Array.to_list (Array.map2 ( /. ) num den))

let us_of_ns ns = ns /. 1000.0
let ms_of_ns ns = ns /. 1_000_000.0

(* Deep heap footprint of a value, in bytes. *)
let reachable_bytes value = Obj.reachable_words (Obj.repr value) * (Sys.word_size / 8)
