(* Measurement utilities for the experiment harness.

   Host wall-clock timings (warmup + repetitions + median) and RAM
   measurement via [Obj.reachable_words].  All "measured" columns in
   EXPERIMENTS.md come from here; modelled columns come from
   [Footprint]. *)

(* CLOCK_MONOTONIC nanoseconds, the same clock as [Obs.now_ns]. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* [time_ns f] returns the median wall-clock nanoseconds of one call.
   Fast operations are automatically batched so the per-sample duration
   stays well above the clock's resolution. *)
let time_ns ?(warmup = 3) ?(repetitions = 15) f =
  for _ = 1 to warmup do
    ignore (Sys.opaque_identity (f ()))
  done;
  (* rough single-shot estimate to size the batch *)
  let rough =
    let start = now_ns () in
    ignore (Sys.opaque_identity (f ()));
    Float.max 20.0 (now_ns () -. start)
  in
  let batch = max 1 (int_of_float (200_000.0 /. rough)) in
  let samples =
    List.init repetitions (fun _ ->
        let start = now_ns () in
        for _ = 1 to batch do
          ignore (Sys.opaque_identity (f ()))
        done;
        (now_ns () -. start) /. float_of_int batch)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (repetitions / 2)

(* For very fast operations: amortize over a batch, return ns/op. *)
let time_ns_batched ?(batch = 1000) ?(warmup = 2) ?(repetitions = 9) f =
  let run_batch () =
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  time_ns ~warmup ~repetitions run_batch /. float_of_int batch

(* Wall-clock ns/run, best of [trials] batches: the cheap per-push
   counterpart of a statistical fit, shared by every bench smoke (the
   dispatch, update and corpus gates all divide two of these, so only the
   batching — not the estimator — needs to match). *)
let wall_ns ?(warmup = 2) ?(iters = 5) ?(trials = 3) f =
  for _ = 1 to warmup do
    f ()
  done;
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = now_ns () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = now_ns () -. t0 in
    if dt < !best then best := dt
  done;
  !best /. float_of_int iters

let us_of_ns ns = ns /. 1000.0
let ms_of_ns ns = ns /. 1_000_000.0

(* Deep heap footprint of a value, in bytes. *)
let reachable_bytes value = Obj.reachable_words (Obj.repr value) * (Sys.word_size / 8)

let median values =
  let sorted = List.sort compare values in
  List.nth sorted (List.length sorted / 2)
