(* The one clock every timing in the benchmark reads: CLOCK_MONOTONIC in
   nanoseconds (bechamel's noalloc stub), plus a growable sample buffer
   with nearest-rank percentiles. *)

let[@inline] now_ns () = Int64.to_float (Monotonic_clock.now ())
let us_of_ns ns = ns /. 1e3

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create ?(capacity = 4096) () = { data = Array.make capacity 0.0; n = 0 }

  let add t v =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    Array.unsafe_set t.data t.n v;
    t.n <- t.n + 1

  let count t = t.n
  let clear t = t.n <- 0

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.data.(i)
    done

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let s = ref 0.0 in
      for i = 0 to t.n - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.n
    end

  let sorted t =
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    a

  (* Nearest rank: the smallest sample with at least [q] of all samples
     at or below it; [percentiles] sorts once for several. *)
  let percentiles t qs =
    if t.n = 0 then List.map (fun _ -> 0.0) qs
    else begin
      let a = sorted t in
      List.map
        (fun q ->
          let rank = int_of_float (Float.ceil (q *. float_of_int t.n)) in
          a.(max 0 (min (t.n - 1) (rank - 1))))
        qs
    end

  let percentile t q = List.hd (percentiles t [ q ])

  (* The middle sample, or the mean of the two middle ones. *)
  let median t =
    if t.n = 0 then 0.0
    else begin
      let a = sorted t in
      if t.n land 1 = 1 then a.(t.n / 2) else (a.((t.n / 2) - 1) +. a.(t.n / 2)) /. 2.
    end
end

(* The mean after dropping the lowest and the highest tenth (at least one
   value at each end once there are five).  Unlike a median it moves
   smoothly when values fall into two modes. *)
let trimmed_mean values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  let cut = if n >= 5 then max 1 (n / 10) else 0 in
  let kept = Array.sub a cut (n - (2 * cut)) in
  if Array.length kept = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept)

let median_of values =
  let s = Samples.create ~capacity:(max 1 (List.length values)) () in
  List.iter (Samples.add s) values;
  Samples.median s

(* Process-wide GC counters over a timed region (minor collections stop
   every domain, so they are counted once for the whole process). *)
type gc_mark = { minor_collections : int; major_collections : int; minor_words : float }

let gc_mark () =
  let s = Gc.quick_stat () in
  {
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    minor_words = s.Gc.minor_words;
  }

let gc_metrics ~ops before after =
  let ops = float_of_int (max 1 ops) in
  [
    ( "gc.minor_collections_per_kop",
      float_of_int (after.minor_collections - before.minor_collections)
      *. 1000. /. ops,
      "count" );
    ( "gc.major_collections_per_kop",
      float_of_int (after.major_collections - before.major_collections)
      *. 1000. /. ops,
      "count" );
    ("gc.minor_words_per_op", (after.minor_words -. before.minor_words) /. ops, "words");
  ]
