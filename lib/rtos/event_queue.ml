(* Time-ordered event queue for the RTOS simulator.

   Events fire in (time, insertion-sequence) order, so simultaneous events
   are handled first-scheduled-first — deterministic by construction.

   The store is an array-backed binary min-heap: a fleet shard parks one
   timer per simulated device on its wheel, so insertion must be
   O(log n) — the sorted list this replaces made scheduling the millionth
   device timer a million-element walk.

   Times are kept as immediate ints, like [Clock]'s cycle count: an
   entry is then one 4-word block with no boxed [int64] beside it, which
   matters because a fleet wheel allocates one per timer fire and each
   lives a whole telemetry period.  The [int64] functions convert at the
   edge; [add_int] and [advance_until_int] are the allocation-free path
   the kernel uses. *)

type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* heap.(0..size-1) is a min-heap *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let is_empty t = t.size = 0
let length t = t.size

let earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.heap in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let heap = Array.make cap' entry in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let rec sift_up heap i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier heap.(i) heap.(parent) then begin
      let tmp = heap.(parent) in
      heap.(parent) <- heap.(i);
      heap.(i) <- tmp;
      sift_up heap parent
    end
  end

let rec sift_down heap size i =
  let left = (2 * i) + 1 in
  if left < size then begin
    let smallest =
      let s = if earlier heap.(left) heap.(i) then left else i in
      let right = left + 1 in
      if right < size && earlier heap.(right) heap.(s) then right else s
    in
    if smallest <> i then begin
      let tmp = heap.(smallest) in
      heap.(smallest) <- heap.(i);
      heap.(i) <- tmp;
      sift_down heap size smallest
    end
  end

let add_int t ~at payload =
  let entry = { time = at; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1)

let add t ~at payload = add_int t ~at:(Int64.to_int at) payload

let peek_time t =
  if t.size = 0 then None else Some (Int64.of_int t.heap.(0).time)

(* Slots at or past [size] keep their last entry (an array heap has no
   empty value to write); each pins at most one dead payload until the
   slot is reused, which the re-arming traffic of a running simulation
   does constantly. *)
let pop_root t =
  let root = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t.heap t.size 0
  end;
  root

let pop t =
  if t.size = 0 then None
  else
    let e = pop_root t in
    Some (Int64.of_int e.time, e.payload)

(* Pop the next event only if it is due at or before [now]. *)
let pop_due t ~now =
  if t.size = 0 || t.heap.(0).time > Int64.to_int now then None
  else
    let e = pop_root t in
    Some (Int64.of_int e.time, e.payload)

(* Batched drain: fire every event due at or before [until], in (time,
   seq) order, handing each its due time.  Exactly equivalent to a
   [pop_due] loop (the QCheck oracle test in test_rtos pins this),
   including when callbacks re-arm new events at or before [until] —
   those fire in this same call.  Returns the number of events fired.
   One epoch of the fleet wheel is one [advance_until_int]. *)
let advance_until_int t ~until f =
  let fired = ref 0 in
  while t.size > 0 && t.heap.(0).time <= until do
    let e = pop_root t in
    incr fired;
    f e.time e.payload
  done;
  !fired

let advance_until t ~until f =
  advance_until_int t ~until:(Int64.to_int until) (fun at payload ->
      f ~at:(Int64.of_int at) payload)
