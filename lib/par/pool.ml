(* Fork-join pool (see pool.mli).

   One mutex guards every mutable field.  The caller publishes a job by
   bumping [generation]; each worker runs it once per generation, every
   index (the caller's too) counts [remaining] down, and the caller
   waits for zero.  Taking the mutex on both sides of the job is what
   gives the caller a happens-before edge over every worker write, and
   the workers one over every caller write made before [run]. *)

type t = {
  domains : int;
  mutex : Mutex.t;
  start : Condition.t; (* workers wait for a new generation or stop *)
  finished : Condition.t; (* the caller waits for [remaining = 0] *)
  mutable job : int -> unit;
  mutable generation : int;
  mutable remaining : int; (* indices still running this generation *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
      (* the first raise of this generation *)
  mutable stopped : bool;
}

let attempt f i =
  match f i with
  | () -> None
  | exception e -> Some (e, Printexc.get_raw_backtrace ())

(* Under the mutex: one index has finished; keep only the first
   failure. *)
let finish t failure =
  if Option.is_none t.failure then t.failure <- failure;
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then Condition.signal t.finished

let worker t i =
  let rec loop seen =
    Mutex.lock t.mutex;
    while t.generation = seen && not t.stopped do
      Condition.wait t.start t.mutex
    done;
    let stopped = t.stopped and generation = t.generation and job = t.job in
    Mutex.unlock t.mutex;
    if not stopped then begin
      let failure = attempt job i in
      Mutex.protect t.mutex (fun () -> finish t failure);
      loop generation
    end
  in
  loop 0

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let t =
    {
      domains;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      job = ignore;
      generation = 0;
      remaining = 0;
      failure = None;
      stopped = false;
    }
  in
  for i = 1 to domains - 1 do
    ignore (Domain.spawn (fun () -> worker t i) : unit Domain.t)
  done;
  t

let domains t = t.domains

let run t f =
  if t.stopped then invalid_arg "Pool.run: pool is shut down";
  Mutex.protect t.mutex (fun () ->
      t.job <- f;
      t.generation <- t.generation + 1;
      t.remaining <- t.domains;
      Condition.broadcast t.start);
  let mine = attempt f 0 in
  Mutex.lock t.mutex;
  finish t mine;
  while t.remaining > 0 do
    Condition.wait t.finished t.mutex
  done;
  let failure = t.failure in
  t.failure <- None;
  Mutex.unlock t.mutex;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) failure

(* The workers are not joined.  A domain's exit finishes its share of
   the current major GC cycle, which took 10–30 ms on a 2-vCPU VM with a
   fleet-sized heap, so the caller lets them exit beside it; an exited
   domain frees its slot whether or not anyone joins it. *)
let shutdown t =
  if not t.stopped then
    Mutex.protect t.mutex (fun () ->
        t.stopped <- true;
        Condition.broadcast t.start)
