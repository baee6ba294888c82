(* Parallel multi-tenant update verification.

   The pure half of the update pipeline ({!Suit.prepare}: signature
   check, manifest decode, payload digests) runs for different tenants
   concurrently on a {!Femto_par.Pool}; the stateful half
   ({!Suit.commit}: rollback, identity, install, sequence advance) only
   ever runs on the domain that owns the pipeline, inside [drain].

   Invariants:

   - Per-tenant ordering.  [submit] appends a job to the FIFO of the
     pool index its tenant already has pending jobs on, or else of the
     index with the fewest pending jobs, so one tenant's pending updates
     are always prepared by one index in submission order — a tenant
     can never observe its own sequence numbers out of order.  The
     tenant-to-index table only holds tenants with pending jobs, so it
     never exceeds [queue_depth] entries.  Only the owner touches the
     FIFOs outside [Pool.run], and index i only FIFO i inside it, so
     they need no lock.
   - Global commit order.  [drain] applies commits strictly in global
     submission order, so the pipeline accepts and rejects exactly the
     same update sets as a sequential [Suit.process] loop over the same
     jobs (asserted differentially in the tests).
   - Main-domain effects.  Worker domains touch no device state, no
     hosting-engine state, and no Obs registry; metrics and trace events
     are recorded from the owning domain only.
   - Backpressure.  At most [queue_depth] jobs await preparation: the
     [submit] that reaches that many prepares them all with one
     [Pool.run] (and counts a backpressure_wait), bounding memory on a
     flood of updates. *)

module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace
module Pool = Femto_par.Pool

let m_submitted = Obs.counter "suit.pipeline.submitted"
let m_committed = Obs.counter "suit.pipeline.committed"
let m_accepted = Obs.counter "suit.pipeline.accepted"
let m_rejected = Obs.counter "suit.pipeline.rejected"
let m_backpressure = Obs.counter "suit.pipeline.backpressure_waits"
let m_latency_ns = Obs.histogram "suit.pipeline.latency_ns"
let g_inflight = Obs.gauge "suit.pipeline.inflight"

(* [prepared] is forced by exactly one pool index inside a [Pool.run],
   or by the owner in [commit]; never by two domains at once. *)
type job = {
  tenant : string;
  seq : int; (* submission number *)
  device : Suit.device;
  t_submit : float;
  prepared : (Suit.prepared, Suit.error) result Lazy.t;
}

type t = {
  pool : Pool.t;
  queues : job Queue.t array; (* pool index i prepares queues.(i) *)
  jobs : job Queue.t; (* every job not yet committed, in submission order *)
  queue_depth : int;
  index_of : (string, int) Hashtbl.t; (* tenants with pending jobs *)
  mutable pending : int; (* jobs submitted but not yet prepared *)
  mutable submitted : int;
  mutable stopped : bool;
}

let default_domains = Domain.recommended_domain_count ()
let default_queue_depth = 32

let create ?(domains = default_domains) ?(queue_depth = default_queue_depth)
    () =
  if domains < 1 then invalid_arg "Pipeline.create: domains must be >= 1";
  if queue_depth < 1 then
    invalid_arg "Pipeline.create: queue_depth must be >= 1";
  {
    pool = Pool.create ~domains;
    queues = Array.init domains (fun _ -> Queue.create ());
    jobs = Queue.create ();
    queue_depth;
    index_of = Hashtbl.create queue_depth;
    pending = 0;
    submitted = 0;
    stopped = false;
  }

let domains t = Pool.domains t.pool

let prepare_pending t =
  if t.pending > 0 then begin
    Pool.run t.pool (fun i ->
        Queue.iter (fun job -> ignore (Lazy.force job.prepared)) t.queues.(i);
        Queue.clear t.queues.(i));
    Hashtbl.clear t.index_of;
    t.pending <- 0
  end

(* The index a tenant's pending jobs are on, else the least loaded one
   (the lowest on a tie). *)
let index_for t tenant =
  match Hashtbl.find_opt t.index_of tenant with
  | Some i -> i
  | None ->
      let best = ref 0 in
      Array.iteri
        (fun i q -> if Queue.length q < Queue.length t.queues.(!best) then best := i)
        t.queues;
      Hashtbl.add t.index_of tenant !best;
      !best

let submit t ?digests ~tenant ~device ~envelope ~payloads () =
  if t.stopped then invalid_arg "Pipeline.submit: pipeline is shut down";
  let key = device.Suit.key in
  let job =
    {
      tenant;
      seq = t.submitted;
      device;
      t_submit = (if Obs.enabled () then Obs.now_ns () else 0.0);
      prepared =
        lazy
          (try Suit.prepare ~key ?digests ~envelope ~payloads ()
           with exn -> Error (Suit.Malformed (Printexc.to_string exn)));
    }
  in
  t.submitted <- t.submitted + 1;
  Queue.push job t.queues.(index_for t tenant);
  Queue.push job t.jobs;
  t.pending <- t.pending + 1;
  let full = t.pending >= t.queue_depth in
  if full then prepare_pending t;
  if Obs.enabled () then begin
    Ometrics.incr m_submitted;
    if full then Ometrics.incr m_backpressure;
    Ometrics.set g_inflight (float_of_int (Queue.length t.jobs))
  end

let pending t =
  Array.map
    (fun q -> List.rev (Queue.fold (fun acc j -> (j.tenant, j.seq) :: acc) [] q))
    t.queues

let commit t job =
  let outcome = Suit.commit job.device (Lazy.force job.prepared) in
  if Obs.enabled () then begin
    Ometrics.incr m_committed;
    Ometrics.incr
      (match outcome with Ok _ -> m_accepted | Error _ -> m_rejected);
    let ns = Obs.now_ns () -. job.t_submit in
    Ometrics.observe m_latency_ns ns;
    Ometrics.set g_inflight (float_of_int (Queue.length t.jobs));
    Obs.event (fun () ->
        Otrace.Pipeline_update
          { tenant = job.tenant; ok = Result.is_ok outcome; ns })
  end;
  (job.tenant, outcome)

(* [drain t] prepares what is pending, then commits every submitted
   job, in global submission order, on the calling (owner) domain. *)
let drain t =
  prepare_pending t;
  let rec commit_all acc =
    match Queue.take_opt t.jobs with
    | None -> List.rev acc
    | Some job -> commit_all (commit t job :: acc)
  in
  commit_all []

let shutdown t =
  let outcomes = drain t in
  t.stopped <- true;
  Pool.shutdown t.pool;
  outcomes
