(** Parallel multi-tenant update verification.

    A {!Femto_par.Pool} of OCaml 5 domains runs {!Suit.prepare}
    (signature, decode, digests — the pure gates) for different tenants
    concurrently; {!Suit.commit} (rollback, identity, install) runs on
    the owning domain only, inside {!drain}, in global submission order.
    A tenant's pending jobs are always prepared by one pool index, in
    submission order; a tenant without pending jobs goes to the index
    with the fewest.  The pipeline accepts and rejects exactly the same
    update sets as a sequential {!Suit.process} loop.

    Observed through the [suit.pipeline.*] metrics: submitted, committed,
    accepted, rejected, backpressure_waits counters, a latency_ns
    histogram (submit to commit) and an inflight gauge; each commit also
    traces a [Pipeline_update] event. *)

type t

val default_domains : int
(** [Domain.recommended_domain_count ()]: the owning domain plus one
    worker domain per further core. *)

val default_queue_depth : int

val create : ?domains:int -> ?queue_depth:int -> unit -> t
(** [domains] counts the owning domain, so [create ~domains] spawns
    [domains - 1] worker domains and [~domains:1] prepares every job on
    the caller.  [queue_depth] bounds the number of jobs awaiting
    preparation; the [submit] that reaches it prepares them all before
    returning (backpressure).  Raises [Invalid_argument] if either is
    < 1. *)

val domains : t -> int

val submit :
  t ->
  ?digests:(string * Suit.digest_hint) list ->
  tenant:string ->
  device:Suit.device ->
  envelope:string ->
  payloads:(string * string) list ->
  unit ->
  unit
(** Enqueue one update for verification.  The device's key is read at
    submit; all other device state is only touched at commit.  When
    [queue_depth] jobs are waiting, prepares them across the pool before
    returning.  Raises [Invalid_argument] after [shutdown]. *)

val pending : t -> (string * int) list array
(** The jobs awaiting preparation, per pool index, in the order that
    index will prepare them: (tenant, submission number from 0). *)

val drain : t -> (string * (Suit.t, Suit.error) result) list
(** Prepare the jobs still waiting, then commit every job submitted so
    far, in submission order, on the calling domain; returns
    [(tenant, outcome)] in that order.  Call from the domain that owns
    the devices (the one that created the pipeline). *)

val shutdown : t -> (string * (Suit.t, Suit.error) result) list
(** Drain outstanding jobs, then stop the worker domains.
    Returns the outcomes of the final drain. *)
