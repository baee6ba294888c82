(** Sharded fleet simulator: up to a million CoW device instances on one
    host, partitioned across an OCaml 5 Domain pool.

    Every simulated device owns a full stack — engine, hook, tenant,
    CoW kv delta, SUIT processor, radio node and cycle clock — but
    shares its firmware image per shard through the PR 8 image cache, so
    the marginal footprint stays a few KB per device.  Devices are
    partitioned into [shards] by id (independent of the domain count,
    which is what makes runs bit-deterministic across 1/2/4 domains) and
    booted shard by shard; each shard has its own kernel (the event
    wheel), network and RNG, and shards run lock-free between
    wheel-epoch barriers.  In each epoch every shard runs on exactly one
    domain, whichever claims it first, and the pool's return orders one
    epoch before the next.  Cross-shard CoAP datagrams are queued whole
    on the sending shard and exchanged by the owner domain at the
    barrier, in shard order.

    The headline scenario is {!run_campaign}: a rolling firmware-update
    campaign pushes a signed SUIT manifest to every device while
    periodic telemetry hooks keep firing. *)

type config = {
  devices : int;
  shards : int;  (** fixed partition count; determinism unit *)
  domains : int;  (** compute domains (1 = no workers) *)
  seed : int;
  epoch_us : int;  (** virtual length of one wheel epoch *)
  telemetry_us : int;  (** per-device telemetry period; 0 disables *)
  wave : int;  (** update pushes per epoch; 0 = devices/100 *)
  loss_permille : int;  (** per-frame radio loss inside a shard *)
  latency_us : int;  (** per-frame radio latency *)
  delta_quota : int option;  (** per-device CoW write budget *)
  max_epochs : int;  (** campaign safety stop *)
}

val default_config : config
(** 10k devices, 16 shards, 1 domain, 5 ms epochs, 50 ms telemetry. *)

type t

val create : config -> t
(** Boot the fleet: every device spawns the v1 firmware through its
    shard's image cache and parks its telemetry timer on the shard
    wheel.  Runs on the calling domain. *)

type report = {
  r_devices : int;
  r_shards : int;
  r_domains : int;
  r_epochs : int;
  r_virtual_ms : float;  (** campaign duration in simulated time *)
  r_wall_ns : float;  (** campaign duration in host time *)
  r_updates_ok : int;
  r_updates_rejected : int;
  r_telemetry_fires : int;
  r_cross_shard : int;  (** datagrams exchanged at barriers *)
  r_timer_events : int;
  r_images_built : int;  (** cold image builds across all shards *)
  r_image_hits : int;  (** warm spawns across all shards *)
  r_incomplete : int;  (** devices not running the new firmware *)
  r_half_installed : int;  (** must be 0: seq and firmware disagree *)
}

val run_campaign : t -> report
(** Push the signed v2 manifest to every device in rolling waves and run
    epochs until every device has acknowledged (or [max_epochs]); then
    drain one extra telemetry period so the new firmware provably fires.
    Creates a {!Femto_par.Pool} of [domains] on entry and joins it on
    every exit path, an exception included.
    Obs metrics are disabled while worker domains run and per-shard
    plain counters are merged into [fleet.*] metrics afterwards. *)

val push_message : t -> message_id:int -> Femto_coap.Message.t
(** The campaign's update push as a message: a confirmable
    [POST /suit] whose payload frames the signed v2 envelope and the v2
    firmware. *)

val push_datagram : t -> id:int -> bytes
(** The datagram pushed to device [id]: the encoding of
    [push_message ~message_id:(id land 0xffff)], made by patching the
    message id into a copy of one encoding made at {!create}. *)

val ack_message :
  ?token:string -> ok:bool -> message_id:int -> unit -> Femto_coap.Message.t
(** A device's ack of an update push: [2.04 "ok"] when the update
    installed, [4.00 "rej"] when it was refused. *)

val ack_datagram : t -> ok:bool -> id:int -> bytes
(** The ack a device sends for a token-less push with message id [id]:
    the encoding of [ack_message ~ok ~message_id:(id land 0xffff) ()],
    made by patching the message id into one of two encodings made at
    {!create}.  A push with a token is acked by a full encode. *)

val send_datagram : t -> src_device:int -> dst_device:int -> bytes -> unit
(** Device-to-device traffic (cross-shard when the shards differ): the
    datagram leaves [src_device]'s radio during the next epoch and
    reaches the destination's mailbox/handler like any other traffic.
    Call between campaigns/epoch runs, not while domains are running. *)

val run_epochs : t -> int -> unit
(** Drive the wheel for [n] epochs without campaign traffic (telemetry
    and in-flight datagrams still run), on the calling domain. *)

val device_inbox : t -> int -> bytes list
(** Drain the device's mailbox of non-SUIT datagrams (delivery order). *)

val device_states : t -> string array
(** One line per device: event count, event-order hash, SUIT sequence,
    and the final local/tenant kv bindings — the determinism witness
    compared across domain counts. *)

val fingerprint : t -> string
(** SHA-256 over {!device_states}. *)

val resident_words : t -> int
(** [Obj.reachable_words] over the shard array (devices, engines,
    images, wheels) — for marginal-footprint measurements. *)

val pp_report : Format.formatter -> report -> unit
