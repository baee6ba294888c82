(** CoAP resource server behind a pluggable datagram backend.

    Resources are registered by path; confirmable requests get
    piggybacked acknowledgements with bounded message-id deduplication
    (CON retransmissions receive the cached response).  Large uploads
    and downloads use RFC 7959 block-wise transfer transparently;
    observers are managed per RFC 7641 with a single-encode fan-out.

    The server consumes datagrams via {!handle_datagram} and replies
    through a swappable send function, so the same handlers/sinks serve
    the simulated network ({!create}) and a real UDP socket
    ({!create_detached} + {!Transport}).

    Per-peer state is bounded: the dedupe ring, partial uploads
    ({!upload_capacity}), Block2 downloads ({!download_capacity}) and
    observe registrations ({!observer_capacity}) each hold a fixed
    number of entries and evict the oldest when full ({!evictions}). *)

module Network = Femto_net.Network

type response = {
  code : int * int;
  options : (int * string) list;
  payload : string;
}

val respond : ?options:(int * string) list -> ?payload:string -> int * int -> response

type handler = src:int -> Message.t -> response
(** Handlers see the complete request (block-wise uploads arrive
    reassembled); exceptions become 5.00 responses. *)

type sink = {
  start : unit -> unit;  (** first block of a transfer *)
  chunk : string -> unit;  (** each payload chunk, in arrival order *)
  finish : src:int -> digest:string -> size:int -> Message.t -> response;
      (** final block: the reassembled request plus the streaming SHA-256
          and total byte count, computed while blocks arrived *)
  abort : unit -> unit;
      (** transfer failed (out-of-order block or sink exception); must be
          idempotent and tolerate firing without a matching [start] *)
}
(** A streaming upload consumer.  Registering one instead of a plain
    handler lets storage writes and digest work overlap the block-wise
    transfer instead of starting after reassembly. *)

type t

val create :
  ?dedupe_capacity:int ->
  network:Network.t ->
  addr:int ->
  unit ->
  t
(** Attach a server node to the simulated network.  Large transfers
    move in {!Block.chunk_size} blocks (RFC 7959); [dedupe_capacity]
    (default 64) bounds the message-id dedupe ring
    (oldest reply evicted first, counted in [coap.dedupe_evictions]). *)

val create_detached :
  ?dedupe_capacity:int ->
  addr:int ->
  send:(dst:int -> bytes -> unit) ->
  unit ->
  t
(** A server with no network attached: datagrams come in through
    {!handle_datagram} and replies leave through [send].  This is the
    backend the Unix-UDP transport drives. *)

val handle_datagram : t -> src:int -> bytes -> unit
(** Feed one datagram (whole buffer); malformed input is dropped. *)

val handle_datagram_sub : t -> src:int -> bytes -> off:int -> len:int -> unit
(** Same, parsing a slice of a reused receive buffer in place.  Never
    raises: handler and sink exceptions become 5.00 replies. *)

val reject_oversize : t -> src:int -> bytes -> unit
(** [data] starts a datagram that was longer than {!Message.max_size}
    (only its first bytes arrived).  A request is answered 4.13 with
    Size1 = {!Message.max_size} (RFC 7959 §2.9.3), built from its header
    alone; the rest is never parsed, and anything else is dropped. *)

val set_send : t -> (dst:int -> bytes -> unit) -> unit
val send_fn : t -> dst:int -> bytes -> unit

val register : t -> path:string -> handler -> unit

val register_cached : ?max_age_s:int -> t -> path:string -> handler -> unit
(** Like {!register}, but 2.05 GET responses are cached for
    [max_age_s] (default 60) seconds and served with ETag/Max-Age
    options; cache hits skip the handler entirely.  {!notify} and
    {!invalidate} drop the entry. *)

val register_upload : t -> path:string -> sink -> unit
(** Register a streaming upload consumer at [path].  Block1 chunks are
    pushed into the sink as they arrive; single-datagram requests drive
    [start]/[chunk]/[finish] in one shot. *)

val invalidate : t -> path:string -> unit
(** Drop the cached GET response for [path], if any. *)

val addr : t -> int
val requests_served : t -> int

val dedupe_evictions : t -> int
(** LRU evictions from the message-id dedupe table since creation. *)

val upload_capacity : int
(** Partial Block1 uploads held at once, keyed by (source, path). *)

val download_capacity : int
(** Pending Block2 downloads held at once, keyed by (source, path). *)

val observer_capacity : int
(** Observe registrations held at once, keyed by (source, path, token). *)

type evictions = { dedupe : int; uploads : int; downloads : int; observers : int }

val evictions : t -> evictions
(** Entries each bounded table evicted since creation (also counted in
    [coap.dedupe_evictions], [coap.upload_evictions],
    [coap.download_evictions] and [coap.observer_evictions]). *)

val cache_stats : t -> int * int
(** [(hits, misses)] of the idempotent-GET response cache. *)

val set_time_source : t -> (unit -> float) -> unit
(** Replace the clock, in seconds, used for Max-Age expiry (tests); the
    default reads {!Femto_obs.Obs.now_ns}. *)

val notify : t -> path:string -> int
(** Re-evaluate the resource once, encode the notification once, and
    fan it out to every observer with only the per-observer token
    spliced in (RFC 7641); returns how many were notified. *)

val observer_count : t -> path:string -> int
