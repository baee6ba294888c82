(** CoAP client with confirmable-message retransmission (RFC 7252 §4.2),
    block-wise transfer (RFC 7959) and observe (RFC 7641).

    This is the one client: it owns message-id and token allocation,
    back-off, Block1/Block2 sequencing and observe routing, and does no
    I/O itself.  {!create} drives it over the simulated network;
    [Transport.Client] drives it over a UDP socket through
    {!create_detached} and {!handle_datagram}.

    A confirmable request is encoded once and resent byte-identical
    after [ack_timeout_us], then after twice that, and so on:
    MAX_RETRANSMIT 4 retransmissions, then [`Timeout] — what lets SUIT
    updates survive the lossy low-power link. *)

module Network = Femto_net.Network
module Kernel = Femto_rtos.Kernel

type t

val create : network:Network.t -> kernel:Kernel.t -> addr:int -> t
(** A client node on the simulated network, timed by the kernel: ACK
    timeout 2 s, message ids and tokens from 1. *)

val create_detached :
  send:(dst:int -> bytes -> unit) ->
  after_us:(us:int -> (unit -> unit) -> unit) ->
  first_id:int ->
  ack_timeout_us:int ->
  t
(** A client with no network attached: datagrams leave through [send],
    [after_us] arms a one-shot timer, and received bytes come in through
    {!handle_datagram}.  Message ids and tokens count up from
    [first_id] (a socket driver picks it at random, RFC 7252 §4.4). *)

val handle_datagram : t -> bytes -> len:int -> unit
(** Feed the datagram in the first [len] bytes: it completes the
    exchange with its token, or goes to the observe listener with its
    token; anything else, malformed input included, is dropped. *)

val retransmissions : t -> int
val timeouts : t -> int

val get :
  t -> dst:int -> path:string -> ((Message.t, [ `Timeout ]) result -> unit) -> unit
(** Issue a confirmable GET; the callback fires exactly once. *)

val post :
  t ->
  dst:int ->
  path:string ->
  payload:string ->
  ((Message.t, [ `Timeout ]) result -> unit) ->
  unit

val post_blockwise :
  t ->
  dst:int ->
  path:string ->
  payload:string ->
  ((Message.t, [ `Timeout ]) result -> unit) ->
  unit
(** Upload a payload as sequential {!Block.chunk_size} Block1 chunks;
    the callback receives the final response, an early error answer,
    or the first timeout. *)

val get_blockwise :
  t ->
  dst:int ->
  path:string ->
  ((Message.t, [ `Timeout ]) result -> unit) ->
  unit
(** Download a resource, following Block2 until complete; the callback
    receives the response with the reassembled payload. *)

(** {2 Observe (RFC 7641)} *)

type observation

val observe : t -> dst:int -> path:string -> (Message.t -> unit) -> observation
(** Register an observe relationship; the listener fires for the
    registration response and for every notification until cancelled.
    A registration that times out calls nothing. *)

val cancel_observe : t -> observation -> unit
