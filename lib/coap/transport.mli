(** Unix-UDP transport: the socket edge in front of a {!Server}.

    One acceptor loop (optionally its own domain) drains a nonblocking
    datagram socket into a reused receive buffer of one CoAP message
    ({!Message.max_size} bytes, plus one that flags a longer datagram),
    parses each datagram in place, and feeds it to the attached server;
    replies leave through [sendto].  An oversize datagram is never
    parsed: {!Server.reject_oversize} answers it 4.13.  Remote peers get
    integer addresses at or above {!peer_base}, so a server can face the
    simulated network and real sockets at the same time; the last
    {!peer_capacity} of them are remembered. *)

val peer_base : int
(** Socket peers are numbered from here; smaller addresses remain
    simulated-network neighbours. *)

type stats = {
  mutable rx_datagrams : int;
  mutable rx_bytes : int;
  mutable tx_datagrams : int;
  mutable tx_bytes : int;
  mutable rx_oversize : int;  (** datagrams over {!Message.max_size} *)
  mutable peer_evictions : int;
      (** peers forgotten to make room; replies to them are dropped *)
}

val peer_capacity : int
(** Socket peers remembered at once (FIFO eviction). *)

type t

val create : ?host:string -> ?port:int -> unit -> t
(** Bind a nonblocking UDP socket ([port] 0 picks an ephemeral port;
    default host 127.0.0.1). *)

val port : t -> int
(** The actually-bound port. *)

val stats : t -> stats
val peer_count : t -> int
(** Peers currently remembered, at most {!peer_capacity}. *)

val attach : t -> Server.t -> unit
(** Route the server's replies: peer ids go to the socket, everything
    else keeps the server's previous send behaviour. *)

val drain : t -> Server.t -> int
(** Consume every datagram currently queued on the socket; returns the
    count.  Useful for single-threaded tests and benches ([run] calls
    this after [select]). *)

val run : ?poll_s:float -> t -> Server.t -> unit
(** The acceptor loop: [attach], then select/drain until {!stop}. *)

val spawn : ?poll_s:float -> t -> Server.t -> unit
(** Run the acceptor loop on its own domain. *)

val stop : t -> unit
(** Stop the loop, join the acceptor domain, close the socket. *)

(** Synchronous CoAP client over its own UDP socket: confirmable
    requests with retransmission, Block1 uploads, observe registration
    and a blocking notification pump — enough for `fc get`, the edge
    bench and the loopback tests. *)
module Client : sig
  type t

  val create :
    ?host:string ->
    ?ack_timeout_s:float ->
    ?max_retransmit:int ->
    port:int ->
    unit ->
    t

  val close : t -> unit
  val retransmissions : t -> int

  val request :
    t ->
    code:int * int ->
    path:string ->
    ?options:(int * string) list ->
    ?payload:string ->
    unit ->
    (Message.t, [ `Timeout ]) result

  val get : t -> path:string -> (Message.t, [ `Timeout ]) result
  val post : t -> path:string -> payload:string -> (Message.t, [ `Timeout ]) result

  val post_blockwise :
    ?block_size:int ->
    t ->
    path:string ->
    payload:string ->
    (Message.t, [ `Timeout ]) result

  val observe : t -> path:string -> (Message.t, [ `Timeout ]) result
  (** Register an observe relationship; notifications then arrive via
      {!recv}. *)

  val recv : t -> timeout_s:float -> Message.t option
  (** Block until the next parseable datagram of at most
      {!Message.max_size} bytes, or the timeout. *)
end
