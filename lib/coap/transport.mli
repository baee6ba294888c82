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

(** Synchronous CoAP client over its own UDP socket: a blocking driver
    for the library's one client ([Femto_coap.Client]), which does the
    confirmable exchanges (back-off, Block1, observe).  Each call blocks
    until its exchange completes; observe notifications queue up for
    {!recv}.  Enough for `fc get`, the edge bench and the loopback
    tests. *)
module Client : sig
  type t

  val create : ?host:string -> ?ack_timeout_s:float -> port:int -> unit -> t
  (** A client of the server at [host]:[port] (default host 127.0.0.1,
      ACK timeout 0.25 s), with message ids and tokens from a random
      start. *)

  val close : t -> unit
  val get : t -> path:string -> (Message.t, [ `Timeout ]) result

  val post_blockwise :
    t -> path:string -> payload:string -> (Message.t, [ `Timeout ]) result
  (** Upload [payload] as sequential Block1 chunks. *)

  val observe : t -> path:string -> (Message.t, [ `Timeout ]) result
  (** Register an observe relationship and return the registration
      response; notifications then arrive via {!recv}. *)

  val recv : t -> timeout_s:float -> Message.t option
  (** The next observe notification, waiting up to [timeout_s] for
      one. *)
end
