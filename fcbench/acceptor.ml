(* The server side of both edge workloads: a detached [Server] behind a
   [Transport] socket, served on the load generator's own domain.

   The generator calls {!serve} whenever it finds its socket empty: one
   [Transport.drain] consumes the requests it has sent, runs the server
   and sends the replies, which are then queued on the generator's
   socket.  Client and server take turns on one CPU, and no datagram
   waits for another thread to be woken or scheduled.  On a shared
   2-vCPU virtual machine an acceptor domain of its own (sleeping in
   select, or polling on a CPU of its own) made every exchange wait on
   the host's scheduling of the second vCPU: the loopback ping-pong's
   speed then moved by a quarter and more between runs minutes apart,
   and that, not the program, set the edge metrics.  [Transport.run]'s
   select loop is therefore not measured.

   Each drain that consumed a datagram is timed, and its minor words are
   counted.  A drain that finds the socket empty allocates the
   transport's EAGAIN exception; it happens only while a reply is in
   flight in the kernel, and the count is reported.

   Traced, each busy drain records a [Drain] span, and the server's send
   function is wrapped, after the transport's, to close one [Exchange]
   span per reply keyed by the reply's message id. *)

module Server = Femto_coap.Server
module Transport = Femto_coap.Transport

type stats = {
  datagrams : int;
  empty_polls : int;  (** drains that found the socket empty *)
  busy_ns : float;  (** inside drains that consumed >= 1 datagram *)
  wall_ns : float;
  minor_words : float;  (** allocated inside those drains *)
}

(* Float accumulators live in a float array, which is written without
   boxing. *)
let busy = 0
let words = 1
let started = 2

type t = {
  transport : Transport.t;
  server : Server.t;
  trace : Spans.buf option;
  acc : float array;
  boundary : float array;  (** start of the current exchange span *)
  mutable first_mid : int;
  mutable datagrams : int;
  mutable empty_polls : int;
  mutable window : stats option;
}

let create ?trace transport server =
  Transport.attach transport server;
  let t =
    {
      transport;
      server;
      trace;
      acc = [| 0.0; 0.0; Timing.now_ns () |];
      boundary = [| 0.0 |];
      first_mid = -1;
      datagrams = 0;
      empty_polls = 0;
      window = None;
    }
  in
  Option.iter
    (fun buf ->
      let inner = Server.send_fn server in
      Server.set_send server (fun ~dst data ->
          inner ~dst data;
          let now = Timing.now_ns () in
          let mid = if Bytes.length data >= 4 then Bytes.get_uint16_be data 2 else -1 in
          if t.first_mid < 0 then t.first_mid <- mid;
          Spans.record buf Spans.Exchange ~key:mid ~aux:0 t.boundary.(0) now;
          t.boundary.(0) <- now))
    trace;
  t

(* Serve every queued request; returns how many there were. *)
let serve t =
  let w0 = Gc.minor_words () in
  let t0 = Timing.now_ns () in
  t.boundary.(0) <- t0;
  t.first_mid <- -1;
  let n = Transport.drain t.transport t.server in
  if n > 0 then begin
    let t1 = Timing.now_ns () in
    (match t.trace with
    | Some buf -> Spans.record buf Spans.Drain ~key:t.first_mid ~aux:n t0 t1
    | None -> ());
    t.acc.(busy) <- t.acc.(busy) +. (t1 -. t0);
    t.acc.(words) <- t.acc.(words) +. (Gc.minor_words () -. w0);
    t.datagrams <- t.datagrams + n
  end
  else t.empty_polls <- t.empty_polls + 1;
  n

let stats t =
  {
    datagrams = t.datagrams;
    empty_polls = t.empty_polls;
    busy_ns = t.acc.(busy);
    wall_ns = Timing.now_ns () -. t.acc.(started);
    minor_words = t.acc.(words);
  }

(* The measurement window: counters (and the trace) restart at
   [begin_window]; [end_window] fixes the stats {!stop} returns. *)
let begin_window t =
  Option.iter Spans.reset t.trace;
  t.datagrams <- 0;
  t.empty_polls <- 0;
  t.acc.(busy) <- 0.0;
  t.acc.(words) <- 0.0;
  t.acc.(started) <- Timing.now_ns ()

let end_window t = t.window <- Some (stats t)

(* Close the socket; returns the measurement window's stats. *)
let stop t =
  Transport.stop t.transport;
  match t.window with Some s -> s | None -> stats t
