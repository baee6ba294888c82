(* Unix-UDP transport: the socket edge in front of a {!Server}.

   One acceptor loop (optionally its own domain) drains a nonblocking
   datagram socket into a single reused receive buffer, sized to one
   CoAP message ({!Message.max_size}) plus the byte that shows a
   datagram was longer, and hands each datagram to the attached server,
   which parses it in place.  An oversize datagram is never parsed: the
   server answers it 4.13 from its header.  Replies leave through
   [sendto] directly from the encoded reply buffer.

   Remote socket peers are mapped to integer addresses above
   [peer_base], so the same server can keep simulated-network neighbours
   (small addresses) and real UDP peers side by side: [attach] swaps the
   server's send function for one that routes peer ids to the socket and
   falls back to the original behaviour for everything else.  Only the
   last [peer_capacity] peers are remembered: peer ids are handed out in
   order and peer n lives in slot n mod [peer_capacity], so a new peer
   evicts the oldest, and a reply to an evicted peer is dropped. *)

module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics

let m_rx = Obs.counter "edge.rx_datagrams"
let m_tx = Obs.counter "edge.tx_datagrams"
let m_oversize = Obs.counter "edge.rx_oversize"
let m_peer_evictions = Obs.counter "edge.peer_evictions"

(* Simulated-net addresses are tiny; anything at or above this is a
   socket peer. *)
let peer_base = 0x0100_0000

type stats = {
  mutable rx_datagrams : int;
  mutable rx_bytes : int;
  mutable tx_datagrams : int;
  mutable tx_bytes : int;
  mutable rx_oversize : int;
  mutable peer_evictions : int;
}

let peer_capacity = 32

type t = {
  socket : Unix.file_descr;
  bound_port : int;
  (* peer id <-> sockaddr for the last [peer_capacity] peers; slot
     [(id - peer_base) mod peer_capacity] holds peer [id], -1 when free *)
  peers : (Unix.sockaddr, int) Hashtbl.t;
  peer_ids : int array;
  peer_addrs : Unix.sockaddr array;
  mutable next_peer : int;
  recv_buf : Bytes.t;
  stop : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
  stats : stats;
}

(* One message and the byte that shows a datagram was longer. *)
let recv_size = Message.max_size + 1

let create ?(host = "127.0.0.1") ?(port = 0) () =
  let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt socket Unix.SO_REUSEADDR true;
  Unix.bind socket (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.set_nonblock socket;
  let bound_port =
    match Unix.getsockname socket with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  {
    socket;
    bound_port;
    peers = Hashtbl.create peer_capacity;
    peer_ids = Array.make peer_capacity (-1);
    peer_addrs = Array.make peer_capacity (Unix.ADDR_UNIX "");
    next_peer = peer_base;
    recv_buf = Bytes.create recv_size;
    stop = Atomic.make false;
    acceptor = None;
    stats =
      {
        rx_datagrams = 0;
        rx_bytes = 0;
        tx_datagrams = 0;
        tx_bytes = 0;
        rx_oversize = 0;
        peer_evictions = 0;
      };
  }

let port t = t.bound_port
let stats t = t.stats
let peer_count t = Hashtbl.length t.peers

let peer_slot id = (id - peer_base) mod peer_capacity

let peer_id t sockaddr =
  match Hashtbl.find t.peers sockaddr with
  | id -> id
  | exception Not_found ->
      let id = t.next_peer in
      let slot = peer_slot id in
      if t.peer_ids.(slot) >= 0 then begin
        Hashtbl.remove t.peers t.peer_addrs.(slot);
        t.stats.peer_evictions <- t.stats.peer_evictions + 1;
        if Obs.enabled () then Ometrics.incr m_peer_evictions
      end;
      t.next_peer <- id + 1;
      t.peer_ids.(slot) <- id;
      t.peer_addrs.(slot) <- sockaddr;
      Hashtbl.replace t.peers sockaddr id;
      id

(* A peer never seen, or evicted since, has nowhere to route. *)
let send_to_peer t ~dst data =
  let slot = peer_slot dst in
  if t.peer_ids.(slot) = dst then begin
    let len = Bytes.length data in
    (* count before sending: a peer that reads the stats as soon as the
       reply arrives must already see it *)
    t.stats.tx_datagrams <- t.stats.tx_datagrams + 1;
    t.stats.tx_bytes <- t.stats.tx_bytes + len;
    if Obs.enabled () then Ometrics.incr m_tx;
    try ignore (Unix.sendto t.socket data 0 len [] t.peer_addrs.(slot))
    with Unix.Unix_error _ -> () (* a full socket buffer or a gone peer *)
  end

(* [attach t server]: socket peers route here, everything else keeps the
   server's previous behaviour (e.g. its simulated-network node). *)
let attach t server =
  let fallback = Server.send_fn server in
  Server.set_send server (fun ~dst data ->
      if dst >= peer_base then send_to_peer t ~dst data
      else fallback ~dst data)

(* Drain every datagram currently queued on the socket into [server];
   returns how many were consumed.  The receive buffer is reused across
   datagrams and parsed in place. *)
let drain t server =
  let rec loop n =
    match Unix.recvfrom t.socket t.recv_buf 0 recv_size [] with
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN), _, _) -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop n
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
        (* a peer's ICMP error bounced back; ignore and keep draining *)
        loop n
    | len, sockaddr ->
        t.stats.rx_datagrams <- t.stats.rx_datagrams + 1;
        t.stats.rx_bytes <- t.stats.rx_bytes + len;
        if Obs.enabled () then Ometrics.incr m_rx;
        let src = peer_id t sockaddr in
        if len <= Message.max_size then
          Server.handle_datagram_sub server ~src t.recv_buf ~off:0 ~len
        else begin
          t.stats.rx_oversize <- t.stats.rx_oversize + 1;
          if Obs.enabled () then Ometrics.incr m_oversize;
          Server.reject_oversize server ~src t.recv_buf
        end;
        loop (n + 1)
  in
  loop 0

(* The acceptor loop: select until readable (or the poll interval
   elapses, to observe [stop]), then drain. *)
let run ?(poll_s = 0.05) t server =
  attach t server;
  while not (Atomic.get t.stop) do
    (match Unix.select [ t.socket ] [] [] poll_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> ignore (drain t server));
    ()
  done

let spawn ?poll_s t server =
  if t.acceptor <> None then invalid_arg "transport already running";
  t.acceptor <- Some (Domain.spawn (fun () -> run ?poll_s t server))

let stop t =
  Atomic.set t.stop true;
  (match t.acceptor with
  | Some d ->
      Domain.join d;
      t.acceptor <- None
  | None -> ());
  (try Unix.close t.socket with Unix.Unix_error _ -> ())

(* --- synchronous client: one socket, blocking receives --------------- *)

(* The exchange logic, before [Client] below takes its name. *)
module Exchanges = Client

(* A socket driver for the one client ([Exchanges] here): it sends to
   one server, and a blocking pump waits on the socket until the armed
   timer is due, hands each datagram to [Exchanges.handle_datagram] and
   then fires the timer.  A call returns once its exchange completes,
   so no exchange outlives it and its timer is dropped.  Used by `fc
   get`, the edge bench and the loopback tests. *)
module Client = struct
  (* A call has one live exchange at a time, so only the timer armed
     last can do anything: an earlier one belongs to a finished
     exchange.  One slot holds it; [deadline] (ns) is [infinity] when
     none is armed. *)
  type timer = { mutable deadline : float; mutable action : unit -> unit }

  type t = {
    socket : Unix.file_descr;
    recv_buf : Bytes.t;
    exchanges : Exchanges.t;
    timer : timer;
    notifications : Message.t Queue.t;
  }

  let arm timer ~deadline action =
    timer.deadline <- deadline;
    timer.action <- action

  let disarm timer = arm timer ~deadline:infinity ignore

  let create ?(host = "127.0.0.1") ?(ack_timeout_s = 0.25) ~port () =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    let server = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
    let timer = { deadline = infinity; action = ignore } in
    let exchanges =
      Exchanges.create_detached
        ~send:(fun ~dst:_ data ->
          ignore (Unix.sendto socket data 0 (Bytes.length data) [] server))
        ~after_us:(fun ~us f ->
          arm timer ~deadline:(Obs.now_ns () +. (float_of_int us *. 1e3)) f)
        ~first_id:(Random.State.int (Random.State.make_self_init ()) 0x8000)
        ~ack_timeout_us:(int_of_float (ack_timeout_s *. 1e6))
    in
    {
      socket;
      recv_buf = Bytes.create recv_size;
      exchanges;
      timer;
      notifications = Queue.create ();
    }

  let close t = try Unix.close t.socket with Unix.Unix_error _ -> ()

  (* Wait up to [timeout_s] for one datagram of at most one message and
     hand it to the exchanges. *)
  let receive t timeout_s =
    match Unix.select [ t.socket ] [] [] timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.recvfrom t.socket t.recv_buf 0 recv_size [] with
        | exception
            Unix.Unix_error
              ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED), _, _) ->
            ()
        | len, _ ->
            if len <= Message.max_size then
              Exchanges.handle_datagram t.exchanges t.recv_buf ~len)

  (* Run until [finished ()], or until no timer is armed: then nothing
     can happen any more. *)
  let rec pump t finished =
    if (not (finished ())) && t.timer.deadline < infinity then begin
      let remaining = (t.timer.deadline -. Obs.now_ns ()) *. 1e-9 in
      if remaining > 0.0 then receive t remaining
      else begin
        let action = t.timer.action in
        disarm t.timer;
        action ()
      end;
      pump t finished
    end

  (* Start an exchange and block until it completes.  An observe
     registration that times out completes nothing: its last timer
     fires and the pump stops. *)
  let call t start =
    let result = ref None in
    start (fun r -> result := Some r);
    pump t (fun () -> Option.is_some !result);
    disarm t.timer;
    Option.value !result ~default:(Error `Timeout)

  (* [~dst] is unused: a socket client talks to its one server. *)
  let get t ~path = call t (Exchanges.get t.exchanges ~dst:0 ~path)

  let post_blockwise t ~path ~payload =
    call t (Exchanges.post_blockwise t.exchanges ~dst:0 ~path ~payload)

  let observe t ~path =
    call t (fun complete ->
        let registered = ref false in
        ignore
          (Exchanges.observe t.exchanges ~dst:0 ~path (fun m ->
               if !registered then Queue.add m t.notifications
               else begin
                 registered := true;
                 complete (Ok m)
               end)))

  let recv t ~timeout_s =
    if Queue.is_empty t.notifications then begin
      (* a timer that does nothing bounds the wait *)
      arm t.timer ~deadline:(Obs.now_ns () +. (timeout_s *. 1e9)) ignore;
      pump t (fun () -> not (Queue.is_empty t.notifications));
      disarm t.timer
    end;
    Queue.take_opt t.notifications
end
