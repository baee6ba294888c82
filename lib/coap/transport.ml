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

(* Enough client to load-test and script the edge: confirmable requests
   with retransmission, Block1 uploads, observe registration + a
   blocking notification pump.  Used by `fc get`, the edge bench and the
   loopback tests; not a general CoAP client. *)
module Client = struct
  type t = {
    socket : Unix.file_descr;
    server_addr : Unix.sockaddr;
    mutable next_mid : int;
    mutable next_token : int;
    mutable retransmissions : int;
    recv_buf : Bytes.t;
    ack_timeout_s : float;
    max_retransmit : int;
  }

  let create ?(host = "127.0.0.1") ?(ack_timeout_s = 0.25)
      ?(max_retransmit = 4) ~port () =
    let socket = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    {
      socket;
      server_addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port);
      next_mid = Random.int 0x8000;
      next_token = Random.int 0x8000;
      retransmissions = 0;
      recv_buf = Bytes.create recv_size;
      ack_timeout_s;
      max_retransmit;
    }

  let close t = try Unix.close t.socket with Unix.Unix_error _ -> ()
  let retransmissions t = t.retransmissions

  let fresh_mid t =
    let mid = t.next_mid in
    t.next_mid <- (t.next_mid + 1) land 0xFFFF;
    mid

  let fresh_token t =
    let token = Printf.sprintf "%04x" (t.next_token land 0xFFFF) in
    t.next_token <- t.next_token + 1;
    token

  let send_raw t data =
    ignore (Unix.sendto t.socket data 0 (Bytes.length data) [] t.server_addr)

  let seconds_until deadline_ns = (deadline_ns -. Obs.now_ns ()) *. 1e-9

  (* Block until a datagram of at most one message parses, or
     [timeout_s] elapses. *)
  let recv t ~timeout_s =
    let deadline = Obs.now_ns () +. (timeout_s *. 1e9) in
    let rec wait () =
      let remaining = seconds_until deadline in
      if remaining <= 0.0 then None
      else
        match Unix.select [ t.socket ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
        | [], _, _ -> None
        | _ :: _, _, _ -> (
            match Unix.recvfrom t.socket t.recv_buf 0 recv_size [] with
            | exception
                Unix.Unix_error
                  ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.ECONNREFUSED), _, _)
              ->
                wait ()
            | len, _ when len > Message.max_size -> wait ()
            | len, _ -> (
                match Message.decode_sub t.recv_buf ~off:0 ~len with
                | exception Message.Parse_error _ -> wait ()
                | msg -> Some msg))
    in
    wait ()

  (* Issue a confirmable request and wait for the matching response,
     retransmitting with exponential back-off. *)
  let transact t message =
    let encoded = Message.encode message in
    let rec attempt n timeout_s =
      send_raw t encoded;
      if n > 0 then t.retransmissions <- t.retransmissions + 1;
      let deadline = Obs.now_ns () +. (timeout_s *. 1e9) in
      let rec await () =
        let remaining = seconds_until deadline in
        if remaining <= 0.0 then
          if n >= t.max_retransmit then Error `Timeout
          else attempt (n + 1) (timeout_s *. 2.0)
        else
          match recv t ~timeout_s:remaining with
          | None ->
              if n >= t.max_retransmit then Error `Timeout
              else attempt (n + 1) (timeout_s *. 2.0)
          | Some response
            when String.equal response.Message.token message.Message.token ->
              Ok response
          | Some _ -> await () (* stale datagram (old dup): keep waiting *)
      in
      await ()
    in
    attempt 0 t.ack_timeout_s

  let request t ~code ~path ?(options = []) ?(payload = "") () =
    transact t
      (Message.make ~token:(fresh_token t)
         ~options:(Message.options_of_path path @ options)
         ~payload ~code ~message_id:(fresh_mid t) ())

  let get t ~path = request t ~code:Message.code_get ~path ()

  let post t ~path ~payload =
    request t ~code:Message.code_post ~path ~payload ()

  (* Sequential Block1 upload, one confirmable exchange per block. *)
  let post_blockwise ?(block_size = 64) t ~path ~payload =
    let rec send_block num =
      match Block.slice ~num ~size:block_size payload with
      | None -> post t ~path ~payload
      | Some (chunk, more) -> (
          let block = Block.make ~num ~more ~size:block_size in
          match
            request t ~code:Message.code_post ~path
              ~options:[ Block.to_option ~number:Block.opt_block1 block ]
              ~payload:chunk ()
          with
          | Error `Timeout -> Error `Timeout
          | Ok response ->
              if more then
                if response.Message.code = Message.code_continue then
                  send_block (num + 1)
                else Ok response (* early error: report it *)
              else Ok response)
    in
    send_block 0

  (* Register an observe relationship; notifications arrive through
     {!recv} on this client's socket. *)
  let observe t ~path =
    request t ~code:Message.code_get ~path
      ~options:[ Message.observe_option 0 ]
      ()
end
