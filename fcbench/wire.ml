(* The load generators' side of the wire: a connected UDP socket polled
   without blocking (see recv_stub.c), responses read in place from one
   reused buffer, and a single confirmable exchange with retransmission.

   The server runs on the same domain ({!Acceptor}): whenever the socket
   is empty the generator calls [serve], which answers the requests it
   has sent.  The time from finding the socket empty to the next response
   (serving included) is accumulated in [idle_ns]. *)

external recv_nb : Unix.file_descr -> Bytes.t -> int -> int -> int = "fcbench_recv_nb"
[@@noalloc]

type t = {
  sock : Unix.file_descr;
  rbuf : Bytes.t;
  serve : unit -> int;  (** serve the queued requests, returns how many *)
  mutable idle_ns : float;
  mutable retransmissions : int;
}

let connect ~port ~serve =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { sock; rbuf = Bytes.create 65_536; serve; idle_ns = 0.0; retransmissions = 0 }

let close t = try Unix.close t.sock with Unix.Unix_error _ -> ()
let send t b = ignore (Unix.send t.sock b 0 (Bytes.length b) [])

(* One datagram into [rbuf], or -1 when none is queued. *)
let poll t = recv_nb t.sock t.rbuf 0 (Bytes.length t.rbuf)

(* --- reading a response in place --------------------------------------- *)

let msg_type buf = (Bytes.get_uint8 buf 0 lsr 4) land 0x3
let token_length buf = Bytes.get_uint8 buf 0 land 0x0f
let code buf = Bytes.get_uint8 buf 1
let message_id buf = Bytes.get_uint16_be buf 2

(* Offset of the payload in a message of [len] bytes, [len] when it has
   none, -1 when the options are malformed. *)
let payload_offset buf len =
  let pos = ref (4 + token_length buf) and result = ref (-2) in
  while !result = -2 do
    if !pos >= len then result := len
    else begin
      let b = Bytes.get_uint8 buf !pos in
      if b = 0xFF then result := !pos + 1
      else begin
        let delta = b lsr 4 and l = b land 0xF in
        incr pos;
        if delta = 15 || l = 15 then result := -1
        else begin
          if delta = 13 then incr pos else if delta = 14 then pos := !pos + 2;
          let l =
            if l = 13 then begin
              let v = Bytes.get_uint8 buf !pos + 13 in
              incr pos;
              v
            end
            else if l = 14 then begin
              let v = Bytes.get_uint16_be buf !pos + 269 in
              pos := !pos + 2;
              v
            end
            else l
          in
          pos := !pos + l
        end
      end
    end
  done;
  if !result > len then -1 else !result

let payload_equals buf off len expected =
  len - off = String.length expected
  &&
  let rec go i =
    i >= String.length expected
    || (Bytes.get buf (off + i) = String.get expected i && go (i + 1))
  in
  go 0

(* A non-negative decimal payload, or -1. *)
let payload_int buf off len =
  if off >= len then -1
  else begin
    let v = ref 0 and ok = ref true in
    for i = off to len - 1 do
      let c = Bytes.get buf i in
      if c >= '0' && c <= '9' then v := (!v * 10) + (Char.code c - 48) else ok := false
    done;
    if !ok then !v else -1
  end

(* --- one exchange at a time --------------------------------------------- *)

let ack_timeout_ns = 0.5e9
let max_retransmit = 3

(* Send a confirmable request (its message id at bytes 2-3) and poll for
   the piggybacked response with that id, serving while the socket is
   empty, retransmitting after
   [ack_timeout_ns], doubling, up to [max_retransmit] times.  Returns the
   response length (the response is in [rbuf]) or -1 on timeout. *)
let exchange t request =
  let mid = message_id request in
  send t request;
  let tries = ref 0 and sent = ref (Timing.now_ns ()) and idle_from = ref (-1.0) in
  let result = ref (-2) in
  while !result = -2 do
    let len = poll t in
    if len >= 4 && msg_type t.rbuf = 2 && message_id t.rbuf = mid then result := len
    else if len < 0 then begin
      let now = Timing.now_ns () in
      if !idle_from < 0.0 then idle_from := now;
      if t.serve () > 0 then ()
      else if now -. !sent > ack_timeout_ns *. Float.of_int (1 lsl !tries) then
        if !tries < max_retransmit then begin
          send t request;
          t.retransmissions <- t.retransmissions + 1;
          incr tries;
          sent := now
        end
        else result := -1
      else Domain.cpu_relax ()
    end
    (* else: a stale duplicate; keep polling *)
  done;
  if !idle_from >= 0.0 then t.idle_ns <- t.idle_ns +. (Timing.now_ns () -. !idle_from);
  !result
