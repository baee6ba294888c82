(* CoAP client with confirmable-message retransmission (RFC 7252 §4.2),
   block-wise transfer (RFC 7959) and observe (RFC 7641).

   The exchange logic is sans-IO, like the server's [create_detached]:
   datagrams leave through [send], retransmission timers are armed
   through [after_us], and received bytes come in through
   [handle_datagram].  [create] drives it over the simulated [Network]
   and the kernel's timers; [Transport.Client] drives it over a UDP
   socket with a blocking pump.

   A request is encoded once and resent byte-identical with exponential
   back-off (2^n x ACK_TIMEOUT, MAX_RETRANSMIT = 4) until the matching
   response arrives or the attempts are exhausted — which is what lets
   SUIT updates survive the lossy low-power link of the simulation. *)

module Network = Femto_net.Network
module Kernel = Femto_rtos.Kernel

let max_retransmit = 4

type exchange = {
  dst : int;
  token : string;
  datagram : bytes; (* encoded once, resent as is *)
  mutable attempts : int;
  on_response : (Message.t, [ `Timeout ]) result -> unit;
  mutable done_ : bool;
}

type t = {
  send : dst:int -> bytes -> unit;
  after_us : us:int -> (unit -> unit) -> unit;
  ack_timeout_us : int;
  mutable next_mid : int;
  mutable next_token : int;
  pending : (string, exchange) Hashtbl.t; (* token -> exchange *)
  (* RFC 7641: long-lived listeners for observe notifications *)
  observations : (string, Message.t -> unit) Hashtbl.t;
  mutable retransmissions : int;
  mutable timeouts : int;
}

let create_detached ~send ~after_us ~first_id ~ack_timeout_us =
  {
    send;
    after_us;
    ack_timeout_us;
    next_mid = first_id land 0xFFFF;
    next_token = first_id;
    pending = Hashtbl.create 8;
    observations = Hashtbl.create 4;
    retransmissions = 0;
    timeouts = 0;
  }

let handle_datagram t data ~len =
  match Message.decode_sub data ~off:0 ~len with
  | exception Message.Parse_error _ -> ()
  | response -> (
      match Hashtbl.find_opt t.pending response.Message.token with
      | Some x when not x.done_ ->
          x.done_ <- true;
          Hashtbl.remove t.pending x.token;
          x.on_response (Ok response)
      | Some _ | None -> (
          (* no pending exchange: an observe notification? *)
          match Hashtbl.find_opt t.observations response.Message.token with
          | Some listener -> listener response
          | None -> ()))

let create ~network ~kernel ~addr =
  let t =
    create_detached
      ~send:(fun ~dst data -> Network.send network ~src:addr ~dst data)
      ~after_us:(fun ~us f -> Kernel.after_us kernel ~us (fun _ -> f ()))
      ~first_id:1 ~ack_timeout_us:2_000_000
  in
  Network.set_receiver (Network.add_node network ~addr) (fun ~src:_ data ->
      handle_datagram t data ~len:(Bytes.length data));
  t

let retransmissions t = t.retransmissions
let timeouts t = t.timeouts

let fresh_mid t =
  let mid = t.next_mid in
  t.next_mid <- (t.next_mid + 1) land 0xFFFF;
  mid

let fresh_token t =
  let token = Printf.sprintf "%04x" (t.next_token land 0xFFFF) in
  t.next_token <- t.next_token + 1;
  token

let rec transmit t x =
  x.attempts <- x.attempts + 1;
  if x.attempts > 1 then t.retransmissions <- t.retransmissions + 1;
  t.send ~dst:x.dst x.datagram;
  t.after_us ~us:(t.ack_timeout_us lsl (x.attempts - 1)) (fun () ->
      if not x.done_ then
        if x.attempts > max_retransmit then begin
          x.done_ <- true;
          Hashtbl.remove t.pending x.token;
          t.timeouts <- t.timeouts + 1;
          x.on_response (Error `Timeout)
        end
        else transmit t x)

(* Start one confirmable exchange; [on_response] fires exactly once. *)
let exchange t ~dst ?(token = fresh_token t) ~code ~options ?(payload = "")
    on_response =
  let message =
    Message.make ~token ~options ~payload ~code ~message_id:(fresh_mid t) ()
  in
  let x =
    { dst; token; datagram = Message.encode message; attempts = 0;
      on_response; done_ = false }
  in
  Hashtbl.replace t.pending token x;
  transmit t x

let get t ~dst ~path on_response =
  exchange t ~dst ~code:Message.code_get
    ~options:(Message.options_of_path path) on_response

let post t ~dst ~path ~payload on_response =
  exchange t ~dst ~code:Message.code_post
    ~options:(Message.options_of_path path) ~payload on_response

(* --- RFC 7959 block-wise transfer --- *)

(* [post_blockwise] uploads a payload as sequential Block1 chunks, each
   its own confirmable exchange; an empty payload is one empty block.
   [on_response] fires once, with the final response, the first
   non-2.31 answer to a non-final block, or the first timeout. *)
let post_blockwise t ~dst ~path ~payload on_response =
  let rec send_block num =
    (* [slice] is [None] only past the end, where no block is sent *)
    let chunk, more =
      Option.get (Block.slice ~num ~size:Block.chunk_size payload)
    in
    exchange t ~dst ~code:Message.code_post
      ~options:
        (Message.options_of_path path
        @ [ Block.to_option ~number:Block.opt_block1
              (Block.make ~num ~more ~size:Block.chunk_size) ])
      ~payload:chunk
      (function
      | Ok response when more && response.Message.code = Message.code_continue
        ->
          send_block (num + 1)
      | result -> on_response result)
  in
  send_block 0

(* [get_blockwise] downloads a response, following Block2 options until
   the final block; delivers the reassembled payload. *)
let get_blockwise t ~dst ~path on_response =
  let buffer = Buffer.create 256 in
  let rec fetch num =
    let options =
      Message.options_of_path path
      @
      if num = 0 then []
      else [ Block.to_option ~number:Block.opt_block2
               (Block.make ~num ~more:false ~size:Block.chunk_size) ]
    in
    exchange t ~dst ~code:Message.code_get ~options (function
      | Error `Timeout -> on_response (Error `Timeout)
      | Ok response -> (
          Buffer.add_string buffer response.Message.payload;
          match Block.of_message ~number:Block.opt_block2 response with
          | Some block when block.Block.more -> fetch (num + 1)
          | Some _ | None ->
              let payload = Buffer.contents buffer in
              on_response (Ok { response with Message.payload })))
  in
  fetch 0

(* --- RFC 7641 observe --- *)

type observation = { obs_token : string; obs_dst : int; obs_path : string }

(* [observe t ~dst ~path listener] registers an observe relationship; the
   listener fires for the registration response and for every
   notification until {!cancel_observe}. *)
let observe t ~dst ~path listener =
  let token = fresh_token t in
  Hashtbl.replace t.observations token listener;
  exchange t ~dst ~token ~code:Message.code_get
    ~options:(Message.observe_option 0 :: Message.options_of_path path)
    (function
    | Ok response -> listener response
    | Error `Timeout -> Hashtbl.remove t.observations token);
  { obs_token = token; obs_dst = dst; obs_path = path }

(* Best-effort deregistration, on the registration's token. *)
let cancel_observe t observation =
  Hashtbl.remove t.observations observation.obs_token;
  exchange t ~dst:observation.obs_dst ~token:observation.obs_token
    ~code:Message.code_get
    ~options:
      (Message.observe_option 1 :: Message.options_of_path observation.obs_path)
    (fun _ -> ())
