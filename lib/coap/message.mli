(** CoAP message codec (RFC 7252). *)

type msg_type = Confirmable | Non_confirmable | Acknowledgement | Reset

(** {2 Codes as (class, detail)} *)

val code_empty : int * int
val code_get : int * int
val code_post : int * int
val code_put : int * int
val code_delete : int * int

val code_content : int * int
(** 2.05 — encodes to 69, the code the paper's formatter container uses. *)

val code_created : int * int
val code_changed : int * int

val code_continue : int * int
(** 2.31 — more Block1 blocks expected (RFC 7959). *)

val code_bad_request : int * int
val code_unauthorized : int * int
val code_not_found : int * int
val code_request_entity_incomplete : int * int
val code_request_entity_too_large : int * int
val code_internal_error : int * int

val code_to_int : int * int -> int
val code_of_int : int -> int * int
val code_to_string : int * int -> string

(** {2 Option numbers} *)

val opt_etag : int
val opt_observe : int
val opt_uri_path : int
val opt_content_format : int
val opt_max_age : int
val opt_uri_query : int

val opt_size1 : int
(** RFC 7959 Size1: with a 4.13, the largest request size accepted. *)

type t = {
  msg_type : msg_type;
  code : int * int;
  message_id : int;
  token : string;
  options : (int * string) list;  (** (number, value), kept sorted *)
  payload : string;
}

exception Parse_error of string

val make :
  ?msg_type:msg_type ->
  ?token:string ->
  ?options:(int * string) list ->
  ?payload:string ->
  code:int * int ->
  message_id:int ->
  unit ->
  t

val uri_path : t -> string list
val path_string : t -> string
val content_format : t -> int option

val observe : t -> int option
(** The RFC 7641 Observe option (0 register, 1 deregister, else a
    notification sequence number). *)

val uint_value : int -> string
(** A uint option value (RFC 7252 §3.2): big-endian, no leading zero
    bytes; [0 <= v < 2^32]. *)

val observe_option : int -> int * string
val options_of_path : string -> (int * string) list
val content_format_option : int -> int * string

val etag : t -> string option
val etag_option : string -> int * string

val max_age : t -> int option
(** The Max-Age option as a uint (RFC 7252 §5.10.5). *)

val max_age_option : int -> int * string
(** Up to 4 bytes, as RFC 7252 allows (2^32 - 1 s). *)

val max_size : int
(** RFC 7252 §4.6: 1 152 bytes, the largest message this stack receives
    when no path MTU is known. *)

val encode : t -> bytes

val encode_into : Buffer.t -> t -> unit
(** Append the wire form to a caller-owned buffer. *)

val decode : bytes -> t
(** Raises {!Parse_error} on malformed input. *)

val decode_sub : bytes -> off:int -> len:int -> t
(** Parse a message from a slice of [data] in place (no upfront copy of
    the datagram).  Raises {!Parse_error} on malformed input. *)

(** {2 In-place requests}

    A server dispatches on a validated message without copying it: a
    view holds offsets into the receive buffer, and a reply is written
    in front of a tail the server already holds encoded. *)

val opt_block1 : int
val opt_block2 : int

type view = private {
  data : bytes;
  off : int;  (** message start *)
  stop : int;  (** message end *)
  opts : int;  (** first option byte *)
  body : int;  (** payload start; [stop] when there is none *)
  block1 : int;  (** first valid Block1 value (RFC 7959), or -1 *)
  block2 : int;  (** first valid Block2 value, or -1 *)
  observe_value : int;
      (** first Observe value, or -1; a value longer than 3 bytes reads
          as 2 (neither register nor deregister) *)
}

val scan : bytes -> off:int -> len:int -> view
(** Validate a message exactly as {!decode_sub} does (same
    {!Parse_error}s) without building it. *)

val message : view -> t
(** The decoded message: [decode_sub] is [message (scan ...)]. *)

val view_type_code : view -> int
(** 0 CON, 1 NON, 2 ACK, 3 RST. *)

val view_code : view -> int
val view_message_id : view -> int
val view_payload : view -> string
val view_token : view -> string

val path_matches : view -> string -> bool
(** [path_matches v p] is [path_string (message v) = p], compared in
    place. *)

val view_path : view -> string
(** [path_string (message v)]. *)

val reply :
  view -> code:int * int -> options:(int * string) list -> payload:string -> bytes
(** The piggybacked reply to a request (ACK for CON, NON for NON) with
    its message id and token: [encode] of the same message, without
    building it first. *)

val reply_tail : view -> code:int -> bytes -> bytes
(** A reply whose options and payload are [tail], already encoded (the
    bytes after the token of an encoded message). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
