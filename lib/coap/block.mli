(** CoAP block-wise transfer (RFC 7959).

    SUIT payloads routinely exceed a 6LoWPAN frame; block-wise transfer
    moves them in power-of-two chunks with per-block confirmable
    retransmission.  Block1 covers large requests (uploads), Block2 large
    responses (downloads). *)

val opt_block2 : int
val opt_block1 : int

type t = { num : int; more : bool; szx : int }

val chunk_size : int
(** The block size of every transfer the client and server make: 64 B
    (SZX 2). *)

val size : t -> int
(** Block size in bytes, [2^(szx+4)]. *)

val max_num : int
(** Largest encodable block number (20 bits: the 3-byte option value
    minus the 4 control bits), [0xFFFFF]. *)

val make : num:int -> more:bool -> size:int -> t
(** Raises [Invalid_argument] when [size] is not 16, 32, ..., 1024 or
    [num] is outside [0..max_num]. *)

val encode : t -> string
(** The option value (0-3 byte big-endian uint).  Raises
    [Invalid_argument] when the fields are out of range rather than
    silently truncating the block number. *)

val decode : string -> t option

val to_option : number:int -> t -> int * string
val of_message : number:int -> Message.t -> t option

val slice : num:int -> size:int -> string -> (string * bool) option
(** [slice ~num ~size payload] is block [num] and whether more follow;
    [None] past the end. *)

(** {2 Reassembly of uploads} *)

type assembly

val create_assembly : ?digest:bool -> unit -> assembly
(** With [~digest:true], an incremental SHA-256 runs alongside
    reassembly: each chunk is hashed as it arrives, so the payload
    digest is available the moment the final block lands. *)

val assembled_bytes : assembly -> int
(** Bytes received so far. *)

val finalize_digest : assembly -> string option
(** The streaming digest of everything fed so far; consumes the digest
    context (at most one call returns [Some]).  [None] when the assembly
    was created without [~digest] or the digest was already taken. *)

type feed_result =
  | Continue  (** block stored, awaiting the next *)
  | Complete of string  (** final block stored; full payload *)
  | Out_of_order  (** unexpected block number: restart required *)

val feed : assembly -> t -> string -> feed_result
