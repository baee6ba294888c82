(** Slot manager: persistent container images on the flash simulator.

    The flash is divided into page-aligned, fixed-size slots, each holding
    one container image behind a header carrying the install sequence
    number, the hook UUID (the SUIT storage location) and a SHA-256
    digest.  On boot the hosting engine re-attaches every valid slot. *)

type t

type slot_error =
  | Flash_error of Flash.error
  | No_such_slot of int
  | Image_too_large of { bytes : int; capacity : int }
  | Uuid_too_long of string
  | Empty_slot of int
  | Corrupt_slot of { slot : int; reason : string }

val error_to_string : slot_error -> string

val create : flash:Flash.t -> count:int -> t
(** Partition [flash] into [count] slots; raises [Invalid_argument] when
    the flash is too small. *)

val count : t -> int

val capacity : t -> int
(** Payload bytes one slot can hold. *)

type image = { sequence : int64; hook_uuid : string; payload : string }

val store : ?digest:string -> t -> slot:int -> image -> (unit, slot_error) result
(** Erase the slot, then program header + payload.  [digest], when the
    caller already holds the payload's SHA-256 (e.g. streamed in), skips
    the re-hash. *)

(** {2 Streaming installs}

    [begin_stream] erases the slot; [stream_write] programs each chunk
    into the payload area as it arrives; [finish_stream] programs the
    header last, which is the commit point — until then the slot scans
    as empty, so aborted transfers need no cleanup. *)

type stream

val begin_stream : t -> slot:int -> (stream, slot_error) result
val stream_write : stream -> string -> (unit, slot_error) result

val stream_written : stream -> int
(** Payload bytes programmed so far. *)

val finish_stream :
  stream -> sequence:int64 -> hook_uuid:string -> digest:string ->
  (unit, slot_error) result

type header = {
  seq : int64;
  owner : string;
  payload_len : int;
  digest : string;
}
(** A slot header: install sequence number, owning hook UUID, payload
    length and the payload's recorded SHA-256. *)

val header : t -> slot:int -> (header, slot_error) result
(** Read one slot's header only (magic + length field).  The payload is
    neither read nor hashed, so a header says where an image sits, never
    that it is safe to run. *)

val load : t -> slot:int -> (image, slot_error) result
(** Read and integrity-check one slot (magic + digest). *)

val erase : t -> slot:int -> (unit, slot_error) result

val scan : t -> (int * image) list
(** Every valid image, as a bootloader sees them. *)

val headers : t -> (int * header) list
(** Every slot with a well-formed header, payloads unchecked: for
    placement and sweeping, not for executing. *)

val victim_slot : t -> int
(** The slot a new install should overwrite: an empty one (found from
    headers alone), else a corrupt one, else the oldest (lowest sequence
    number). *)
