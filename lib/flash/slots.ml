(* Slot manager: persistent container images on the flash simulator.

   The flash is divided into fixed-size slots, each holding one container
   image behind a header (magic, install sequence number, hook UUID,
   length, SHA-256 digest).  SUIT installs write a slot; on (simulated)
   reboot the hosting engine re-attaches every valid slot — the
   persistence the paper's devices get from storing applications between
   invocations.

   Header layout (little endian):
     0-3   magic "FCS1"
     4-11  install sequence number (u64)
     12-15 payload length (u32)
     16-51 hook UUID (36 bytes, zero padded)
     52-83 SHA-256 of the payload
   Payload follows at offset 84. *)

module Crypto = Femto_crypto.Crypto

let magic = "FCS1"
let header_size = 84
let uuid_size = 36

type t = { flash : Flash.t; slot_size : int; count : int }

type slot_error =
  | Flash_error of Flash.error
  | No_such_slot of int
  | Image_too_large of { bytes : int; capacity : int }
  | Uuid_too_long of string
  | Empty_slot of int
  | Corrupt_slot of { slot : int; reason : string }

let error_to_string = function
  | Flash_error e -> Flash.error_to_string e
  | No_such_slot n -> Printf.sprintf "no slot %d" n
  | Image_too_large { bytes; capacity } ->
      Printf.sprintf "image of %d B exceeds slot capacity %d B" bytes capacity
  | Uuid_too_long uuid -> Printf.sprintf "uuid %S longer than %d" uuid uuid_size
  | Empty_slot n -> Printf.sprintf "slot %d is empty" n
  | Corrupt_slot { slot; reason } -> Printf.sprintf "slot %d corrupt: %s" slot reason

(* Slots are page-aligned so each can be erased independently. *)
let create ~flash ~count =
  let page = Flash.page_size flash in
  let raw = Flash.size flash / count in
  let slot_size = raw / page * page in
  if slot_size < header_size + page then invalid_arg "Slots.create: flash too small";
  { flash; slot_size; count }

let count t = t.count
let capacity t = t.slot_size - header_size

let offset t slot = slot * t.slot_size

let check_slot t slot = if slot < 0 || slot >= t.count then Error (No_such_slot slot) else Ok ()

type image = { sequence : int64; hook_uuid : string; payload : string }

let ( let* ) = Result.bind

let build_header ~sequence ~hook_uuid ~payload_len ~digest =
  let header = Bytes.make header_size '\x00' in
  Bytes.blit_string magic 0 header 0 4;
  Bytes.set_int64_le header 4 sequence;
  Bytes.set_int32_le header 12 (Int32.of_int payload_len);
  Bytes.blit_string hook_uuid 0 header 16 (String.length hook_uuid);
  Bytes.blit_string digest 0 header 52 32;
  header

(* [store t ~slot image] erases the slot then programs header + payload.
   [digest], when the caller already holds the payload's SHA-256 (e.g.
   computed while it streamed in), skips the re-hash here. *)
let store ?digest t ~slot image =
  let* () = check_slot t slot in
  let payload_len = String.length image.payload in
  if payload_len > capacity t then
    Error (Image_too_large { bytes = payload_len; capacity = capacity t })
  else if String.length image.hook_uuid > uuid_size then
    Error (Uuid_too_long image.hook_uuid)
  else begin
    let* () =
      Result.map_error
        (fun e -> Flash_error e)
        (Flash.erase_range t.flash ~offset:(offset t slot) ~length:t.slot_size)
    in
    let digest =
      match digest with Some d -> d | None -> Crypto.sha256 image.payload
    in
    let header =
      build_header ~sequence:image.sequence ~hook_uuid:image.hook_uuid
        ~payload_len ~digest
    in
    let blob = Bytes.cat header (Bytes.of_string image.payload) in
    Result.map_error
      (fun e -> Flash_error e)
      (Flash.write t.flash ~offset:(offset t slot) blob)
  end

(* --- streaming installs ---

   [begin_stream] erases the slot up front; [stream_write] programs each
   chunk into the payload area as it arrives (so flash work overlaps the
   block-wise transfer); [finish_stream] programs the header last.  Until
   the header lands the slot has no magic and scans as empty, so an
   aborted or rejected transfer needs no cleanup — write-the-header-last
   is the commit point. *)

type stream = { owner : t; slot : int; mutable written : int }

let begin_stream t ~slot =
  let* () = check_slot t slot in
  let* () =
    Result.map_error
      (fun e -> Flash_error e)
      (Flash.erase_range t.flash ~offset:(offset t slot) ~length:t.slot_size)
  in
  Ok { owner = t; slot; written = 0 }

let stream_written stream = stream.written

let stream_write stream chunk =
  let t = stream.owner in
  let len = String.length chunk in
  if stream.written + len > capacity t then
    Error (Image_too_large { bytes = stream.written + len; capacity = capacity t })
  else begin
    let* () =
      Result.map_error
        (fun e -> Flash_error e)
        (Flash.write t.flash
           ~offset:(offset t stream.slot + header_size + stream.written)
           (Bytes.of_string chunk))
    in
    stream.written <- stream.written + len;
    Ok ()
  end

let finish_stream stream ~sequence ~hook_uuid ~digest =
  let t = stream.owner in
  if String.length hook_uuid > uuid_size then Error (Uuid_too_long hook_uuid)
  else if String.length digest <> 32 then
    Error (Corrupt_slot { slot = stream.slot; reason = "bad digest length" })
  else
    Result.map_error
      (fun e -> Flash_error e)
      (Flash.write t.flash ~offset:(offset t stream.slot)
         (build_header ~sequence ~hook_uuid ~payload_len:stream.written ~digest))

(* What a slot's header says, before its payload is read or hashed. *)
type header = {
  seq : int64;
  owner : string;
  payload_len : int;
  digest : string;
}

(* [header t ~slot] reads and checks only the 84 header bytes: magic and
   length field, no digest.  Placement decisions need nothing more. *)
let header t ~slot =
  let* () = check_slot t slot in
  let* raw =
    Result.map_error
      (fun e -> Flash_error e)
      (Flash.read t.flash ~offset:(offset t slot) ~length:header_size)
  in
  if Bytes.sub_string raw 0 4 <> magic then Error (Empty_slot slot)
  else begin
    let payload_len = Int32.to_int (Bytes.get_int32_le raw 12) in
    if payload_len < 0 || payload_len > capacity t then
      Error (Corrupt_slot { slot; reason = "bad length field" })
    else
      let owner =
        let field = Bytes.sub_string raw 16 uuid_size in
        match String.index_opt field '\x00' with
        | Some stop -> String.sub field 0 stop
        | None -> field
      in
      Ok
        {
          seq = Bytes.get_int64_le raw 4;
          owner;
          payload_len;
          digest = Bytes.sub_string raw 52 32;
        }
  end

(* [load t ~slot] reads and integrity-checks one slot. *)
let load t ~slot =
  let* h = header t ~slot in
  let* payload =
    Result.map_error
      (fun e -> Flash_error e)
      (Flash.read t.flash ~offset:(offset t slot + header_size)
         ~length:h.payload_len)
  in
  let payload = Bytes.to_string payload in
  if not (Crypto.constant_time_equal (Crypto.sha256 payload) h.digest) then
    Error (Corrupt_slot { slot; reason = "payload digest mismatch" })
  else Ok { sequence = h.seq; hook_uuid = h.owner; payload }

let erase t ~slot =
  let* () = check_slot t slot in
  Result.map_error
    (fun e -> Flash_error e)
    (Flash.erase_range t.flash ~offset:(offset t slot) ~length:t.slot_size)

(* [scan t] enumerates the valid images, as a bootloader would. *)
let scan t =
  List.filter_map
    (fun slot ->
      match load t ~slot with Ok image -> Some (slot, image) | Error _ -> None)
    (List.init t.count Fun.id)

(* [headers t] lists every slot whose header is well formed, payloads
   unread: enough to place or sweep images, never enough to run one. *)
let headers t =
  List.filter_map
    (fun slot ->
      match header t ~slot with Ok h -> Some (slot, h) | Error _ -> None)
    (List.init t.count Fun.id)

(* Pick the slot to overwrite for a new install: an empty one, found from
   headers alone; else a corrupt one; else the lowest-sequence (oldest)
   image.  Only the last two need the digest scan. *)
let victim_slot t =
  let rec first_empty slot =
    if slot >= t.count then None
    else
      match header t ~slot with
      | Error (Empty_slot _) -> Some slot
      | _ -> first_empty (slot + 1)
  in
  let rec scan_slots slot oldest =
    if slot >= t.count then
      match oldest with Some (slot, _) -> slot | None -> 0
    else
      match load t ~slot with
      | Ok image -> (
          match oldest with
          | Some (_, seq) when Int64.compare seq image.sequence <= 0 ->
              scan_slots (slot + 1) oldest
          | _ -> scan_slots (slot + 1) (Some (slot, image.sequence)))
      | Error _ -> slot (* corrupt: reuse it *)
  in
  match first_empty 0 with Some slot -> slot | None -> scan_slots 0 None
