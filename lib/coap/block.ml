(* CoAP block-wise transfer (RFC 7959).

   SUIT payloads and manifests routinely exceed a 6LoWPAN frame; block-wise
   transfer moves them in power-of-two chunks with per-block confirmable
   retransmission.  Block1 covers large requests (uploads), Block2 large
   responses (downloads).

   Option value: a uint encoding (num << 4) | (m << 3) | szx where the
   block size is 2^(szx + 4), szx in 0..6 (16..1024 bytes). *)

let opt_block2 = Message.opt_block2
let opt_block1 = Message.opt_block1

type t = { num : int; more : bool; szx : int }

(* Every block-wise transfer in this stack moves 64-byte blocks (SZX 2):
   small enough for a few 6LoWPAN frames, large enough that a SUIT
   payload is a few dozen exchanges. *)
let chunk_size = 64

let size t = 1 lsl (t.szx + 4)

let szx_of_size size =
  match size with
  | 16 -> 0
  | 32 -> 1
  | 64 -> 2
  | 128 -> 3
  | 256 -> 4
  | 512 -> 5
  | 1024 -> 6
  | _ -> invalid_arg "Block.szx_of_size: not a valid block size"

(* The option value is at most 3 bytes, so after the 4-bit shift the
   block number has 20 bits of room. *)
let max_num = 0xFFFFF

let make ~num ~more ~size =
  if num < 0 || num > max_num then
    invalid_arg "Block.make: num must fit 20 bits";
  { num; more; szx = szx_of_size size }

(* --- option value codec: big-endian uint, 0-3 bytes --- *)

let encode t =
  if t.num < 0 || t.num > max_num then
    invalid_arg "Block.encode: num must fit 20 bits";
  if t.szx < 0 || t.szx > 6 then
    invalid_arg "Block.encode: szx must be in 0..6";
  Message.uint_value
    ((t.num lsl 4) lor ((if t.more then 1 else 0) lsl 3) lor t.szx)

let decode value =
  if String.length value > 3 then None
  else begin
    let v = String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 value in
    let szx = v land 0x7 in
    if szx = 7 then None (* reserved *)
    else Some { num = v lsr 4; more = v land 0x8 <> 0; szx }
  end

let to_option ~number t = (number, encode t)

(* The first option [number] whose value decodes. *)
let rec first_valid number = function
  | [] -> None
  | (n, v) :: rest -> (
      match if n = number then decode v else None with
      | Some _ as block -> block
      | None -> first_valid number rest)

let of_message ~number (message : Message.t) =
  first_valid number message.Message.options

(* Slice [payload] for block [num] of [size] bytes; returns the chunk and
   whether more blocks follow. *)
let slice ~num ~size payload =
  let total = String.length payload in
  let start = num * size in
  if start >= total && total > 0 then None
  else if total = 0 && num > 0 then None
  else begin
    let len = min size (total - start) in
    let chunk = String.sub payload start len in
    Some (chunk, start + len < total)
  end

(* Reassembly buffer for one block-wise upload.  With [~digest:true] an
   incremental SHA-256 runs alongside: each chunk is hashed as it
   arrives, so the payload digest is ready the moment the last block
   lands — the update pipeline's digest gate then needs no second pass
   over the payload. *)
type assembly = {
  buffer : Buffer.t;
  mutable expected_num : int;
  mutable digest : Femto_crypto.Sha256.ctx option;
}

let create_assembly ?(digest = false) () =
  {
    buffer = Buffer.create 256;
    expected_num = 0;
    digest = (if digest then Some (Femto_crypto.Sha256.init ()) else None);
  }

let assembled_bytes assembly = Buffer.length assembly.buffer

(* Finalize and return the streaming digest (once; the context is
   consumed).  None when the assembly was created without [~digest]. *)
let finalize_digest assembly =
  match assembly.digest with
  | None -> None
  | Some ctx ->
      assembly.digest <- None;
      Some (Femto_crypto.Sha256.finalize ctx)

type feed_result =
  | Continue (* block stored, awaiting the next *)
  | Complete of string (* final block stored; full payload *)
  | Out_of_order (* unexpected block number: restart required *)

let feed assembly block chunk =
  if block.num <> assembly.expected_num then Out_of_order
  else begin
    Buffer.add_string assembly.buffer chunk;
    Option.iter
      (fun ctx -> Femto_crypto.Sha256.update_string ctx chunk)
      assembly.digest;
    assembly.expected_num <- assembly.expected_num + 1;
    if block.more then Continue else Complete (Buffer.contents assembly.buffer)
  end
