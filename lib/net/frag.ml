(* 6LoWPAN-style fragmentation (RFC 4944, simplified header).

   IEEE 802.15.4 frames carry at most 127 bytes; larger datagrams (SUIT
   manifests, CoAP payloads) are split into fragments carrying
   (datagram_tag, datagram_size, offset) and reassembled at the receiver.

   Fragment wire format used here (little endian):
     byte 0      : 0xC1 first fragment / 0xE1 subsequent fragment
     bytes 1-2   : datagram_size
     bytes 3-4   : datagram_tag
     byte  5     : offset in 8-byte units (0 for the first fragment)
     rest        : payload chunk
   Unfragmented datagrams are sent verbatim with a 0x41 dispatch byte. *)

let frame_mtu = 127
let header_size = 6
let plain_dispatch = 0x41
let first_dispatch = 0xC1
let next_dispatch = 0xE1

(* Chunk payload per fragment, rounded down to 8-byte units as 6LoWPAN
   requires for offset encoding. *)
let chunk_size = (frame_mtu - header_size) / 8 * 8

let max_datagram = 0xFFFF

exception Fragment_error of string

(* [fragment ~tag payload] yields the frames to transmit, in order. *)
let fragment ~tag payload =
  let len = Bytes.length payload in
  if len > max_datagram then raise (Fragment_error "datagram too large");
  if len + 1 <= frame_mtu then begin
    let frame = Bytes.create (len + 1) in
    Bytes.set_uint8 frame 0 plain_dispatch;
    Bytes.blit payload 0 frame 1 len;
    [ frame ]
  end
  else begin
    let rec build offset acc =
      if offset >= len then List.rev acc
      else begin
        let chunk = min chunk_size (len - offset) in
        let frame = Bytes.create (header_size + chunk) in
        Bytes.set_uint8 frame 0 (if offset = 0 then first_dispatch else next_dispatch);
        Bytes.set_uint16_le frame 1 len;
        Bytes.set_uint16_le frame 3 (tag land 0xFFFF);
        Bytes.set_uint8 frame 5 (offset / 8);
        Bytes.blit payload offset frame header_size chunk;
        build (offset + chunk) (frame :: acc)
      end
    in
    build 0 []
  end

(* Reassembly state for one (source, tag) pair. *)
type pending = {
  src : int;
  tag : int;
  size : int;
  buffer : bytes;
  mutable received : int; (* bytes received so far *)
  mutable seen_offsets : int list;
}

(* Every radio node owns a reassembler, and a node has at most a few
   datagrams in flight (one, unless frames are lost), so the in-flight
   states are a plain list: an idle reassembler holds none. *)
type reassembler = {
  mutable pending : pending list;
  mutable completed : int;
  mutable dropped_duplicates : int;
}

let create_reassembler () =
  { pending = []; completed = 0; dropped_duplicates = 0 }
let pending_count t = List.length t.pending

(* Drop incomplete reassembly state (loss recovery: the upper layer
   retransmits the whole datagram). *)
let flush t ~src = t.pending <- List.filter (fun p -> p.src <> src) t.pending

let rec find_pending ~src ~tag = function
  | [] -> None
  | p :: rest ->
      if p.src = src && p.tag = tag then Some p else find_pending ~src ~tag rest

(* (src, tag) pairs are unique in [pending]: drop the first match. *)
let rec without state = function
  | [] -> []
  | p :: rest -> if p == state then rest else p :: without state rest

let remove_pending t state = t.pending <- without state t.pending

(* [accept t ~src frame] returns a complete datagram when the frame
   finishes one. *)
let accept t ~src frame =
  if Bytes.length frame = 0 then None
  else
    match Bytes.get_uint8 frame 0 with
    | d when d = plain_dispatch ->
        Some (Bytes.sub frame 1 (Bytes.length frame - 1))
    | d when d = first_dispatch || d = next_dispatch ->
        if Bytes.length frame < header_size then None
        else begin
          let size = Bytes.get_uint16_le frame 1 in
          let tag = Bytes.get_uint16_le frame 3 in
          let offset = Bytes.get_uint8 frame 5 * 8 in
          let chunk = Bytes.length frame - header_size in
          let state =
            match find_pending ~src ~tag t.pending with
            | Some state when state.size = size -> state
            | found ->
                Option.iter (remove_pending t) found;
                let state =
                  {
                    src;
                    tag;
                    size;
                    buffer = Bytes.create size;
                    received = 0;
                    seen_offsets = [];
                  }
                in
                t.pending <- state :: t.pending;
                state
          in
          if List.mem offset state.seen_offsets then begin
            t.dropped_duplicates <- t.dropped_duplicates + 1;
            None
          end
          else if offset + chunk > size then None (* malformed: ignore *)
          else begin
            Bytes.blit frame header_size state.buffer offset chunk;
            state.received <- state.received + chunk;
            state.seen_offsets <- offset :: state.seen_offsets;
            if state.received >= size then begin
              remove_pending t state;
              t.completed <- t.completed + 1;
              Some state.buffer
            end
            else None
          end
        end
    | _ -> None (* unknown dispatch: drop *)
