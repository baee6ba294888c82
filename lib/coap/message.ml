(* CoAP message codec (RFC 7252).

   Wire format:
     byte 0:  Ver(2) | Type(2) | TKL(4)
     byte 1:  Code (class 3 bits . detail 5 bits)
     2-3:     Message ID (big endian)
     4..:     Token (TKL bytes)
     then options, delta-encoded and sorted by number, with 13/14
     extended nibbles; then 0xFF + payload if non-empty. *)

type msg_type = Confirmable | Non_confirmable | Acknowledgement | Reset

let msg_type_code = function
  | Confirmable -> 0
  | Non_confirmable -> 1
  | Acknowledgement -> 2
  | Reset -> 3

let msg_type_of_code = function
  | 0 -> Confirmable
  | 1 -> Non_confirmable
  | 2 -> Acknowledgement
  | 3 -> Reset
  | _ -> assert false

(* Codes as (class, detail). *)
let code_empty = (0, 0)
let code_get = (0, 1)
let code_post = (0, 2)
let code_put = (0, 3)
let code_delete = (0, 4)
let code_content = (2, 5) (* 2.05, the paper's response code 69 *)
let code_created = (2, 1)
let code_changed = (2, 4)
let code_continue = (2, 31) (* RFC 7959: more Block1 blocks expected *)
let code_bad_request = (4, 0)
let code_unauthorized = (4, 1)
let code_not_found = (4, 4)
let code_request_entity_incomplete = (4, 8) (* RFC 7959 *)
let code_request_entity_too_large = (4, 13)
let code_internal_error = (5, 0)

let code_to_int (cls, detail) = (cls lsl 5) lor detail
let code_of_int v = (v lsr 5, v land 0x1f)

let code_to_string (cls, detail) = Printf.sprintf "%d.%02d" cls detail

(* Option numbers. *)
let opt_etag = 4
let opt_observe = 6 (* RFC 7641 *)
let opt_uri_path = 11
let opt_content_format = 12
let opt_max_age = 14
let opt_uri_query = 15
let opt_size1 = 60 (* RFC 7959 §4 *)

type t = {
  msg_type : msg_type;
  code : int * int;
  message_id : int;
  token : string;
  options : (int * string) list; (* (number, value), kept sorted *)
  payload : string;
}

exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun m -> raise (Parse_error m)) fmt

let rec sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
  | [ _ ] | [] -> true

(* Options in number order, stable for repeated numbers. *)
let sort_options options =
  if sorted options then options
  else List.stable_sort (fun (a, _) (b, _) -> compare a b) options

let make ?(msg_type = Confirmable) ?(token = "") ?(options = []) ?(payload = "")
    ~code ~message_id () =
  {
    msg_type;
    code;
    message_id;
    token;
    options = sort_options options;
    payload;
  }

let uri_path_of options =
  List.filter_map (fun (n, v) -> if n = opt_uri_path then Some v else None) options

let uri_path t = uri_path_of t.options
let path_of_options options = "/" ^ String.concat "/" (uri_path_of options)

let path_string t = path_of_options t.options

(* RFC 7641: the Observe option as a uint (register = 0, deregister = 1;
   in notifications, a sequence number). *)
let observe t =
  List.find_map
    (fun (n, v) ->
      if n = opt_observe then
        Some (String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 v)
      else None)
    t.options

(* A uint option value (RFC 7252 §3.2): big-endian, no leading zero
   bytes, at most 4. *)
let uint_value v =
  let n =
    if v = 0 then 0
    else if v < 0x100 then 1
    else if v < 0x10000 then 2
    else if v < 0x1000000 then 3
    else 4
  in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set_uint8 b i ((v lsr (8 * (n - 1 - i))) land 0xff)
  done;
  Bytes.unsafe_to_string b

(* RFC 7641 §4.4: sequence numbers are 24 bits and wrap. *)
let observe_option v = (opt_observe, uint_value (v land 0xFFFFFF))

let content_format t =
  List.find_map
    (fun (n, v) ->
      if n = opt_content_format then
        Some (String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 v)
      else None)
    t.options

let options_of_path path =
  String.split_on_char '/' path
  |> List.filter (fun s -> s <> "")
  |> List.map (fun segment -> (opt_uri_path, segment))

let etag t = List.assoc_opt opt_etag t.options
let etag_option v = (opt_etag, v)

(* Max-Age as a uint option (RFC 7252 §5.10.5). *)
let max_age t =
  List.find_map
    (fun (n, v) ->
      if n = opt_max_age then
        Some (String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 v)
      else None)
    t.options

let max_age_option v = (opt_max_age, uint_value (v land 0xFFFFFFFF))

let content_format_option fmt = (opt_content_format, uint_value fmt)

(* --- encoding --- *)

(* RFC 7252 §4.6: with no known path MTU a message must fit 1 152 bytes,
   the bound every receive buffer here is sized to. *)
let max_size = 1152

let nibble v = if v < 13 then v else if v < 269 then 13 else 14
let ext_bytes n = if n = 13 then 1 else if n = 14 then 2 else 0

(* Bytes of an option header: the nibble byte plus extended delta and
   length. *)
let option_header_size ~delta ~length =
  1 + ext_bytes (nibble delta) + ext_bytes (nibble length)

let write_ext b pos v n =
  if n = 13 then Bytes.set_uint8 b pos (v - 13)
  else if n = 14 then Bytes.set_uint16_be b pos (v - 269)

(* Write an option header at [pos]; returns where its value goes. *)
let write_option_header b pos ~delta ~length =
  let dn = nibble delta and ln = nibble length in
  Bytes.set_uint8 b pos ((dn lsl 4) lor ln);
  write_ext b (pos + 1) delta dn;
  write_ext b (pos + 1 + ext_bytes dn) length ln;
  pos + 1 + ext_bytes dn + ext_bytes ln

let rec options_size previous = function
  | [] -> 0
  | (number, value) :: rest ->
      let length = String.length value in
      option_header_size ~delta:(number - previous) ~length
      + length + options_size number rest

let rec write_options b pos previous = function
  | [] -> pos
  | (number, value) :: rest ->
      let length = String.length value in
      let pos = write_option_header b pos ~delta:(number - previous) ~length in
      Bytes.blit_string value 0 b pos length;
      write_options b (pos + length) number rest

(* Options, marker and payload: everything after the token. *)
let tail_size options payload =
  options_size 0 options
  + if payload = "" then 0 else 1 + String.length payload

let write_tail b pos options payload =
  let pos = write_options b pos 0 options in
  if payload <> "" then begin
    Bytes.set b pos '\xff';
    Bytes.blit_string payload 0 b (pos + 1) (String.length payload)
  end

let write_header b ~type_code ~tkl ~code ~message_id =
  Bytes.set_uint8 b 0 ((1 lsl 6) lor (type_code lsl 4) lor tkl);
  Bytes.set_uint8 b 1 code;
  Bytes.set_uint16_be b 2 (message_id land 0xFFFF)

let encode t =
  let tkl = String.length t.token in
  if tkl > 8 then invalid_arg "CoAP token longer than 8 bytes";
  let b = Bytes.create (4 + tkl + tail_size t.options t.payload) in
  write_header b ~type_code:(msg_type_code t.msg_type) ~tkl
    ~code:(code_to_int t.code) ~message_id:t.message_id;
  Bytes.blit_string t.token 0 b 4 tkl;
  write_tail b (4 + tkl) t.options t.payload;
  b

let encode_into buf t = Buffer.add_bytes buf (encode t)

(* --- decoding, in place --- *)

(* A validated message inside a byte buffer: offsets only, nothing
   copied.  The fields a server dispatches on (the Block1/Block2 values
   and the Observe value, each -1 when absent) are read while the
   options are validated. *)
type view = {
  data : bytes;
  off : int;
  stop : int;
  opts : int;
  body : int;
  block1 : int;
  block2 : int;
  observe_value : int;
}

let opt_block2 = 23
let opt_block1 = 27

(* The fields of the option whose header byte is at [pos], read in
   place; only valid once [option_end] accepted the option. *)
let ext_value data at n =
  if n < 13 then n
  else if n = 13 then 13 + Bytes.get_uint8 data at
  else 269 + Bytes.get_uint16_be data at

let option_delta data pos =
  ext_value data (pos + 1) (Bytes.get_uint8 data pos lsr 4)

let option_value_off data pos =
  let h = Bytes.get_uint8 data pos in
  pos + 1 + ext_bytes (h lsr 4) + ext_bytes (h land 0x0f)

let option_length data pos =
  let h = Bytes.get_uint8 data pos in
  ext_value data (pos + 1 + ext_bytes (h lsr 4)) (h land 0x0f)

(* Where the option at [pos] ends; Parse_error when it is malformed or
   runs past [stop]. *)
let option_end data ~stop pos =
  let h = Bytes.get_uint8 data pos in
  if h lsr 4 = 15 || h land 0x0f = 15 then
    parse_error "reserved option nibble 15";
  let value = option_value_off data pos in
  if value > stop then parse_error "truncated option";
  let e = value + option_length data pos in
  if e > stop then parse_error "truncated option value";
  e

(* A big-endian uint of up to 3 bytes (the Block and Observe values). *)
let uint3 data off len =
  if len = 0 then 0
  else if len = 1 then Bytes.get_uint8 data off
  else if len = 2 then Bytes.get_uint16_be data off
  else (Bytes.get_uint8 data off lsl 16) lor Bytes.get_uint16_be data (off + 1)

(* A Block value is valid when it fits 3 bytes and its szx is not the
   reserved 7 (RFC 7959 §2.2); the first valid one counts. *)
let block_value data voff vlen current =
  if current >= 0 || vlen > 3 then current
  else
    let v = uint3 data voff vlen in
    if v land 7 = 7 then current else v

let rec scan_options data ~off ~stop ~opts pos previous block1 block2 observe =
  if pos >= stop || Bytes.get_uint8 data pos = 0xff then begin
    if pos < stop && pos + 1 >= stop then
      parse_error "payload marker with empty payload";
    let body = if pos < stop then pos + 1 else stop in
    { data; off; stop; opts; body; block1; block2; observe_value = observe }
  end
  else begin
    let next = option_end data ~stop pos in
    let number = previous + option_delta data pos in
    let voff = option_value_off data pos in
    let vlen = next - voff in
    let block1 =
      if number = opt_block1 then block_value data voff vlen block1 else block1
    and block2 =
      if number = opt_block2 then block_value data voff vlen block2 else block2
    and observe =
      (* RFC 7641: 0-3 bytes; a longer value is neither register nor
         deregister *)
      if number <> opt_observe || observe <> -1 then observe
      else if vlen > 3 then 2
      else uint3 data voff vlen
    in
    scan_options data ~off ~stop ~opts next number block1 block2 observe
  end

let scan data ~off ~len =
  if len < 4 then parse_error "message shorter than header";
  if off < 0 || off + len > Bytes.length data then
    parse_error "slice out of bounds";
  let b0 = Bytes.get_uint8 data off in
  if b0 lsr 6 <> 1 then parse_error "bad version %d" (b0 lsr 6);
  let tkl = b0 land 0x0f in
  if tkl > 8 then parse_error "token length %d > 8" tkl;
  if 4 + tkl > len then parse_error "truncated token";
  let opts = off + 4 + tkl in
  scan_options data ~off ~stop:(off + len) ~opts opts 0 (-1) (-1) (-1)

let view_type_code v = (Bytes.get_uint8 v.data v.off lsr 4) land 0x3
let view_code v = Bytes.get_uint8 v.data (v.off + 1)
let view_message_id v = Bytes.get_uint16_be v.data (v.off + 2)
let view_token_length v = Bytes.get_uint8 v.data v.off land 0x0f
let view_payload v = Bytes.sub_string v.data v.body (v.stop - v.body)
let view_token v = Bytes.sub_string v.data (v.off + 4) (view_token_length v)

let rec options_of_view data ~stop pos previous =
  if pos >= stop || Bytes.get_uint8 data pos = 0xff then []
  else begin
    let number = previous + option_delta data pos in
    let voff = option_value_off data pos in
    let vlen = option_length data pos in
    (number, Bytes.sub_string data voff vlen)
    :: options_of_view data ~stop (voff + vlen) number
  end

let message v =
  let data = v.data in
  {
    msg_type = msg_type_of_code (view_type_code v);
    code = code_of_int (view_code v);
    message_id = view_message_id v;
    token = view_token v;
    options = options_of_view data ~stop:v.stop v.opts 0;
    payload = view_payload v;
  }

let decode_sub data ~off ~len = message (scan data ~off ~len)
let decode data = decode_sub data ~off:0 ~len:(Bytes.length data)

(* Whether [path] equals the request's [path_string] — "/" and its
   Uri-Path options joined by "/" — compared in place.  Options are
   sorted, so the walk stops at the first number past Uri-Path. *)
let rec same_bytes data voff path at n =
  n = 0
  || Bytes.unsafe_get data voff = String.unsafe_get path at
     && same_bytes data (voff + 1) path (at + 1) (n - 1)

let path_end path at =
  if at = 0 then String.equal path "/" else at = String.length path

let rec path_walk data ~stop path pos previous at =
  if pos >= stop || Bytes.get_uint8 data pos = 0xff then path_end path at
  else begin
    let number = previous + option_delta data pos in
    let voff = option_value_off data pos in
    let vlen = option_length data pos in
    if number > opt_uri_path then path_end path at
    else if number < opt_uri_path then
      path_walk data ~stop path (voff + vlen) number at
    else
      at + 1 + vlen <= String.length path
      && String.unsafe_get path at = '/'
      && same_bytes data voff path (at + 1) vlen
      && path_walk data ~stop path (voff + vlen) number (at + 1 + vlen)
  end

let path_matches v path = path_walk v.data ~stop:v.stop path v.opts 0 0

let view_path v =
  path_of_options (options_of_view v.data ~stop:v.stop v.opts 0)

(* --- replies, written in front of the request's own header --- *)

(* A piggybacked reply to the request [v] views: ACK for a CON, NON for
   a NON, with its message id and token; the caller writes the
   [tail_len] bytes after the token. *)
let reply_frame v ~code ~tail_len =
  let tkl = view_token_length v in
  let b = Bytes.create (4 + tkl + tail_len) in
  write_header b
    ~type_code:(if view_type_code v = 0 then 2 else 1)
    ~tkl ~code ~message_id:(view_message_id v);
  Bytes.blit v.data (v.off + 4) b 4 tkl;
  b

let reply_tail v ~code tail =
  let b = reply_frame v ~code ~tail_len:(Bytes.length tail) in
  Bytes.blit tail 0 b (Bytes.length b - Bytes.length tail) (Bytes.length tail);
  b

let reply v ~code ~options ~payload =
  let options = sort_options options in
  let b = reply_frame v ~code:(code_to_int code) ~tail_len:(tail_size options payload) in
  write_tail b (4 + view_token_length v) options payload;
  b

let equal a b =
  a.msg_type = b.msg_type && a.code = b.code && a.message_id = b.message_id
  && String.equal a.token b.token
  && a.options = b.options
  && String.equal a.payload b.payload

let pp ppf t =
  Format.fprintf ppf "%s %s mid=%d path=%s payload=%S"
    (match t.msg_type with
    | Confirmable -> "CON"
    | Non_confirmable -> "NON"
    | Acknowledgement -> "ACK"
    | Reset -> "RST")
    (code_to_string t.code) t.message_id (path_string t) t.payload
