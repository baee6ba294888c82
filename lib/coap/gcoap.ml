(* gcoap-style helpers: CoAP response formatting from inside a
   Femto-Container (paper §8.3 and Listing in [33]).

   The container receives a packet-context pointer (the hook context) and a
   writable packet-buffer region; it builds the response through helpers —
   bpf_gcoap_resp_init, bpf_coap_add_format, bpf_coap_opt_finish,
   bpf_fmt_s16_dfp, bpf_coap_set_payload_len — writing the payload through
   allow-list-checked memory.  The OCaml side then frames the final CoAP
   message from the builder state. *)

module Mem = Femto_vm.Mem
module Region = Femto_vm.Region
module Helper = Femto_vm.Helper
module Syscall = Femto_core.Syscall

(* Virtual address of the packet payload buffer region. *)
let pkt_vaddr = 0x4000_0000L
let pkt_size = 128

type builder = {
  buffer : bytes; (* backing of the packet region; payload written here *)
  mutable code : int; (* CoAP code byte, e.g. 69 = 2.05 Content *)
  mutable format : int option;
  mutable payload_len : int;
  mutable finished : bool;
}

let create_builder () =
  {
    buffer = Bytes.make pkt_size '\000';
    code = Message.code_to_int Message.code_internal_error;
    format = None;
    payload_len = 0;
    finished = false;
  }

let reset builder =
  Bytes.fill builder.buffer 0 pkt_size '\000';
  builder.code <- Message.code_to_int Message.code_internal_error;
  builder.format <- None;
  builder.payload_len <- 0;
  builder.finished <- false

(* The packet region granted to the container at attach time. *)
let pkt_region builder =
  Region.make ~name:"coap-pkt" ~vaddr:pkt_vaddr ~perm:Region.Read_write
    builder.buffer

(* Render a signed value as decimal fixed-point, as RIOT's fmt_s16_dfp
   does: scale = decimal exponent, e.g. value=2372 scale=-2 -> "23.72". *)
let fmt_s16_dfp value scale =
  if scale >= 0 then
    Printf.sprintf "%Ld%s" value (String.make scale '0')
  else begin
    let magnitude = Int64.abs value in
    let divisor = Int64.of_float (10.0 ** float_of_int (-scale)) in
    let integer = Int64.unsigned_div magnitude divisor in
    let fraction = Int64.unsigned_rem magnitude divisor in
    Printf.sprintf "%s%Ld.%0*Ld"
      (if Int64.compare value 0L < 0 then "-" else "")
      integer (-scale) fraction
  end

(* Install the CoAP helper set; gated behind the Net_coap capability by
   the engine.  All helpers treat r1 as the packet-context token. *)
let install builder helpers =
  Helper.register helpers ~id:Syscall.id_gcoap_resp_init ~cost_cycles:150 ~arity:2
    ~name:"bpf_gcoap_resp_init"
    (fun _mem rf ->
      builder.code <- Int64.to_int (Helper.arg rf 2) land 0xff;
      Helper.return rf 0L);
  Helper.register helpers ~id:Syscall.id_coap_add_format ~cost_cycles:60 ~arity:2
    ~name:"bpf_coap_add_format"
    (fun _mem rf ->
      builder.format <- Some (Int64.to_int (Helper.arg rf 2) land 0xffff);
      Helper.return rf 0L);
  Helper.register helpers ~id:Syscall.id_coap_opt_finish ~cost_cycles:60 ~arity:1
    ~name:"bpf_coap_opt_finish"
    (fun _mem rf ->
      builder.finished <- true;
      (* options are framed host-side; the payload starts at the beginning
         of the packet buffer region *)
      Helper.return rf pkt_vaddr);
  Helper.register helpers ~id:Syscall.id_fmt_s16_dfp ~cost_cycles:120 ~arity:3
    ~name:"bpf_fmt_s16_dfp"
    (fun mem rf ->
      let scale =
        (* sign-extended small scale in r3 *)
        let raw = Int64.to_int (Helper.arg rf 3) in
        if raw > 32767 then raw - 65536 else raw
      in
      let text = fmt_s16_dfp (Helper.arg rf 2) scale in
      match
        Mem.store_bytes mem ~addr:(Helper.arg rf 1) (Bytes.of_string text)
      with
      | Ok () -> Helper.return rf (Int64.of_int (String.length text))
      | Error () -> Helper.fail "fmt destination outside allow-list");
  Helper.register helpers ~id:Syscall.id_coap_set_payload_len ~cost_cycles:30 ~arity:2
    ~name:"bpf_coap_set_payload_len"
    (fun _mem rf ->
      let len = Int64.to_int (Helper.arg rf 2) in
      if len < 0 || len > pkt_size then
        Helper.fail "payload length out of range";
      builder.payload_len <- len;
      Helper.return rf 0L)

(* Register with the engine so any container granted Net_coap gets the
   helpers. *)
let attach_to_engine engine builder =
  Femto_core.Engine.add_helper_installer engine Femto_core.Contract.Net_coap
    (install builder)

(* Extract the response the container built. *)
let response builder =
  let options =
    match builder.format with
    | Some fmt -> [ Message.content_format_option fmt ]
    | None -> []
  in
  let payload = Bytes.sub_string builder.buffer 0 builder.payload_len in
  Server.respond ~options ~payload (Message.code_of_int builder.code)
