(* A single 64-bit eBPF instruction slot and its typed view.

   Wire layout (little endian), per the eBPF specification and the paper's
   description: 8-bit opcode, 4-bit destination register, 4-bit source
   register, 16-bit signed offset, 32-bit signed immediate.  The [lddw]
   instruction occupies two consecutive slots; the second slot carries the
   high 32 bits of the immediate in its own imm field. *)

type t = {
  opcode : int; (* 0..255 *)
  dst : int; (* 0..15 as encoded; valid programs use 0..10 *)
  src : int; (* 0..15 *)
  offset : int; (* signed 16-bit: -32768..32767 *)
  imm : int32;
}

let size_bytes = 8

let make ?(dst = 0) ?(src = 0) ?(offset = 0) ?(imm = 0l) opcode =
  { opcode; dst; src; offset; imm }

let equal a b =
  a.opcode = b.opcode && a.dst = b.dst && a.src = b.src && a.offset = b.offset
  && Int32.equal a.imm b.imm

(* Typed view of a decoded instruction, used by the verifier, the
   interpreters and the disassembler.  [Lddw] carries the full 64-bit
   immediate and consumes the following slot. *)
type kind =
  | Alu of bool * Opcode.alu_op * Opcode.source (* is_64bit, op, source *)
  | Load of Opcode.size (* LDX: dst <- *(src + offset) *)
  | Store_imm of Opcode.size (* ST: *(dst + offset) <- imm *)
  | Store_reg of Opcode.size (* STX: *(dst + offset) <- src *)
  | Lddw_head (* first slot of lddw; interpreter consumes next slot *)
  | Lddw_tail (* second slot of lddw; never executed directly *)
  | End of Opcode.endianness (* byte-swap; imm selects 16/32/64-bit width *)
  | Ja
  | Jcond of bool * Opcode.jmp_cond * Opcode.source (* is_64bit cmp *)
  | Call
  | Exit
  | Invalid of int

(* The classification of one opcode.  [kind_of_byte] serves the wire
   form's 0..255 from a table built once here, so classifying a slot
   allocates nothing; only an out-of-range [t.opcode] (which only [make]
   can build) is classified on the fly. *)
let classify opcode =
  let open Opcode in
  match cls_of_code opcode with
  | Cls_alu64 -> (
      match alu_op_of_code opcode with
      | Some op -> Alu (true, op, source_of_code opcode)
      | None -> Invalid opcode)
  | Cls_alu -> (
      if opcode land 0xf0 = op_end then
        End (endianness_of_source (source_of_code opcode))
      else
        match alu_op_of_code opcode with
        | Some op -> Alu (false, op, source_of_code opcode)
        | None -> Invalid opcode)
  | Cls_ldx ->
      if opcode land 0xe0 = mode_mem then Load (size_of_code opcode)
      else Invalid opcode
  | Cls_st ->
      if opcode land 0xe0 = mode_mem then Store_imm (size_of_code opcode)
      else Invalid opcode
  | Cls_stx ->
      if opcode land 0xe0 = mode_mem then Store_reg (size_of_code opcode)
      else Invalid opcode
  | Cls_ld -> if opcode = lddw then Lddw_head else Invalid opcode
  | Cls_jmp -> (
      if opcode = ja then Ja
      else if opcode = call then Call
      else if opcode = exit' then Exit
      else
        match jmp_cond_of_code opcode with
        | Some cond -> Jcond (true, cond, source_of_code opcode)
        | None -> Invalid opcode)
  | Cls_jmp32 -> (
      match jmp_cond_of_code opcode with
      | Some cond -> Jcond (false, cond, source_of_code opcode)
      | None -> Invalid opcode)

let kinds = Array.init 256 classify

let[@inline] kind_of_byte b = Array.unsafe_get kinds (b land 0xff)

let kind insn =
  if insn.opcode land lnot 0xff = 0 then kind_of_byte insn.opcode
  else classify insn.opcode

(* 64-bit immediate of an lddw pair. *)
let lddw_imm ~head ~tail =
  let low = Int64.logand (Int64.of_int32 head.imm) 0xFFFF_FFFFL in
  let high = Int64.shift_left (Int64.of_int32 tail.imm) 32 in
  Int64.logor high low

let lddw_pair dst imm64 =
  let low = Int64.to_int32 (Int64.logand imm64 0xFFFF_FFFFL) in
  let high = Int64.to_int32 (Int64.shift_right_logical imm64 32) in
  ( make Opcode.lddw ~dst ~imm:low,
    make 0 ~imm:high )

let encode_into buf pos insn =
  Bytes.set_uint8 buf pos insn.opcode;
  Bytes.set_uint8 buf (pos + 1) ((insn.src lsl 4) lor (insn.dst land 0x0f));
  Bytes.set_int16_le buf (pos + 2) insn.offset;
  Bytes.set_int32_le buf (pos + 4) insn.imm

let decode_from buf pos =
  let opcode = Bytes.get_uint8 buf pos in
  let regs = Bytes.get_uint8 buf (pos + 1) in
  let dst = regs land 0x0f in
  let src = (regs lsr 4) land 0x0f in
  let offset = Bytes.get_int16_le buf (pos + 2) in
  let imm = Bytes.get_int32_le buf (pos + 4) in
  { opcode; dst; src; offset; imm }

let to_bytes insn =
  let buf = Bytes.create size_bytes in
  encode_into buf 0 insn;
  buf

let pp ppf insn =
  Format.fprintf ppf "{op=0x%02x dst=r%d src=r%d off=%d imm=%ld}" insn.opcode
    insn.dst insn.src insn.offset insn.imm
