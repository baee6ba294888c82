(* An eBPF program: its fixed 8-byte wire slots, held as one immutable
   string.

   This is the one decode of a program.  [of_bytes]/[of_string] only
   check that the length is a whole number of slots; every stage
   (verifier, CFG, analyzer, IR lifter, interpreters, tools) then reads
   fields in place through the accessors below, which allocate nothing,
   and classifies opcodes through [Insn]'s static kind table.  A 4 KiB
   program therefore costs 4 KiB of RAM, as rBPF's in-place bytecode
   does.  [get]/[insns] build [Insn.t] records, for tests and cold
   paths. *)

type t = string

exception Truncated of string

let slot = Insn.size_bytes
let length t = String.length t / slot
let byte_size = String.length

external get16 : string -> int -> int = "%caml_string_get16"
external get32 : string -> int -> int32 = "%caml_string_get32"
external unsafe_get16 : string -> int -> int = "%caml_string_get16u"
external unsafe_get32 : string -> int -> int32 = "%caml_string_get32u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian wire fields from a native-endian read. *)
let[@inline] sext16 v =
  let v = if Sys.big_endian then swap16 v else v in
  (v lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

let[@inline] int_of_imm v =
  Int32.to_int (if Sys.big_endian then swap32 v else v)

let[@inline] opcode t pc = String.get_uint8 t (pc * slot)
let[@inline] dst t pc = String.get_uint8 t ((pc * slot) + 1) land 0x0f
let[@inline] src t pc = String.get_uint8 t ((pc * slot) + 1) lsr 4
let[@inline] offset t pc = sext16 (get16 t ((pc * slot) + 2))
let[@inline] imm t pc = int_of_imm (get32 t ((pc * slot) + 4))
let[@inline] kind t pc = Insn.kind_of_byte (opcode t pc)

let[@inline] unsafe_byte t i = Char.code (String.unsafe_get t i)
let[@inline] unsafe_kind t pc = Insn.kind_of_byte (unsafe_byte t (pc * slot))
let[@inline] unsafe_dst t pc = unsafe_byte t ((pc * slot) + 1) land 0x0f
let[@inline] unsafe_src t pc = unsafe_byte t ((pc * slot) + 1) lsr 4
let[@inline] unsafe_offset t pc = sext16 (unsafe_get16 t ((pc * slot) + 2))
let[@inline] unsafe_imm t pc = int_of_imm (unsafe_get32 t ((pc * slot) + 4))

let lddw_imm t pc =
  Int64.logor
    (Int64.shift_left (Int64.of_int (imm t (pc + 1))) 32)
    (Int64.of_int (imm t pc land 0xFFFF_FFFF))

let get t pc =
  {
    Insn.opcode = opcode t pc;
    dst = dst t pc;
    src = src t pc;
    offset = offset t pc;
    imm = Int32.of_int (imm t pc);
  }

let insns t = Array.init (length t) (get t)

let check_length len =
  if len mod slot <> 0 then
    raise
      (Truncated
         (Printf.sprintf "program length %d is not a multiple of 8" len))

let of_string s =
  check_length (String.length s);
  s

let of_bytes buf =
  check_length (Bytes.length buf);
  Bytes.to_string buf

let to_string t = t
let to_bytes = Bytes.of_string

let of_insns insns =
  let insns = Array.of_list insns in
  let buf = Bytes.create (Array.length insns * slot) in
  Array.iteri
    (fun pc (insn : Insn.t) ->
      if
        insn.opcode land lnot 0xff <> 0
        || insn.dst land lnot 0x0f <> 0
        || insn.src land lnot 0x0f <> 0
        || insn.offset < -0x8000 || insn.offset > 0x7fff
      then
        invalid_arg
          (Format.asprintf
             "Program: slot %d %a does not fit the 8-byte wire form" pc Insn.pp
             insn);
      Insn.encode_into buf (pc * slot) insn)
    insns;
  Bytes.unsafe_to_string buf

let equal = String.equal

let pp ppf t =
  for pc = 0 to length t - 1 do
    Format.fprintf ppf "%4d: %a@." pc Insn.pp (get t pc)
  done
