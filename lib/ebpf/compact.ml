(* Variable-length instruction encoding — the paper's §11 proposal
   ("Fixed- vs Variable-length Instructions"): most eBPF instructions
   carry fields that are fixed at zero, so storing scripts in a compressed
   form shrinks the flash/RAM needed for application images; instructions
   are expanded back to the fixed 64-bit form at install time.

   Wire format, per instruction:

     header byte:
       bits 0-1  offset width: 0 = absent(0), 1 = int8, 2 = int16
       bits 2-3  imm width:    0 = absent(0), 1 = int8, 2 = int16, 3 = int32
       bit  4    register byte present (absent = both registers 0)
     opcode byte
     [registers byte]  dst in low nibble, src in high nibble
     [offset]          1 or 2 bytes, little endian, sign-extended
     [imm]             1, 2 or 4 bytes, little endian, sign-extended

   Worst case 9 bytes (one more than fixed); typical ALU/branch
   instructions take 3-5. *)

exception Malformed of string

let width_of_offset offset =
  if offset = 0 then 0 else if offset >= -128 && offset <= 127 then 1 else 2

let width_of_imm imm =
  if Int32.equal imm 0l then 0
  else if Int32.compare imm (-128l) >= 0 && Int32.compare imm 127l <= 0 then 1
  else if Int32.compare imm (-32768l) >= 0 && Int32.compare imm 32767l <= 0 then 2
  else 3

let encoded_size insn =
  let offset_bytes = match width_of_offset insn.Insn.offset with 0 -> 0 | w -> w in
  let imm_bytes = match width_of_imm insn.Insn.imm with 0 -> 0 | 3 -> 4 | w -> w in
  let regs_byte = if insn.Insn.dst = 0 && insn.Insn.src = 0 then 0 else 1 in
  2 + regs_byte + offset_bytes + imm_bytes

(* Encode slot [pc], read in place from the wire form. *)
let encode_slot buf program pc =
  let dst = Program.dst program pc and src = Program.src program pc in
  let offset = Program.offset program pc and imm = Program.imm program pc in
  let off_width = width_of_offset offset in
  let imm_width = width_of_imm (Int32.of_int imm) in
  let has_regs = dst <> 0 || src <> 0 in
  let header = off_width lor (imm_width lsl 2) lor (if has_regs then 0x10 else 0) in
  Buffer.add_char buf (Char.chr header);
  Buffer.add_char buf (Char.chr (Program.opcode program pc));
  if has_regs then Buffer.add_char buf (Char.chr ((src lsl 4) lor dst));
  (match off_width with
  | 1 -> Buffer.add_char buf (Char.chr (offset land 0xff))
  | 2 ->
      Buffer.add_char buf (Char.chr (offset land 0xff));
      Buffer.add_char buf (Char.chr ((offset asr 8) land 0xff))
  | _ -> ());
  for i = 0 to (match imm_width with 3 -> 4 | w -> w) - 1 do
    Buffer.add_char buf (Char.chr ((imm asr (8 * i)) land 0xff))
  done

(* [compress program] yields the variable-length image. *)
let compress program =
  let buf = Buffer.create (Program.byte_size program) in
  for pc = 0 to Program.length program - 1 do
    encode_slot buf program pc
  done;
  Buffer.contents buf

let decompress data =
  let len = String.length data in
  let pos = ref 0 in
  let byte () =
    if !pos >= len then raise (Malformed "truncated compact instruction");
    let c = Char.code data.[!pos] in
    incr pos;
    c
  in
  let sext8 v = (v lxor 0x80) - 0x80 in
  let sext16 v = (v lxor 0x8000) - 0x8000 in
  let insns = ref [] in
  while !pos < len do
    let header = byte () in
    if header land 0xE0 <> 0 then raise (Malformed "reserved header bits set");
    let off_width = header land 0x3 in
    let imm_width = (header lsr 2) land 0x3 in
    if off_width = 3 then raise (Malformed "reserved offset width");
    let opcode = byte () in
    let dst, src =
      if header land 0x10 <> 0 then begin
        let regs = byte () in
        (regs land 0x0f, (regs lsr 4) land 0x0f)
      end
      else (0, 0)
    in
    let offset =
      match off_width with
      | 0 -> 0
      | 1 -> sext8 (byte ())
      | _ ->
          let low = byte () in
          sext16 (low lor (byte () lsl 8))
    in
    let imm =
      match imm_width with
      | 0 -> 0l
      | 1 -> Int32.of_int (sext8 (byte ()))
      | 2 ->
          let low = byte () in
          Int32.of_int (sext16 (low lor (byte () lsl 8)))
      | _ ->
          let b0 = byte () in
          let b1 = byte () in
          let b2 = byte () in
          let b3 = byte () in
          Int32.logor
            (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
            (Int32.shift_left (Int32.of_int b3) 24)
    in
    insns := Insn.make opcode ~dst ~src ~offset ~imm :: !insns
  done;
  Program.of_insns (List.rev !insns)

type stats = {
  fixed_bytes : int;
  compact_bytes : int;
  ratio : float; (* compact / fixed *)
}

let measure program =
  let fixed_bytes = Program.byte_size program in
  let compact_bytes = String.length (compress program) in
  {
    fixed_bytes;
    compact_bytes;
    ratio = float_of_int compact_bytes /. float_of_int fixed_bytes;
  }
