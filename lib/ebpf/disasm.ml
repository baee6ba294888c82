(* Disassembler: renders programs back into the syntax accepted by [Asm],
   so that [Asm.assemble (Disasm.to_string p)] round-trips. *)

let size_suffix = function
  | Opcode.B -> "b"
  | Opcode.H -> "h"
  | Opcode.W -> "w"
  | Opcode.DW -> "dw"

let mem_operand base offset =
  if offset = 0 then Printf.sprintf "[r%d]" base
  else if offset > 0 then Printf.sprintf "[r%d+%d]" base offset
  else Printf.sprintf "[r%d%d]" base offset

let rel_target offset =
  if offset >= 0 then Printf.sprintf "+%d" offset else string_of_int offset

let insn_to_string ?(helper_name = fun _ -> None) program i =
  let dst = Program.dst program i and src = Program.src program i in
  let offset = Program.offset program i and imm = Program.imm program i in
  match Program.kind program i with
  | Insn.Alu (is64, op, source) ->
      let name = Opcode.alu_op_name op ^ if is64 then "" else "32" in
      if op = Opcode.Neg then Printf.sprintf "%s r%d" name dst
      else (
        match source with
        | Opcode.Src_imm -> Printf.sprintf "%s r%d, %d" name dst imm
        | Opcode.Src_reg -> Printf.sprintf "%s r%d, r%d" name dst src)
  | Insn.Load size ->
      Printf.sprintf "ldx%s r%d, %s" (size_suffix size) dst
        (mem_operand src offset)
  | Insn.Store_imm size ->
      Printf.sprintf "st%s %s, %d" (size_suffix size)
        (mem_operand dst offset) imm
  | Insn.Store_reg size ->
      Printf.sprintf "stx%s %s, r%d" (size_suffix size)
        (mem_operand dst offset) src
  | Insn.Lddw_head ->
      Printf.sprintf "lddw r%d, 0x%Lx" dst (Program.lddw_imm program i)
  | Insn.Lddw_tail -> "; lddw tail"
  | Insn.End endianness ->
      Printf.sprintf "%s%d r%d" (Opcode.endian_name endianness) imm dst
  | Insn.Ja -> Printf.sprintf "ja %s" (rel_target offset)
  | Insn.Jcond (is64, cond, source) ->
      let name = Opcode.jmp_cond_name cond ^ if is64 then "" else "32" in
      let operand =
        match source with
        | Opcode.Src_imm -> string_of_int imm
        | Opcode.Src_reg -> Printf.sprintf "r%d" src
      in
      Printf.sprintf "%s r%d, %s, %s" name dst operand (rel_target offset)
  | Insn.Call -> (
      let id = imm in
      match helper_name id with
      | Some name -> Printf.sprintf "call %s" name
      | None -> Printf.sprintf "call %d" id)
  | Insn.Exit -> "exit"
  | Insn.Invalid opcode -> Printf.sprintf "; invalid opcode 0x%02x" opcode

let to_string ?helper_name program =
  let buf = Buffer.create 256 in
  let count = Program.length program in
  let i = ref 0 in
  while !i < count do
    Buffer.add_string buf (insn_to_string ?helper_name program !i);
    Buffer.add_char buf '\n';
    (match Program.kind program !i with
     | Insn.Lddw_head -> i := !i + 2
     | _ -> incr i)
  done;
  Buffer.contents buf
