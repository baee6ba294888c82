(* Tests for the eBPF ISA library: instruction codec, assembler,
   disassembler round-trips. *)

open Femto_ebpf

let check_insn = Alcotest.testable Insn.pp Insn.equal

let test_insn_roundtrip () =
  let insn = Insn.make 0xb7 ~dst:3 ~src:2 ~offset:(-12) ~imm:0x7fffffffl in
  let decoded = Insn.decode_from (Insn.to_bytes insn) 0 in
  Alcotest.check check_insn "roundtrip" insn decoded

let test_insn_field_packing () =
  (* dst in the low nibble, src in the high nibble of byte 1 (eBPF wire
     format). *)
  let insn = Insn.make 0x0f ~dst:1 ~src:2 in
  let bytes = Insn.to_bytes insn in
  Alcotest.(check int) "reg byte" 0x21 (Bytes.get_uint8 bytes 1)

let test_negative_offset () =
  let insn = Insn.make 0x6b ~dst:10 ~offset:(-8) ~imm:5l in
  let decoded = Insn.decode_from (Insn.to_bytes insn) 0 in
  Alcotest.(check int) "offset" (-8) decoded.Insn.offset

let test_lddw_imm () =
  let head, tail = Insn.lddw_pair 4 0x1234_5678_9abc_def0L in
  Alcotest.(check int64) "imm64" 0x1234_5678_9abc_def0L
    (Insn.lddw_imm ~head ~tail);
  let head, tail = Insn.lddw_pair 0 (-1L) in
  Alcotest.(check int64) "imm64 negative" (-1L) (Insn.lddw_imm ~head ~tail)

let test_program_roundtrip () =
  let program =
    Program.of_insns
      [ Insn.make 0xb7 ~dst:0 ~imm:42l; Insn.make 0x95 ]
  in
  let decoded = Program.of_bytes (Program.to_bytes program) in
  Alcotest.(check bool) "equal" true (Program.equal program decoded)

let test_program_truncated () =
  Alcotest.check_raises "truncated"
    (Program.Truncated "program length 7 is not a multiple of 8") (fun () ->
      ignore (Program.of_bytes (Bytes.create 7)))

let assemble = Asm.assemble ?helpers:None

let test_asm_mov_exit () =
  let program = assemble "mov r0, 42\nexit" in
  Alcotest.(check int) "length" 2 (Program.length program);
  let insn = Program.get program 0 in
  Alcotest.(check int) "opcode" 0xb7 insn.Insn.opcode;
  Alcotest.(check int) "dst" 0 insn.Insn.dst;
  Alcotest.(check int32) "imm" 42l insn.Insn.imm;
  Alcotest.(check int) "exit" 0x95 (Program.get program 1).Insn.opcode

let test_asm_alu_reg () =
  let program = assemble "add r1, r2\nexit" in
  let insn = Program.get program 0 in
  Alcotest.(check int) "opcode" 0x0f insn.Insn.opcode;
  Alcotest.(check int) "src" 2 insn.Insn.src

let test_asm_alu32 () =
  let program = assemble "sub32 r3, 7\nexit" in
  let insn = Program.get program 0 in
  Alcotest.(check int) "opcode" 0x14 insn.Insn.opcode

let test_asm_memory_operands () =
  let program = assemble "ldxw r2, [r1+4]\nstxdw [r10-8], r2\nstb [r1], 3\nexit" in
  let load = Program.get program 0 in
  Alcotest.(check int) "ldxw opcode" 0x61 load.Insn.opcode;
  Alcotest.(check int) "ldxw offset" 4 load.Insn.offset;
  let store = Program.get program 1 in
  Alcotest.(check int) "stxdw opcode" 0x7b store.Insn.opcode;
  Alcotest.(check int) "stxdw offset" (-8) store.Insn.offset;
  Alcotest.(check int) "stxdw dst" 10 store.Insn.dst;
  let store_imm = Program.get program 2 in
  Alcotest.(check int) "stb opcode" 0x72 store_imm.Insn.opcode;
  Alcotest.(check int) "stb offset" 0 store_imm.Insn.offset

let test_asm_labels () =
  let source =
    {|
      mov r0, 0
    loop:
      add r0, 1
      jlt r0, 10, loop
      jeq r0, 10, done
      ja loop
    done:
      exit
    |}
  in
  let program = assemble source in
  Alcotest.(check int) "length" 6 (Program.length program);
  let backward = Program.get program 2 in
  Alcotest.(check int) "backward target" (-2) backward.Insn.offset;
  let forward = Program.get program 3 in
  Alcotest.(check int) "forward target" 1 forward.Insn.offset

let test_asm_lddw () =
  let program = assemble "lddw r1, 0x1_0000_0001\nexit" in
  Alcotest.(check int) "length" 3 (Program.length program);
  let head = Program.get program 0 and tail = Program.get program 1 in
  Alcotest.(check int64) "imm" 0x1_0000_0001L (Insn.lddw_imm ~head ~tail)

let test_asm_helpers_by_name () =
  let helpers = function "bpf_now_ms" -> Some 7 | _ -> None in
  let program = Asm.assemble ~helpers "call bpf_now_ms\nexit" in
  Alcotest.(check int32) "helper id" 7l (Program.get program 0).Insn.imm

let expect_asm_error source =
  match assemble source with
  | exception Asm.Error _ -> ()
  | (_ : Program.t) -> Alcotest.failf "expected assembly error for %S" source

let test_asm_errors () =
  expect_asm_error "mov r11, 1";
  expect_asm_error "mov r1";
  expect_asm_error "bogus r1, 2";
  expect_asm_error "ja nowhere";
  expect_asm_error "dup:\ndup:\nexit";
  expect_asm_error "call unknown_helper";
  expect_asm_error "mov r1, 0x1_0000_0000_0000"

let test_endian_mnemonics_roundtrip () =
  let source = "le16 r1\nle32 r2\nle64 r3\nbe16 r4\nbe32 r5\nbe64 r6\nexit" in
  let program = assemble source in
  Alcotest.(check int) "length" 7 (Program.length program);
  (match Insn.kind (Program.get program 0) with
  | Insn.End Opcode.Le -> ()
  | _ -> Alcotest.fail "le16 did not decode to End Le");
  (match Insn.kind (Program.get program 3) with
  | Insn.End Opcode.Be -> ()
  | _ -> Alcotest.fail "be16 did not decode to End Be");
  let text = Disasm.to_string program in
  Alcotest.(check bool) "reassembles" true (Program.equal program (assemble text))

let test_disasm_roundtrip () =
  let source =
    "mov r0, 0\nadd32 r0, 5\nldxh r2, [r1+2]\nstxb [r10-1], r2\n\
     lddw r3, 0xdeadbeefcafe\njne r0, r3, +1\nneg r0\nexit"
  in
  let program = assemble source in
  let text = Disasm.to_string program in
  let reassembled = assemble text in
  Alcotest.(check bool) "roundtrip" true (Program.equal program reassembled)

(* Property: any program built from random well-formed instructions
   survives disassemble -> reassemble unchanged. *)
let gen_insn =
  let open QCheck.Gen in
  let reg = int_range 0 9 in
  let alu_ops =
    Opcode.[ Add; Sub; Mul; Div; Or; And; Lsh; Rsh; Mod; Xor; Mov; Arsh ]
  in
  let conds =
    Opcode.[ Jeq; Jgt; Jge; Jset; Jne; Jsgt; Jsge; Jlt; Jle; Jslt; Jsle ]
  in
  let sizes = Opcode.[ B; H; W; DW ] in
  let imm = map Int32.of_int (int_range (-1000) 1000) in
  frequency
    [
      ( 4,
        map3
          (fun op dst v -> Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst ~imm:v)
          (oneofl alu_ops) reg imm );
      ( 4,
        map3
          (fun op dst src -> Insn.make (Opcode.alu64 op Opcode.Src_reg) ~dst ~src)
          (oneofl alu_ops) reg reg );
      ( 2,
        map3
          (fun op dst v -> Insn.make (Opcode.alu32 op Opcode.Src_imm) ~dst ~imm:v)
          (oneofl alu_ops) reg imm );
      ( 2,
        map3
          (fun size (dst, src) off -> Insn.make (Opcode.ldx size) ~dst ~src ~offset:off)
          (oneofl sizes) (pair reg reg) (int_range (-256) 256) );
      ( 2,
        map3
          (fun size (dst, src) off -> Insn.make (Opcode.stx size) ~dst ~src ~offset:off)
          (oneofl sizes) (pair reg reg) (int_range (-256) 256) );
      ( 1,
        map3
          (fun cond dst off -> Insn.make (Opcode.jmp cond Opcode.Src_reg) ~dst ~offset:off)
          (oneofl conds) reg (int_range (-4) 4) );
      (1, return (Insn.make Opcode.exit'));
    ]

let prop_disasm_roundtrip =
  QCheck.Test.make ~name:"disasm/asm roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 40) gen_insn))
    (fun insns ->
      let program = Program.of_insns insns in
      let text = Disasm.to_string program in
      Program.equal program (assemble text))

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"program bytes roundtrip" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 64) gen_insn))
    (fun insns ->
      let program = Program.of_insns insns in
      Program.equal program (Program.of_bytes (Program.to_bytes program)))

(* --- the flat program: accessors, codec and kind table ---------------- *)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

(* Random wire slots: any opcode byte, registers 0-15, any offset/imm. *)
let gen_slots =
  QCheck.Gen.(
    map
      (fun slots ->
        let b = Bytes.create (8 * List.length slots) in
        List.iteri
          (fun i (opcode, (dst, src), offset, imm) ->
            Insn.encode_into b (8 * i)
              (Insn.make opcode ~dst ~src ~offset ~imm))
          slots;
        b)
      (list_size (int_range 0 64)
         (quad (int_range 0 255)
            (pair (int_range 0 15) (int_range 0 15))
            (int_range (-32768) 32767)
            (map Int32.of_int (int_range (-0x8000_0000) 0x7fff_ffff)))))

let prop_accessors_match_decode =
  QCheck.Test.make ~name:"flat accessors = Insn.decode_from" ~count:300
    (QCheck.make ~print:hex gen_slots) (fun b ->
      let p = Program.of_bytes b in
      let ok = ref (Program.length p * 8 = Bytes.length b) in
      for pc = 0 to Program.length p - 1 do
        let insn = Insn.decode_from b (8 * pc) in
        ok :=
          !ok
          && Program.opcode p pc = insn.Insn.opcode
          && Program.dst p pc = insn.Insn.dst
          && Program.src p pc = insn.Insn.src
          && Program.offset p pc = insn.Insn.offset
          && Program.imm p pc = Int32.to_int insn.Insn.imm
          && Program.kind p pc = Insn.kind insn
          && Program.unsafe_kind p pc = Insn.kind insn
          && Program.unsafe_dst p pc = insn.Insn.dst
          && Program.unsafe_src p pc = insn.Insn.src
          && Program.unsafe_offset p pc = insn.Insn.offset
          && Program.unsafe_imm p pc = Int32.to_int insn.Insn.imm
          && Insn.equal (Program.get p pc) insn
      done;
      !ok)

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"to_bytes (of_bytes b) = b" ~count:300
    (QCheck.make ~print:hex gen_slots) (fun b ->
      let p = Program.of_bytes b in
      Bytes.equal (Program.to_bytes p) b
      && Program.equal p (Program.of_insns (Array.to_list (Program.insns p))))

(* An independent opcode classifier: the reference for the kind table. *)
let reference_kind opcode =
  let open Opcode in
  let src = source_of_code opcode in
  match opcode land 0x07 with
  | 0x07 -> (
      match alu_op_of_code opcode with
      | Some op -> Insn.Alu (true, op, src)
      | None -> Insn.Invalid opcode)
  | 0x04 -> (
      if opcode land 0xf0 = 0xd0 then Insn.End (endianness_of_source src)
      else
        match alu_op_of_code opcode with
        | Some op -> Insn.Alu (false, op, src)
        | None -> Insn.Invalid opcode)
  | 0x01 ->
      if opcode land 0xe0 = 0x60 then Insn.Load (size_of_code opcode)
      else Insn.Invalid opcode
  | 0x02 ->
      if opcode land 0xe0 = 0x60 then Insn.Store_imm (size_of_code opcode)
      else Insn.Invalid opcode
  | 0x03 ->
      if opcode land 0xe0 = 0x60 then Insn.Store_reg (size_of_code opcode)
      else Insn.Invalid opcode
  | 0x00 -> if opcode = 0x18 then Insn.Lddw_head else Insn.Invalid opcode
  | 0x05 -> (
      if opcode = 0x05 then Insn.Ja
      else if opcode = 0x85 then Insn.Call
      else if opcode = 0x95 then Insn.Exit
      else
        match jmp_cond_of_code opcode with
        | Some c -> Insn.Jcond (true, c, src)
        | None -> Insn.Invalid opcode)
  | _ -> (
      match jmp_cond_of_code opcode with
      | Some c -> Insn.Jcond (false, c, src)
      | None -> Insn.Invalid opcode)

let test_kind_table () =
  for opcode = 0 to 255 do
    if Insn.kind (Insn.make opcode) <> reference_kind opcode then
      Alcotest.failf "opcode 0x%02x misclassified" opcode
  done;
  List.iter
    (fun opcode ->
      Alcotest.(check bool)
        (Printf.sprintf "opcode 0x%x" opcode)
        true
        (Insn.kind (Insn.make opcode) = reference_kind opcode))
    [ 0x100; 0x118; 0x1b7; 0x195 ]

let test_of_insns_refuses_unrepresentable () =
  let refuses name insn =
    match Program.of_insns [ insn; Insn.make 0x95 ] with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  refuses "opcode 256" (Insn.make 0x100);
  refuses "dst 16" (Insn.make 0xb7 ~dst:16);
  refuses "src -1" (Insn.make 0xbf ~src:(-1));
  refuses "offset 32768" (Insn.make 0x05 ~offset:32768);
  refuses "offset -32769" (Insn.make 0x05 ~offset:(-32769))

let suite =
  [
    Alcotest.test_case "insn roundtrip" `Quick test_insn_roundtrip;
    Alcotest.test_case "insn field packing" `Quick test_insn_field_packing;
    Alcotest.test_case "negative offset" `Quick test_negative_offset;
    Alcotest.test_case "lddw imm split" `Quick test_lddw_imm;
    Alcotest.test_case "program roundtrip" `Quick test_program_roundtrip;
    Alcotest.test_case "program truncated" `Quick test_program_truncated;
    Alcotest.test_case "asm mov/exit" `Quick test_asm_mov_exit;
    Alcotest.test_case "asm alu reg" `Quick test_asm_alu_reg;
    Alcotest.test_case "asm alu32" `Quick test_asm_alu32;
    Alcotest.test_case "asm memory operands" `Quick test_asm_memory_operands;
    Alcotest.test_case "asm labels" `Quick test_asm_labels;
    Alcotest.test_case "asm lddw" `Quick test_asm_lddw;
    Alcotest.test_case "asm helper names" `Quick test_asm_helpers_by_name;
    Alcotest.test_case "asm errors" `Quick test_asm_errors;
    Alcotest.test_case "endian mnemonics" `Quick test_endian_mnemonics_roundtrip;
    Alcotest.test_case "disasm roundtrip" `Quick test_disasm_roundtrip;
    QCheck_alcotest.to_alcotest prop_disasm_roundtrip;
    QCheck_alcotest.to_alcotest prop_bytes_roundtrip;
    QCheck_alcotest.to_alcotest prop_accessors_match_decode;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "kind table = reference" `Quick test_kind_table;
    Alcotest.test_case "of_insns refuses unrepresentable" `Quick
      test_of_insns_refuses_unrepresentable;
  ]

let () = Alcotest.run "femto_ebpf" [ ("ebpf", suite) ]
