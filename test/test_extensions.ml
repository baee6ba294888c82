(* Tests for the paper's §11 extensions implemented in this repo:
   install-time transpilation (the IR tier, which [Analysis.load] lifts,
   optimizes and compiles to closures at install) and variable-length
   instruction compression (Femto_ebpf.Compact). *)

open Femto_ebpf
module Vm = Femto_vm.Vm
module Analysis = Femto_analysis.Analysis
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Helper = Femto_vm.Helper
module Fletcher = Femto_workloads.Fletcher

let no_helpers = Helper.create ()

(* --- install-time transpilation --- *)

let run_transpiled ?(regions = []) ?(args = [||]) source =
  let program = Asm.assemble source in
  match Analysis.load ~helpers:no_helpers ~regions program with
  | Error fault -> Error fault
  | Ok vm -> Vm.run vm ~args

let test_transpile_basic () =
  match run_transpiled "mov r0, 40\nadd r0, 2\nexit" with
  | Ok v -> Alcotest.(check int64) "result" 42L v
  | Error fault -> Alcotest.failf "fault: %s" (Fault.to_string fault)

let test_transpile_loop () =
  let source =
    "mov r0, 0\nmov r1, 1\nloop:\nadd r0, r1\nadd r1, 1\njle r1, 100, loop\nexit"
  in
  match run_transpiled source with
  | Ok v -> Alcotest.(check int64) "sum" 5050L v
  | Error fault -> Alcotest.failf "fault: %s" (Fault.to_string fault)

let test_transpile_fletcher () =
  let data = Fletcher.input_360 in
  let regions = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
  let program = Fletcher.ebpf_program () in
  match Analysis.load ~helpers:no_helpers ~regions program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm ~args:[| 0x2000_0000L |] with
      | Ok v ->
          Alcotest.(check int64) "matches native"
            (Int64.of_int (Fletcher.checksum data)) v
      | Error fault -> Alcotest.failf "run: %s" (Fault.to_string fault))

let test_transpile_memory_fault_contained () =
  match run_transpiled "mov r1, 0\nldxdw r0, [r1]\nexit" with
  | Error (Fault.Memory_access _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected memory fault"

let test_transpile_div_by_zero () =
  match run_transpiled "mov r0, 1\nmov r1, 0\ndiv r0, r1\nexit" with
  | Error (Fault.Division_by_zero _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected div fault"

let test_transpile_branch_budget () =
  let program = Asm.assemble "loop:\nja loop" in
  let config = { Config.default with Config.max_branches = 30 } in
  match Analysis.load ~config ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm with
      | Error (Fault.Branch_budget_exhausted _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected budget fault")

let test_transpile_rejects_invalid () =
  let program = Program.of_insns [ Insn.make 0xb7 ~dst:12; Insn.make 0x95 ] in
  match Analysis.load ~helpers:no_helpers ~regions:[] program with
  | Error (Fault.Invalid_register _) -> ()
  | Ok _ -> Alcotest.fail "accepted invalid program"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_transpile_helpers () =
  let helpers = Helper.create () in
  Helper.register helpers ~id:1 ~name:"triple" (fun _mem rf ->
      Helper.return rf (Int64.mul (Helper.arg rf 1) 3L));
  let program = Asm.assemble "mov r1, 14\ncall 1\nexit" in
  match Analysis.load ~helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm with
      | Ok v -> Alcotest.(check int64) "helper" 42L v
      | Error fault -> Alcotest.failf "run: %s" (Fault.to_string fault))

(* equivalence with the interpreter on random verified programs *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let body =
    list_size (int_range 2 40)
      (frequency
         [
           ( 5,
             map3
               (fun op dst imm ->
                 Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst
                   ~imm:(Int32.of_int imm))
               (oneofl Opcode.[ Add; Sub; Mul; Or; And; Xor; Mov; Lsh; Rsh ])
               reg (int_range (-1000) 1000) );
           ( 3,
             map3
               (fun op dst src -> Insn.make (Opcode.alu64 op Opcode.Src_reg) ~dst ~src)
               (oneofl Opcode.[ Add; Sub; Mul; Xor; Mov ])
               reg reg );
           ( 2,
             map2
               (fun src slot -> Insn.make (Opcode.stx Opcode.DW) ~dst:10 ~src ~offset:(-8 * (slot + 1)))
               reg (int_range 0 7) );
           ( 2,
             map2
               (fun dst slot -> Insn.make (Opcode.ldx Opcode.DW) ~dst ~src:10 ~offset:(-8 * (slot + 1)))
               reg (int_range 0 7) );
           ( 1,
             map3
               (fun cond dst off -> Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:3l)
               (oneofl Opcode.[ Jeq; Jne; Jgt; Jslt ])
               reg (int_range 0 3) );
         ])
  in
  QCheck.Gen.map (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ])) body

let fault_tag = function
  | Fault.Division_by_zero _ -> "div0"
  | Fault.Memory_access _ -> "mem"
  | Fault.Branch_budget_exhausted _ -> "bb"
  | Fault.Instruction_budget_exhausted _ -> "ib"
  | f -> Fault.to_string f

let prop_transpile_equals_interp =
  QCheck.Test.make ~name:"transpiled = interpreted" ~count:500
    (QCheck.make gen_program) (fun program ->
      let config = { Config.default with Config.max_branches = 128 } in
      let a = Vm.load ~config ~helpers:no_helpers ~regions:[] program in
      let b = Analysis.load ~config ~helpers:no_helpers ~regions:[] program in
      match (a, b) with
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false
      | Ok vm, Ok ir -> (
          match (Vm.run vm, Vm.run ir) with
          | Ok x, Ok y -> Int64.equal x y
          | Error x, Error y -> String.equal (fault_tag x) (fault_tag y)
          | _ -> false))

(* --- compact encoding --- *)

let test_compact_roundtrip_fletcher () =
  let program = Fletcher.ebpf_program () in
  let compact = Compact.compress program in
  let restored = Compact.decompress compact in
  Alcotest.(check bool) "roundtrip" true (Program.equal program restored)

let test_compact_saves_space () =
  let stats = Compact.measure (Fletcher.ebpf_program ()) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f < 0.7 (the paper's ~50%% estimate)" stats.Compact.ratio)
    true
    (stats.Compact.ratio < 0.7);
  let apps = Femto_workloads.Apps.[ thread_counter (); sensor_process (); coap_formatter () ] in
  List.iter
    (fun program ->
      let stats = Compact.measure program in
      Alcotest.(check bool) "every app shrinks" true (stats.Compact.ratio < 1.0))
    apps

let test_compact_worst_case_bounded () =
  (* an instruction with every field at an extreme value costs one extra
     byte over the fixed encoding *)
  let insn = Insn.make 0x61 ~dst:5 ~src:9 ~offset:(-32768) ~imm:0x7fffffffl in
  Alcotest.(check int) "worst case 9" 9 (Compact.encoded_size insn)

let test_compact_rejects_garbage () =
  (match Compact.decompress "\xff\x07" with
  | exception Compact.Malformed _ -> ()
  | _ -> Alcotest.fail "reserved bits accepted");
  match Compact.decompress "\x10" with
  | exception Compact.Malformed _ -> ()
  | _ -> Alcotest.fail "truncated accepted"

let gen_any_insn =
  let open QCheck.Gen in
  map3
    (fun (opcode, dst) (src, offset) imm ->
      Insn.make opcode ~dst ~src ~offset ~imm:(Int32.of_int imm))
    (pair (int_range 0 255) (int_range 0 15))
    (pair (int_range 0 15) (int_range (-32768) 32767))
    (int_range (-0x8000_0000) 0x7FFF_FFFF)

let prop_compact_roundtrip =
  QCheck.Test.make ~name:"compact roundtrip on arbitrary instructions" ~count:500
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 64) gen_any_insn))
    (fun insns ->
      let program = Program.of_insns insns in
      Program.equal program (Compact.decompress (Compact.compress program)))

let prop_compact_never_larger_than_9_per_insn =
  QCheck.Test.make ~name:"compact size bounds" ~count:300
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 64) gen_any_insn))
    (fun insns ->
      let program = Program.of_insns insns in
      let compact = String.length (Compact.compress program) in
      compact >= 2 * List.length insns && compact <= 9 * List.length insns)

(* A compressed image, expanded on-device, must run identically. *)
let prop_compact_execution_equivalence =
  QCheck.Test.make ~name:"compact image runs identically" ~count:200
    (QCheck.make gen_program) (fun program ->
      let config = { Config.default with Config.max_branches = 128 } in
      let restored = Compact.decompress (Compact.compress program) in
      let run p =
        match Vm.load ~config ~helpers:no_helpers ~regions:[] p with
        | Error fault -> Error (Fault.to_string fault)
        | Ok vm -> (
            match Vm.run vm with
            | Ok v -> Ok v
            | Error fault -> Error (fault_tag fault))
      in
      run program = run restored)

let suite =
  [
    Alcotest.test_case "transpile basic" `Quick test_transpile_basic;
    Alcotest.test_case "transpile loop" `Quick test_transpile_loop;
    Alcotest.test_case "transpile fletcher" `Quick test_transpile_fletcher;
    Alcotest.test_case "transpile memory fault" `Quick test_transpile_memory_fault_contained;
    Alcotest.test_case "transpile div0" `Quick test_transpile_div_by_zero;
    Alcotest.test_case "transpile branch budget" `Quick test_transpile_branch_budget;
    Alcotest.test_case "transpile rejects invalid" `Quick test_transpile_rejects_invalid;
    Alcotest.test_case "transpile helpers" `Quick test_transpile_helpers;
    QCheck_alcotest.to_alcotest prop_transpile_equals_interp;
    Alcotest.test_case "compact roundtrip fletcher" `Quick test_compact_roundtrip_fletcher;
    Alcotest.test_case "compact saves space" `Quick test_compact_saves_space;
    Alcotest.test_case "compact worst case" `Quick test_compact_worst_case_bounded;
    Alcotest.test_case "compact rejects garbage" `Quick test_compact_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_compact_roundtrip;
    QCheck_alcotest.to_alcotest prop_compact_never_larger_than_9_per_insn;
    QCheck_alcotest.to_alcotest prop_compact_execution_equivalence;
  ]

let () = Alcotest.run "femto_extensions" [ ("extensions", suite) ]
