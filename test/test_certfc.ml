(* Tests for CertFC: defensive interpreter semantics, checker/verifier
   agreement, and — most importantly — behavioural equivalence with the
   optimized interpreter on random programs (the property the paper's
   formal verification guarantees between proof model and C code). *)

open Femto_ebpf
module Vm = Femto_vm.Vm
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Helper = Femto_vm.Helper
module Certfc = Femto_certfc.Certfc
module Check = Femto_certfc.Check

let no_helpers = Helper.create ()

let run_certfc ?(args = [||]) source =
  let program = Asm.assemble source in
  match Certfc.load ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Error fault
  | Ok vm -> Certfc.run vm ~args

let expect_ok source =
  match run_certfc source with
  | Ok v -> v
  | Error fault -> Alcotest.failf "fault: %s" (Fault.to_string fault)

let check64 = Alcotest.(check int64)

let test_basic_arithmetic () =
  check64 "arith" 52L (expect_ok "mov r0, 42\nadd r0, 10\nexit")

let test_loop () =
  check64 "sum" 55L
    (expect_ok
       "mov r0, 0\nmov r1, 1\nloop:\nadd r0, r1\nadd r1, 1\njle r1, 10, loop\nexit")

let test_stack_roundtrip () =
  check64 "stack" 99L (expect_ok "stdw [r10-8], 99\nldxdw r0, [r10-8]\nexit")

let test_div_by_zero () =
  match run_certfc "mov r0, 1\nmov r1, 0\ndiv r0, r1\nexit" with
  | Error (Fault.Division_by_zero _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected division fault"

let test_memory_fault () =
  match run_certfc "mov r1, 0\nldxw r0, [r1]\nexit" with
  | Error (Fault.Memory_access _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected memory fault"

let test_branch_budget () =
  let config = { Config.default with Config.max_branches = 50 } in
  let program = Asm.assemble "loop:\nja loop" in
  match Certfc.load ~config ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "check: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Certfc.run vm with
      | Error (Fault.Branch_budget_exhausted _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected branch budget fault")

let test_checker_rejects_r10_write () =
  match Check.check Config.default (Asm.assemble "mov r10, 1\nexit") with
  | Error (Fault.Readonly_register _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected readonly fault"

let test_checker_rejects_jump_out () =
  match Check.check Config.default (Asm.assemble "ja +3\nexit") with
  | Error (Fault.Bad_jump _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected bad jump"

let test_helper_call () =
  let helpers = Helper.create () in
  Helper.register helpers ~id:1 ~name:"double" (fun _mem rf ->
      Helper.return rf (Int64.mul (Helper.arg rf 1) 2L));
  let program = Asm.assemble "mov r1, 21\ncall 1\nexit" in
  match Certfc.load ~helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "check: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Certfc.run vm with
      | Ok v -> check64 "helper" 42L v
      | Error fault -> Alcotest.failf "fault: %s" (Fault.to_string fault))

(* --- equivalence with the optimized interpreter --- *)

(* Structured generator: produces programs that often pass verification
   and exercise ALU, memory and control flow. *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let alu_imm =
    map3
      (fun op dst imm ->
        Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst ~imm:(Int32.of_int imm))
      (oneofl Opcode.[ Add; Sub; Mul; Or; And; Xor; Mov; Arsh; Lsh; Rsh ])
      reg (int_range (-1000) 1000)
  in
  let alu_reg =
    map3
      (fun op dst src -> Insn.make (Opcode.alu64 op Opcode.Src_reg) ~dst ~src)
      (oneofl Opcode.[ Add; Sub; Mul; Or; And; Xor; Mov ])
      reg reg
  in
  let alu32 =
    map3
      (fun op dst imm ->
        Insn.make (Opcode.alu32 op Opcode.Src_imm) ~dst ~imm:(Int32.of_int imm))
      (oneofl Opcode.[ Add; Sub; Mul; Mov; Xor ])
      reg (int_range (-1000) 1000)
  in
  let stack_store =
    map2
      (fun src slot -> Insn.make (Opcode.stx Opcode.DW) ~dst:10 ~src ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let stack_load =
    map2
      (fun dst slot -> Insn.make (Opcode.ldx Opcode.DW) ~dst ~src:10 ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let forward_jump =
    map3
      (fun cond dst off -> Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:5l)
      (oneofl Opcode.[ Jeq; Jne; Jgt; Jlt; Jsge ])
      reg (int_range 0 3)
  in
  let body =
    list_size (int_range 2 40)
      (frequency
         [ (5, alu_imm); (4, alu_reg); (2, alu32); (2, stack_store);
           (2, stack_load); (2, forward_jump) ])
  in
  map (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ])) body

let fault_fingerprint = function
  | Fault.Division_by_zero _ -> "div0"
  | Fault.Memory_access _ -> "mem"
  | Fault.Branch_budget_exhausted _ -> "branch-budget"
  | Fault.Instruction_budget_exhausted _ -> "insn-budget"
  | Fault.Bad_jump _ -> "bad-jump"
  | Fault.Fall_off_end _ -> "fall-off"
  | fault -> Fault.to_string fault

let prop_equivalence =
  QCheck.Test.make ~name:"CertFC = optimized interpreter" ~count:500
    (QCheck.make gen_program) (fun program ->
      let config = { Config.default with Config.max_branches = 256 } in
      let fc = Vm.load ~config ~helpers:no_helpers ~regions:[] program in
      let cert = Certfc.load ~config ~helpers:no_helpers ~regions:[] program in
      match (fc, cert) with
      | Error _, Error _ -> true (* both reject: agreement *)
      | Ok _, Error _ | Error _, Ok _ -> false
      | Ok fc_vm, Ok cert_vm -> (
          match (Vm.run fc_vm, Certfc.run cert_vm) with
          | Ok a, Ok b -> Int64.equal a b
          | Error a, Error b ->
              String.equal (fault_fingerprint a) (fault_fingerprint b)
          | Ok _, Error _ | Error _, Ok _ -> false))

let prop_checker_agrees_with_verifier =
  (* Any byte string: the CertFC checker and the optimized verifier accept
     or reject together. *)
  QCheck.Test.make ~name:"checker agrees with verifier" ~count:500
    QCheck.(make Gen.(map Bytes.of_string (string_size ~gen:char (int_range 8 256))))
    (fun raw ->
      let len = Bytes.length raw - Bytes.length raw mod 8 in
      let program = Program.of_bytes (Bytes.sub raw 0 len) in
      let a = Femto_vm.Verifier.verify Config.default program in
      let b = Check.check Config.default program in
      Result.is_ok a = Result.is_ok b)

let prop_random_bytes_contained =
  QCheck.Test.make ~name:"CertFC contains random bytecode" ~count:300
    QCheck.(make Gen.(map Bytes.of_string (string_size ~gen:char (int_range 8 256))))
    (fun raw ->
      let len = Bytes.length raw - Bytes.length raw mod 8 in
      let program = Program.of_bytes (Bytes.sub raw 0 len) in
      let config = { Config.default with Config.max_branches = 64 } in
      let vm = Certfc.load_unverified ~config ~helpers:no_helpers ~regions:[] program in
      match Certfc.run vm with Ok _ | Error _ -> true)

let suite =
  [
    Alcotest.test_case "basic arithmetic" `Quick test_basic_arithmetic;
    Alcotest.test_case "loop" `Quick test_loop;
    Alcotest.test_case "stack roundtrip" `Quick test_stack_roundtrip;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero;
    Alcotest.test_case "memory fault" `Quick test_memory_fault;
    Alcotest.test_case "branch budget" `Quick test_branch_budget;
    Alcotest.test_case "checker rejects r10 write" `Quick test_checker_rejects_r10_write;
    Alcotest.test_case "checker rejects jump out" `Quick test_checker_rejects_jump_out;
    Alcotest.test_case "helper call" `Quick test_helper_call;
    QCheck_alcotest.to_alcotest prop_equivalence;
    QCheck_alcotest.to_alcotest prop_checker_agrees_with_verifier;
    QCheck_alcotest.to_alcotest prop_random_bytes_contained;
  ]

let () = Alcotest.run "femto_certfc" [ ("certfc", suite) ]
