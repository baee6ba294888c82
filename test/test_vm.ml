(* Tests for the rBPF virtual machine: interpreter semantics, verifier
   pre-flight checks, memory isolation, helpers, execution budgets. *)

open Femto_ebpf
module Vm = Femto_vm.Vm
module Fault = Femto_vm.Fault
module Region = Femto_vm.Region
module Helper = Femto_vm.Helper
module Config = Femto_vm.Config
module Verifier = Femto_vm.Verifier
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

let no_helpers = Helper.create ()

let run_source ?(helpers = no_helpers) ?(regions = []) ?(args = [||]) source =
  let program = Asm.assemble ~helpers:(Helper.asm_resolver helpers) source in
  match Vm.load ~helpers ~regions program with
  | Error fault -> Error fault
  | Ok vm -> Vm.run vm ~args

let expect_ok ?helpers ?regions ?args source =
  match run_source ?helpers ?regions ?args source with
  | Ok v -> v
  | Error fault -> Alcotest.failf "unexpected fault: %s" (Fault.to_string fault)

let expect_fault ?helpers ?regions ?args source predicate =
  match run_source ?helpers ?regions ?args source with
  | Ok v -> Alcotest.failf "expected fault, got %Ld" v
  | Error fault ->
      if not (predicate fault) then
        Alcotest.failf "unexpected fault kind: %s" (Fault.to_string fault)

let check64 = Alcotest.(check int64)

(* --- ALU semantics --- *)

let test_mov_and_add () =
  check64 "mov/add" 52L (expect_ok "mov r0, 42\nadd r0, 10\nexit")

let test_mov_sign_extends () =
  check64 "mov -1" (-1L) (expect_ok "mov r0, -1\nexit")

let test_mov32_zero_extends () =
  check64 "mov32 -1" 0xFFFF_FFFFL (expect_ok "mov32 r0, -1\nexit")

let test_sub_mul () =
  check64 "sub/mul" 36L (expect_ok "mov r0, 10\nsub r0, 4\nmul r0, 6\nexit")

let test_div_unsigned () =
  (* -1 as unsigned 64-bit divided by 2 = 0x7FFF_FFFF_FFFF_FFFF *)
  check64 "unsigned div" 0x7FFF_FFFF_FFFF_FFFFL
    (expect_ok "mov r0, -1\ndiv r0, 2\nexit")

let test_mod () =
  check64 "mod" 2L (expect_ok "mov r0, 17\nmod r0, 5\nexit")

let test_div_by_zero_faults () =
  expect_fault "mov r0, 5\nmov r1, 0\ndiv r0, r1\nexit" (function
    | Fault.Division_by_zero _ -> true
    | _ -> false)

let test_div32_by_zero_faults () =
  expect_fault "mov r0, 5\nmov r1, 0\ndiv32 r0, r1\nexit" (function
    | Fault.Division_by_zero _ -> true
    | _ -> false)

let test_shifts () =
  check64 "lsh" 256L (expect_ok "mov r0, 1\nlsh r0, 8\nexit");
  check64 "rsh logical" 0x7FFF_FFFF_FFFF_FFFFL
    (expect_ok "mov r0, -1\nrsh r0, 1\nexit");
  check64 "arsh keeps sign" (-1L) (expect_ok "mov r0, -1\narsh r0, 1\nexit");
  (* shift amounts are masked to 6 bits, as in eBPF *)
  check64 "shift mask" 2L (expect_ok "mov r0, 1\nmov r1, 65\nlsh r0, r1\nexit")

let test_alu32_wraps () =
  check64 "add32 wraps" 0L (expect_ok "mov32 r0, -1\nadd32 r0, 1\nexit")

let test_arsh32 () =
  check64 "arsh32" 0xFFFF_FFFFL (expect_ok "mov32 r0, -2\narsh32 r0, 1\nexit")

let test_neg () =
  check64 "neg" (-7L) (expect_ok "mov r0, 7\nneg r0\nexit")

let test_xor_and_or () =
  check64 "bitops" 6L (expect_ok "mov r0, 5\nxor r0, 3\nexit");
  check64 "and" 4L (expect_ok "mov r0, 5\nand r0, 4\nexit");
  check64 "or" 7L (expect_ok "mov r0, 5\nor r0, 2\nexit")

let test_lddw () =
  check64 "lddw" 0x1122_3344_5566_7788L
    (expect_ok "lddw r0, 0x1122334455667788\nexit")

(* --- endianness conversion (BPF_END) --- *)

let test_endian_le () =
  check64 "le16 truncates" 0x3412L
    (expect_ok "lddw r0, 0x1122334455663412\nle16 r0\nexit");
  check64 "le32 truncates" 0x55663412L
    (expect_ok "lddw r0, 0x1122334455663412\nle32 r0\nexit");
  check64 "le64 identity" 0x1122334455663412L
    (expect_ok "lddw r0, 0x1122334455663412\nle64 r0\nexit")

let test_endian_be () =
  check64 "be16 swaps" 0x1234L
    (expect_ok "mov r0, 0x3412\nbe16 r0\nexit");
  check64 "be32 swaps" 0x12345678L
    (expect_ok "lddw r0, 0x78563412\nbe32 r0\nexit");
  check64 "be64 swaps" 0x1122334455667788L
    (expect_ok "lddw r0, 0x8877665544332211\nbe64 r0\nexit")

let test_endian_double_swap_identity () =
  check64 "be16 twice" 0x3412L (expect_ok "mov r0, 0x3412\nbe16 r0\nbe16 r0\nexit")

let test_endian_verifier_checks_width () =
  (* a hand-crafted End instruction with width 24 must be rejected *)
  let insn = Insn.make 0xd4 ~dst:0 ~imm:24l in
  let program = Program.of_insns [ insn; Insn.make 0x95 ] in
  match Verifier.verify Config.default program with
  | Error (Fault.Nonzero_field { field = "end width"; _ }) -> ()
  | Ok _ -> Alcotest.fail "bad width accepted"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_endian_r10_rejected () =
  expect_fault "be16 r10\nexit" (function
    | Fault.Readonly_register _ -> true
    | _ -> false)

(* --- control flow --- *)

let test_loop_sum () =
  (* sum 1..10 *)
  let source =
    {|
      mov r0, 0
      mov r1, 1
    loop:
      add r0, r1
      add r1, 1
      jle r1, 10, loop
      exit
    |}
  in
  check64 "sum 1..10" 55L (expect_ok source)

let test_jset () =
  check64 "jset taken" 1L
    (expect_ok "mov r0, 0\nmov r1, 6\njset r1, 2, taken\nexit\ntaken:\nmov r0, 1\nexit")

let test_signed_compare () =
  check64 "jsgt signed" 1L
    (expect_ok "mov r0, 0\nmov r1, -1\njsgt r1, 1, bad\nmov r0, 1\nexit\nbad:\nexit")

let test_unsigned_compare () =
  (* -1 unsigned is the largest value, so jgt r1, 1 is taken *)
  check64 "jgt unsigned" 1L
    (expect_ok "mov r0, 0\nmov r1, -1\njgt r1, 1, big\nexit\nbig:\nmov r0, 1\nexit")

let test_jump32_compares_low_bits () =
  (* r1 = 0x1_0000_0000: low 32 bits are zero *)
  check64 "jeq32" 1L
    (expect_ok
       "mov r0, 0\nlddw r1, 0x100000000\njeq32 r1, 0, zero\nexit\nzero:\nmov r0, 1\nexit")

let test_branch_budget () =
  let config = { Config.default with Config.max_branches = 100 } in
  let program = Asm.assemble "loop:\nja loop" in
  match Vm.load ~config ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "verify: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm with
      | Ok _ -> Alcotest.fail "infinite loop terminated?"
      | Error (Fault.Branch_budget_exhausted { taken }) ->
          Alcotest.(check int) "taken" 101 taken
      | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault))

(* --- memory and isolation --- *)

let test_stack_store_load () =
  let source =
    "stdw [r10-8], 77\nldxdw r0, [r10-8]\nexit"
  in
  check64 "stack rw" 77L (expect_ok source)

let test_stack_byte_halfword () =
  let source =
    "sth [r10-2], 0x1234\nldxb r0, [r10-2]\nldxb r1, [r10-1]\nlsh r1, 8\nor r0, r1\nexit"
  in
  check64 "little endian" 0x1234L (expect_ok source)

let test_stack_overflow_faults () =
  (* the stack occupies [r10-512, r10); one byte below is out of bounds *)
  expect_fault "stxb [r10-513], r1\nexit" (function
    | Fault.Memory_access { write = true; _ } -> true
    | _ -> false)

let test_store_at_r10_faults () =
  (* r10 points one past the stack's last byte *)
  expect_fault "stxb [r10], r1\nexit" (function
    | Fault.Memory_access _ -> true
    | _ -> false)

let test_context_region_read () =
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 0xBEEFL;
  let region =
    Region.make ~name:"ctx" ~vaddr:0x2000_0000L ~perm:Region.Read_only data
  in
  check64 "ctx read" 0xBEEFL
    (expect_ok ~regions:[ region ] ~args:[| 0x2000_0000L |]
       "ldxdw r0, [r1]\nexit")

let test_readonly_region_rejects_write () =
  let region =
    Region.make ~name:"ctx" ~vaddr:0x2000_0000L ~perm:Region.Read_only
      (Bytes.create 8)
  in
  expect_fault ~regions:[ region ] ~args:[| 0x2000_0000L |]
    "stdw [r1], 1\nexit" (function
    | Fault.Memory_access { write = true; _ } -> true
    | _ -> false)

let test_writeonly_region_rejects_read () =
  let region =
    Region.make ~name:"out" ~vaddr:0x2000_0000L ~perm:Region.Write_only
      (Bytes.create 8)
  in
  expect_fault ~regions:[ region ] ~args:[| 0x2000_0000L |]
    "ldxdw r0, [r1]\nexit" (function
    | Fault.Memory_access { write = false; _ } -> true
    | _ -> false)

let test_region_boundary () =
  let region =
    Region.make ~name:"buf" ~vaddr:0x2000_0000L ~perm:Region.Read_write
      (Bytes.make 8 '\000')
  in
  (* 8-byte access at the last valid byte must fault *)
  expect_fault ~regions:[ region ] ~args:[| 0x2000_0000L |]
    "ldxdw r0, [r1+1]\nexit" (function
    | Fault.Memory_access _ -> true
    | _ -> false);
  (* exact fit is fine *)
  check64 "exact fit" 0L
    (expect_ok ~regions:[ region ] ~args:[| 0x2000_0000L |]
       "ldxdw r0, [r1]\nexit")

let test_null_pointer_faults () =
  expect_fault "mov r1, 0\nldxw r0, [r1]\nexit" (function
    | Fault.Memory_access _ -> true
    | _ -> false)

let test_wild_address_faults () =
  expect_fault "lddw r1, 0xffffffffffffff00\nldxdw r0, [r1]\nexit" (function
    | Fault.Memory_access _ -> true
    | _ -> false)

(* --- verifier --- *)

let verify source =
  Verifier.verify Config.default (Asm.assemble source)

let expect_verify_fault source predicate =
  match verify source with
  | Ok _ -> Alcotest.failf "expected verification failure for %S" source
  | Error fault ->
      if not (predicate fault) then
        Alcotest.failf "unexpected fault: %s" (Fault.to_string fault)

let test_verifier_accepts_valid () =
  match verify "mov r0, 1\nexit" with
  | Ok ok ->
      Alcotest.(check int) "insns" 2 ok.Verifier.insn_count;
      Alcotest.(check int) "branches" 0 ok.Verifier.branch_count
  | Error fault -> Alcotest.failf "rejected: %s" (Fault.to_string fault)

let test_verifier_counts_branches () =
  match verify "mov r0, 0\nja skip\nskip:\njeq r0, 0, done\ndone:\nexit" with
  | Ok ok -> Alcotest.(check int) "branches" 2 ok.Verifier.branch_count
  | Error fault -> Alcotest.failf "rejected: %s" (Fault.to_string fault)

let test_verifier_rejects_r10_write () =
  expect_verify_fault "mov r10, 1\nexit" (function
    | Fault.Readonly_register _ -> true
    | _ -> false)

let test_verifier_allows_r10_as_store_base () =
  match verify "stdw [r10-8], 1\nexit" with
  | Ok _ -> ()
  | Error fault -> Alcotest.failf "rejected: %s" (Fault.to_string fault)

let test_verifier_rejects_jump_out () =
  expect_verify_fault "ja +5\nexit" (function
    | Fault.Bad_jump _ -> true
    | _ -> false);
  expect_verify_fault "ja -2\nexit" (function
    | Fault.Bad_jump _ -> true
    | _ -> false)

let test_verifier_rejects_jump_into_lddw () =
  expect_verify_fault "ja +1\nlddw r1, 0x123456789\nexit" (function
    | Fault.Jump_to_lddw_tail _ -> true
    | _ -> false)

let test_verifier_rejects_jump_to_orphan_tail () =
  (* regression: a jump whose target slot holds opcode 0 — an lddw tail
     with no preceding head, so the tail-marking sweep never flags it —
     must fault at the jump as Jump_to_lddw_tail rather than surfacing
     later as a generic Invalid_opcode at the target *)
  let program =
    Program.of_insns
      [
        Insn.make Opcode.ja ~offset:1;
        Insn.make Opcode.exit';
        Insn.make 0 ~imm:7l;
      ]
  in
  match Verifier.verify Config.default program with
  | Error (Fault.Jump_to_lddw_tail { pc = 0; target = 2 }) -> ()
  | Ok _ -> Alcotest.fail "accepted jump to orphan tail slot"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_verifier_rejects_fallthrough () =
  expect_verify_fault "mov r0, 1\nadd r0, 1" (function
    | Fault.Bad_end_instruction _ -> true
    | _ -> false)

let test_verifier_rejects_empty () =
  match Verifier.verify Config.default (Program.of_insns []) with
  | Error Fault.Empty_program -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty program accepted"

let test_verifier_rejects_bad_register_encoding () =
  (* hand-craft an instruction with dst=12 *)
  let program = Program.of_insns [ Insn.make 0xb7 ~dst:12; Insn.make 0x95 ] in
  match Verifier.verify Config.default program with
  | Error (Fault.Invalid_register { reg = 12; _ }) -> ()
  | Ok _ -> Alcotest.fail "accepted register 12"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_verifier_rejects_invalid_opcode () =
  let program = Program.of_insns [ Insn.make 0xff; Insn.make 0x95 ] in
  match Verifier.verify Config.default program with
  | Error (Fault.Invalid_opcode _) -> ()
  | Ok _ -> Alcotest.fail "accepted opcode 0xff"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_verifier_rejects_truncated_lddw () =
  let head, _ = Insn.lddw_pair 1 42L in
  let program = Program.of_insns [ head ] in
  match Verifier.verify Config.default program with
  | Error (Fault.Truncated_lddw _) -> ()
  | Ok _ -> Alcotest.fail "accepted truncated lddw"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_verifier_rejects_long_program () =
  let config = { Config.default with Config.max_insns = 4 } in
  let insns = List.init 5 (fun _ -> Insn.make 0xb7) @ [ Insn.make 0x95 ] in
  match Verifier.verify config (Program.of_insns insns) with
  | Error (Fault.Program_too_long _) -> ()
  | Ok _ -> Alcotest.fail "accepted long program"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

let test_verifier_rejects_unknown_helper () =
  let helpers = Helper.create () in
  let program = Asm.assemble "call 99\nexit" in
  match Verifier.verify ~helpers Config.default program with
  | Error (Fault.Unknown_helper { id = 99; _ }) -> ()
  | Ok _ -> Alcotest.fail "accepted unknown helper"
  | Error fault -> Alcotest.failf "wrong fault: %s" (Fault.to_string fault)

(* --- helpers --- *)

let make_helpers () =
  let helpers = Helper.create () in
  Helper.register helpers ~id:1 ~name:"add_args" (fun _mem rf ->
      Helper.(return rf (Int64.add (arg rf 1) (arg rf 2))));
  Helper.register helpers ~id:2 ~name:"fail_always" (fun _mem _rf ->
      Helper.fail "deliberate failure");
  Helper.register helpers ~id:3 ~name:"peek_byte" (fun mem rf ->
      match Femto_vm.Mem.load mem ~addr:(Helper.arg rf 1) ~size:1 with
      | Ok v -> Helper.return rf v
      | Error () -> Helper.fail "helper pointer outside allow-list");
  helpers

let test_helper_call () =
  let helpers = make_helpers () in
  check64 "helper add" 30L
    (expect_ok ~helpers "mov r1, 10\nmov r2, 20\ncall add_args\nexit")

let test_helper_error_faults () =
  let helpers = make_helpers () in
  expect_fault ~helpers "call fail_always\nexit" (function
    | Fault.Helper_error { id = 2; _ } -> true
    | _ -> false)

let test_helper_pointer_checked () =
  (* a helper dereferencing a guest pointer obeys the allow-list too *)
  let helpers = make_helpers () in
  expect_fault ~helpers "lddw r1, 0xdead0000\ncall peek_byte\nexit" (function
    | Fault.Helper_error { id = 3; _ } -> true
    | _ -> false);
  check64 "helper reads stack" 0L
    (expect_ok ~helpers "mov r1, r10\nsub r1, 8\nstdw [r10-8], 0\ncall peek_byte\nexit")

(* --- robustness: unverified garbage must fault, never crash the host --- *)

let prop_unverified_random_bytes_never_crash =
  QCheck.Test.make ~name:"random bytecode is contained" ~count:500
    QCheck.(make Gen.(map Bytes.of_string (string_size ~gen:char (int_range 8 512))))
    (fun raw ->
      let len = Bytes.length raw - Bytes.length raw mod 8 in
      let raw = Bytes.sub raw 0 len in
      let program = Program.of_bytes raw in
      let config = { Config.default with Config.max_branches = 64 } in
      let vm =
        Vm.load_unverified ~config ~helpers:no_helpers ~regions:[] program
      in
      match Vm.run vm with Ok _ | Error _ -> true)

let prop_verified_programs_contained =
  (* Random structurally-valid programs that pass the verifier either
     terminate normally or fault — and never touch memory outside their
     regions (we give them none, so any memory access must fault, not
     crash). *)
  let gen_program =
    let open QCheck.Gen in
    let reg = int_range 0 9 in
    let body =
      list_size (int_range 1 30)
        (frequency
           [
             ( 5,
               map3
                 (fun op dst imm ->
                   Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst
                     ~imm:(Int32.of_int imm))
                 (oneofl
                    Opcode.[ Add; Sub; Mul; Or; And; Lsh; Rsh; Xor; Mov; Arsh ])
                 reg (int_range (-100) 100) );
             ( 2,
               map2
                 (fun dst off -> Insn.make (Opcode.ldx Opcode.W) ~dst ~src:10 ~offset:off)
                 reg (int_range (-512) 0) );
             ( 2,
               map2
                 (fun src off -> Insn.make (Opcode.stx Opcode.W) ~dst:10 ~src ~offset:off)
                 reg (int_range (-512) 0) );
           ])
    in
    map (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ])) body
  in
  QCheck.Test.make ~name:"verified programs are contained" ~count:300
    (QCheck.make gen_program) (fun program ->
      match Vm.load ~helpers:no_helpers ~regions:[] program with
      | Error _ -> true (* rejected statically: fine *)
      | Ok vm -> ( match Vm.run vm with Ok _ | Error _ -> true))

(* --- observability: a VM run must leave a metric and trace record --- *)

let fresh_events since =
  List.filter (fun r -> r.Otrace.seq >= since) (Otrace.events Obs.ring)

let test_obs_records_run () =
  Obs.set_enabled true;
  Obs.set_tracing true;
  let runs = Ometrics.value (Obs.counter "vm.runs") in
  let insns = Ometrics.value (Obs.counter "vm.insns") in
  let since = Otrace.total Obs.ring in
  check64 "program result" 3L (expect_ok "mov r0, 1\nadd r0, 2\nexit");
  Obs.set_tracing false;
  Alcotest.(check int) "vm.runs incremented" (runs + 1)
    (Ometrics.value (Obs.counter "vm.runs"));
  Alcotest.(check int) "vm.insns counted 3 instructions" (insns + 3)
    (Ometrics.value (Obs.counter "vm.insns"));
  let recorded =
    List.exists
      (fun r ->
        match r.Otrace.event with
        | Otrace.Vm_run { insns = n; ok = true; _ } -> n = 3
        | _ -> false)
      (fresh_events since)
  in
  Alcotest.(check bool) "Vm_run event recorded" true recorded

let test_obs_records_fault () =
  Obs.set_enabled true;
  Obs.set_tracing true;
  let faults = Ometrics.value (Obs.counter "vm.faults") in
  let since = Otrace.total Obs.ring in
  expect_fault "mov r0, 1\nmov r1, 0\ndiv r0, r1\nexit" (function
    | Fault.Division_by_zero _ -> true
    | _ -> false);
  Obs.set_tracing false;
  Alcotest.(check int) "vm.faults incremented" (faults + 1)
    (Ometrics.value (Obs.counter "vm.faults"));
  let recorded =
    List.exists
      (fun r ->
        match r.Otrace.event with
        | Otrace.Fault { kind = "division_by_zero"; _ } -> true
        | _ -> false)
      (fresh_events since)
  in
  Alcotest.(check bool) "Fault event recorded" true recorded

let suite =
  [
    Alcotest.test_case "mov/add" `Quick test_mov_and_add;
    Alcotest.test_case "mov sign-extends" `Quick test_mov_sign_extends;
    Alcotest.test_case "mov32 zero-extends" `Quick test_mov32_zero_extends;
    Alcotest.test_case "sub/mul" `Quick test_sub_mul;
    Alcotest.test_case "div unsigned" `Quick test_div_unsigned;
    Alcotest.test_case "mod" `Quick test_mod;
    Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
    Alcotest.test_case "div32 by zero" `Quick test_div32_by_zero_faults;
    Alcotest.test_case "shifts" `Quick test_shifts;
    Alcotest.test_case "alu32 wraps" `Quick test_alu32_wraps;
    Alcotest.test_case "arsh32" `Quick test_arsh32;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "bitops" `Quick test_xor_and_or;
    Alcotest.test_case "lddw" `Quick test_lddw;
    Alcotest.test_case "endian le" `Quick test_endian_le;
    Alcotest.test_case "endian be" `Quick test_endian_be;
    Alcotest.test_case "endian double swap" `Quick test_endian_double_swap_identity;
    Alcotest.test_case "endian width check" `Quick test_endian_verifier_checks_width;
    Alcotest.test_case "endian r10" `Quick test_endian_r10_rejected;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "jset" `Quick test_jset;
    Alcotest.test_case "signed compare" `Quick test_signed_compare;
    Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
    Alcotest.test_case "jump32" `Quick test_jump32_compares_low_bits;
    Alcotest.test_case "branch budget" `Quick test_branch_budget;
    Alcotest.test_case "stack store/load" `Quick test_stack_store_load;
    Alcotest.test_case "little endian stack" `Quick test_stack_byte_halfword;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow_faults;
    Alcotest.test_case "store at r10" `Quick test_store_at_r10_faults;
    Alcotest.test_case "context region read" `Quick test_context_region_read;
    Alcotest.test_case "read-only region" `Quick test_readonly_region_rejects_write;
    Alcotest.test_case "write-only region" `Quick test_writeonly_region_rejects_read;
    Alcotest.test_case "region boundary" `Quick test_region_boundary;
    Alcotest.test_case "null pointer" `Quick test_null_pointer_faults;
    Alcotest.test_case "wild address" `Quick test_wild_address_faults;
    Alcotest.test_case "verifier accepts valid" `Quick test_verifier_accepts_valid;
    Alcotest.test_case "verifier counts branches" `Quick test_verifier_counts_branches;
    Alcotest.test_case "verifier rejects r10 write" `Quick test_verifier_rejects_r10_write;
    Alcotest.test_case "verifier allows r10 store base" `Quick
      test_verifier_allows_r10_as_store_base;
    Alcotest.test_case "verifier rejects jump out" `Quick test_verifier_rejects_jump_out;
    Alcotest.test_case "verifier rejects jump into lddw" `Quick
      test_verifier_rejects_jump_into_lddw;
    Alcotest.test_case "verifier rejects jump to orphan tail" `Quick
      test_verifier_rejects_jump_to_orphan_tail;
    Alcotest.test_case "verifier rejects fallthrough" `Quick
      test_verifier_rejects_fallthrough;
    Alcotest.test_case "verifier rejects empty" `Quick test_verifier_rejects_empty;
    Alcotest.test_case "verifier rejects bad register" `Quick
      test_verifier_rejects_bad_register_encoding;
    Alcotest.test_case "verifier rejects invalid opcode" `Quick
      test_verifier_rejects_invalid_opcode;
    Alcotest.test_case "verifier rejects truncated lddw" `Quick
      test_verifier_rejects_truncated_lddw;
    Alcotest.test_case "verifier rejects long program" `Quick
      test_verifier_rejects_long_program;
    Alcotest.test_case "verifier rejects unknown helper" `Quick
      test_verifier_rejects_unknown_helper;
    Alcotest.test_case "obs records run" `Quick test_obs_records_run;
    Alcotest.test_case "obs records fault" `Quick test_obs_records_fault;
    Alcotest.test_case "helper call" `Quick test_helper_call;
    Alcotest.test_case "helper error" `Quick test_helper_error_faults;
    Alcotest.test_case "helper pointer checked" `Quick test_helper_pointer_checked;
    QCheck_alcotest.to_alcotest prop_unverified_random_bytes_never_crash;
    QCheck_alcotest.to_alcotest prop_verified_programs_contained;
  ]

let () = Alcotest.run "femto_vm" [ ("vm", suite) ]
