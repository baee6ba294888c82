(* Tests for the abstract-interpretation analyzer: golden diagnostics
   (uninitialized reads, static stack bounds, pointer arithmetic,
   termination classification, unreachable code), CFG construction,
   differential agreement with the CertFC checker, and observational
   equivalence of the proof-fed IR tier (its budget guard trimmed away on
   eligible programs). *)

open Femto_ebpf
module Analysis = Femto_analysis.Analysis
module Cfg = Femto_analysis.Cfg
module Vm = Femto_vm.Vm
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Helper = Femto_vm.Helper
module Verifier = Femto_vm.Verifier
module Interp = Femto_vm.Interp
module Check = Femto_certfc.Check
module Dagsum = Femto_workloads.Dagsum
module Fletcher = Femto_workloads.Fletcher

let analyze ?helpers source =
  let resolver =
    match helpers with
    | Some h -> Helper.asm_resolver h
    | None -> fun _ -> None
  in
  Analysis.analyze ?helpers Config.default (Asm.assemble ~helpers:resolver source)

let outcome ?helpers source =
  match analyze ?helpers source with
  | Ok o -> o
  | Error fault ->
      Alcotest.failf "unexpected structural fault: %s" (Fault.to_string fault)

let has_error o kind =
  List.exists
    (fun d -> d.Analysis.severity = Analysis.Error && d.Analysis.kind = kind)
    o.Analysis.diags

let verifier_accepts source =
  Result.is_ok (Verifier.verify Config.default (Asm.assemble source))

(* --- golden diagnostics --- *)

let test_uninit_read () =
  let source = "mov r0, r6\nexit" in
  (* the shape-only verifier accepts this; the analyzer must not *)
  Alcotest.(check bool) "verifier accepts" true (verifier_accepts source);
  let o = outcome source in
  Alcotest.(check bool) "uninit_read error" true (has_error o "uninit_read");
  Alcotest.(check bool) "rejected" false (Analysis.accepted o)

let test_uninit_return () =
  let o = outcome "exit" in
  Alcotest.(check bool) "r0 uninit at exit" true (has_error o "uninit_read")

let test_stack_overflow_store () =
  let source = "stdw [r10+0], 7\nmov r0, 0\nexit" in
  Alcotest.(check bool) "verifier accepts" true (verifier_accepts source);
  let o = outcome source in
  Alcotest.(check bool) "stack_oob error" true (has_error o "stack_oob")

let test_stack_underflow_load () =
  let o = outcome "ldxdw r0, [r10-520]\nexit" in
  Alcotest.(check bool) "stack_oob error" true (has_error o "stack_oob")

let test_computed_window_proven () =
  (* r2 = r10 - 16 is tracked exactly; both accesses proven, fast path
     granted. *)
  let o =
    outcome
      "mov r2, r10\nsub r2, 16\nstdw [r2+0], 1\nldxdw r0, [r2+8]\nexit"
  in
  Alcotest.(check bool) "accepted" true (Analysis.accepted o);
  Alcotest.(check bool) "dag" true (o.Analysis.termination = Analysis.Dag);
  match o.Analysis.fastpath with
  | None -> Alcotest.fail "expected fast-path eligibility"
  | Some proofs ->
      Alcotest.(check bool) "store at pc 2 proven" true proofs.(2);
      Alcotest.(check bool) "load at pc 3 proven" true proofs.(3)

let test_ptr_arith_rejected () =
  let add_ptrs = outcome "mov r2, r10\nadd r2, r10\nmov r0, 0\nexit" in
  Alcotest.(check bool) "ptr+ptr" true (has_error add_ptrs "ptr_arith");
  let mul_ptr = outcome "mov r2, r10\nmul r2, 8\nmov r0, 0\nexit" in
  Alcotest.(check bool) "ptr*imm" true (has_error mul_ptr "ptr_arith");
  let scalar_minus_ptr = outcome "mov r2, 64\nsub r2, r10\nmov r0, 0\nexit" in
  Alcotest.(check bool) "scalar-ptr" true
    (has_error scalar_minus_ptr "ptr_arith")

let test_ptr_diff_is_scalar () =
  (* subtracting two stack pointers yields a plain number *)
  let o = outcome "mov r2, r10\nmov r3, r10\nsub r2, r3\nmov r0, r2\nexit" in
  Alcotest.(check bool) "accepted" true (Analysis.accepted o)

let test_unknown_scalar_offset_not_proven () =
  (* r2 = r10 - r3 with unknown scalar r3: legal (runtime-checked) but
     never proven, so no fast path for that access. *)
  let o =
    outcome "mov r3, 8\nmov r2, r10\nsub r2, r3\nstdw [r2+0], 1\nmov r0, 0\nexit"
  in
  Alcotest.(check bool) "accepted" true (Analysis.accepted o);
  match o.Analysis.fastpath with
  | None -> Alcotest.fail "dag without errors is still eligible"
  | Some proofs -> Alcotest.(check bool) "store not proven" false proofs.(3)

let test_dag_vs_loop () =
  let dag = outcome "mov r0, 0\nadd r0, 1\nexit" in
  Alcotest.(check bool) "straight-line is dag" true
    (dag.Analysis.termination = Analysis.Dag);
  Alcotest.(check bool) "dag eligible" true (dag.Analysis.fastpath <> None);
  let loop =
    outcome "mov r0, 0\nmov r2, 5\nadd r0, r2\nsub r2, 1\njne r2, 0, -3\nexit"
  in
  Alcotest.(check bool) "loop detected" true
    (loop.Analysis.termination = Analysis.Has_loops);
  Alcotest.(check bool) "loop accepted" true (Analysis.accepted loop);
  Alcotest.(check bool) "loop not eligible" true
    (loop.Analysis.fastpath = None)

let test_unreachable_code () =
  let o = outcome "mov r0, 1\nja +1\nmov r0, 9\nexit" in
  Alcotest.(check (list int)) "pc 2 unreachable" [ 2 ] o.Analysis.unreachable;
  Alcotest.(check bool) "warning reported" true
    (List.exists
       (fun d ->
         d.Analysis.kind = "unreachable_code"
         && d.Analysis.severity = Analysis.Warning
         && d.Analysis.pc = 2)
       o.Analysis.diags);
  (* warnings do not reject *)
  Alcotest.(check bool) "still accepted" true (Analysis.accepted o)

let test_fletcher_accepted () =
  (* regression against false positives: the paper's loop workload loads
     through a data pointer read out of the context struct *)
  let o = outcome Fletcher.ebpf_source in
  Alcotest.(check bool) "accepted" true (Analysis.accepted o);
  Alcotest.(check bool) "classified as loop" true
    (o.Analysis.termination = Analysis.Has_loops)

let test_helper_arity_check () =
  let helpers = Helper.create () in
  Helper.register helpers ~arity:2 ~id:1 ~name:"bpf_pair" (fun _ _ -> Ok 0L);
  (* r1 is the context pointer at entry, but r2 was never written *)
  let bad = outcome ~helpers "call bpf_pair\nmov r0, 0\nexit" in
  Alcotest.(check bool) "uninit r2 argument" true
    (has_error bad "call_signature");
  let good = outcome ~helpers "mov r2, 7\ncall bpf_pair\nmov r0, 0\nexit" in
  Alcotest.(check bool) "initialized arguments accepted" true
    (Analysis.accepted good)

(* --- CFG construction --- *)

let test_cfg_blocks () =
  let cfg =
    Cfg.build (Asm.assemble "mov r0, 0\njeq r0, 0, +1\nmov r0, 1\nexit")
  in
  Alcotest.(check int) "three blocks" 3 (Array.length cfg.Cfg.blocks);
  Alcotest.(check (list int)) "entry branches both ways" [ 1; 2 ]
    cfg.Cfg.blocks.(0).Cfg.succs;
  Alcotest.(check (list int)) "fallthrough reaches exit" [ 2 ]
    cfg.Cfg.blocks.(1).Cfg.succs;
  Alcotest.(check (list int)) "exit has no successor" []
    cfg.Cfg.blocks.(2).Cfg.succs;
  Alcotest.(check bool) "no loops" false (Cfg.has_loops cfg)

let test_cfg_back_edge () =
  let cfg =
    Cfg.build
      (Asm.assemble "mov r2, 5\nsub r2, 1\njne r2, 0, -2\nmov r0, 0\nexit")
  in
  Alcotest.(check bool) "loop found" true (Cfg.has_loops cfg)

let test_cfg_lddw_stays_whole () =
  let cfg = Cfg.build (Asm.assemble "lddw r0, 0x1122334455667788\nexit") in
  (* straight-line code is one block; the pair must not split it *)
  Alcotest.(check int) "one block" 1 (Array.length cfg.Cfg.blocks);
  Alcotest.(check bool) "tail flagged" true cfg.Cfg.is_tail.(1);
  Alcotest.(check (list int)) "no unreachable code" []
    (Cfg.unreachable_pcs cfg)

(* --- differential: analyzer vs the CertFC checker --- *)

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
  let stack_store =
    map2
      (fun src slot ->
        Insn.make (Opcode.stx Opcode.DW) ~dst:10 ~src ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let stack_load =
    map2
      (fun dst slot ->
        Insn.make (Opcode.ldx Opcode.DW) ~dst ~src:10 ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let forward_jump =
    map3
      (fun cond dst off ->
        Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:5l)
      (oneofl Opcode.[ Jeq; Jne; Jgt; Jlt; Jsge ])
      reg (int_range 0 3)
  in
  let body =
    list_size (int_range 2 40)
      (frequency
         [ (5, alu_imm); (4, alu_reg); (3, stack_store); (3, stack_load);
           (2, forward_jump) ])
  in
  map (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ])) body

(* Structural acceptance must coincide: the analyzer runs the verifier,
   the verifier agrees with the CertFC checker (its own property test),
   hence analyzer-accepted programs are a subset of checker-accepted. *)
let prop_analyzer_subset_of_checker =
  QCheck.Test.make ~name:"analyzer-accepted subset of CertFC-accepted"
    ~count:300 (QCheck.make gen_program) (fun program ->
      match Analysis.analyze Config.default program with
      | Error _ -> true
      | Ok _ -> Result.is_ok (Check.check Config.default program))

(* On a corpus of structurally bad programs, the analyzer and the CertFC
   checker must report the very same fault. *)
let test_fault_agreement_corpus () =
  let corpus =
    [
      ("jump out of range",
       [ Insn.make Opcode.ja ~offset:5; Insn.make Opcode.exit' ]);
      ("write r10",
       [ Insn.make (Opcode.alu64 Opcode.Mov Opcode.Src_imm) ~dst:10 ~imm:1l;
         Insn.make Opcode.exit' ]);
      ("no exit at end",
       [ Insn.make (Opcode.alu64 Opcode.Mov Opcode.Src_imm) ~dst:0 ~imm:0l ]);
      ("truncated lddw", [ Insn.make Opcode.lddw ~dst:0 ~imm:1l ]);
      ("invalid opcode", [ Insn.make 0xff; Insn.make Opcode.exit' ]);
      ("jump to orphan tail slot",
       [ Insn.make Opcode.ja ~offset:1;
         Insn.make Opcode.exit';
         Insn.make 0 ~imm:7l ]);
    ]
  in
  List.iter
    (fun (name, insns) ->
      let program = Program.of_insns insns in
      match
        (Analysis.analyze Config.default program, Check.check Config.default program)
      with
      | Error f1, Error f2 ->
          Alcotest.(check string) name (Fault.to_string f2) (Fault.to_string f1)
      | Ok _, _ -> Alcotest.failf "%s: analyzer accepted" name
      | _, Ok _ -> Alcotest.failf "%s: CertFC checker accepted" name)
    corpus

(* --- the fast-path dividend --- *)

let fault_fingerprint = function
  | Fault.Division_by_zero _ -> "div0"
  | Fault.Memory_access _ -> "mem"
  | fault -> Fault.to_string fault

(* Observational equivalence: loading through the analyzer (the IR tier,
   with its budget guard trimmed away when the program is eligible) and
   through the plain checked loader must produce the same result on every
   accepted program. *)
let prop_trimmed_equals_checked =
  QCheck.Test.make ~name:"trimmed fast path = checked interpreter" ~count:300
    (QCheck.make gen_program) (fun program ->
      let helpers = Helper.create () in
      let analysis_vm = Analysis.load ~helpers ~regions:[] program in
      let plain_vm = Vm.load ~helpers ~regions:[] program in
      match (analysis_vm, plain_vm) with
      | Error _, Error _ -> true
      | Ok a, Ok p -> (
          match (Vm.run a, Vm.run p) with
          | Ok va, Ok vp -> Int64.equal va vp
          | Error fa, Error fp ->
              String.equal (fault_fingerprint fa) (fault_fingerprint fp)
          | _ -> false)
      | _ -> false)

let test_dagsum_trimmed_matches_reference () =
  let data = Fletcher.input_360 in
  let program = Dagsum.ebpf_program () in
  let expect = Dagsum.reference data in
  let ir =
    match
      Analysis.load ~helpers:(Helper.create ()) ~regions:(Dagsum.regions data)
        program
    with
    | Ok vm -> vm
    | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  in
  Alcotest.(check bool) "fast path engaged" true
    (Vm.tier ir = Vm.Ir && Vm.proven_count ir > 0);
  (match Vm.run ir ~args:[| Dagsum.data_vaddr |] with
  | Ok v -> Alcotest.(check int64) "ir result" expect v
  | Error fault -> Alcotest.failf "ir run: %s" (Fault.to_string fault));
  let checked =
    match
      Vm.load ~helpers:(Helper.create ()) ~regions:(Dagsum.regions data)
        program
    with
    | Ok vm -> vm
    | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  in
  Alcotest.(check bool) "checked loader stays plain" true
    (Vm.tier checked = Vm.Decoded && Vm.proven_count checked = 0);
  match Vm.run checked ~args:[| Dagsum.data_vaddr |] with
  | Ok v -> Alcotest.(check int64) "checked result" expect v
  | Error fault -> Alcotest.failf "checked run: %s" (Fault.to_string fault)

let () =
  Alcotest.run "femto_analysis"
    [
      ( "golden",
        [
          Alcotest.test_case "uninit register read" `Quick test_uninit_read;
          Alcotest.test_case "uninit r0 at exit" `Quick test_uninit_return;
          Alcotest.test_case "stack overflow store" `Quick
            test_stack_overflow_store;
          Alcotest.test_case "stack underflow load" `Quick
            test_stack_underflow_load;
          Alcotest.test_case "computed window proven" `Quick
            test_computed_window_proven;
          Alcotest.test_case "pointer arithmetic rejected" `Quick
            test_ptr_arith_rejected;
          Alcotest.test_case "pointer difference is scalar" `Quick
            test_ptr_diff_is_scalar;
          Alcotest.test_case "unknown offset not proven" `Quick
            test_unknown_scalar_offset_not_proven;
          Alcotest.test_case "dag vs loop classification" `Quick
            test_dag_vs_loop;
          Alcotest.test_case "unreachable code reported" `Quick
            test_unreachable_code;
          Alcotest.test_case "fletcher stays accepted" `Quick
            test_fletcher_accepted;
          Alcotest.test_case "helper arity check" `Quick
            test_helper_arity_check;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "diamond blocks" `Quick test_cfg_blocks;
          Alcotest.test_case "back edge" `Quick test_cfg_back_edge;
          Alcotest.test_case "lddw stays whole" `Quick
            test_cfg_lddw_stays_whole;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_analyzer_subset_of_checker;
          Alcotest.test_case "fault agreement corpus" `Quick
            test_fault_agreement_corpus;
        ] );
      ( "fastpath",
        [
          QCheck_alcotest.to_alcotest prop_trimmed_equals_checked;
          Alcotest.test_case "dagsum trimmed matches reference" `Quick
            test_dagsum_trimmed_matches_reference;
        ] );
    ]
