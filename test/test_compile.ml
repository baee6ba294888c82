(* The compiled (IR) tier as a warm-pool instance: checked-mode
   exactness against the decoded interpreter, agreement with CertFC,
   region-inline-cache soundness, containment of a violated proof,
   warm-pool reuse, and the zero-allocation fire path. *)

module Insn = Femto_ebpf.Insn
module Opcode = Femto_ebpf.Opcode
module Program = Femto_ebpf.Program
module Asm = Femto_ebpf.Asm
module Vm = Femto_vm.Vm
module Interp = Femto_vm.Interp
module Compile = Femto_vm.Compile
module Fault = Femto_vm.Fault
module Helper = Femto_vm.Helper
module Config = Femto_vm.Config
module Analysis = Femto_analysis.Analysis
module Certfc = Femto_certfc.Certfc
module Lift = Femto_analysis.Ir
module Passes = Femto_analysis.Passes
module Vir = Femto_vm.Ir
module Region = Femto_vm.Region
module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Hook = Femto_core.Hook

let no_helpers = Helper.create ()

(* Bounded budgets so generated infinite loops fault quickly; identical
   config on every tier keeps budget faults comparable bit-for-bit. *)
let config = { Config.default with Config.max_branches = 256 }

(* --- generator: verification-friendly programs over ALU, stack and
   control flow, including divisions (zero fault) and backward jumps
   (budget faults) so fault parity is exercised, not just results. *)
let gen_program =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let alu_imm =
    map3
      (fun op dst imm ->
        Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst ~imm:(Int32.of_int imm))
      (oneofl
         Opcode.[ Add; Sub; Mul; Div; Mod; Or; And; Xor; Mov; Arsh; Lsh; Rsh ])
      reg (int_range (-3) 1000)
  in
  let alu_reg =
    map3
      (fun op dst src -> Insn.make (Opcode.alu64 op Opcode.Src_reg) ~dst ~src)
      (oneofl Opcode.[ Add; Sub; Mul; Div; Or; And; Xor; Mov ])
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
  let backward_jump =
    map3
      (fun cond dst off ->
        Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:3l)
      (oneofl Opcode.[ Jne; Jgt; Jlt ])
      reg (int_range (-4) (-1))
  in
  let body =
    list_size (int_range 2 40)
      (frequency
         [
           (5, alu_imm); (4, alu_reg); (2, alu32); (3, stack_store);
           (3, stack_load); (2, forward_jump); (1, backward_jump);
         ])
  in
  map (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ])) body

let fault_fingerprint = function
  | Fault.Division_by_zero _ -> "div0"
  | Fault.Memory_access _ -> "mem"
  | Fault.Branch_budget_exhausted _ -> "branch-budget"
  | Fault.Instruction_budget_exhausted _ -> "insn-budget"
  | fault -> Fault.to_string fault

(* Exact outcome: the result or fault rendered verbatim, plus every
   statistics field at the stopping point. *)
let exact_outcome vm =
  let r =
    match Vm.run vm with
    | Ok v -> Printf.sprintf "ok:%Ld" v
    | Error f -> "fault:" ^ Fault.to_string f
  in
  let s = Vm.stats vm in
  Printf.sprintf "%s insns=%d branches=%d helpers=%d cycles=%d" r
    s.Interp.insns_executed s.Interp.branches_taken s.Interp.helper_calls
    s.Interp.cycles

let load_decoded ?(helpers = no_helpers) ?(regions = []) program =
  Vm.load ~config ~helpers ~regions program

let load_ir ?(helpers = no_helpers) ?(regions = []) program =
  Analysis.load ~config ~helpers ~regions program

(* The IR tier in [Checked] mode whatever the program's shape: lifted
   and optimized like [Analysis.load] does, but handed over without the
   analyzer's DAG proofs, so every block keeps its budget guard. *)
let load_checked_ir program =
  match Analysis.analyze ~helpers:no_helpers config program with
  | Error f -> Error f
  | Ok outcome ->
      let ir, _ =
        Passes.run ~cost:Interp.no_cost ~facts:outcome.Analysis.mem_facts
          program
      in
      Ok
        (Vm.load_analyzed ~config ~ir ~helpers:no_helpers ~regions:[] program)

(* Checked IR must be indistinguishable from the decoded interpreter:
   same r0, same fault with the same payload, same stats. *)
let prop_compiled_exact =
  QCheck.Test.make ~name:"compiled = decoded (exact fault + stats)" ~count:300
    (QCheck.make gen_program) (fun program ->
      match (load_decoded program, load_checked_ir program) with
      | Error _, Error _ -> true
      | Ok d, Ok c -> String.equal (exact_outcome d) (exact_outcome c)
      | _ -> false)

(* Through the analyzer (proven mode, budgets compiled out on granted
   DAGs) compare results exactly and faults by identity class. *)
let prop_analysis_compiled_equals_decoded =
  QCheck.Test.make ~name:"analysis-compiled = decoded" ~count:300
    (QCheck.make gen_program) (fun program ->
      match (load_decoded program, load_ir program) with
      | Error _, Error _ -> true
      | Ok d, Ok c -> (
          match (Vm.run d, Vm.run c) with
          | Ok vd, Ok vc -> Int64.equal vd vc
          | Error fd, Error fc ->
              String.equal (fault_fingerprint fd) (fault_fingerprint fc)
          | _ -> false)
      | _ -> false)

let prop_compiled_equals_certfc =
  QCheck.Test.make ~name:"compiled = CertFC" ~count:300
    (QCheck.make gen_program) (fun program ->
      let cert = Certfc.load ~config ~helpers:no_helpers ~regions:[] program in
      match (load_ir program, cert) with
      | Error _, Error _ -> true
      | Ok c, Ok cc -> (
          match (Vm.run c, Certfc.run cc) with
          | Ok a, Ok b -> Int64.equal a b
          | Error a, Error b ->
              String.equal (fault_fingerprint a) (fault_fingerprint b)
          | _ -> false)
      | _ -> false)

(* Pool reuse: firing the same warm instance repeatedly is
   indistinguishable from running a fresh instance each time. *)
let prop_pool_reuse_deterministic =
  QCheck.Test.make ~name:"warm pool fire is deterministic" ~count:200
    (QCheck.make gen_program) (fun program ->
      match load_ir program with
      | Error _ -> true
      | Ok vm -> (
          let cc = Option.get (Vm.compiled vm) in
          let fresh =
            match load_ir program with
            | Ok v -> Vm.run v
            | Error _ -> assert false
          in
          match fresh with
          | Ok expect ->
              Compile.fire ~args:[||] cc
              && Int64.equal (Compile.result cc) expect
              && Compile.fire ~args:[||] cc
              && Int64.equal (Compile.result cc) expect
          | Error _ ->
              (not (Compile.fire ~args:[||] cc))
              && not (Compile.fire ~args:[||] cc)))

(* --- goldens --- *)

let assemble = Asm.assemble

let ok_or_fail = function
  | Ok vm -> vm
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)

let load_ok ?helpers ?regions program =
  match load_ir ?helpers ?regions program with
  | Ok vm -> vm
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)

(* Fault payloads and stats survive the checked compiled tier
   bit-for-bit, and a second run of the same instance reproduces them.
   The group keeps the name it had when these cases ran through the
   superinstruction-fused tier this checked tier replaced. *)
let test_fault_parity_goldens () =
  let cases =
    [
      ("div by zero", "mov r0, 10\nmov r1, 0\ndiv r0, r1\nexit");
      ("mod by zero imm", "mov r0, 10\nmod r0, 0\nexit");
      ("oob store", "mov r1, 5\nstxdw [r10-600], r1\nexit");
      ("oob load", "ldxdw r0, [r10+8]\nexit");
      ( "budget",
        "mov r2, 1\nloop:\nadd r2, 1\njne r2, 0, loop\nmov r0, 0\nexit" );
    ]
  in
  List.iter
    (fun (name, source) ->
      let program = assemble source in
      let d =
        match load_decoded program with
        | Ok vm -> vm
        | Error f -> Alcotest.failf "%s: %s" name (Fault.to_string f)
      in
      let c =
        match load_checked_ir program with
        | Ok vm -> vm
        | Error f -> Alcotest.failf "%s: %s" name (Fault.to_string f)
      in
      let expect = exact_outcome d in
      Alcotest.(check string) name expect (exact_outcome c);
      Alcotest.(check string) (name ^ " (rerun)") expect (exact_outcome c))
    cases

(* A fired instance must present a fully zeroed frame to the next run:
   this program returns the sum of values a previous run deliberately
   left behind in callee registers and both ends of the stack. *)
let test_pool_observes_zeroed_frame () =
  let program =
    assemble
      {|
        ldxdw r3, [r10-8]
        ldxdw r4, [r10-504]
        add   r3, r4
        add   r3, r6
        add   r3, r7
        add   r3, r8
        add   r3, r9
        mov   r0, r3
        mov   r5, -1
        stxdw [r10-8], r5
        stxdw [r10-504], r5
        mov   r6, 123
        mov   r7, 456
        mov   r8, 789
        mov   r9, 1011
        exit
      |}
  in
  let vm = load_ok program in
  let cc = Option.get (Vm.compiled vm) in
  for i = 1 to 3 do
    Alcotest.(check bool) "fire ok" true (Compile.fire ~args:[||] cc);
    Alcotest.(check int64)
      (Printf.sprintf "run %d sees zeroed frame" i)
      0L (Compile.result cc)
  done

(* Overlapping regions make a region inline cache unsound: a site that
   first resolved [base+8] to the larger region [b] would keep serving
   [base] from [b], while the allow-list's first match there is [a].  The
   instance must notice the overlap and leave its caches off. *)
let test_overlapping_regions_disable_cache () =
  let base = 0x2000_0000L in
  let fill n v =
    let b = Bytes.create n in
    for i = 0 to (n / 8) - 1 do
      Bytes.set_int64_le b (i * 8) v
    done;
    b
  in
  let regions () =
    let b = Bytes.cat (fill 8 0x2222L) (fill 8 0x3333L) in
    [
      Region.make ~name:"a" ~vaddr:base ~perm:Region.Read_only (fill 8 0x1111L);
      Region.make ~name:"b" ~vaddr:base ~perm:Region.Read_write b;
    ]
  in
  let program =
    assemble
      {|
        mov   r0, 0
        mov   r2, 8
      loop:
        mov   r3, r1
        add   r3, r2
        ldxdw r4, [r3+0]
        add   r0, r4
        sub   r2, 8
        jsge  r2, 0, loop
        exit
      |}
  in
  let ir = load_ok ~regions:(regions ()) program in
  let decoded = ok_or_fail (load_decoded ~regions:(regions ()) program) in
  match (Vm.run ir ~args:[| base |], Vm.run decoded ~args:[| base |]) with
  | Ok a, Ok b ->
      Alcotest.(check int64) "first match wins" 0x4444L b;
      Alcotest.(check int64) "agree" b a
  | _ -> Alcotest.fail "overlapping-region program faulted"

(* A wrong "proven" mark (an analyzer bug) must stay contained: every
   access is forced onto the direct stack path, and the out-of-frame one
   still faults with the decoded interpreter's payload instead of
   touching memory outside the frame. *)
let test_violated_proof_contained () =
  let program = assemble "mov r1, 7\nstxdw [r10+100], r1\nmov r0, 1\nexit" in
  let force_elide (s : Vir.step) =
    match s.Vir.op with
    | Vir.Load l -> { s with Vir.op = Vir.Load { l with elide = true } }
    | Vir.Store st -> { s with Vir.op = Vir.Store { st with elide = true } }
    | _ -> s
  in
  let lifted, _ =
    Passes.run ~config:Passes.none ~cost:Interp.no_cost
      ~facts:(Array.make (Program.length program) None)
      program
  in
  let ir =
    {
      lifted with
      Vir.blocks =
        Array.map
          (fun (b : Vir.block) ->
            { b with Vir.steps = Array.map force_elide b.Vir.steps })
          lifted.Vir.blocks;
    }
  in
  let vm =
    Vm.load_analyzed ~config ~ir
      ~proofs:(Array.make (Program.length program) true)
      ~helpers:no_helpers ~regions:[] program
  in
  let decoded = ok_or_fail (load_decoded program) in
  match (Vm.run vm, Vm.run decoded) with
  | Error a, Error b ->
      Alcotest.(check string) "same fault" (Fault.to_string b)
        (Fault.to_string a)
  | _ -> Alcotest.fail "out-of-frame store was not contained as a fault"

(* --- the warm pool dispatch path allocates nothing --- *)

let test_engine_fire_zero_alloc () =
  (* No kernel: the cycle clock boxes Int64s, and the paper's claim is
     about the dispatch machinery itself. *)
  let engine = Engine.create () in
  let hook =
    Engine.register_hook engine ~uuid:"za" ~name:"zero-alloc" ~ctx_size:8 ()
  in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"za" ~tenant ~contract:(Contract.require [])
      (assemble
         {|
           mov   r6, 7
           mov   r7, r6
           add   r7, 3
           stxdw [r10-8], r7
           ldxdw r0, [r10-8]
           add   r0, r7
           exit
         |})
  in
  (match Engine.attach engine ~hook_uuid:"za" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (* the analyzer must have proven the stack accesses, otherwise checked
     memory accesses allocate result values *)
  (match Container.instance container with
  | Some (Container.Fc_instance vm) ->
      Alcotest.(check bool) "compiled" true (Vm.compiled vm <> None);
      Alcotest.(check bool) "proven" true (Vm.proven_count vm > 0)
  | _ -> Alcotest.fail "expected an fc instance");
  (* warm the pool: first fires pay compilation-adjacent lazy costs *)
  ignore (Engine.fire engine hook);
  ignore (Engine.fire engine hook);
  let w0 = Gc.minor_words () in
  let faults = Engine.fire engine hook in
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check int) "no faults" 0 faults;
  Alcotest.(check (float 0.0)) "zero minor allocation" 0.0 delta;
  (match Container.instance container with
  | Some (Container.Fc_instance vm) -> (
      match Vm.compiled vm with
      | Some cc -> Alcotest.(check int64) "result" 20L (Compile.result cc)
      | None -> Alcotest.fail "compiled instance vanished")
  | _ -> Alcotest.fail "expected an fc instance");
  Alcotest.(check int) "three executions" 3 (Container.executions container);
  (* a helper call on the IR tier reads r1..r5 and writes r0 in the
     frame's register file: bpf_now_ms on a kernel-less engine returns
     the engine's fallback time and allocates nothing *)
  let hook =
    Engine.register_hook engine ~uuid:"za-call" ~name:"zero-alloc call"
      ~ctx_size:8 ()
  in
  let caller =
    Container.create ~name:"za-call" ~tenant
      ~contract:(Contract.require [ Contract.Time ])
      (assemble
         (Printf.sprintf
            {|
              mov   r1, 5
              call  %d
              add   r0, 1
              mov   r6, r0
              call  %d
              mov   r0, r6
              exit
            |}
            Femto_core.Syscall.id_now_ms Femto_core.Syscall.id_now_ms))
  in
  (match Engine.attach engine ~hook_uuid:"za-call" caller with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  ignore (Engine.fire engine hook);
  ignore (Engine.fire engine hook);
  let w0 = Gc.minor_words () in
  let faults = Engine.fire engine hook in
  let delta = Gc.minor_words () -. w0 in
  Alcotest.(check int) "helper fire: no faults" 0 faults;
  Alcotest.(check (float 0.0)) "helper fire: zero minor allocation" 0.0 delta;
  match Container.instance caller with
  | Some (Container.Fc_instance vm) -> (
      Alcotest.(check bool) "helper fire: IR tier" true (Vm.tier vm = Vm.Ir);
      Alcotest.(check int) "helper fire: two calls" 2
        (Vm.stats vm).Interp.helper_calls;
      match Vm.compiled vm with
      | Some cc -> Alcotest.(check int64) "helper fire: result" 1L (Compile.result cc)
      | None -> Alcotest.fail "compiled instance vanished")
  | _ -> Alcotest.fail "expected an fc instance"

(* The decoded loop keeps registers unboxed in the frame: on the paper's
   fletcher32 over 360 B, only memory accesses allocate (boxed addresses
   and load results), about 3 300 words a run where a boxed register
   array cost 9 200. *)
let test_decoded_fletcher_alloc () =
  let module Fletcher = Femto_workloads.Fletcher in
  let data = Fletcher.input_360 in
  let ctx = 0x2000_0000L in
  let vm =
    ok_or_fail
      (Vm.load ~helpers:no_helpers
         ~regions:(Fletcher.regions ~ctx_vaddr:ctx data)
         (Fletcher.ebpf_program ()))
  in
  let args = [| ctx |] in
  let expected = Int64.of_int (Fletcher.checksum data) in
  for _ = 1 to 20 do
    match Vm.run ~args vm with
    | Ok v -> Alcotest.(check int64) "checksum" expected v
    | Error f -> Alcotest.fail (Fault.to_string f)
  done;
  let runs = 200 in
  let w0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (Vm.run ~args vm))
  done;
  let per_run = (Gc.minor_words () -. w0) /. float_of_int runs in
  if per_run > 4000.0 then
    Alcotest.failf "decoded fletcher32: %.0f minor words per run (> 4000)"
      per_run

let () =
  Alcotest.run "femto_compile"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_compiled_exact;
          QCheck_alcotest.to_alcotest prop_analysis_compiled_equals_decoded;
          QCheck_alcotest.to_alcotest prop_compiled_equals_certfc;
        ] );
      ( "pool",
        [
          QCheck_alcotest.to_alcotest prop_pool_reuse_deterministic;
          Alcotest.test_case "reuse observes zeroed frame" `Quick
            test_pool_observes_zeroed_frame;
          Alcotest.test_case "engine fire allocates nothing" `Quick
            test_engine_fire_zero_alloc;
          Alcotest.test_case "decoded fletcher32 allocation" `Quick
            test_decoded_fletcher_alloc;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "overlapping regions disable the cache" `Quick
            test_overlapping_regions_disable_cache;
          Alcotest.test_case "violated proof contained" `Quick
            test_violated_proof_contained;
        ] );
      ( "fusion",
        [
          Alcotest.test_case "fault parity goldens" `Quick
            test_fault_parity_goldens;
        ] );
    ]
