(* The analyzer-driven register-IR tier: superblock lifting, the pass
   pipeline, and the per-block compiled backend.

   The headline property mirrors test_compile.ml but is stronger than
   the analysis-compiled test there: the IR tier must be EXACTLY
   indistinguishable from the decoded interpreter — same r0, same fault
   constructor with the same payload (pc, address, register), and every
   statistics field equal at the stopping point — because lifting keeps
   per-step weights/costs and the backend batches accounting only
   between fault points.  A second block checks the same property under
   every pass-pipeline configuration, so each optimization is
   individually proven observation-preserving.  Goldens then pin the
   elision/hoisting behaviour on the corpus kernels. *)

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
module Passes = Femto_analysis.Passes
module Ir = Femto_analysis.Ir
module Vir = Femto_vm.Ir
module Fletcher = Femto_workloads.Fletcher
module Dagsum = Femto_workloads.Dagsum
module Loop_sum = Femto_workloads.Loop_sum
module Sieve = Femto_workloads.Sieve
module Hotcall = Femto_workloads.Hotcall

let no_helpers = Helper.create ()

(* Bounded budgets so generated infinite loops fault quickly; identical
   config on every tier keeps budget faults comparable bit-for-bit. *)
let config = { Config.default with Config.max_branches = 256 }

(* Same generator family as test_compile.ml: ALU (with div/mod zero
   faults), stack traffic, forward and backward jumps — loops exercise
   the checked-mode budget guard, stack slots exercise elision. *)
let gen_insns ?(extra = []) () =
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
  list_size (int_range 2 40)
    (frequency
       ([
          (5, alu_imm); (4, alu_reg); (2, alu32); (3, stack_store);
          (3, stack_load); (2, forward_jump); (1, backward_jump);
        ]
       @ extra))

let gen_program =
  QCheck.Gen.map
    (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ]))
    (gen_insns ())

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

let load_decoded program =
  Vm.load ~config ~helpers:no_helpers ~regions:[] program

let load_ir ?passes program =
  Analysis.load ~config ?passes ~helpers:no_helpers ~regions:[]
    program

let prop_exact ~name ?passes () =
  QCheck.Test.make ~name ~count:300 (QCheck.make gen_program) (fun program ->
      match (load_decoded program, load_ir ?passes program) with
      | Error _, Error _ -> true
      | Ok d, Ok i -> String.equal (exact_outcome d) (exact_outcome i)
      | _ -> false)

let prop_ir_exact = prop_exact ~name:"ir = decoded (exact fault + stats)" ()

(* Each pass proven observation-preserving in isolation, plus the empty
   pipeline (raw lifted superblocks). *)
let single name field =
  prop_exact
    ~name:(Printf.sprintf "ir[%s only] = decoded" name)
    ~passes:field ()

let prop_passes_exact =
  [
    prop_exact ~name:"ir[no passes] = decoded" ~passes:Passes.none ();
    single "canon" { Passes.none with Passes.canon = true };
    single "const-fold" { Passes.none with Passes.const_fold = true };
    single "dead-elim" { Passes.none with Passes.dead_elim = true };
    single "bounds-elim" { Passes.none with Passes.bounds_elim = true };
  ]

(* Every subset of the pipeline, not only none, all and each pass alone:
   the stages feed each other (canon feeds folding, folding feeds
   dead-write elimination), so each of the 16 combinations must be exact
   too. *)
let pass_subsets =
  List.init 16 (fun m ->
      {
        Passes.canon = m land 1 <> 0;
        const_fold = m land 2 <> 0;
        dead_elim = m land 4 <> 0;
        bounds_elim = m land 8 <> 0;
      })

let prop_pass_subsets_exact =
  QCheck.Test.make ~name:"ir[every pass subset] = decoded" ~count:300
    (QCheck.make gen_program) (fun program ->
      let expected =
        Result.map exact_outcome (load_decoded program) |> Result.to_option
      in
      List.for_all
        (fun passes ->
          Option.equal String.equal expected
            (Result.map exact_outcome (load_ir ~passes program)
            |> Result.to_option))
        pass_subsets)

(* --- tight budgets: the checked-mode fallback ---------------------- *)

(* With N_b in 1..8 and N_i barely above the program length, block heads
   often lack the headroom for batched accounting, so the IR tier hands
   the rest of the run to the decoded loop.  That hand-over shares the
   instance's registers, stack, stats and memory map; whatever the decoded
   loop writes must be exactly what the IR tier then reports, resets and
   spawns from.  Programs also call helpers (one of them writes through
   the allow-list) and read and write a data region through r6.  A
   nonzero r1 on entry skips straight to the exit, so a second run with
   [r1 = 1] shows whatever the reset left on the stack. *)

let data_vaddr = 0x2000_0000L

let fallback_helpers () =
  let h = Helper.create () in
  Helper.register h ~id:1 ~name:"mix" (fun _ rf ->
      Helper.(return rf (Int64.add (Int64.mul (arg rf 1) 3L) (arg rf 2))));
  Helper.register h ~id:2 ~name:"poke" (fun mem rf ->
      let addr = Int64.add data_vaddr (Int64.logand (Helper.arg rf 2) 56L) in
      match Femto_vm.Mem.store mem ~addr ~size:8 (Helper.arg rf 1) with
      | Ok () -> Helper.return rf 0L
      | Error () -> Helper.fail "poke out of bounds");
  h

let data_regions () =
  let data = Bytes.init 64 (fun i -> Char.chr (i * 7 land 0xff)) in
  [ Femto_vm.Region.make ~name:"data" ~vaddr:data_vaddr
      ~perm:Femto_vm.Region.Read_write data ]

let gen_fallback_case =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let call =
    map (fun id -> Insn.make Opcode.call ~imm:(Int32.of_int id)) (int_range 1 2)
  in
  (* offsets 0..64: the last one runs off the 64-byte region *)
  let region_load =
    map2
      (fun dst slot -> Insn.make (Opcode.ldx Opcode.DW) ~dst ~src:6 ~offset:(8 * slot))
      reg (int_range 0 8)
  in
  let region_store =
    map2
      (fun src slot -> Insn.make (Opcode.stx Opcode.DW) ~dst:6 ~src ~offset:(8 * slot))
      reg (int_range 0 8)
  in
  let body =
    gen_insns ~extra:[ (2, call); (2, region_load); (2, region_store) ] ()
  in
  map3
    (fun insns max_branches slack ->
      let prologue =
        [
          Insn.make (Opcode.alu64 Opcode.Mov Opcode.Src_imm) ~dst:6
            ~imm:(Int64.to_int32 data_vaddr);
          Insn.make (Opcode.jmp Opcode.Jne Opcode.Src_imm) ~dst:1
            ~offset:(List.length insns) ~imm:0l;
        ]
      in
      let program =
        Program.of_insns (prologue @ insns @ [ Insn.make Opcode.exit' ])
      in
      let config =
        {
          Config.default with
          Config.max_branches;
          max_insns = Program.length program + slack;
        }
      in
      (program, config))
    body (int_range 1 8) (int_range 0 3)

(* Result or fault, every stats field, the register file after a clean
   exit, and the bytes of the stack and of every granted region. *)
let observed ?(args = [||]) vm =
  let r =
    match Vm.run vm ~args with
    | Ok v ->
        Printf.sprintf "ok:%Ld regs=%s" v
          (String.concat ","
             (Array.to_list (Array.map Int64.to_string (Vm.registers vm))))
    | Error f -> "fault:" ^ Fault.to_string f
  in
  let s = Vm.stats vm in
  let memory =
    List.map
      (fun (g : Femto_vm.Region.t) ->
        g.Femto_vm.Region.name ^ "=" ^ Digest.to_hex (Digest.bytes g.Femto_vm.Region.data))
      (Femto_vm.Mem.regions (Vm.mem vm))
  in
  Printf.sprintf "%s insns=%d branches=%d helpers=%d cycles=%d %s" r
    s.Interp.insns_executed s.Interp.branches_taken s.Interp.helper_calls
    s.Interp.cycles (String.concat " " memory)

let prop_tight_budget_fallback =
  QCheck.Test.make ~name:"ir = decoded under tight budgets (rerun + spawn)"
    ~count:3000
    (QCheck.make
       ~print:(fun (p, (c : Config.t)) ->
         Printf.sprintf "max_branches=%d max_insns=%d\n%s" c.Config.max_branches
           c.Config.max_insns (Femto_ebpf.Disasm.to_string p))
       gen_fallback_case)
    (fun (program, config) ->
      let helpers = fallback_helpers () in
      let decoded () =
        Vm.load ~config ~helpers ~regions:(data_regions ()) program
      in
      match
        (decoded (), Analysis.load ~config ~helpers ~regions:(data_regions ()) program)
      with
      | Error _, Error _ -> true
      | Ok d, Ok i ->
          let d1 = observed d in
          let d2 = observed ~args:[| 1L |] d in
          let i1 = observed i in
          let i2 = observed ~args:[| 1L |] i in
          let spawned = Vm.spawn ~regions:(data_regions ()) (Vm.image_of i) in
          let d_fresh = match decoded () with Ok v -> observed v | Error _ -> "" in
          String.equal d1 i1 && String.equal d2 i2
          && String.equal d_fresh (observed spawned)
      | _ -> false)

(* --- run frames: lent per run, owned by no instance ---------------- *)

(* An instance owns no stack or register file: each run borrows a frame
   from its domain ([Femto_vm.Frame]), one per nesting depth.  Lending
   must change nothing a run can observe. *)

(* Copies of [vm]'s own regions (the stack slot excluded): a spawn over
   them starts from the same memory as [vm]'s next run. *)
let copy_regions vm =
  List.filter_map
    (fun (r : Femto_vm.Region.t) ->
      if r == Femto_vm.Mem.stack (Vm.mem vm) then None
      else
        Some
          { r with Femto_vm.Region.data = Bytes.copy r.Femto_vm.Region.data })
    (Femto_vm.Mem.regions (Vm.mem vm))

let both_tiers ~helpers (program, config) =
  let load ldr =
    match ldr ~config ~helpers ~regions:(data_regions ()) program with
    | Ok vm -> [ vm ]
    | Error _ -> []
  in
  load (fun ~config ~helpers ~regions p -> Vm.load ~config ~helpers ~regions p)
  @ load (fun ~config ~helpers ~regions p ->
        Analysis.load ~config ~helpers ~regions p)

let prop_interleaved_runs =
  QCheck.Test.make ~name:"frames: interleaved runs = runs on fresh spawns"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (list_repeat 3 gen_fallback_case)
           (list_size (int_range 1 12) (pair (int_range 0 5) (int_range 0 1)))))
    (fun (cases, schedule) ->
      let helpers = fallback_helpers () in
      let instances = Array.of_list (List.concat_map (both_tiers ~helpers) cases) in
      let n = Array.length instances in
      n = 0
      || List.for_all
           (fun (i, a) ->
             let vm = instances.(i mod n) in
             let twin = Vm.spawn ~regions:(copy_regions vm) (Vm.image_of vm) in
             let args = [| Int64.of_int a |] in
             let got = observed ~args vm in
             String.equal got (observed ~args twin))
           schedule)

(* The outer program calls helper 3 between its stack stores and loads;
   with [nest] the helper runs a second container (its own stack traffic,
   either tier) to completion before returning the same value. *)
let prop_nested_run =
  let call3 = QCheck.Gen.return (Insn.make Opcode.call ~imm:3l) in
  let gen_outer =
    QCheck.Gen.map
      (fun insns -> Program.of_insns (insns @ [ Insn.make Opcode.exit' ]))
      (gen_insns ~extra:[ (3, call3) ] ())
  in
  QCheck.Test.make
    ~name:"frames: a container run inside a helper leaves the outer run intact"
    ~count:300
    (QCheck.make
       ~print:(fun (o, i, _, _) ->
         Femto_ebpf.Disasm.to_string o ^ "\n--- inner\n"
         ^ Femto_ebpf.Disasm.to_string i)
       QCheck.Gen.(quad gen_outer gen_program bool bool))
    (fun (outer, inner, outer_ir, inner_ir) ->
      let load ~ir ~helpers program =
        if ir then
          Analysis.load ~config ~helpers ~regions:(data_regions ()) program
        else Vm.load ~config ~helpers ~regions:(data_regions ()) program
      in
      match load ~ir:inner_ir ~helpers:no_helpers inner with
      | Error _ -> true
      | Ok inner_vm -> (
          let helpers ~nest =
            let h = fallback_helpers () in
            Helper.register h ~id:3 ~name:"nest" (fun _ rf ->
                if nest then ignore (Vm.run inner_vm);
                Helper.return rf 7L);
            h
          in
          match
            ( load ~ir:outer_ir ~helpers:(helpers ~nest:true) outer,
              load ~ir:outer_ir ~helpers:(helpers ~nest:false) outer )
          with
          | Ok nested, Ok alone ->
              String.equal (observed nested) (observed alone)
          | Error _, Error _ -> true
          | _ -> false))

(* Spawned on domain 0, run at the same time on both indices of a
   2-domain pool: each index borrows its own domain's frame. *)
let prop_two_domains =
  QCheck.Test.make
    ~name:"frames: spawns run on both indices of a 2-domain pool = sequential"
    ~count:40
    (QCheck.make QCheck.Gen.(pair gen_fallback_case gen_fallback_case))
    (fun (c0, c1) ->
      let helpers = fallback_helpers () in
      match (both_tiers ~helpers c0, both_tiers ~helpers c1) with
      | _ :: _ as l0, (_ :: _ as l1) ->
          let images =
            Array.of_list (List.map Vm.image_of (l0 @ l1))
          in
          let runs vm =
            List.map (fun a -> observed ~args:[| a |] vm) [ 0L; 1L; 0L; 0L ]
          in
          let expected =
            Array.map
              (fun img -> runs (Vm.spawn ~regions:(data_regions ()) img))
              images
          in
          let spawned =
            Array.map (fun img -> Vm.spawn ~regions:(data_regions ()) img) images
          in
          let got = Array.make (Array.length images) [] in
          let pool = Femto_par.Pool.create ~domains:2 in
          Fun.protect
            ~finally:(fun () -> Femto_par.Pool.shutdown pool)
            (fun () ->
              Femto_par.Pool.run pool (fun i ->
                  Array.iteri
                    (fun j vm -> if j mod 2 = i then got.(j) <- runs vm)
                    spawned));
          got = expected
      | _ -> true)

(* --- goldens --- *)

let assemble = Asm.assemble

let analysis_load_ok ?passes ?(helpers = no_helpers) ?(regions = []) program =
  match Analysis.load ?passes ~helpers ~regions program with
  | Ok vm -> vm
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)

let run_ok ?(args = [||]) vm =
  match Vm.run vm ~args with
  | Ok v -> v
  | Error fault -> Alcotest.failf "run: %s" (Fault.to_string fault)

let compiled_of vm =
  match Vm.compiled vm with
  | Some cc -> cc
  | None -> Alcotest.fail "expected a compiled instance"

(* dagsum is a DAG with constant-offset stack spills: the analyzer
   proves every stack access and the IR tier elides all of its bounds
   checks (and region-caches the data-pointer accesses). *)
let test_dagsum_elides () =
  let data = Fletcher.input_360 in
  let vm = analysis_load_ok ~regions:(Dagsum.regions data) (Dagsum.ebpf_program ()) in
  Alcotest.(check bool) "ir tier selected" true (Vm.tier vm = Vm.Ir);
  let cc = compiled_of vm in
  Alcotest.(check bool) "stack checks elided" true (Compile.elided_count cc > 0);
  Alcotest.(check int64) "result" (Dagsum.reference data)
    (run_ok ~args:[| Dagsum.data_vaddr |] vm)

(* sieve walks a data region through a computed pointer: nothing is
   provable at compile time, so no check is elided — every access is
   served through the hoisted per-site region cache instead. *)
let test_sieve_hoists_not_elides () =
  let vm = analysis_load_ok ~regions:(Sieve.regions ()) (Sieve.ebpf_program ()) in
  let cc = compiled_of vm in
  Alcotest.(check int) "nothing elided" 0 (Compile.elided_count cc);
  Alcotest.(check bool) "region cache installed" true
    (Compile.hoisted_count cc > 0);
  Alcotest.(check int64) "result" (Sieve.reference ())
    (run_ok ~args:Sieve.ebpf_args vm)

(* A stack access at a register-scaled offset is NOT proven (the
   interval covers the whole frame after widening), so its check must
   survive the bounds-elision pass. *)
let test_unproven_not_elided () =
  let program =
    assemble
      {|
        and   r1, 7          ; unknown scalar 0..7
        lsh   r1, 3
        mov   r2, r10
        sub   r2, 64
        add   r2, r1         ; stack pointer at an unproven offset
        mov   r3, 42
        stxdw [r2-8], r3
        ldxdw r0, [r2-8]
        exit
      |}
  in
  let vm = analysis_load_ok program in
  let cc = compiled_of vm in
  Alcotest.(check int) "unproven access not elided" 0 (Compile.elided_count cc);
  Alcotest.(check int64) "result" 42L (run_ok ~args:[| 0L |] vm)

(* Fault payloads and stats survive the IR backend bit-for-bit,
   including budget exhaustion mid-loop under a tight branch budget. *)
let test_fault_parity_goldens () =
  let cases =
    [
      ("div by zero", "mov r0, 10\nmov r1, 0\ndiv r0, r1\nexit");
      ("mod by zero imm", "mov r0, 10\nmod r0, 0\nexit");
      ("oob store", "mov r1, 5\nstxdw [r10-600], r1\nexit");
      ("oob load", "ldxdw r0, [r10+8]\nexit");
      ( "branch budget",
        "mov r2, 1\nloop:\nadd r2, 1\njne r2, 0, loop\nmov r0, 0\nexit" );
      ( "proven oob store",
        (* constant OOB offset: analyzer flags it, check must fire *)
        "mov r1, 7\nstxdw [r10+100], r1\nexit" );
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
      let i =
        match load_ir program with
        | Ok vm -> vm
        | Error f -> Alcotest.failf "%s: %s" name (Fault.to_string f)
      in
      Alcotest.(check string) name (exact_outcome d) (exact_outcome i))
    cases

(* The loop kernels agree with their references through the IR tier
   (checked mode: back edges keep the budget guard). *)
let test_corpus_kernels_through_ir () =
  let data = Fletcher.input_360 in
  let loop =
    analysis_load_ok ~regions:(Loop_sum.regions data) (Loop_sum.ebpf_program ())
  in
  Alcotest.(check int64) "loop_sum" (Loop_sum.reference data)
    (run_ok ~args:[| Loop_sum.data_vaddr |] loop);
  let hot =
    analysis_load_ok ~helpers:(Hotcall.helpers ()) (Hotcall.ebpf_program ())
  in
  Alcotest.(check int64) "hotcall" Hotcall.reference (run_ok hot)

(* --- the pass pipeline on lifted IR, structurally ------------------- *)

let lift_optimized ?passes source =
  let program = assemble source in
  let outcome =
    match Analysis.analyze Config.default program with
    | Ok o -> o
    | Error f -> Alcotest.failf "analyze: %s" (Fault.to_string f)
  in
  Passes.run ?config:passes ~cost:Interp.no_cost
    ~facts:outcome.Analysis.mem_facts program

(* Constant folding collapses a pure imm chain to its final value and
   dead-write elimination then drops the intermediates. *)
let test_fold_and_dead_elim () =
  let optimized, report =
    lift_optimized
      {|
        mov r1, 6
        mul r1, 7
        mov r2, r1
        add r2, 58
        mov r0, r2
        exit
      |}
  in
  Alcotest.(check bool) "folds happened" true (report.Passes.folded > 0);
  Alcotest.(check bool) "dead writes eliminated" true
    (report.Passes.eliminated > 0);
  (* every step folds to a constant write; the overwritten intermediate
     writes die, the final write per register survives (the exit barrier
     keeps all registers conservatively live) *)
  Alcotest.(check int) "three live steps" 3
    (Vir.count_ops (fun op -> op <> Vir.Nop) optimized);
  (* decoded accounting is preserved: the block still weighs 6 insns *)
  Alcotest.(check int) "weight preserved" 6 optimized.Vir.blocks.(0).Vir.weight

(* A constant-true conditional truncates the block into an
   unconditional jump; constant-false folds to a dropped step. *)
let test_jcond_folding () =
  let optimized, _ =
    lift_optimized
      {|
        mov  r1, 5
        jeq  r1, 5, take
        mov  r0, 1
        exit
      take:
        mov  r0, 2
        exit
      |}
  in
  (match optimized.Vir.blocks.(0).Vir.term with
  | Vir.Jump _ -> ()
  | _ -> Alcotest.fail "constant-true jcond did not become a jump");
  let optimized, _ =
    lift_optimized
      {|
        mov  r1, 5
        jeq  r1, 6, take
        mov  r0, 1
        exit
      take:
        mov  r0, 2
        exit
      |}
  in
  Alcotest.(check bool) "constant-false jcond dropped" true
    (Array.for_all
       (fun (s : Vir.step) ->
         match s.Vir.op with Vir.Jcond _ -> false | _ -> true)
       optimized.Vir.blocks.(0).Vir.steps)

(* Superblocks extend across side exits: a straight-line run with an
   untaken conditional lifts to ONE block containing a Jcond step. *)
let test_superblock_extends_across_jcond () =
  let program =
    assemble
      {|
        mov  r1, 1
        jeq  r1, 9, out   ; side exit, never taken
        add  r1, 2
        mov  r0, r1
      out:
        exit
      |}
  in
  let lifted, _ =
    Passes.run ~config:Passes.none ~cost:Interp.no_cost
      ~facts:(Array.make (Program.length program) None)
      program
  in
  (* two blocks: entry (with the side exit inside) and the target *)
  Alcotest.(check int) "blocks" 2 (Array.length lifted.Vir.blocks);
  Alcotest.(check bool) "entry holds the side exit" true
    (Array.exists
       (fun (s : Vir.step) ->
         match s.Vir.op with Vir.Jcond _ -> true | _ -> false)
       lifted.Vir.blocks.(0).Vir.steps)

(* [Passes.run] rewrites its domain's flat scratch in place and reuses
   it for the next run, so the IR it returns must own its data: an IR
   built earlier stays as built while later runs rewrite the scratch,
   and a run after a fully optimizing one starts from a clean lift. *)
let test_run_leaves_input_intact () =
  let program =
    assemble
      {|
        mov   r1, 6
        sub   r1, 2
        add   r1, 3
        add   r1, 4
        stxdw [r10-8], r1
        ldxdw r2, [r10-8]
        mov   r3, 1
        jeq   r3, 1, done
        mov   r0, 7
      done:
        mov   r0, r2
        exit
      |}
  in
  let facts =
    match Analysis.analyze Config.default program with
    | Ok o -> o.Analysis.mem_facts
    | Error f -> Alcotest.failf "analyze: %s" (Fault.to_string f)
  in
  let run ?config () = Passes.run ?config ~cost:Interp.no_cost ~facts program in
  let lift () = fst (run ~config:Passes.none ()) in
  let dump (ir, report) =
    Femto_obs.Jsonx.to_string (Passes.to_json ir report)
  in
  let input = lift () in
  let optimized = run () in
  let optimized_dump = dump optimized in
  let report = snd optimized in
  (* every stage rewrote something, so an in-place slip would show *)
  List.iter
    (fun (st : Passes.pass_stat) ->
      Alcotest.(check bool)
        (st.Passes.name ^ " rewrote")
        true (st.Passes.rewrites > 0))
    report.Passes.passes;
  (* built before the optimizing run, compared with one built after it *)
  Alcotest.(check bool) "input unchanged" true (input = lift ());
  Alcotest.(check string)
    "optimized IR unchanged by later runs" optimized_dump (dump optimized);
  Alcotest.(check string) "rerun reproduces it" optimized_dump (dump (run ()))

(* The install compile allocates little: [Analysis.load] of the 512-slot
   program a signed update installs (the install bench's) stays within
   5 000 minor words.  The IR build allocates only the step records it
   returns; the flat scratch it works in is reused. *)
let test_install_load_words () =
  let module Install = Femto_bench.Install_bench in
  let program = Program.of_bytes (Install.program_bytes ()) in
  let helpers = Helper.create () in
  let cycle_cost =
    Femto_platform.Platform.(cycle_cost cortex_m4 Fc)
  in
  let load () =
    match
      Analysis.load ~config:Config.default ~cycle_cost ~helpers ~regions:[]
        program
    with
    | Ok vm -> vm
    | Error f -> Alcotest.failf "refused: %s" (Fault.to_string f)
  in
  let words = Install.minor_words ~iters:20 load in
  if words > 5_000. then
    Alcotest.failf "Analysis.load allocates %.0f minor words (> 5 000)" words

(* The analyzer dedupes repeated uninit-read reports per register. *)
let test_uninit_dedupe () =
  let program =
    assemble
      {|
        mov r0, r3
        mov r1, r3
        add r1, r3
        exit
      |}
  in
  match Analysis.analyze Config.default program with
  | Error f -> Alcotest.failf "analyze: %s" (Fault.to_string f)
  | Ok outcome ->
      let uninit =
        List.filter
          (fun (d : Analysis.diag) -> d.Analysis.kind = "uninit_read")
          outcome.Analysis.diags
      in
      Alcotest.(check int) "one uninit-read diag for r3" 1 (List.length uninit);
      (match uninit with
      | [ d ] -> Alcotest.(check int) "reported at first read" 0 d.Analysis.pc
      | _ -> ());
      (* diags stay sorted by pc *)
      let pcs = List.map (fun (d : Analysis.diag) -> d.Analysis.pc) outcome.Analysis.diags in
      Alcotest.(check (list int)) "sorted by pc" (List.sort compare pcs) pcs

let () =
  Alcotest.run "femto_ir"
    [
      ( "differential",
        QCheck_alcotest.to_alcotest prop_ir_exact
        :: List.map QCheck_alcotest.to_alcotest
             (prop_passes_exact
             @ [ prop_pass_subsets_exact; prop_tight_budget_fallback ]) );
      ( "frames",
        List.map QCheck_alcotest.to_alcotest
          [ prop_interleaved_runs; prop_nested_run; prop_two_domains ] );
      ( "goldens",
        [
          Alcotest.test_case "dagsum elides proven checks" `Quick
            test_dagsum_elides;
          Alcotest.test_case "sieve hoists, never elides" `Quick
            test_sieve_hoists_not_elides;
          Alcotest.test_case "unproven access keeps its check" `Quick
            test_unproven_not_elided;
          Alcotest.test_case "fault parity goldens" `Quick
            test_fault_parity_goldens;
          Alcotest.test_case "corpus kernels through ir" `Quick
            test_corpus_kernels_through_ir;
        ] );
      ( "passes",
        [
          Alcotest.test_case "const fold + dead elim" `Quick
            test_fold_and_dead_elim;
          Alcotest.test_case "jcond folding" `Quick test_jcond_folding;
          Alcotest.test_case "superblock spans side exits" `Quick
            test_superblock_extends_across_jcond;
          Alcotest.test_case "uninit diags deduped" `Quick test_uninit_dedupe;
          Alcotest.test_case "pass pipeline leaves its input intact" `Quick
            test_run_leaves_input_intact;
          Alcotest.test_case "install load within 5 000 minor words" `Quick
            test_install_load_words;
        ] );
    ]
