(* CertFC interpreter: a purely functional, defensive step machine.

   This mirrors the structure of the Coq proof model the paper verified:
   machine states are immutable values, [step] is a total function from a
   state to either the next state, a final value, or a fault, and every
   precondition is re-checked dynamically rather than trusted from the
   verifier (the "defensive runtime checks" of Figure 6 step 2-iii).  The
   extra checks and functional updates are what make CertFC measurably
   slower than the optimized interpreter — the trade-off the paper's
   Figure 8 quantifies. *)

open Femto_ebpf
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Mem = Femto_vm.Mem
module Region = Femto_vm.Region
module Helper = Femto_vm.Helper
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

(* CertFC feeds the same process-wide vm.* metrics as the optimized
   interpreter, so `fc metrics --engine certfc` reports comparably. *)
let m_runs = Obs.counter "vm.runs"
let m_faults = Obs.counter "vm.faults"
let m_insns = Obs.counter "vm.insns"
let m_branches = Obs.counter "vm.branches"
let m_helper_calls = Obs.counter "vm.helper_calls"
let m_cycles = Obs.counter "vm.cycles"
let m_run_ns = Obs.histogram "vm.run_ns"

let ( let* ) = Result.bind

type state = {
  pc : int;
  regs : Regs.t;
  insns_executed : int;
  branches_taken : int;
  helper_calls : int;
  cycles : int;
}

type outcome = Next of state | Done of int64

type t = {
  program : Program.t;
  config : Config.t;
  mem : Mem.t;
  stack_data : bytes;
  helpers : Helper.t;
  cycle_cost : Insn.kind -> int;
  mutable last_stats : state option;
}

let no_cost (_ : Insn.kind) = 0

let create ?(config = Config.default) ?(cycle_cost = no_cost) ~helpers ~regions
    program =
  let stack_data = Bytes.make config.Config.stack_size '\000' in
  let stack =
    Region.make ~name:"stack" ~vaddr:config.Config.stack_vaddr
      ~perm:Region.Read_write stack_data
  in
  {
    program;
    config;
    mem = Mem.create ~stack regions;
    stack_data;
    helpers;
    cycle_cost;
    last_stats = None;
  }

let mem t = t.mem
let last_state t = t.last_stats

(* Per-instance RAM accounting, mirroring [Femto_vm.Interp.ram_bytes].
   CertFC keeps the full machine state (register record + counters) in its
   context struct rather than on the thread stack, which is the ~50 B
   per-instance overhead the paper reports for CertFC. *)
let ram_bytes t =
  let word = Sys.word_size / 8 in
  let stack = Bytes.length t.stack_data in
  let regs = 11 * 8 in
  let retained_state = 7 * word in
  let region_table =
    List.fold_left
      (fun acc (_ : Region.t) -> acc + (6 * word))
      (2 * word) (Mem.regions t.mem)
  in
  stack + regs + retained_state + regs + region_table

let reg_get pc regs r =
  match Regs.get regs r with
  | Ok v -> Ok v
  | Error reg -> Error (Fault.Invalid_register { pc; reg })

let reg_set pc regs r v =
  match Regs.set regs r v with
  | Ok regs -> Ok regs
  | Error 10 -> Error (Fault.Readonly_register { pc })
  | Error reg -> Error (Fault.Invalid_register { pc; reg })

let eval_alu pc is64 op (dst : int64) (src : int64) =
  if is64 then Femto_vm.Interp.alu64 pc op dst src
  else Femto_vm.Interp.alu32 pc op dst src
  [@@inline]

(* One defensive small-step.  All structural properties (opcode validity,
   register ranges, jump bounds) are re-established here, from scratch, on
   every instruction. *)
let step t state =
  let len = Program.length t.program in
  if state.pc < 0 || state.pc >= len then
    Error (Fault.Fall_off_end { pc = state.pc })
  else
    let pc = state.pc in
    let kind = Program.kind t.program pc in
    let dst = Program.dst t.program pc and src = Program.src t.program pc in
    let offset = Program.offset t.program pc in
    let imm = Program.imm t.program pc in
    let state =
      {
        state with
        insns_executed = state.insns_executed + 1;
        cycles = state.cycles + t.cycle_cost kind;
      }
    in
    if state.insns_executed > Config.dynamic_instruction_limit t.config then
      Error (Fault.Instruction_budget_exhausted { executed = state.insns_executed })
    else
      let continue regs = Ok (Next { state with pc = pc + 1; regs }) in
      let branch_to target =
        let taken = state.branches_taken + 1 in
        if taken > t.config.Config.max_branches then
          Error (Fault.Branch_budget_exhausted { taken })
        else if target < 0 || target >= len then
          Error (Fault.Bad_jump { pc; target })
        else Ok (Next { state with pc = target; branches_taken = taken })
      in
      let sext_imm = Int64.of_int imm in
      match kind with
      | Insn.Alu (is64, op, source) ->
          let* src_value =
            match source with
            | Opcode.Src_imm -> Ok sext_imm
            | Opcode.Src_reg -> reg_get pc state.regs src
          in
          let* dst_value = reg_get pc state.regs dst in
          let* result = eval_alu pc is64 op dst_value src_value in
          let* regs = reg_set pc state.regs dst result in
          continue regs
      | Insn.Load size ->
          let* base = reg_get pc state.regs src in
          let addr = Int64.add base (Int64.of_int offset) in
          let nbytes = Opcode.size_bytes size in
          let* value =
            match Mem.load t.mem ~addr ~size:nbytes with
            | Ok v -> Ok v
            | Error () ->
                Error (Fault.Memory_access { pc; addr; size = nbytes; write = false })
          in
          let* regs = reg_set pc state.regs dst value in
          continue regs
      | Insn.Store_imm size ->
          let* base = reg_get pc state.regs dst in
          let addr = Int64.add base (Int64.of_int offset) in
          let nbytes = Opcode.size_bytes size in
          let* () =
            match Mem.store t.mem ~addr ~size:nbytes sext_imm with
            | Ok () -> Ok ()
            | Error () ->
                Error (Fault.Memory_access { pc; addr; size = nbytes; write = true })
          in
          continue state.regs
      | Insn.Store_reg size ->
          let* base = reg_get pc state.regs dst in
          let* value = reg_get pc state.regs src in
          let addr = Int64.add base (Int64.of_int offset) in
          let nbytes = Opcode.size_bytes size in
          let* () =
            match Mem.store t.mem ~addr ~size:nbytes value with
            | Ok () -> Ok ()
            | Error () ->
                Error (Fault.Memory_access { pc; addr; size = nbytes; write = true })
          in
          continue state.regs
      | Insn.Lddw_head ->
          if pc + 1 >= len then Error (Fault.Truncated_lddw { pc })
          else
            let* regs =
              reg_set pc state.regs dst (Program.lddw_imm t.program pc)
            in
            Ok (Next { state with pc = pc + 2; regs })
      | Insn.Lddw_tail -> Error (Fault.Invalid_opcode { pc; opcode = 0 })
      | Insn.End endianness ->
          let* value = reg_get pc state.regs dst in
          let* swapped =
            Femto_vm.Interp.byte_swap pc endianness (Int32.of_int imm) value
          in
          let* regs = reg_set pc state.regs dst swapped in
          continue regs
      | Insn.Ja -> branch_to (pc + 1 + offset)
      | Insn.Jcond (is64, cond, source) ->
          let* src_value =
            match source with
            | Opcode.Src_imm -> Ok sext_imm
            | Opcode.Src_reg -> reg_get pc state.regs src
          in
          let* dst_value = reg_get pc state.regs dst in
          if Femto_vm.Interp.condition cond is64 dst_value src_value then
            branch_to (pc + 1 + offset)
          else Ok (Next { state with pc = pc + 1 })
      | Insn.Call -> (
          let id = imm in
          match Helper.find t.helpers id with
          | None -> Error (Fault.Unknown_helper { pc; id })
          | Some entry -> (
              (* the helper ABI is a register file in bytes: r0..r5 go
                 into a scratch one, and r0 comes back *)
              let rf = Bytes.make 88 '\000' in
              let regs = state.regs in
              List.iteri
                (fun i v -> Bytes.set_int64_ne rf (i lsl 3) v)
                Regs.[ regs.r0; regs.r1; regs.r2; regs.r3; regs.r4; regs.r5 ];
              match entry.Helper.fn t.mem rf with
              | () ->
                  let r0 = Bytes.get_int64_ne rf 0 in
                  Ok
                    (Next
                       {
                         state with
                         pc = pc + 1;
                         regs = { state.regs with Regs.r0 };
                         helper_calls = state.helper_calls + 1;
                         cycles = state.cycles + entry.Helper.cost_cycles;
                       })
              | exception Helper.Error message ->
                  Error (Fault.Helper_error { pc; id; message })))
      | Insn.Exit -> Ok (Done state.regs.Regs.r0)
      | Insn.Invalid opcode -> Error (Fault.Invalid_opcode { pc; opcode })

let initial_state t ~args =
  let r10 =
    Int64.add t.config.Config.stack_vaddr
      (Int64.of_int t.config.Config.stack_size)
  in
  {
    pc = 0;
    regs = Regs.with_args (Regs.init ~r10) args;
    insns_executed = 0;
    branches_taken = 0;
    helper_calls = 0;
    cycles = 0;
  }

let run ?(args = [||]) t =
  let t0 = if Obs.enabled () then Obs.now_ns () else 0.0 in
  Bytes.fill t.stack_data 0 (Bytes.length t.stack_data) '\000';
  let rec loop state =
    match step t state with
    | Ok (Next state') -> loop state'
    | Ok (Done r0) ->
        t.last_stats <- Some state;
        Ok r0
    | Error fault ->
        t.last_stats <- Some state;
        Error fault
  in
  let outcome = loop (initial_state t ~args) in
  (if Obs.enabled () then
     match t.last_stats with
     | None -> ()
     | Some s ->
         Ometrics.incr m_runs;
         Ometrics.add m_insns s.insns_executed;
         Ometrics.add m_branches s.branches_taken;
         Ometrics.add m_helper_calls s.helper_calls;
         Ometrics.add m_cycles s.cycles;
         Ometrics.observe m_run_ns (Obs.now_ns () -. t0);
         (match outcome with
         | Ok _ -> ()
         | Error f ->
             Ometrics.incr m_faults;
             Obs.event (fun () ->
                 Otrace.Fault
                   { kind = Fault.kind f; detail = Fault.to_string f }));
         Obs.event (fun () ->
             Otrace.Vm_run
               {
                 insns = s.insns_executed;
                 branches = s.branches_taken;
                 helpers = s.helper_calls;
                 cycles = s.cycles;
                 ok = Result.is_ok outcome;
               }));
  outcome
