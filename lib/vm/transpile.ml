(* Install-time transpilation — the optimization the paper proposes in
   §11 ("Install Time vs Execution Time"): convert the whole application
   once, at install time, on the device, so that execution no longer pays
   per-instruction fetch/decode.

   Here each verified instruction is compiled to an OCaml closure over the
   VM state (the host-language analogue of transpiling to native code);
   the run loop is then a plain indexed call.  All defensive runtime
   checks — allow-list memory access, division by zero, budgets — are
   compiled into the closures, so the isolation guarantees are identical
   to the interpreter's, which the test suite asserts on random
   programs. *)

open Femto_ebpf

type state = {
  regs : int64 array;
  mem : Mem.t;
  stack_data : bytes;
  helpers : Helper.t;
  config : Config.t;
  mutable pc : int;
  mutable insns_executed : int;
  mutable branches_taken : int;
  mutable result : int64 option;
  mutable fault : Fault.t option;
}

type t = { state : state; ops : (state -> unit) array; dynamic_limit : int }

let fail state fault = state.fault <- Some fault

let bump_branch state =
  state.branches_taken <- state.branches_taken + 1;
  if state.branches_taken > state.config.Config.max_branches then
    fail state (Fault.Branch_budget_exhausted { taken = state.branches_taken })

(* Compile one instruction at [pc] to a closure.  The pre-flight verifier
   ran before us, so registers and jump targets are known-good; memory and
   arithmetic checks remain dynamic. *)
let compile_insn program pc =
  let dst = Program.dst program pc and src = Program.src program pc in
  let offset = Program.offset program pc in
  let imm = Program.imm program pc in
  let sext_imm = Int64.of_int imm in
  match Program.kind program pc with
  | Insn.Alu (is64, op, source) ->
      let eval = if is64 then Interp.alu64 else Interp.alu32 in
      (match source with
      | Opcode.Src_imm ->
          fun state -> (
            match eval pc op state.regs.(dst) sext_imm with
            | Ok v ->
                state.regs.(dst) <- v;
                state.pc <- pc + 1
            | Error fault -> fail state fault)
      | Opcode.Src_reg ->
          fun state -> (
            match eval pc op state.regs.(dst) state.regs.(src) with
            | Ok v ->
                state.regs.(dst) <- v;
                state.pc <- pc + 1
            | Error fault -> fail state fault))
  | Insn.Load size ->
      let nbytes = Opcode.size_bytes size in
      fun state ->
        let addr = Int64.add state.regs.(src) (Int64.of_int offset) in
        (match Mem.load state.mem ~addr ~size:nbytes with
        | Ok v ->
            state.regs.(dst) <- v;
            state.pc <- pc + 1
        | Error () ->
            fail state (Fault.Memory_access { pc; addr; size = nbytes; write = false }))
  | Insn.Store_imm size ->
      let nbytes = Opcode.size_bytes size in
      fun state ->
        let addr = Int64.add state.regs.(dst) (Int64.of_int offset) in
        (match Mem.store state.mem ~addr ~size:nbytes sext_imm with
        | Ok () -> state.pc <- pc + 1
        | Error () ->
            fail state (Fault.Memory_access { pc; addr; size = nbytes; write = true }))
  | Insn.Store_reg size ->
      let nbytes = Opcode.size_bytes size in
      fun state ->
        let addr = Int64.add state.regs.(dst) (Int64.of_int offset) in
        (match Mem.store state.mem ~addr ~size:nbytes state.regs.(src) with
        | Ok () -> state.pc <- pc + 1
        | Error () ->
            fail state (Fault.Memory_access { pc; addr; size = nbytes; write = true }))
  | Insn.Lddw_head ->
      let imm64 =
        if pc + 1 < Program.length program then Program.lddw_imm program pc
        else 0L
      in
      fun state ->
        state.regs.(dst) <- imm64;
        state.pc <- pc + 2
  | Insn.Lddw_tail ->
      (* never entered: lddw_head skips it, and the verifier refuses jumps
         into it *)
      fun state -> state.pc <- pc + 1
  | Insn.Ja ->
      let target = pc + 1 + offset in
      fun state ->
        bump_branch state;
        state.pc <- target
  | Insn.Jcond (is64, cond, source) ->
      let target = pc + 1 + offset in
      (match source with
      | Opcode.Src_imm ->
          fun state ->
            if Interp.condition cond is64 state.regs.(dst) sext_imm then begin
              bump_branch state;
              state.pc <- target
            end
            else state.pc <- pc + 1
      | Opcode.Src_reg ->
          fun state ->
            if Interp.condition cond is64 state.regs.(dst) state.regs.(src) then begin
              bump_branch state;
              state.pc <- target
            end
            else state.pc <- pc + 1)
  | Insn.Call ->
      let id = imm in
      fun state -> (
        match Helper.find state.helpers id with
        | None -> fail state (Fault.Unknown_helper { pc; id })
        | Some entry -> (
            let args =
              {
                Helper.a1 = state.regs.(1);
                a2 = state.regs.(2);
                a3 = state.regs.(3);
                a4 = state.regs.(4);
                a5 = state.regs.(5);
              }
            in
            match entry.Helper.fn state.mem args with
            | Ok r0 ->
                state.regs.(0) <- r0;
                state.pc <- pc + 1
            | Error message -> fail state (Fault.Helper_error { pc; id; message })))
  | Insn.End endianness ->
      let width = Int32.of_int imm in
      fun state -> (
        match Interp.byte_swap pc endianness width state.regs.(dst) with
        | Ok v ->
            state.regs.(dst) <- v;
            state.pc <- pc + 1
        | Error fault -> fail state fault)
  | Insn.Exit -> fun state -> state.result <- Some state.regs.(0)
  | Insn.Invalid opcode -> fun state -> fail state (Fault.Invalid_opcode { pc; opcode })

(* [load] verifies, then transpiles.  The install-time cost is the point:
   it trades a longer cold start for faster execution. *)
let load ?(config = Config.default) ~helpers ~regions program =
  match Verifier.verify ~helpers config program with
  | Error fault -> Error fault
  | Ok (_ : Verifier.ok) ->
      let stack_data = Bytes.make config.Config.stack_size '\000' in
      let stack =
        Region.make ~name:"stack" ~vaddr:config.Config.stack_vaddr
          ~perm:Region.Read_write stack_data
      in
      let state =
        {
          regs = Array.make 11 0L;
          mem = Mem.create (stack :: regions);
          stack_data;
          helpers;
          config;
          pc = 0;
          insns_executed = 0;
          branches_taken = 0;
          result = None;
          fault = None;
        }
      in
      let ops =
        Array.init (Program.length program) (fun pc -> compile_insn program pc)
      in
      Ok { state; ops; dynamic_limit = Config.dynamic_instruction_limit config }

let run ?(args = [||]) t =
  let state = t.state in
  Array.fill state.regs 0 11 0L;
  Bytes.fill state.stack_data 0 (Bytes.length state.stack_data) '\000';
  state.regs.(10) <-
    Int64.add state.config.Config.stack_vaddr
      (Int64.of_int state.config.Config.stack_size);
  Array.iteri (fun i v -> if i < 5 then state.regs.(i + 1) <- v) args;
  state.pc <- 0;
  state.insns_executed <- 0;
  state.branches_taken <- 0;
  state.result <- None;
  state.fault <- None;
  let ops = t.ops in
  let len = Array.length ops in
  let rec loop () =
    match state.fault with
    | Some fault -> Error fault
    | None -> (
        match state.result with
        | Some r0 -> Ok r0
        | None ->
            if state.pc < 0 || state.pc >= len then
              Error (Fault.Fall_off_end { pc = state.pc })
            else begin
              state.insns_executed <- state.insns_executed + 1;
              if state.insns_executed > t.dynamic_limit then
                Error
                  (Fault.Instruction_budget_exhausted
                     { executed = state.insns_executed })
              else begin
                (Array.unsafe_get ops state.pc) state;
                loop ()
              end
            end)
  in
  loop ()

let insns_executed t = t.state.insns_executed
