(* The optimized Femto-Container interpreter.

   The loop reads each slot's fields in place from the program's wire
   bytes and dispatches on its kind from [Insn]'s static opcode table
   (the moral equivalent of the paper's computed jumptable: one dispatch
   on a dense constructor tag per instruction).  The interpreter
   trusts the pre-flight verifier for structural properties (opcodes,
   registers, jump targets) and performs the defensive runtime checks the
   verifier cannot do statically: memory accesses against the allow-list,
   division by zero, and the finite-execution budgets. *)

open Femto_ebpf
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

(* Process-wide VM metrics, aggregated across all instances.  Handles
   are resolved once; per-run updates are plain mutable stores. *)
let m_runs = Obs.counter "vm.runs"
let m_faults = Obs.counter "vm.faults"
let m_insns = Obs.counter "vm.insns"
let m_branches = Obs.counter "vm.branches"
let m_helper_calls = Obs.counter "vm.helper_calls"
let m_cycles = Obs.counter "vm.cycles"
let m_run_ns = Obs.histogram "vm.run_ns"

type stats = {
  mutable insns_executed : int;
  mutable branches_taken : int;
  mutable helper_calls : int;
  mutable cycles : int; (* accumulated platform cycle-model cost *)
}

(* What every instance of one program shares: the decoded tier needs
   nothing else, and the instance ([Mem.t]) holds everything a run
   mutates. *)
type t = {
  program : Program.t;
  config : Config.t;
  helpers : Helper.t;
  cycle_cost : Insn.kind -> int;
}

let no_cost (_ : Insn.kind) = 0

(* [create] binds the program to its helpers and cost model; nothing is
   decoded, and no stack or register file is allocated: each run
   borrows those from its domain's frames ([Frame]).  The caller is
   expected to have run [Verifier.verify] first; [run] still never
   crashes the host on an unverified program — it faults instead. *)
let create ?(config = Config.default) ?(cycle_cost = no_cost) ~helpers program
    =
  { program; config; helpers; cycle_cost }

let stats (m : Mem.t) =
  {
    insns_executed = m.Mem.insns_executed;
    branches_taken = m.Mem.branches_taken;
    helper_calls = m.Mem.helper_calls;
    cycles = m.Mem.cycles;
  }

let program t = t.program
let config t = t.config
let helpers t = t.helpers

(* Per-instance RAM in the paper's Table 3 sense: the state one container
   instance uses — VM stack and register file (the frame every run
   borrows), statistics, and its memory region table — excluding the
   shared bytecode and helper tables. *)
let ram_bytes t (m : Mem.t) =
  let word = Sys.word_size / 8 in
  let stats_struct = 5 * word in
  let region_table =
    List.fold_left
      (fun acc (_ : Region.t) -> acc + (6 * word))
      (2 * word) (Mem.regions m)
  in
  Frame.ram_bytes t.config + stats_struct + region_table

(* [lend t m] borrows a frame for one run on instance [m] and puts its
   stack in [m]'s memory map; [give_back m ~outer fr] returns the frame
   and puts back [outer], the stack slot as it was before [lend] — the
   unlent placeholder, or the frame of an outer run of this same
   instance. *)
let lend t m =
  let fr = Frame.acquire t.config in
  Mem.set_stack m fr.Frame.region;
  fr

let give_back m ~outer fr =
  Mem.set_stack m outer;
  Frame.release fr

let mask32 v = Int64.logand v 0xFFFF_FFFFL
let low32 v = Int64.to_int32 v

(* The value kernels below are total on a nonzero divisor and inlined
   where they are used, so a caller that keeps its operands unboxed (the
   decoded loop, the IR constant folder) evaluates without allocating;
   [alu64]/[alu32]/[byte_swap] add the fault checks and return a
   [result], for CertFC and the IR tier's fault-capable steps. *)
let[@inline] alu64_value op (dst : int64) (src : int64) =
  let open Int64 in
  match (op : Opcode.alu_op) with
  | Opcode.Add -> add dst src
  | Opcode.Sub -> sub dst src
  | Opcode.Mul -> mul dst src
  | Opcode.Div -> unsigned_div dst src
  | Opcode.Mod -> unsigned_rem dst src
  | Opcode.Or -> logor dst src
  | Opcode.And -> logand dst src
  | Opcode.Xor -> logxor dst src
  | Opcode.Lsh -> shift_left dst (to_int (logand src 63L))
  | Opcode.Rsh -> shift_right_logical dst (to_int (logand src 63L))
  | Opcode.Arsh -> shift_right dst (to_int (logand src 63L))
  | Opcode.Neg -> neg dst
  | Opcode.Mov -> src

let[@inline] alu32_value op (dst : int64) (src : int64) =
  let open Int32 in
  let d = low32 dst and s = low32 src in
  let r =
    match (op : Opcode.alu_op) with
    | Opcode.Add -> add d s
    | Opcode.Sub -> sub d s
    | Opcode.Mul -> mul d s
    | Opcode.Div -> unsigned_div d s
    | Opcode.Mod -> unsigned_rem d s
    | Opcode.Or -> logor d s
    | Opcode.And -> logand d s
    | Opcode.Xor -> logxor d s
    | Opcode.Lsh -> shift_left d (Int64.to_int (Int64.logand src 31L))
    | Opcode.Rsh -> shift_right_logical d (Int64.to_int (Int64.logand src 31L))
    | Opcode.Arsh -> shift_right d (Int64.to_int (Int64.logand src 31L))
    | Opcode.Neg -> neg d
    | Opcode.Mov -> s
  in
  mask32 (Int64.of_int32 r)

(* A [Div]/[Mod] by this divisor faults: all 64 bits, or the low 32 for
   the 32-bit class. *)
let[@inline] zero_divisor is64 (src : int64) =
  if is64 then Int64.equal src 0L else Int64.equal (mask32 src) 0L

let alu64 pc op (dst : int64) (src : int64) =
  match (op : Opcode.alu_op) with
  | (Opcode.Div | Opcode.Mod) when zero_divisor true src ->
      Error (Fault.Division_by_zero { pc })
  | _ -> Ok (alu64_value op dst src)

let alu32 pc op (dst : int64) (src : int64) =
  match (op : Opcode.alu_op) with
  | (Opcode.Div | Opcode.Mod) when zero_divisor false src ->
      Error (Fault.Division_by_zero { pc })
  | _ -> Ok (alu32_value op dst src)

external bswap64 : int64 -> int64 = "%bswap_int64"

(* BPF_END byte-order conversion at a valid width (16, 32 or 64).  The
   host is little endian, so [Le] truncates and [Be] byte-swaps then
   truncates. *)
let[@inline] byte_swap_value endianness width (v : int64) =
  match (endianness : Opcode.endianness) with
  | Opcode.Le ->
      if Int32.equal width 16l then Int64.logand v 0xFFFFL
      else if Int32.equal width 32l then Int64.logand v 0xFFFF_FFFFL
      else v
  | Opcode.Be ->
      if Int32.equal width 16l then
        let v = Int64.to_int v in
        Int64.of_int (((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff))
      else if Int32.equal width 32l then
        let v = Int64.to_int v in
        Int64.of_int
          (((v land 0xff) lsl 24)
          lor (((v lsr 8) land 0xff) lsl 16)
          lor (((v lsr 16) land 0xff) lsl 8)
          lor ((v lsr 24) land 0xff))
      else bswap64 v

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* The kernels over a register file held 8 bytes per register in a
   [Bytes.t] (the IR constant folder's): no argument or result is an
   int64, so a call allocates nothing even where it is not inlined. *)
let alu_regs is64 op regs ~dst ~src =
  let d = get64 regs (8 * dst) and s = get64 regs (8 * src) in
  set64 regs (8 * dst)
    (if is64 then alu64_value op d s else alu32_value op d s)

let byte_swap_regs endianness ~bits regs ~dst =
  set64 regs (8 * dst)
    (byte_swap_value endianness (Int32.of_int bits) (get64 regs (8 * dst)))

let byte_swap pc endianness width (v : int64) =
  match width with
  | 16l | 32l | 64l -> Ok (byte_swap_value endianness width v)
  | _ -> Error (Fault.Nonzero_field { pc; field = "end width" })

let[@inline] condition cond is64 (dst : int64) (src : int64) =
  let open Int64 in
  if is64 then
    match (cond : Opcode.jmp_cond) with
    | Opcode.Jeq -> equal dst src
    | Opcode.Jne -> not (equal dst src)
    | Opcode.Jgt -> unsigned_compare dst src > 0
    | Opcode.Jge -> unsigned_compare dst src >= 0
    | Opcode.Jlt -> unsigned_compare dst src < 0
    | Opcode.Jle -> unsigned_compare dst src <= 0
    | Opcode.Jsgt -> compare dst src > 0
    | Opcode.Jsge -> compare dst src >= 0
    | Opcode.Jslt -> compare dst src < 0
    | Opcode.Jsle -> compare dst src <= 0
    | Opcode.Jset -> not (equal (logand dst src) 0L)
  else
    let d = low32 dst and s = low32 src in
    match (cond : Opcode.jmp_cond) with
    | Opcode.Jeq -> Int32.equal d s
    | Opcode.Jne -> not (Int32.equal d s)
    | Opcode.Jgt -> Int32.unsigned_compare d s > 0
    | Opcode.Jge -> Int32.unsigned_compare d s >= 0
    | Opcode.Jlt -> Int32.unsigned_compare d s < 0
    | Opcode.Jle -> Int32.unsigned_compare d s <= 0
    | Opcode.Jsgt -> Int32.compare d s > 0
    | Opcode.Jsge -> Int32.compare d s >= 0
    | Opcode.Jslt -> Int32.compare d s < 0
    | Opcode.Jsle -> Int32.compare d s <= 0
    | Opcode.Jset -> not (Int32.equal (Int32.logand d s) 0l)

let condition_regs cond is64 regs ~dst ~src =
  condition cond is64 (get64 regs (8 * dst)) (get64 regs (8 * src))

exception Abort of Fault.t

let[@inline] reg rf i = get64 rf (i lsl 3)
let[@inline] set_reg rf i v = set64 rf (i lsl 3) v

(* [resume ~pc t m fr] runs the fully defended loop from [pc] over the
   frame's current registers and stack and instance [m]'s stats, and
   returns r0: budget counters compared per instruction, every memory
   access resolved through the allow-list.  It resets nothing, so the
   compiled tier can hand a partly executed run over at any instruction
   boundary.  Registers stay unboxed in the frame's [rf], and every ALU,
   swap and branch step goes through the inlined value kernels above, so
   those steps allocate nothing. *)
let resume ~pc t (m : Mem.t) (fr : Frame.t) =
  let rf = fr.Frame.rf in
  let program = t.program in
  let len = Program.length program in
  let dynamic_limit = Config.dynamic_instruction_limit t.config in
  let fault f = raise (Abort f) in
  try
    let pc = ref pc in
    let running = ref true in
    while !running do
      let p = !pc in
      if p < 0 || p >= len then fault (Fault.Fall_off_end { pc = p });
      (* [p] is a slot: the reads below need no bounds check *)
      let kind = Program.unsafe_kind program p in
      let dst = Program.unsafe_dst program p in
      let src = Program.unsafe_src program p in
      (* Defensive register-range check: the verifier guarantees this for
         verified programs; it keeps even unverified garbage contained. *)
      if dst > 10 then fault (Fault.Invalid_register { pc = p; reg = dst });
      if src > 10 then fault (Fault.Invalid_register { pc = p; reg = src });
      m.Mem.insns_executed <- m.Mem.insns_executed + 1;
      if m.Mem.insns_executed > dynamic_limit then
        fault (Fault.Instruction_budget_exhausted { executed = m.Mem.insns_executed });
      m.Mem.cycles <- m.Mem.cycles + t.cycle_cost kind;
      let next = ref (p + 1) in
      (match kind with
      | Insn.Alu (is64, op, source) ->
          let s =
            match source with
            | Opcode.Src_imm -> Int64.of_int (Program.unsafe_imm program p)
            | Opcode.Src_reg -> reg rf src
          in
          (match op with
          | (Opcode.Div | Opcode.Mod) when zero_divisor is64 s ->
              fault (Fault.Division_by_zero { pc = p })
          | _ -> ());
          let d = reg rf dst in
          (* straight into [set64]: a let-bound result would be boxed *)
          set64 rf (dst lsl 3)
            (if is64 then alu64_value op d s else alu32_value op d s)
      | Insn.Load size -> (
          let off = Program.unsafe_offset program p in
          let addr = Int64.add (reg rf src) (Int64.of_int off) in
          let nbytes = Opcode.size_bytes size in
          match Mem.load m ~addr ~size:nbytes with
          | Ok v -> set_reg rf dst v
          | Error () ->
              fault
                (Fault.Memory_access
                   { pc = p; addr; size = nbytes; write = false }))
      | Insn.Store_imm size -> (
          let off = Program.unsafe_offset program p in
          let addr = Int64.add (reg rf dst) (Int64.of_int off) in
          let nbytes = Opcode.size_bytes size in
          let v = Int64.of_int (Program.unsafe_imm program p) in
          match Mem.store m ~addr ~size:nbytes v with
          | Ok () -> ()
          | Error () ->
              fault
                (Fault.Memory_access
                   { pc = p; addr; size = nbytes; write = true }))
      | Insn.Store_reg size -> (
          let off = Program.unsafe_offset program p in
          let addr = Int64.add (reg rf dst) (Int64.of_int off) in
          let nbytes = Opcode.size_bytes size in
          match Mem.store m ~addr ~size:nbytes (reg rf src) with
          | Ok () -> ()
          | Error () ->
              fault
                (Fault.Memory_access
                   { pc = p; addr; size = nbytes; write = true }))
      | Insn.Lddw_head ->
          if p + 1 >= len then fault (Fault.Truncated_lddw { pc = p })
          else begin
            set_reg rf dst (Program.lddw_imm program p);
            next := p + 2
          end
      | Insn.Lddw_tail ->
          (* Reachable only in unverified programs. *)
          fault (Fault.Invalid_opcode { pc = p; opcode = 0 })
      | Insn.End endianness -> (
          match Program.unsafe_imm program p with
          | (16 | 32 | 64) as bits ->
              set64 rf (dst lsl 3)
                (byte_swap_value endianness (Int32.of_int bits) (reg rf dst))
          | _ -> fault (Fault.Nonzero_field { pc = p; field = "end width" }))
      | Insn.Ja ->
          m.Mem.branches_taken <- m.Mem.branches_taken + 1;
          if m.Mem.branches_taken > t.config.Config.max_branches then
            fault (Fault.Branch_budget_exhausted { taken = m.Mem.branches_taken });
          next := p + 1 + Program.unsafe_offset program p
      | Insn.Jcond (is64, cond, source) ->
          let s =
            match source with
            | Opcode.Src_imm -> Int64.of_int (Program.unsafe_imm program p)
            | Opcode.Src_reg -> reg rf src
          in
          if condition cond is64 (reg rf dst) s then begin
            m.Mem.branches_taken <- m.Mem.branches_taken + 1;
            if m.Mem.branches_taken > t.config.Config.max_branches then
              fault (Fault.Branch_budget_exhausted { taken = m.Mem.branches_taken });
            next := p + 1 + Program.unsafe_offset program p
          end
      | Insn.Call -> (
          let id = Program.unsafe_imm program p in
          match Helper.find t.helpers id with
          | None -> fault (Fault.Unknown_helper { pc = p; id })
          | Some entry -> (
              m.Mem.helper_calls <- m.Mem.helper_calls + 1;
              if Obs.tracing () then
                Obs.event (fun () ->
                    Otrace.Helper_call { id; name = entry.Helper.name });
              m.Mem.cycles <- m.Mem.cycles + entry.Helper.cost_cycles;
              try entry.Helper.fn m rf
              with Helper.Error message ->
                fault (Fault.Helper_error { pc = p; id; message })))
      | Insn.Exit -> running := false
      | Insn.Invalid opcode -> fault (Fault.Invalid_opcode { pc = p; opcode }));
      pc := !next
    done;
    Ok (reg rf 0)
  with Abort f -> Error f

(* [exec_checked t ~args] executes the program from slot 0 with r1..r5
   preloaded from [args] and returns r0.  The container context pointer of
   the paper arrives in r1. *)
let exec_checked ~args t m =
  let outer = Mem.stack m in
  let fr = lend t m in
  let rf = fr.Frame.rf in
  Bytes.fill rf 0 (Bytes.length rf) '\000';
  Bytes.fill fr.Frame.stack 0 (Bytes.length fr.Frame.stack) '\000';
  (* the loop does not track its stores: the IR tier's next reset of
     this frame zeroes the whole stack *)
  fr.Frame.dirty_lo <- 0;
  fr.Frame.dirty_hi <- Bytes.length fr.Frame.stack;
  set_reg rf 10
    (Int64.add t.config.Config.stack_vaddr
       (Int64.of_int t.config.Config.stack_size));
  for i = 0 to min 5 (Array.length args) - 1 do
    set_reg rf (i + 1) args.(i)
  done;
  m.Mem.insns_executed <- 0;
  m.Mem.branches_taken <- 0;
  m.Mem.helper_calls <- 0;
  m.Mem.cycles <- 0;
  match resume ~pc:0 t m fr with
  | outcome ->
      give_back m ~outer fr;
      outcome
  | exception e ->
      give_back m ~outer fr;
      raise e

(* [run] = [exec_checked] plus observability: per-run counters fed from the
   stats record, a run-latency histogram, and (when tracing) Vm_run /
   Fault events into the global ring. *)
let run ?(args = [||]) t m =
  if not (Obs.enabled ()) then exec_checked ~args t m
  else begin
    let t0 = Obs.now_ns () in
    let outcome = exec_checked ~args t m in
    Ometrics.incr m_runs;
    Ometrics.add m_insns m.Mem.insns_executed;
    Ometrics.add m_branches m.Mem.branches_taken;
    Ometrics.add m_helper_calls m.Mem.helper_calls;
    Ometrics.add m_cycles m.Mem.cycles;
    Ometrics.observe m_run_ns (Obs.now_ns () -. t0);
    (match outcome with
    | Ok _ -> ()
    | Error f ->
        Ometrics.incr m_faults;
        Obs.event (fun () ->
            Otrace.Fault { kind = Fault.kind f; detail = Fault.to_string f }));
    Obs.event (fun () ->
        Otrace.Vm_run
          {
            insns = m.Mem.insns_executed;
            branches = m.Mem.branches_taken;
            helpers = m.Mem.helper_calls;
            cycles = m.Mem.cycles;
            ok = Result.is_ok outcome;
          });
    outcome
  end
