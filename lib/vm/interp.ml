(* The optimized Femto-Container interpreter.

   The program is pre-decoded into an array of typed instruction views at
   load time (the moral equivalent of the paper's computed jumptable: one
   dispatch on a dense constructor tag per instruction).  The interpreter
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

let fresh_stats () =
  { insns_executed = 0; branches_taken = 0; helper_calls = 0; cycles = 0 }

type t = {
  program : Program.t;
  kinds : Insn.kind array;
  config : Config.t;
  mem : Mem.t;
  stack_data : bytes;
  helpers : Helper.t;
  regs : int64 array;
  cycle_cost : Insn.kind -> int;
  stats : stats;
}

let no_cost (_ : Insn.kind) = 0

(* [create] pre-decodes the program.  The caller is expected to have run
   [Verifier.verify] first; [run] still never crashes the host on an
   unverified program — it faults instead.  [kinds], if given, must be
   the pre-decoded view of [program] — image spawns pass the shared
   array so instances skip the per-instance decode. *)
let create ?(config = Config.default) ?(cycle_cost = no_cost) ?kinds
    ~helpers ~regions program =
  let stack_data = Bytes.make config.Config.stack_size '\000' in
  let stack =
    Region.make ~name:"stack" ~vaddr:config.Config.stack_vaddr
      ~perm:Region.Read_write stack_data
  in
  let kinds =
    match kinds with
    | Some k -> k
    | None ->
        (* not [Array.map]: its young first element would seed an array
           over 256 words, which on OCaml 5 forces a minor collection *)
        let insns = Program.insns program in
        let kinds = Array.make (Array.length insns) Insn.Exit in
        Array.iteri (fun pc insn -> kinds.(pc) <- Insn.kind insn) insns;
        kinds
  in
  {
    program;
    kinds;
    config;
    mem = Mem.create (stack :: regions);
    stack_data;
    helpers;
    regs = Array.make 11 0L;
    cycle_cost;
    stats = fresh_stats ();
  }

let mem t = t.mem
let stats t = t.stats
let registers t = t.regs

(* Structural accessors for the IR backend (Compile), which shares this
   instance's memory map, stack buffer and stats record so both tiers
   observe identical state. *)
let kinds t = t.kinds
let config t = t.config
let helpers t = t.helpers
let stack_data t = t.stack_data

(* Per-instance RAM in the paper's Table 3 sense: the state one container
   instance owns — VM stack, register file, statistics, and its memory
   region table — excluding the shared bytecode and helper tables.
   Computed from the actual buffer sizes of this instance. *)
let ram_bytes t =
  let word = Sys.word_size / 8 in
  let stack = Bytes.length t.stack_data in
  let regs = 11 * 8 in
  let stats_struct = 5 * word in
  let region_table =
    List.fold_left
      (fun acc (_ : Region.t) -> acc + (6 * word))
      (2 * word) (Mem.regions t.mem)
  in
  stack + regs + stats_struct + region_table

let reset t =
  Array.fill t.regs 0 11 0L;
  Bytes.fill t.stack_data 0 (Bytes.length t.stack_data) '\000';
  t.regs.(10) <-
    Int64.add t.config.Config.stack_vaddr
      (Int64.of_int t.config.Config.stack_size)

let mask32 v = Int64.logand v 0xFFFF_FFFFL
let low32 v = Int64.to_int32 v

let alu64 pc op (dst : int64) (src : int64) =
  let open Int64 in
  match (op : Opcode.alu_op) with
  | Opcode.Add -> Ok (add dst src)
  | Opcode.Sub -> Ok (sub dst src)
  | Opcode.Mul -> Ok (mul dst src)
  | Opcode.Div ->
      if equal src 0L then Error (Fault.Division_by_zero { pc })
      else Ok (unsigned_div dst src)
  | Opcode.Mod ->
      if equal src 0L then Error (Fault.Division_by_zero { pc })
      else Ok (unsigned_rem dst src)
  | Opcode.Or -> Ok (logor dst src)
  | Opcode.And -> Ok (logand dst src)
  | Opcode.Xor -> Ok (logxor dst src)
  | Opcode.Lsh -> Ok (shift_left dst (to_int (logand src 63L)))
  | Opcode.Rsh -> Ok (shift_right_logical dst (to_int (logand src 63L)))
  | Opcode.Arsh -> Ok (shift_right dst (to_int (logand src 63L)))
  | Opcode.Neg -> Ok (neg dst)
  | Opcode.Mov -> Ok src

let alu32 pc op (dst : int64) (src : int64) =
  let open Int32 in
  let d = low32 dst and s = low32 src in
  let ok v = Ok (mask32 (Int64.of_int32 v)) in
  match (op : Opcode.alu_op) with
  | Opcode.Add -> ok (add d s)
  | Opcode.Sub -> ok (sub d s)
  | Opcode.Mul -> ok (mul d s)
  | Opcode.Div ->
      if equal s 0l then Error (Fault.Division_by_zero { pc })
      else ok (unsigned_div d s)
  | Opcode.Mod ->
      if equal s 0l then Error (Fault.Division_by_zero { pc })
      else ok (unsigned_rem d s)
  | Opcode.Or -> ok (logor d s)
  | Opcode.And -> ok (logand d s)
  | Opcode.Xor -> ok (logxor d s)
  | Opcode.Lsh -> ok (shift_left d (Int64.to_int (Int64.logand src 31L)))
  | Opcode.Rsh -> ok (shift_right_logical d (Int64.to_int (Int64.logand src 31L)))
  | Opcode.Arsh -> ok (shift_right d (Int64.to_int (Int64.logand src 31L)))
  | Opcode.Neg -> ok (neg d)
  | Opcode.Mov -> ok s

(* BPF_END byte-order conversion.  The host is little endian, so [Le]
   truncates and [Be] byte-swaps then truncates. *)
let byte_swap pc endianness width (v : int64) =
  let swap16 v =
    let v = Int64.to_int v in
    Int64.of_int (((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff))
  in
  let swap32 v =
    let b i = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
    Int64.of_int ((b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3)
  in
  let swap64 v =
    let b i = Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL in
    let acc = ref 0L in
    for i = 0 to 7 do
      acc := Int64.logor (Int64.shift_left !acc 8) (b i)
    done;
    !acc
  in
  match (endianness, width) with
  | Opcode.Le, 16l -> Ok (Int64.logand v 0xFFFFL)
  | Opcode.Le, 32l -> Ok (Int64.logand v 0xFFFF_FFFFL)
  | Opcode.Le, 64l -> Ok v
  | Opcode.Be, 16l -> Ok (swap16 (Int64.logand v 0xFFFFL))
  | Opcode.Be, 32l -> Ok (swap32 (Int64.logand v 0xFFFF_FFFFL))
  | Opcode.Be, 64l -> Ok (swap64 v)
  | _ -> Error (Fault.Nonzero_field { pc; field = "end width" })

let condition cond is64 (dst : int64) (src : int64) =
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

exception Abort of Fault.t

(* [resume ~pc t] runs the fully defended loop from [pc] over the
   instance's current registers, stack and stats, and returns r0: budget
   counters compared per instruction, every memory access resolved
   through the allow-list.  It resets nothing, so the compiled tier can
   hand a partly executed run over at any instruction boundary. *)
let resume ~pc t =
  let regs = t.regs in
  let kinds = t.kinds in
  let insns = Program.insns t.program in
  let len = Array.length kinds in
  let stats = t.stats in
  let dynamic_limit = Config.dynamic_instruction_limit t.config in
  let fault f = raise (Abort f) in
  let sext_imm imm = Int64.of_int32 imm in
  try
    let pc = ref pc in
    let result = ref None in
    while !result = None do
      if !pc < 0 || !pc >= len then fault (Fault.Fall_off_end { pc = !pc });
      let insn = Array.unsafe_get insns !pc in
      let kind = Array.unsafe_get kinds !pc in
      (* Defensive register-range check: the verifier guarantees this for
         verified programs; it keeps even unverified garbage contained. *)
      if insn.Insn.dst > 10 then
        fault (Fault.Invalid_register { pc = !pc; reg = insn.Insn.dst });
      if insn.Insn.src > 10 then
        fault (Fault.Invalid_register { pc = !pc; reg = insn.Insn.src });
      stats.insns_executed <- stats.insns_executed + 1;
      if stats.insns_executed > dynamic_limit then
        fault (Fault.Instruction_budget_exhausted { executed = stats.insns_executed });
      stats.cycles <- stats.cycles + t.cycle_cost kind;
      let next = ref (!pc + 1) in
      (match kind with
      | Insn.Alu (is64, op, source) -> (
          let src_value =
            match source with
            | Opcode.Src_imm -> sext_imm insn.Insn.imm
            | Opcode.Src_reg -> regs.(insn.Insn.src)
          in
          let f = if is64 then alu64 else alu32 in
          match f !pc op regs.(insn.Insn.dst) src_value with
          | Ok v -> regs.(insn.Insn.dst) <- v
          | Error e -> fault e)
      | Insn.Load size -> (
          let addr = Int64.add regs.(insn.Insn.src) (Int64.of_int insn.Insn.offset) in
          let nbytes = Opcode.size_bytes size in
          match Mem.load t.mem ~addr ~size:nbytes with
          | Ok v -> regs.(insn.Insn.dst) <- v
          | Error () ->
              fault (Fault.Memory_access { pc = !pc; addr; size = nbytes; write = false }))
      | Insn.Store_imm size -> (
          let addr = Int64.add regs.(insn.Insn.dst) (Int64.of_int insn.Insn.offset) in
          let nbytes = Opcode.size_bytes size in
          match Mem.store t.mem ~addr ~size:nbytes (sext_imm insn.Insn.imm) with
          | Ok () -> ()
          | Error () ->
              fault (Fault.Memory_access { pc = !pc; addr; size = nbytes; write = true }))
      | Insn.Store_reg size -> (
          let addr = Int64.add regs.(insn.Insn.dst) (Int64.of_int insn.Insn.offset) in
          let nbytes = Opcode.size_bytes size in
          match Mem.store t.mem ~addr ~size:nbytes regs.(insn.Insn.src) with
          | Ok () -> ()
          | Error () ->
              fault (Fault.Memory_access { pc = !pc; addr; size = nbytes; write = true }))
      | Insn.Lddw_head ->
          if !pc + 1 >= len then fault (Fault.Truncated_lddw { pc = !pc })
          else begin
            let tail = insns.(!pc + 1) in
            regs.(insn.Insn.dst) <- Insn.lddw_imm ~head:insn ~tail;
            next := !pc + 2
          end
      | Insn.Lddw_tail ->
          (* Reachable only in unverified programs. *)
          fault (Fault.Invalid_opcode { pc = !pc; opcode = 0 })
      | Insn.End endianness -> (
          match byte_swap !pc endianness insn.Insn.imm regs.(insn.Insn.dst) with
          | Ok v -> regs.(insn.Insn.dst) <- v
          | Error e -> fault e)
      | Insn.Ja ->
          stats.branches_taken <- stats.branches_taken + 1;
          if stats.branches_taken > t.config.Config.max_branches then
            fault (Fault.Branch_budget_exhausted { taken = stats.branches_taken });
          next := !pc + 1 + insn.Insn.offset
      | Insn.Jcond (is64, cond, source) ->
          let src_value =
            match source with
            | Opcode.Src_imm -> sext_imm insn.Insn.imm
            | Opcode.Src_reg -> regs.(insn.Insn.src)
          in
          if condition cond is64 regs.(insn.Insn.dst) src_value then begin
            stats.branches_taken <- stats.branches_taken + 1;
            if stats.branches_taken > t.config.Config.max_branches then
              fault (Fault.Branch_budget_exhausted { taken = stats.branches_taken });
            next := !pc + 1 + insn.Insn.offset
          end
      | Insn.Call -> (
          let id = Int32.to_int insn.Insn.imm in
          match Helper.find t.helpers id with
          | None -> fault (Fault.Unknown_helper { pc = !pc; id })
          | Some entry -> (
              stats.helper_calls <- stats.helper_calls + 1;
              Obs.event (fun () ->
                  Otrace.Helper_call { id; name = entry.Helper.name });
              stats.cycles <- stats.cycles + entry.Helper.cost_cycles;
              let args =
                {
                  Helper.a1 = regs.(1);
                  a2 = regs.(2);
                  a3 = regs.(3);
                  a4 = regs.(4);
                  a5 = regs.(5);
                }
              in
              match entry.Helper.fn t.mem args with
              | Ok r0 -> regs.(0) <- r0
              | Error message ->
                  fault (Fault.Helper_error { pc = !pc; id; message })))
      | Insn.Exit -> result := Some regs.(0)
      | Insn.Invalid opcode -> fault (Fault.Invalid_opcode { pc = !pc; opcode }));
      (match !result with None -> pc := !next | Some _ -> ())
    done;
    match !result with Some r0 -> Ok r0 | None -> assert false
  with Abort f -> Error f

(* [exec_checked t ~args] executes the program from slot 0 with r1..r5
   preloaded from [args] and returns r0.  The container context pointer of
   the paper arrives in r1. *)
let exec_checked ~args t =
  reset t;
  Array.iteri (fun i v -> if i < 5 then t.regs.(i + 1) <- v) args;
  let stats = t.stats in
  stats.insns_executed <- 0;
  stats.branches_taken <- 0;
  stats.helper_calls <- 0;
  stats.cycles <- 0;
  resume ~pc:0 t

(* [run] = [exec_checked] plus observability: per-run counters fed from the
   stats record, a run-latency histogram, and (when tracing) Vm_run /
   Fault events into the global ring. *)
let run ?(args = [||]) t =
  if not (Obs.enabled ()) then exec_checked ~args t
  else begin
    let t0 = Obs.now_ns () in
    let outcome = exec_checked ~args t in
    let stats = t.stats in
    Ometrics.incr m_runs;
    Ometrics.add m_insns stats.insns_executed;
    Ometrics.add m_branches stats.branches_taken;
    Ometrics.add m_helper_calls stats.helper_calls;
    Ometrics.add m_cycles stats.cycles;
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
            insns = stats.insns_executed;
            branches = stats.branches_taken;
            helpers = stats.helper_calls;
            cycles = stats.cycles;
            ok = Result.is_ok outcome;
          });
    outcome
  end
