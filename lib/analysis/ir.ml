(* Superblock construction: verified bytecode -> register IR.

   Superblock heads are the entry slot and every in-range jump target;
   unlike [Cfg] leaders, the slot after a conditional branch does NOT
   start a new block — the branch becomes a *side exit* step and the
   block extends across it, so straight-line runs with untaken branches
   execute as one specialized closure.  A block ends at an unconditional
   transfer ([ja]/[exit]), at the next head, or at the end of the code
   array.

   Lifting is total and fault-faithful: malformed or statically-faulting
   instructions lift to [Trap]/[Trap_pre] steps carrying the exact
   decoded-tier fault payload, and jumps whose target lies outside the
   code array keep the target pc so the backend reproduces
   [Fall_off_end] identically.  Each step records the [weight] (decoded
   instructions it stands for: an lddw pair is ONE — the tail is never
   executed) and the cycle-model [cost] the decoded tier would charge,
   so batched accounting is bit-exact.

   The IR is built flat first.  [lift_into] writes each step, and then
   its block's terminator, as one *entry* across a [scratch]'s arrays.
   A [Slot] entry stands for its slot's own operation, read in place
   from the program — registers, offset, width, condition, helper id and
   analyzer fact — with what a pass may rewrite held in the entry: the
   ALU op, whether the operand is a register or the int64 immediate in
   [imm] (unboxed, 8 bytes per entry), and the memory check.  The passes
   ([Passes]) rewrite entries in place and [to_program] builds each
   [Vir.step] once, from the entries that survive.  Each domain owns one
   scratch and reuses it, so a lift allocates nothing of its own. *)

open Femto_ebpf
module Vir = Femto_vm.Ir
module Fault = Femto_vm.Fault

(* Per-instruction analyzer facts consumed by lifting; produced by
   [Analysis.analyze] ([outcome.mem_facts]). *)
type facts = Vir.mem_fact option array

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* Steps, then terminators.  A [Fall]'s pc is the slot it falls into; a
   trap and its block's [Halt] carry the same [fault]. *)
type tag = Slot | Nop | Movk | Trap | Trap_pre | Exit | Jump | Fall | Halt

(* A memory access's check, as the bounds pass decided it. *)
type check = Checked | Elided | Hoisted

(* Block [b] is the [len.(b)] step entries from [first.(b)], then its
   terminator entry. *)
type scratch = {
  mutable program : Program.t;
  mutable entries : int;
  mutable tag : tag array;
  mutable pc : int array;
  mutable weight : int array;
  mutable cost : int array;
  mutable aop : Opcode.alu_op array;
  mutable by_reg : bool array;  (** operand is the slot's [src] *)
  mutable check : check array;
  mutable fault : Fault.t array;
  mutable imm : Bytes.t;
  mutable blocks : int;
  mutable first : int array;
  mutable len : int array;
  mutable block_of_head : int array;  (** by pc; -1 off heads *)
  cost_of_opcode : int array;
      (** the lift's [cost] by opcode byte (which fixes the kind), -1
          until first asked *)
  consts : Bytes.t;
      (** the constant folder's register file, 8 bytes per register:
          r0..r10, then [operand_slot] *)
}

let operand_slot = 11

let key =
  Domain.DLS.new_key (fun () ->
      {
        program = Program.of_string "";
        entries = 0;
        tag = [||];
        pc = [||];
        weight = [||];
        cost = [||];
        aop = [||];
        by_reg = [||];
        check = [||];
        fault = [||];
        imm = Bytes.empty;
        blocks = 0;
        first = [||];
        len = [||];
        block_of_head = [||];
        cost_of_opcode = Array.make 256 (-1);
        consts = Bytes.create (8 * (operand_slot + 1));
      })

let scratch () = Domain.DLS.get key

(* Room for [n] entries (and blocks and slots), keeping what is there. *)
let grow s n =
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  s.tag <- extend s.tag Nop;
  s.pc <- extend s.pc 0;
  s.weight <- extend s.weight 0;
  s.cost <- extend s.cost 0;
  s.aop <- extend s.aop Opcode.Add;
  s.by_reg <- extend s.by_reg false;
  s.check <- extend s.check Checked;
  s.fault <- extend s.fault Fault.Empty_program;
  s.imm <- Bytes.extend s.imm 0 ((8 * n) - Bytes.length s.imm);
  s.first <- extend s.first 0;
  s.len <- extend s.len 0;
  s.block_of_head <- extend s.block_of_head 0

let add s tag ~pc ~weight ~cost =
  let e = s.entries in
  (* a verified program's blocks cover disjoint slot ranges, so [n]
     slots need at most [2n] entries; a jump onto an lddw tail in
     unverified input can make blocks overlap *)
  if e = Array.length s.tag then grow s (max 16 (2 * e));
  s.tag.(e) <- tag;
  s.pc.(e) <- pc;
  s.weight.(e) <- weight;
  s.cost.(e) <- cost;
  s.entries <- e + 1;
  e

let halt s ~pc fault = s.fault.(add s Halt ~pc ~weight:0 ~cost:0) <- fault

(* A fault step ends its block; [Trap_pre] faults before its own
   accounting (decoded register-range check). *)
let trap s tag ~pc ~cost fault =
  let weight = if tag = Trap_pre then 0 else 1 in
  s.fault.(add s tag ~pc ~weight ~cost) <- fault;
  halt s ~pc fault;
  -1

(* Lift slot [p] of the block headed at [head]: the next slot to lift,
   or -1 once the block has its terminator. *)
let lift_slot s ~cost ~len ~head program p =
  if p >= len then begin
    halt s ~pc:p (Fault.Fall_off_end { pc = p });
    -1
  end
  else if p <> head && s.block_of_head.(p) >= 0 then begin
    ignore (add s Fall ~pc:p ~weight:0 ~cost:0);
    -1
  end
  else
    let kind = Program.kind program p in
    let dst = Program.dst program p and src = Program.src program p in
    let op = Program.opcode program p in
    if s.cost_of_opcode.(op) < 0 then s.cost_of_opcode.(op) <- cost kind;
    let c = s.cost_of_opcode.(op) and imm = Program.imm program p in
    match kind with
    | _ when dst > 10 || src > 10 ->
        let reg = if dst > 10 then dst else src in
        trap s Trap_pre ~pc:p ~cost:0 (Fault.Invalid_register { pc = p; reg })
    | Insn.Alu (is64, (Opcode.Div | Opcode.Mod), Opcode.Src_imm)
      when Femto_vm.Interp.zero_divisor is64 (Int64.of_int imm) ->
        trap s Trap ~pc:p ~cost:c (Fault.Division_by_zero { pc = p })
    | Insn.End _ when imm <> 16 && imm <> 32 && imm <> 64 ->
        trap s Trap ~pc:p ~cost:c
          (Fault.Nonzero_field { pc = p; field = "end width" })
    | Insn.Alu _ | Insn.Load _ | Insn.Store_imm _ | Insn.Store_reg _
    | Insn.End _ | Insn.Jcond _ | Insn.Call ->
        let e = add s Slot ~pc:p ~weight:1 ~cost:c in
        s.aop.(e) <-
          (match kind with Insn.Alu (_, op, _) -> op | _ -> Opcode.Add);
        s.by_reg.(e) <-
          (match kind with
          | Insn.Alu (_, _, Opcode.Src_reg)
          | Insn.Jcond (_, _, Opcode.Src_reg)
          | Insn.Store_reg _ ->
              true
          | _ -> false);
        s.check.(e) <- Checked;
        set64 s.imm (8 * e) (Int64.of_int imm);
        p + 1
    | Insn.Lddw_head when p + 1 >= len ->
        trap s Trap ~pc:p ~cost:c (Fault.Truncated_lddw { pc = p })
    | Insn.Lddw_head ->
        let e = add s Movk ~pc:p ~weight:1 ~cost:c in
        set64 s.imm (8 * e) (Program.lddw_imm program p);
        (* the tail slot is consumed, never executed *)
        p + 2
    | Insn.Lddw_tail ->
        (* reachable only by a direct jump in unverified input *)
        trap s Trap ~pc:p ~cost:c (Fault.Invalid_opcode { pc = p; opcode = 0 })
    | Insn.Invalid opcode ->
        trap s Trap ~pc:p ~cost:c (Fault.Invalid_opcode { pc = p; opcode })
    | Insn.Ja | Insn.Exit ->
        let tag = match kind with Insn.Ja -> Jump | _ -> Exit in
        ignore (add s tag ~pc:p ~weight:1 ~cost:c);
        -1

let lift_into s ~cost program =
  let len = Program.length program in
  s.program <- program;
  s.entries <- 0;
  if Array.length s.tag < 2 * len then grow s (2 * len);
  Array.fill s.cost_of_opcode 0 256 (-1);
  let boh = s.block_of_head in
  (* Head marking: slot 0 plus every in-range jump target.  A target
     inside an lddw pair stays a head (possible only pre-verification):
     the block lifted there traps exactly like the decoded tier.  Lddw
     tails never start a block on fall-through; they are absorbed into
     the head's [Movk]. *)
  Array.fill boh 0 len (-1);
  if len > 0 then boh.(0) <- 0;
  for pc = 0 to len - 1 do
    match Program.kind program pc with
    | Insn.Ja | Insn.Jcond _ ->
        let target = pc + 1 + Program.offset program pc in
        if target >= 0 && target < len then boh.(target) <- 0
    | _ -> ()
  done;
  s.blocks <- 0;
  for head = 0 to len - 1 do
    if boh.(head) >= 0 then begin
      let b = s.blocks in
      boh.(head) <- b;
      s.blocks <- b + 1;
      s.first.(b) <- s.entries;
      let p = ref head in
      while !p >= 0 do
        p := lift_slot s ~cost ~len ~head program !p
      done;
      s.len.(b) <- s.entries - s.first.(b) - 1
    end
  done

(* ------------------------------------------------------------------ *)
(* Building the [Vir] program from the entries.                       *)

let dest_of s target =
  if target >= 0 && target < Program.length s.program then
    Vir.Block s.block_of_head.(target)
  else Vir.Out_of_range target

let operand s e =
  if s.by_reg.(e) then Vir.Reg (Program.src s.program s.pc.(e))
  else Vir.Imm (get64 s.imm (8 * e))

let fact_of s (facts : facts) e =
  let pc = s.pc.(e) in
  if pc < Array.length facts then facts.(pc) else None

let op_of s ~facts e =
  let pc = s.pc.(e) and program = s.program in
  let dst = Program.dst program pc and off = Program.offset program pc in
  let elide = s.check.(e) = Elided and hoist = s.check.(e) = Hoisted in
  match (s.tag.(e), Program.kind program pc) with
  | Nop, _ -> Vir.Nop
  | Movk, _ -> Vir.Movk { dst; v = get64 s.imm (8 * e) }
  | Trap, _ -> Vir.Trap s.fault.(e)
  | Trap_pre, _ -> Vir.Trap_pre s.fault.(e)
  | Slot, Insn.Alu (is64, _, _) ->
      Vir.Alu { is64; op = s.aop.(e); dst; src = operand s e }
  | Slot, Insn.Load size ->
      let base = Program.src program pc and fact = fact_of s facts e in
      let nbytes = Opcode.size_bytes size in
      Vir.Load { dst; base; off; nbytes; fact; elide; hoist }
  | Slot, (Insn.Store_imm size | Insn.Store_reg size) ->
      let v = operand s e and fact = fact_of s facts e in
      let nbytes = Opcode.size_bytes size in
      Vir.Store { base = dst; off; nbytes; v; fact; elide; hoist }
  | Slot, Insn.End endianness ->
      let width = Int32.of_int (Program.imm program pc) in
      Vir.Swap { dst; endianness; width }
  | Slot, Insn.Call -> Vir.Call { id = Program.imm program pc }
  | Slot, Insn.Jcond (is64, cond, _) ->
      let dest = dest_of s (pc + 1 + off) in
      Vir.Jcond { is64; cond; dst; src = operand s e; dest }
  | _ -> invalid_arg "Ir.op_of: not a step"

let term_of s e =
  let pc = s.pc.(e) and weight = s.weight.(e) and cost = s.cost.(e) in
  match s.tag.(e) with
  | Exit -> Vir.Exit { pc; weight; cost }
  | Jump ->
      let dest = dest_of s (pc + 1 + Program.offset s.program pc) in
      Vir.Jump { pc; weight; cost; dest }
  | Fall -> Vir.Fall { dest = s.block_of_head.(pc) }
  | Halt -> Vir.Halt s.fault.(e)
  | _ -> invalid_arg "Ir.term_of: a block without its terminator"

(* Static seeds for the arrays built below: on OCaml 5 an [Array.make]
   over 256 words with a young seed forces a minor collection. *)
let static_step = { Vir.pc = 0; weight = 0; cost = 0; op = Vir.Nop }

let static_block =
  {
    Vir.id = 0;
    head = 0;
    steps = [||];
    term = Vir.Fall { dest = 0 };
    weight = 0;
    branch = false;
  }

let to_program s ~facts : Vir.program =
  let blocks = Array.make s.blocks static_block in
  for b = 0 to s.blocks - 1 do
    let first = s.first.(b) and n = s.len.(b) in
    let term = first + n in
    let steps = Array.make n static_step in
    let branch = ref (s.tag.(term) = Jump) in
    let weight =
      ref (match s.tag.(term) with Exit | Jump -> s.weight.(term) | _ -> 0)
    in
    for k = 0 to n - 1 do
      let e = first + k in
      let op = op_of s ~facts e in
      weight := !weight + s.weight.(e);
      branch := !branch || (match op with Vir.Jcond _ -> true | _ -> false);
      steps.(k) <-
        { Vir.pc = s.pc.(e); weight = s.weight.(e); cost = s.cost.(e); op }
    done;
    let head = s.pc.(first) and term = term_of s term in
    blocks.(b) <-
      { Vir.id = b; head; steps; term; weight = !weight; branch = !branch }
  done;
  { Vir.blocks; source_len = Program.length s.program }
