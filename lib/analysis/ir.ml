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
   so batched accounting is bit-exact. *)

open Femto_ebpf
module Vir = Femto_vm.Ir
module Fault = Femto_vm.Fault

type t = Vir.program

(* Per-instruction analyzer facts consumed by lifting; produced by
   [Analysis.analyze] ([outcome.mem_facts]). *)
type facts = Vir.mem_fact option array

(* A static placeholder to seed step arrays with.  [Array.of_list] seeds
   with the list's first (young) element, and on OCaml 5 an [Array.make]
   over 256 words with a young seed forces a minor collection first,
   promoting every step built so far. *)
let no_step = { Vir.pc = 0; weight = 0; cost = 0; op = Vir.Nop }

let array_of_rev_list rev =
  let n = List.length rev in
  let a = Array.make n no_step in
  List.iteri (fun i s -> a.(n - 1 - i) <- s) rev;
  a

let lift ~cost ~(facts : facts) program : Vir.program =
  let len = Program.length program in
  let fact pc = if pc < Array.length facts then facts.(pc) else None in
  (* Head marking: slot 0 plus every in-range jump target.  A target
     inside an lddw pair stays a head (possible only pre-verification):
     the block lifted there traps exactly like the decoded tier. *)
  let heads = Array.make (max len 1) false in
  if len > 0 then heads.(0) <- true;
  for pc = 0 to len - 1 do
    match Program.kind program pc with
    | Insn.Ja | Insn.Jcond _ ->
        let target = pc + 1 + Program.offset program pc in
        if target >= 0 && target < len then heads.(target) <- true
    | _ -> ()
  done;
  (* Lddw tails never start a block on fall-through; they are absorbed
     into the head's [Movk].  (A direct jump target remains a head.) *)
  let block_of_head = Array.make (max len 1) (-1) in
  let nblocks = ref 0 in
  for pc = 0 to len - 1 do
    if heads.(pc) then begin
      block_of_head.(pc) <- !nblocks;
      incr nblocks
    end
  done;
  let dest_of target =
    if target >= 0 && target < len then Vir.Block block_of_head.(target)
    else Vir.Out_of_range target
  in
  let lift_block head =
    let steps = ref [] in
    let term = ref None in
    let push s = steps := s :: !steps in
    let trap ~pre pc c f =
      (* fault step: [pre] faults before its own accounting (decoded
         register-range check), otherwise after *)
      push
        {
          Vir.pc;
          weight = (if pre then 0 else 1);
          cost = (if pre then 0 else c);
          op = (if pre then Vir.Trap_pre f else Vir.Trap f);
        };
      term := Some (Vir.Halt f)
    in
    let pc = ref head in
    while !term = None do
      let p = !pc in
      if p >= len then term := Some (Vir.Halt (Fault.Fall_off_end { pc = p }))
      else if p <> head && heads.(p) then
        term := Some (Vir.Fall { dest = block_of_head.(p) })
      else begin
        let kind = Program.kind program p in
        let dst = Program.dst program p and src = Program.src program p in
        let offset = Program.offset program p and imm = Program.imm program p in
        let c = cost kind in
        let step op = push { Vir.pc = p; weight = 1; cost = c; op } in
        if dst > 10 then
          trap ~pre:true p c (Fault.Invalid_register { pc = p; reg = dst })
        else if src > 10 then
          trap ~pre:true p c (Fault.Invalid_register { pc = p; reg = src })
        else begin
          (match kind with
          | Insn.Alu (is64, op, source) -> (
              let src =
                match source with
                | Opcode.Src_imm -> Vir.Imm (Int64.of_int imm)
                | Opcode.Src_reg -> Vir.Reg src
              in
              match (op, src) with
              | (Opcode.Div | Opcode.Mod), Vir.Imm v
                when (if is64 then Int64.equal v 0L
                      else Int64.equal (Int64.logand v 0xFFFF_FFFFL) 0L) ->
                  trap ~pre:false p c (Fault.Division_by_zero { pc = p })
              | _ -> step (Vir.Alu { is64; op; dst; src }))
          | Insn.Load size ->
              step
                (Vir.Load
                   {
                     dst;
                     base = src;
                     off = offset;
                     nbytes = Opcode.size_bytes size;
                     fact = fact p;
                     elide = false;
                     hoist = false;
                   })
          | Insn.Store_imm size ->
              step
                (Vir.Store
                   {
                     base = dst;
                     off = offset;
                     nbytes = Opcode.size_bytes size;
                     v = Vir.Imm (Int64.of_int imm);
                     fact = fact p;
                     elide = false;
                     hoist = false;
                   })
          | Insn.Store_reg size ->
              step
                (Vir.Store
                   {
                     base = dst;
                     off = offset;
                     nbytes = Opcode.size_bytes size;
                     v = Vir.Reg src;
                     fact = fact p;
                     elide = false;
                     hoist = false;
                   })
          | Insn.Lddw_head ->
              if p + 1 >= len then
                trap ~pre:false p c (Fault.Truncated_lddw { pc = p })
              else begin
                step
                  (Vir.Movk
                     {
                       dst;
                       v = Program.lddw_imm program p;
                     });
                (* the tail slot is consumed, never executed *)
                incr pc
              end
          | Insn.Lddw_tail ->
              (* reachable only by a direct jump in unverified input *)
              trap ~pre:false p c (Fault.Invalid_opcode { pc = p; opcode = 0 })
          | Insn.End endianness -> (
              match imm with
              | 16 | 32 | 64 ->
                  step (Vir.Swap { dst; endianness; width = Int32.of_int imm })
              | _ ->
                  trap ~pre:false p c
                    (Fault.Nonzero_field { pc = p; field = "end width" }))
          | Insn.Ja ->
              term :=
                Some
                  (Vir.Jump
                     {
                       pc = p;
                       weight = 1;
                       cost = c;
                       dest = dest_of (p + 1 + offset);
                     })
          | Insn.Jcond (is64, cond, source) ->
              let src =
                match source with
                | Opcode.Src_imm -> Vir.Imm (Int64.of_int imm)
                | Opcode.Src_reg -> Vir.Reg src
              in
              step
                (Vir.Jcond
                   {
                     is64;
                     cond;
                     dst;
                     src;
                     dest = dest_of (p + 1 + offset);
                   })
          | Insn.Call -> step (Vir.Call { id = imm })
          | Insn.Exit -> term := Some (Vir.Exit { pc = p; weight = 1; cost = c })
          | Insn.Invalid opcode ->
              trap ~pre:false p c (Fault.Invalid_opcode { pc = p; opcode }));
          incr pc
        end
      end
    done;
    (array_of_rev_list !steps, Option.get !term)
  in
  let blocks =
    Array.make !nblocks
      {
        Vir.id = 0;
        head = 0;
        steps = [||];
        term = Vir.Halt (Fault.Fall_off_end { pc = 0 });
        weight = 0;
        branch = false;
      }
  in
  for head = 0 to len - 1 do
    if heads.(head) then begin
      let id = block_of_head.(head) in
      let steps, term = lift_block head in
      let weight =
        Array.fold_left (fun w (s : Vir.step) -> w + s.Vir.weight) 0 steps
        + (match term with
          | Vir.Exit { weight; _ } | Vir.Jump { weight; _ } -> weight
          | Vir.Fall _ | Vir.Halt _ -> 0)
      in
      let branch =
        (match term with Vir.Jump _ -> true | _ -> false)
        || Array.exists
             (fun (s : Vir.step) ->
               match s.Vir.op with Vir.Jcond _ -> true | _ -> false)
             steps
      in
      blocks.(id) <- { Vir.id; head; steps; term; weight; branch }
    end
  done;
  { Vir.blocks; source_len = len }
