(* Pre-flight instruction checker.

   Runs once, before a program is executed for the first time (paper §7,
   "Pre-flight instruction checks").  After a program passes, the
   interpreter can trust:
     - every opcode decodes to a known instruction;
     - register fields are in range and r10 is never written;
     - every jump lands on a real instruction inside the program (never on
       the second slot of an lddw pair);
     - every lddw pair is complete and well formed;
     - execution cannot fall off the end (last slot is exit or ja);
     - reserved fields are zero (catches relocation/toolchain bugs and
       removes hidden state from the bytecode);
     - the program fits the static instruction budget N_i. *)

open Femto_ebpf

type ok = { insn_count : int; branch_count : int; call_ids : int list }

let writes_dst = function
  | Insn.Alu _ | Insn.Load _ | Insn.Lddw_head | Insn.End _ -> true
  | Insn.Store_imm _ | Insn.Store_reg _ | Insn.Ja | Insn.Jcond _ | Insn.Call
  | Insn.Exit | Insn.Lddw_tail | Insn.Invalid _ ->
      false

let is_branch = function
  | Insn.Ja | Insn.Jcond _ -> true
  | Insn.Alu _ | Insn.Load _ | Insn.Store_imm _ | Insn.Store_reg _
  | Insn.Lddw_head | Insn.Lddw_tail | Insn.End _ | Insn.Call | Insn.Exit
  | Insn.Invalid _ ->
      false

let check_registers program pc kind =
  let dst = Program.dst program pc and src = Program.src program pc in
  if dst > 10 then Error (Fault.Invalid_register { pc; reg = dst })
  else if src > 10 then Error (Fault.Invalid_register { pc; reg = src })
  else if dst = 10 && writes_dst kind then
    Error (Fault.Readonly_register { pc })
  else Ok ()

(* Reserved fields must be zero: offset on ALU/call/exit, src on
   immediate-source forms, imm on register-source forms. *)
let check_reserved program pc kind =
  let fail field = Error (Fault.Nonzero_field { pc; field }) in
  let dst = Program.dst program pc and src = Program.src program pc in
  let offset = Program.offset program pc and imm = Program.imm program pc in
  match kind with
  | Insn.Alu (_, _, Opcode.Src_imm) ->
      if offset <> 0 then fail "offset"
      else if src <> 0 then fail "src"
      else Ok ()
  | Insn.Alu (_, _, Opcode.Src_reg) ->
      if offset <> 0 then fail "offset"
      else if imm <> 0 then fail "imm"
      else Ok ()
  | Insn.Jcond (_, _, Opcode.Src_imm) -> if src <> 0 then fail "src" else Ok ()
  | Insn.Jcond (_, _, Opcode.Src_reg) -> if imm <> 0 then fail "imm" else Ok ()
  | Insn.Ja ->
      if dst <> 0 then fail "dst"
      else if src <> 0 then fail "src"
      else if imm <> 0 then fail "imm"
      else Ok ()
  | Insn.Call ->
      if dst <> 0 then fail "dst"
      else if src <> 0 then fail "src"
      else if offset <> 0 then fail "offset"
      else Ok ()
  | Insn.Exit ->
      if dst <> 0 then fail "dst"
      else if src <> 0 then fail "src"
      else if offset <> 0 then fail "offset"
      else if imm <> 0 then fail "imm"
      else Ok ()
  | Insn.End _ ->
      if offset <> 0 then fail "offset"
      else if src <> 0 then fail "src"
      else if imm <> 16 && imm <> 32 && imm <> 64 then fail "end width"
      else Ok ()
  | Insn.Load _ -> if imm <> 0 then fail "imm" else Ok ()
  | Insn.Store_imm _ -> if src <> 0 then fail "src" else Ok ()
  | Insn.Store_reg _ -> if imm <> 0 then fail "imm" else Ok ()
  | Insn.Lddw_head ->
      if offset <> 0 || src <> 0 then fail "lddw head" else Ok ()
  | Insn.Lddw_tail | Insn.Invalid _ -> Ok ()

exception Reject of Fault.t

let reject_on = function Ok () -> () | Error f -> raise (Reject f)

(* [verify ?helpers config program] returns static counts on success or
   the first fault found, in slot order: one sweep marks lddw tails, a
   second checks every executable slot, then the end of the program.  A
   fault aborts through [Reject], so an accepted program allocates
   nothing per slot. *)
let verify ?helpers (config : Config.t) program =
  let len = Program.length program in
  if len = 0 then Error Fault.Empty_program
  else if len > config.max_insns then
    Error (Fault.Program_too_long { len; max = config.max_insns })
  else
    try
      (* First sweep: identify lddw tails so jump-target checks can
         refuse them. *)
      let is_tail = Array.make len false in
      let pc = ref 0 in
      while !pc < len do
        let p = !pc in
        match Program.kind program p with
        | Insn.Lddw_head ->
            if p + 1 >= len then
              raise (Reject (Fault.Truncated_lddw { pc = p }));
            let tail = p + 1 in
            if
              Program.opcode program tail <> 0
              || Program.dst program tail <> 0
              || Program.src program tail <> 0
              || Program.offset program tail <> 0
            then raise (Reject (Fault.Malformed_lddw_tail { pc = tail }));
            is_tail.(tail) <- true;
            pc := p + 2
        | _ -> pc := p + 1
      done;
      let branch_count = ref 0 in
      let call_ids = ref [] in
      let check_jump pc =
        let target = pc + 1 + Program.offset program pc in
        if target < 0 || target >= len then
          raise (Reject (Fault.Bad_jump { pc; target }));
        (* An orphan tail-shaped slot (opcode 0, any imm) is not marked
           by the lddw sweep because no head precedes it, so [is_tail]
           misses it — notably when it sits at [len-1] and the jump is
           the last executable slot.  Reject it at the jump site rather
           than relying on the per-slot sweep to flag the slot itself. *)
        if is_tail.(target) || Program.opcode program target = 0 then
          raise (Reject (Fault.Jump_to_lddw_tail { pc; target }))
      in
      for pc = 0 to len - 1 do
        if not is_tail.(pc) then begin
          let kind = Program.kind program pc in
          (match kind with
          | Insn.Invalid opcode ->
              raise (Reject (Fault.Invalid_opcode { pc; opcode }))
          | _ -> ());
          reject_on (check_registers program pc kind);
          reject_on (check_reserved program pc kind);
          match kind with
          | Insn.Ja | Insn.Jcond _ ->
              incr branch_count;
              check_jump pc
          | Insn.Call -> (
              let id = Program.imm program pc in
              call_ids := id :: !call_ids;
              match helpers with
              | Some registry when not (Helper.mem registry id) ->
                  raise (Reject (Fault.Unknown_helper { pc; id }))
              | _ -> ())
          | _ -> ()
        end
      done;
      (* No fall-through past the end: the last executable slot must be
         exit or an unconditional jump. *)
      let last = len - 1 in
      let last_exec = if is_tail.(last) then last - 1 else last in
      (match Program.kind program last_exec with
      | Insn.Exit | Insn.Ja -> ()
      | _ -> raise (Reject (Fault.Bad_end_instruction { pc = last_exec })));
      Ok
        {
          insn_count = len;
          branch_count = !branch_count;
          call_ids = List.rev !call_ids;
        }
    with Reject fault -> Error fault
