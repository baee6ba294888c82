(* CertFC pre-flight checker.

   The verified artefact in the paper covers both the instruction checker
   and the interpreter.  This module is the checker half: a pure recursive
   sweep over the program, written in the proof-model style (explicit
   result monad, no mutation, no exceptions).  It establishes the same
   invariants as [Femto_vm.Verifier] — the two are compared against each
   other by property tests. *)

open Femto_ebpf
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config

let ( let* ) = Result.bind

type analysis = { branch_count : int; lddw_tails : bool list }

(* Pure first sweep: compute the list of lddw-tail flags. *)
let rec tails_from program pc len acc =
  if pc >= len then Ok (List.rev acc)
  else
    match Program.kind program pc with
    | Insn.Lddw_head ->
        if pc + 1 >= len then Error (Fault.Truncated_lddw { pc })
        else
          let tail = pc + 1 in
          if
            Program.opcode program tail <> 0
            || Program.dst program tail <> 0
            || Program.src program tail <> 0
            || Program.offset program tail <> 0
          then Error (Fault.Malformed_lddw_tail { pc = tail })
          else tails_from program (pc + 2) len (true :: false :: acc)
    | _ -> tails_from program (pc + 1) len (false :: acc)

let is_tail tails target = List.nth_opt tails target = Some true

let check_one program tails len pc =
  let kind = Program.kind program pc in
  let* () =
    match kind with
    | Insn.Invalid opcode -> Error (Fault.Invalid_opcode { pc; opcode })
    | _ -> Ok ()
  in
  let dst = Program.dst program pc and src = Program.src program pc in
  let* () =
    if dst > 10 then Error (Fault.Invalid_register { pc; reg = dst })
    else if src > 10 then Error (Fault.Invalid_register { pc; reg = src })
    else Ok ()
  in
  let* () =
    if dst = 10 && Femto_vm.Verifier.writes_dst kind then
      Error (Fault.Readonly_register { pc })
    else Ok ()
  in
  let* () = Femto_vm.Verifier.check_reserved program pc kind in
  match kind with
  | Insn.Ja | Insn.Jcond _ ->
      let target = pc + 1 + Program.offset program pc in
      if target < 0 || target >= len then Error (Fault.Bad_jump { pc; target })
      else if is_tail tails target then
        Error (Fault.Jump_to_lddw_tail { pc; target })
      else if Program.opcode program target = 0 then
        (* orphan tail-shaped slot: same guard as Femto_vm.Verifier *)
        Error (Fault.Jump_to_lddw_tail { pc; target })
      else Ok `Branch
  | _ -> Ok `Straight

let rec check_from program tails len pc branches =
  if pc >= len then Ok branches
  else if is_tail tails pc then check_from program tails len (pc + 1) branches
  else
    let* outcome = check_one program tails len pc in
    let branches = match outcome with `Branch -> branches + 1 | `Straight -> branches in
    check_from program tails len (pc + 1) branches

let check (config : Config.t) program =
  let len = Program.length program in
  if len = 0 then Error Fault.Empty_program
  else if len > config.max_insns then
    Error (Fault.Program_too_long { len; max = config.max_insns })
  else
    let* tails = tails_from program 0 len [] in
    let* branch_count = check_from program tails len 0 0 in
    let last = len - 1 in
    let last_exec = if is_tail tails last then last - 1 else last in
    let* () =
      match Program.kind program last_exec with
      | Insn.Exit | Insn.Ja -> Ok ()
      | _ -> Error (Fault.Bad_end_instruction { pc = last_exec })
    in
    Ok { branch_count; lddw_tails = tails }
