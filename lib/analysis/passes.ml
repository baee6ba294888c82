(* Optimization passes over the superblock IR.

   Every rewrite is *observation-preserving* against the decoded
   interpreter: replaced steps keep their [weight]/[cost] so batched
   accounting stays bit-exact, memory writes are never dropped (the
   stack and region contents are test-visible), and a register write is
   only dead when no fault-capable step — a potential register-file
   observation point — sits between it and the overwrite.

   The pipeline (each stage independently toggleable, for the
   EXPERIMENTS ablation):

   - [canon]       lddw/ALU-chain canonicalization: sub-imm to add-imm,
                   adjacent 64-bit add-imm merging, mov-imm to [Movk].
   - [const_fold]  forward constant propagation driven by the analyzer's
                   fixpoint having already proven the program's shape:
                   folds ALU/swap on known constants through the shared
                   [Interp] semantics (so folds agree bit-for-bit),
                   rewrites known-register operands to immediates, folds
                   statically-decided conditional branches (a
                   taken-always branch truncates its block; an
                   untaken-always branch becomes an accounted [Nop]).
   - [dead_elim]   dead register-write elimination: pure writes whose
                   value is overwritten before any read or observation
                   point become accounted [Nop]s.
   - [bounds_elim] bounds-check elision and hoisting: accesses the
                   interval fixpoint proved in-frame drop the allow-list
                   scan entirely (a residual frame-bounds guard
                   contains analyzer bugs); every remaining access is
                   hoisted behind a per-site region inline cache.

   [run] lifts the program into its domain's flat scratch ([Ir]), every
   enabled stage rewrites those entries in place, and the [Vir] program
   is built once from what survives.  No stage allocates: immediates stay
   unboxed in the scratch's bytes, and folds evaluate in place through
   [Interp]'s register-file kernels. *)

open Femto_ebpf
module Vir = Femto_vm.Ir
module Interp = Femto_vm.Interp
module Obs = Femto_obs.Obs
module Metrics = Femto_obs.Metrics
module Jsonx = Femto_obs.Jsonx

let m_blocks = Obs.counter "analysis.ir.blocks"
let m_steps = Obs.counter "analysis.ir.steps"
let m_folded = Obs.counter "analysis.ir.folded"
let m_eliminated = Obs.counter "analysis.ir.eliminated"
let m_elided = Obs.counter "analysis.ir.checks_elided"
let m_hoisted = Obs.counter "analysis.ir.checks_hoisted"

type config = {
  canon : bool;
  const_fold : bool;
  dead_elim : bool;
  bounds_elim : bool;
}

let all =
  { canon = true; const_fold = true; dead_elim = true; bounds_elim = true }

let none =
  { canon = false; const_fold = false; dead_elim = false; bounds_elim = false }

type pass_stat = { name : string; enabled : bool; rewrites : int }

type report = {
  passes : pass_stat list;
  blocks : int;
  steps_before : int;
  steps_after : int;  (** live (non-[Nop]) steps after the pipeline *)
  folded : int;
  eliminated : int;
  elided : int;
  hoisted : int;
}

(* Entry [e]'s immediate, read and written unboxed ([Ir.get64] and
   [Ir.set64] are primitives, so this holds across the module boundary
   whatever the build inlines), and the kind and registers of its slot. *)
let[@inline] imm (s : Ir.scratch) e = Ir.get64 s.imm (8 * e)
let[@inline] set_imm (s : Ir.scratch) e v = Ir.set64 s.imm (8 * e) v
let[@inline] kind (s : Ir.scratch) e = Program.kind s.program s.pc.(e)
let[@inline] dst (s : Ir.scratch) e = Program.dst s.program s.pc.(e)
let[@inline] src (s : Ir.scratch) e = Program.src s.program s.pc.(e)

(* ------------------------------------------------------------------ *)
(* canon: ALU-chain canonicalization.                                 *)

let add_imm (s : Ir.scratch) e =
  match (s.tag.(e), kind s e) with
  | Ir.Slot, Insn.Alu (true, _, _) ->
      s.aop.(e) = Opcode.Add && not s.by_reg.(e)
  | _ -> false

let canon_block (s : Ir.scratch) count b =
  let first = s.first.(b) in
  let stop = first + s.len.(b) in
  for e = first to stop - 1 do
    match (s.tag.(e), kind s e, s.aop.(e)) with
    | Ir.Slot, Insn.Alu (true, _, _), Opcode.Sub when not s.by_reg.(e) ->
        (* sub-imm is add of the negation; normal form feeds merging *)
        incr count;
        s.aop.(e) <- Opcode.Add;
        set_imm s e (Int64.neg (imm s e))
    | Ir.Slot, Insn.Alu (is64, _, _), Opcode.Mov when not s.by_reg.(e) ->
        (* 32-bit mov-imm zero-extends its low half *)
        incr count;
        s.tag.(e) <- Ir.Movk;
        if not is64 then set_imm s e (Int64.logand (imm s e) 0xFFFF_FFFFL)
    | _ -> ()
  done;
  (* Merge runs of add-imm on the same register: the chain's last entry
     takes the summed immediate, weight and cost and the first one's pc;
     the others become weightless [Nop]s. *)
  for e = first to stop - 2 do
    if add_imm s e && add_imm s (e + 1) && dst s e = dst s (e + 1) then begin
      incr count;
      s.pc.(e + 1) <- s.pc.(e);
      s.weight.(e + 1) <- s.weight.(e) + s.weight.(e + 1);
      s.cost.(e + 1) <- s.cost.(e) + s.cost.(e + 1);
      set_imm s (e + 1) (Int64.add (imm s e) (imm s (e + 1)));
      s.tag.(e) <- Ir.Nop;
      s.weight.(e) <- 0;
      s.cost.(e) <- 0
    end
  done

(* ------------------------------------------------------------------ *)
(* const_fold: forward constant propagation and branch folding.       *)

(* Bit r of [known] is set when register r holds a constant, kept in the
   folder's register file [s.consts].  An immediate operand is copied to
   its operand slot, so every fold evaluates in place through [Interp]'s
   register-file kernels — the decoded tier's own semantics — and
   nothing is boxed. *)
let const_fold_block (s : Ir.scratch) count b =
  let consts = s.consts in
  let first = s.first.(b) in
  let stop = first + s.len.(b) in
  let known = ref (1 lsl Ir.operand_slot) in
  let is_known r = !known land (1 lsl r) <> 0 in
  (* where entry [i]'s operand sits in [consts] *)
  let operand i =
    if s.by_reg.(i) then src s i
    else begin
      Ir.set64 consts (8 * Ir.operand_slot) (imm s i);
      Ir.operand_slot
    end
  in
  let fold i dst =
    incr count;
    known := !known lor (1 lsl dst);
    s.tag.(i) <- Ir.Movk;
    set_imm s i (Ir.get64 consts (8 * dst))
  in
  let e = ref first in
  while !e < stop do
    let i = !e in
    incr e;
    let dst = dst s i in
    match (s.tag.(i), kind s i) with
    | Ir.Movk, _ ->
        Ir.set64 consts (8 * dst) (imm s i);
        known := !known lor (1 lsl dst)
    | Ir.Slot, Insn.Alu (is64, _, _) ->
        let op = s.aop.(i) and src = operand i in
        let faults =
          (op = Opcode.Div || op = Opcode.Mod)
          && Interp.zero_divisor is64 (Ir.get64 consts (8 * src))
        in
        if is_known src && (op = Opcode.Mov || is_known dst) && not faults
        then begin
          (* mov ignores dst's value, and the 32-bit class zero-extends
             exactly like the decoded tier *)
          Interp.alu_regs is64 op consts ~dst ~src;
          fold i dst
        end
        else begin
          (* a known register operand becomes an immediate: div/mod by
             a proven-nonzero register stops being fault-capable *)
          if s.by_reg.(i) && is_known src && not faults then begin
            incr count;
            s.by_reg.(i) <- false;
            set_imm s i (Ir.get64 consts (8 * src))
          end;
          known := !known land lnot (1 lsl dst)
        end
    | Ir.Slot, Insn.End endianness ->
        if is_known dst then begin
          let bits = Program.imm s.program s.pc.(i) in
          Interp.byte_swap_regs endianness ~bits consts ~dst;
          fold i dst
        end
    | Ir.Slot, Insn.Load _ -> known := !known land lnot (1 lsl dst)
    | Ir.Slot, (Insn.Store_imm _ | Insn.Store_reg _) ->
        let r = src s i in
        if s.by_reg.(i) && is_known r then begin
          incr count;
          s.by_reg.(i) <- false;
          set_imm s i (Ir.get64 consts (8 * r))
        end
    | Ir.Slot, Insn.Call ->
        (* helpers write only r0 *)
        known := !known land lnot 1
    | Ir.Slot, Insn.Jcond (is64, cond, _) ->
        let src = operand i in
        if is_known dst && is_known src then begin
          incr count;
          if Interp.condition_regs cond is64 consts ~dst ~src then begin
            (* taken on every path: the branch becomes the terminator
               and the unreachable block suffix is dropped *)
            s.tag.(i) <- Ir.Jump;
            s.len.(b) <- i - first;
            e := stop
          end
          else
            (* never taken: accounted no-op *)
            s.tag.(i) <- Ir.Nop
        end
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* dead_elim: dead register-write elimination.                        *)

(* A step is an observation point when it can fault (register file
   becomes visible), leave the block, or read/write memory or helpers.
   Between observation points, a pure write overwritten before any read
   is invisible and becomes an accounted [Nop]. *)
let dead_elim_block (s : Ir.scratch) count b =
  let all_live = 0x7FF in
  (* bit r set = r's current value may still be read.  The register file
     is test-visible after any run, and successor blocks may read any
     register, so every block exit counts as a full observation. *)
  let live = ref all_live in
  let first = s.first.(b) in
  for e = first + s.len.(b) - 1 downto first do
    let bit = 1 lsl dst s e in
    match (s.tag.(e), kind s e, s.aop.(e)) with
    | Ir.Nop, _, _ -> ()
    | Ir.Slot, Insn.Alu _, (Opcode.Div | Opcode.Mod) when s.by_reg.(e) ->
        (* may fault: everything visible *)
        live := all_live
    | (Ir.Movk, _, _ | Ir.Slot, Insn.Alu _, _) when !live land bit = 0 ->
        incr count;
        s.tag.(e) <- Ir.Nop
    | Ir.Movk, _, _ -> live := !live land lnot bit
    | Ir.Slot, Insn.Alu _, op ->
        (* reads dst (except a move) and the register operand *)
        if op = Opcode.Mov then live := !live land lnot bit
        else live := !live lor bit;
        if s.by_reg.(e) then live := !live lor (1 lsl src s e)
    | _ ->
        (* fault-capable / memory / helper / branch: everything visible *)
        live := all_live
  done

(* ------------------------------------------------------------------ *)
(* bounds_elim: check elision and region-cache hoisting.              *)

let bounds_elim_block ~facts (s : Ir.scratch) count b =
  let first = s.first.(b) in
  for e = first to first + s.len.(b) - 1 do
    match (s.tag.(e), kind s e) with
    | Ir.Slot, (Insn.Load _ | Insn.Store_imm _ | Insn.Store_reg _) -> (
        match Ir.fact_of s facts e with
        | Some { Vir.base_kind = Vir.Base_stack; proven = true; _ } ->
            incr count;
            s.check.(e) <- Ir.Elided
        | _ -> s.check.(e) <- Ir.Hoisted)
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Pipeline.                                                          *)

let run ?(config = all) ~cost ~facts program : Vir.program * report =
  let s = Ir.scratch () in
  Ir.lift_into s ~cost program;
  let stage enabled name f =
    let count = ref 0 in
    if enabled then
      for b = 0 to s.blocks - 1 do
        f s count b
      done;
    { name; enabled; rewrites = !count }
  in
  (* the lifter builds no [Nop], and one terminator per block *)
  let steps_before = s.entries - s.blocks in
  let canon = stage config.canon "canon" canon_block in
  let fold = stage config.const_fold "const_fold" const_fold_block in
  let dead = stage config.dead_elim "dead_elim" dead_elim_block in
  let bounds =
    stage config.bounds_elim "bounds_elim" (bounds_elim_block ~facts)
  in
  let p = Ir.to_program s ~facts in
  let elided = Vir.elided_checks p and hoisted = Vir.hoisted_checks p in
  let report =
    {
      passes = [ canon; fold; dead; bounds ];
      blocks = Array.length p.Vir.blocks;
      steps_before;
      steps_after = Vir.count_ops (function Vir.Nop -> false | _ -> true) p;
      folded = fold.rewrites;
      eliminated = dead.rewrites;
      elided;
      hoisted;
    }
  in
  if Obs.enabled () then begin
    Metrics.add m_blocks report.blocks;
    Metrics.add m_steps report.steps_after;
    Metrics.add m_folded report.folded;
    Metrics.add m_eliminated report.eliminated;
    Metrics.add m_elided report.elided;
    Metrics.add m_hoisted report.hoisted
  end;
  (p, report)

(* ------------------------------------------------------------------ *)
(* JSON rendering ([fc analyze --ir], femto-analysis/1 extension).    *)

let block_to_json (b : Vir.block) =
  Jsonx.Obj
    [
      ("id", Jsonx.Int b.Vir.id);
      ("head", Jsonx.Int b.Vir.head);
      ("weight", Jsonx.Int b.Vir.weight);
      ("branch", Jsonx.Bool b.Vir.branch);
      ( "steps",
        Jsonx.List
          (Array.to_list b.Vir.steps
          |> List.filter (fun (s : Vir.step) -> s.Vir.op <> Vir.Nop)
          |> List.map (fun s -> Jsonx.String (Vir.step_to_string s))) );
      ("term", Jsonx.String (Vir.term_to_string b.Vir.term));
    ]

let to_json (p : Vir.program) (r : report) =
  Jsonx.Obj
    [
      ("blocks", Jsonx.Int r.blocks);
      ("steps_before", Jsonx.Int r.steps_before);
      ("steps_after", Jsonx.Int r.steps_after);
      ("folded", Jsonx.Int r.folded);
      ("eliminated", Jsonx.Int r.eliminated);
      ("checks_elided", Jsonx.Int r.elided);
      ("checks_hoisted", Jsonx.Int r.hoisted);
      ( "passes",
        Jsonx.List
          (List.map
             (fun s ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String s.name);
                   ("enabled", Jsonx.Bool s.enabled);
                   ("rewrites", Jsonx.Int s.rewrites);
                 ])
             r.passes) );
      ("superblocks", Jsonx.List (Array.to_list p.Vir.blocks |> List.map block_to_json));
    ]
