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

   [run] copies each block's step array once on entry; every stage then
   rewrites that private copy in place and the block aggregates are
   rebuilt once at the end.  The caller's program is never mutated.  A
   fresh array per stage would cost more than the rewrites: on OCaml 5
   a boxed array over 256 words is allocated straight in the major
   heap, and [Array.map]/[Array.of_list] seed it with a young step,
   which forces a minor collection that promotes every live step. *)

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

(* ------------------------------------------------------------------ *)
(* Helpers.                                                           *)

let live_steps p =
  Vir.count_ops (function Vir.Nop -> false | _ -> true) p

(* Rebuild the per-block aggregates a rewrite may have changed. *)
let refresh (b : Vir.block) =
  let weight =
    Array.fold_left (fun w (s : Vir.step) -> w + s.Vir.weight) 0 b.Vir.steps
    + (match b.Vir.term with
      | Vir.Exit { weight; _ } | Vir.Jump { weight; _ } -> weight
      | Vir.Fall _ | Vir.Halt _ -> 0)
  in
  let branch =
    (match b.Vir.term with Vir.Jump _ -> true | _ -> false)
    || Array.exists
         (fun (s : Vir.step) ->
           match s.Vir.op with Vir.Jcond _ -> true | _ -> false)
         b.Vir.steps
  in
  { b with Vir.weight; branch }

(* A block under rewrite: its private step array, of which the first
   [len] entries are live (const_fold may truncate), and its terminator. *)
type work = {
  block : Vir.block;
  steps : Vir.step array;
  mutable len : int;
  mutable term : Vir.terminator;
}

let work_of (b : Vir.block) =
  let steps = Array.copy b.Vir.steps in
  { block = b; steps; len = Array.length steps; term = b.Vir.term }

let block_of w =
  let steps =
    if w.len = Array.length w.steps then w.steps else Array.sub w.steps 0 w.len
  in
  refresh { w.block with Vir.steps; term = w.term }

(* ------------------------------------------------------------------ *)
(* canon: ALU-chain canonicalization.                                 *)

let canon_block count w =
  let steps = w.steps and n = w.len in
  for i = 0 to n - 1 do
    let s = steps.(i) in
    match s.Vir.op with
    (* sub-imm is add of the negation; normal form feeds add-merging *)
    | Vir.Alu { is64 = true; op = Femto_ebpf.Opcode.Sub; dst; src = Vir.Imm v }
      ->
        incr count;
        steps.(i) <-
          {
            s with
            Vir.op =
              Vir.Alu
                {
                  is64 = true;
                  op = Femto_ebpf.Opcode.Add;
                  dst;
                  src = Vir.Imm (Int64.neg v);
                };
          }
    | Vir.Alu { is64 = true; op = Femto_ebpf.Opcode.Mov; dst; src = Vir.Imm v }
      ->
        incr count;
        steps.(i) <- { s with Vir.op = Vir.Movk { dst; v } }
    | Vir.Alu { is64 = false; op = Femto_ebpf.Opcode.Mov; dst; src = Vir.Imm v }
      ->
        (* 32-bit mov-imm zero-extends its low half *)
        incr count;
        steps.(i) <-
          { s with Vir.op = Vir.Movk { dst; v = Int64.logand v 0xFFFF_FFFFL } }
    | _ -> ()
  done;
  (* Merge runs of add-imm on the same register: one step carries the
     summed immediate, weight and cost of the whole chain. *)
  for i = 0 to n - 2 do
    match (steps.(i).Vir.op, steps.(i + 1).Vir.op) with
    | ( Vir.Alu { is64 = true; op = Femto_ebpf.Opcode.Add; dst = d1; src = Vir.Imm a },
        Vir.Alu { is64 = true; op = Femto_ebpf.Opcode.Add; dst = d2; src = Vir.Imm b } )
      when d1 = d2 ->
        incr count;
        let s1 = steps.(i) and s2 = steps.(i + 1) in
        steps.(i) <- { s1 with Vir.op = Vir.Nop; weight = 0; cost = 0 };
        steps.(i + 1) <-
          {
            Vir.pc = s1.Vir.pc;
            weight = s1.Vir.weight + s2.Vir.weight;
            cost = s1.Vir.cost + s2.Vir.cost;
            op =
              Vir.Alu
                {
                  is64 = true;
                  op = Femto_ebpf.Opcode.Add;
                  dst = d1;
                  src = Vir.Imm (Int64.add a b);
                };
          }
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* const_fold: forward constant propagation and branch folding.       *)

(* Each step yields at most one step, so the block is compacted in
   place behind a write index [out] that never overtakes [i]. *)
let const_fold_block count w =
  let consts : int64 option array = Array.make 11 None in
  let steps = w.steps and n = w.len in
  let out = ref 0 in
  let i = ref 0 in
  let truncated = ref false in
  while (not !truncated) && !i < n do
    let s = steps.(!i) in
    let operand_const = function
      | Vir.Imm v -> Some v
      | Vir.Reg r -> consts.(r)
    in
    let put s' =
      steps.(!out) <- s';
      incr out
    in
    let emit op' = put { s with Vir.op = op' } in
    let keep () = put s in
    (match s.Vir.op with
    | Vir.Nop | Vir.Trap _ | Vir.Trap_pre _ -> keep ()
    | Vir.Movk { dst; v } ->
        consts.(dst) <- Some v;
        keep ()
    | Vir.Alu { is64; op; dst; src } -> (
        let sv = operand_const src in
        let dv = consts.(dst) in
        let f = if is64 then Interp.alu64 else Interp.alu32 in
        let eval d v =
          match f s.Vir.pc op d v with Ok r -> Some r | Error _ -> None
        in
        let fold =
          match (op, dv, sv) with
          (* mov ignores dst; evaluate through the shared semantics so
             the 32-bit variant zero-extends exactly like the decoded
             tier *)
          | Femto_ebpf.Opcode.Mov, _, Some v -> eval 0L v
          | _, Some d, Some v -> eval d v
          | _ -> None
        in
        match fold with
        | Some r ->
            incr count;
            consts.(dst) <- Some r;
            emit (Vir.Movk { dst; v = r })
        | None -> (
            (* a known register operand becomes an immediate: div/mod by
               a proven-nonzero register stops being fault-capable *)
            match (src, sv) with
            | Vir.Reg _, Some v
              when (match op with
                   | Femto_ebpf.Opcode.Div | Femto_ebpf.Opcode.Mod ->
                       not
                         (if is64 then Int64.equal v 0L
                          else Int64.equal (Int64.logand v 0xFFFF_FFFFL) 0L)
                   | _ -> true) ->
                incr count;
                consts.(dst) <- None;
                emit (Vir.Alu { is64; op; dst; src = Vir.Imm v })
            | _ ->
                consts.(dst) <- None;
                keep ()))
    | Vir.Swap { dst; endianness; width } -> (
        match consts.(dst) with
        | Some v -> (
            match Interp.byte_swap s.Vir.pc endianness width v with
            | Ok r ->
                incr count;
                consts.(dst) <- Some r;
                emit (Vir.Movk { dst; v = r })
            | Error _ ->
                consts.(dst) <- None;
                keep ())
        | None ->
            consts.(dst) <- None;
            keep ())
    | Vir.Load { dst; _ } ->
        consts.(dst) <- None;
        keep ()
    | Vir.Store ({ v = Vir.Reg r; _ } as st) -> (
        match consts.(r) with
        | Some v ->
            incr count;
            emit (Vir.Store { st with v = Vir.Imm v })
        | None -> keep ())
    | Vir.Store _ -> keep ()
    | Vir.Call _ ->
        (* helpers write only r0 *)
        consts.(0) <- None;
        keep ()
    | Vir.Jcond { is64; cond; dst; src; dest } -> (
        match (consts.(dst), operand_const src) with
        | Some d, Some v ->
            incr count;
            if Interp.condition cond is64 d v then begin
              (* taken on every path: the branch becomes the terminator
                 and the unreachable block suffix is dropped *)
              w.term <-
                Vir.Jump
                  {
                    pc = s.Vir.pc;
                    weight = s.Vir.weight;
                    cost = s.Vir.cost;
                    dest;
                  };
              truncated := true
            end
            else
              (* never taken: accounted no-op *)
              emit Vir.Nop
        | _ -> keep ()));
    incr i
  done;
  w.len <- !out

(* ------------------------------------------------------------------ *)
(* dead_elim: dead register-write elimination.                        *)

(* A step is an observation point when it can fault (register file
   becomes visible), leave the block, or read/write memory or helpers.
   Between observation points, a pure write overwritten before any read
   is invisible and becomes an accounted [Nop]. *)
let dead_elim_block count w =
  let steps = w.steps in
  let all_live = 0x7FF in
  (* bit r set = r's current value may still be read.  The register file
     is test-visible after any run, and successor blocks may read any
     register, so every block exit counts as a full observation. *)
  let live = ref all_live in
  for i = w.len - 1 downto 0 do
    let s = steps.(i) in
    match s.Vir.op with
    | Vir.Movk { dst; _ } when !live land (1 lsl dst) = 0 ->
        incr count;
        steps.(i) <- { s with Vir.op = Vir.Nop }
    | Vir.Movk { dst; _ } -> live := !live land lnot (1 lsl dst)
    | Vir.Alu { op; dst; src; _ }
      when (match op with
           | Femto_ebpf.Opcode.Div | Femto_ebpf.Opcode.Mod -> (
               match src with Vir.Reg _ -> false | Vir.Imm _ -> true)
           | _ -> true) ->
        if !live land (1 lsl dst) = 0 then begin
          incr count;
          steps.(i) <- { s with Vir.op = Vir.Nop }
        end
        else begin
          (* reads dst (except mov) and the register operand *)
          (match op with
          | Femto_ebpf.Opcode.Mov -> live := !live land lnot (1 lsl dst)
          | _ -> live := !live lor (1 lsl dst));
          match src with
          | Vir.Reg r -> live := !live lor (1 lsl r)
          | Vir.Imm _ -> ()
        end
    | Vir.Nop -> ()
    | _ ->
        (* fault-capable / memory / helper / branch: everything visible *)
        live := all_live
  done

(* ------------------------------------------------------------------ *)
(* bounds_elim: check elision and region-cache hoisting.              *)

let bounds_elim_block count w =
  let steps = w.steps in
  for i = 0 to w.len - 1 do
    let s = steps.(i) in
    match s.Vir.op with
    | Vir.Load ({ fact; _ } as l) -> (
        match fact with
        | Some { Vir.base_kind = Vir.Base_stack; proven = true; _ } ->
            incr count;
            steps.(i) <- { s with Vir.op = Vir.Load { l with elide = true } }
        | _ ->
            steps.(i) <- { s with Vir.op = Vir.Load { l with hoist = true } })
    | Vir.Store ({ fact; _ } as st) -> (
        match fact with
        | Some { Vir.base_kind = Vir.Base_stack; proven = true; _ } ->
            incr count;
            steps.(i) <- { s with Vir.op = Vir.Store { st with elide = true } }
        | _ ->
            steps.(i) <- { s with Vir.op = Vir.Store { st with hoist = true } })
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Pipeline.                                                          *)

let run ?(config = all) (p : Vir.program) : Vir.program * report =
  let steps_before = live_steps p in
  let work = Array.map work_of p.Vir.blocks in
  let stage enabled name f =
    let count = ref 0 in
    if enabled then Array.iter (f count) work;
    { name; enabled; rewrites = !count }
  in
  let canon = stage config.canon "canon" canon_block in
  let fold = stage config.const_fold "const_fold" const_fold_block in
  let dead = stage config.dead_elim "dead_elim" dead_elim_block in
  let bounds = stage config.bounds_elim "bounds_elim" bounds_elim_block in
  let p = { p with Vir.blocks = Array.map block_of work } in
  let elided = Vir.elided_checks p and hoisted = Vir.hoisted_checks p in
  let report =
    {
      passes = [ canon; fold; dead; bounds ];
      blocks = Array.length p.Vir.blocks;
      steps_before;
      steps_after = live_steps p;
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
