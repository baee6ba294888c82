(* The compiled execution tier: one specialized closure per superblock
   of the analyzer's optimized register IR ([Ir]), threaded by a
   block-id trampoline.  The decode/dispatch work the interpreter
   repeats on every step is done once, at load time: register indices
   become constant byte offsets into an unboxed register file,
   immediates become captured [int64] constants, helper ids are
   resolved against the table once.

   Isolation semantics are unchanged.  Accounting is batched between
   fault-capable steps, so every fault leaves the decoded interpreter's
   exact payload and stats.  In [Checked] mode both finite-execution
   budgets are enforced: a block that might exhaust one is handed to the
   decoded loop ([Interp.resume]) at its head pc.  [Proven] mode is only
   granted to DAGs inside both static budgets, so the guard is compiled
   out; a violated proof (analyzer bug) is contained as a memory fault
   rather than crashing the host.

   The register file is a flat 88-byte buffer accessed through the
   unboxed bytes-load/store primitives, so straight-line ALU chains run
   without minor-heap allocation — the property the engine's warm pool
   relies on.  Stores additionally maintain a dirty window over the
   stack so [reset] zeroes only the bytes earlier runs touched.  The
   register file, the stack and the dirty window belong to the run's
   [Frame], lent by the domain; every closure takes the frame's [ctx],
   which also points at the running instance ([Mem.t]). *)

open Femto_ebpf
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

(* Same process-wide VM metric names as [Interp]: the registry hands back
   the same handles, so "vm.runs" etc. aggregate across tiers. *)
let m_runs = Obs.counter "vm.runs"
let m_faults = Obs.counter "vm.faults"
let m_insns = Obs.counter "vm.insns"
let m_branches = Obs.counter "vm.branches"
let m_helper_calls = Obs.counter "vm.helper_calls"
let m_cycles = Obs.counter "vm.cycles"
let m_run_ns = Obs.histogram "vm.run_ns"
let m_compile_ns = Obs.histogram "vm.compile_ns"
let m_ir_elided = Obs.counter "vm.ir_checks_elided"

(* Unboxed native-endian 64-bit access into the register file and the
   stack.  The host is assumed little endian; all register-file access
   goes through these two primitives so the representation is internally
   consistent. *)
external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Everything a run mutates lives in the instance ([Mem.t]: statistics,
   region inline caches) or in the run's [Frame] (registers, stack,
   dirty window), both reached through the [ctx] passed to every
   generated closure: the closures themselves are pure functions of the
   bytecode and can be shared between any number of instances (the
   container image/instance split relies on this).  That includes the
   run statistics and the per-site region inline caches, which earlier
   revisions captured at compile time and would have leaked between
   instances. *)

(* What the generated closures receive: the lent frame's buffers and the
   instance running on it.  One per frame, kept in the frame's [slot]
   and pointed at the running instance at each run entry, so a closure
   reaches a register or a stack byte in one load. *)
type ctx = {
  rf : bytes; (* the frame's register file: 11 registers x 8 bytes *)
  stack : bytes; (* the frame's stack *)
  fr : Frame.t; (* its dirty window and region *)
  mutable inst : Mem.t;
}

type Frame.slot += Ctx of ctx

(* The immutable compiled artifact: generated closures plus compile-time
   metadata.  Shared (never written after compilation) between every
   instance spawned from the same image. *)
type code = {
  entry : ctx -> unit; (* the superblock trampoline *)
  interp : Interp.t; (* the decoded loop budget-guarded blocks resume in *)
  stack_top : int64; (* pre-boxed r10 reset value *)
  stack_size : int;
  ir_blocks : int; (* superblocks compiled *)
  elided : int; (* IR memory checks elided against analyzer proofs *)
  hoisted : int; (* IR allow-list scans behind a region inline cache *)
  cache_sites : int; (* inline-cache slots an instance must provide *)
}

type t = { code : code; instance : Mem.t }

type mode = Checked | Proven

exception Vm_fault of Fault.t

let[@inline always] reg cx i = get64 cx.rf (i lsl 3)
let[@inline always] set_reg cx i v = set64 cx.rf (i lsl 3) v

(* Only regions that were in the instance's allow-list snapshot may be
   inline-cached: regions appended later scan *after* every snapshot
   region in [Mem.find], so a cached hit can never shadow them.  The
   snapshot holds no stack, so no cache ever holds a lent frame. *)
let in_snapshot (m : Mem.t) r =
  let ok = ref false in
  Array.iter (fun r' -> if r' == r then ok := true) m.Mem.snapshot;
  !ok

(* Little-endian direct access into a stack or region buffer. *)
let load_direct data o nbytes =
  match nbytes with
  | 1 -> Int64.of_int (Bytes.get_uint8 data o)
  | 2 -> Int64.of_int (Bytes.get_uint16_le data o)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le data o)) 0xFFFF_FFFFL
  | _ -> Bytes.get_int64_le data o

let store_direct data o nbytes v =
  match nbytes with
  | 1 -> Bytes.set_uint8 data o (Int64.to_int v land 0xff)
  | 2 -> Bytes.set_uint16_le data o (Int64.to_int v land 0xffff)
  | 4 -> Bytes.set_int32_le data o (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le data o v

(* Pairwise disjointness of an instance's allow-list and its stack span
   is what makes a per-site region inline cache sound: with disjoint
   regions, [Mem.find] first-match is determined by containment alone,
   and regions appended later scan *after* every cached candidate, so a
   hit on a snapshot region can never shadow a better match.  Checked
   per instance (when it is made), since different instances of the
   same code can carry different region layouts. *)
let regions_disjoint (config : Config.t) (regions : Region.t list) =
  let rs = Array.of_list regions in
  let n = Array.length rs in
  let overlap a_lo a_len b_lo b_len =
    a_len > 0 && b_len > 0
    && Int64.unsigned_compare a_lo (Int64.add b_lo (Int64.of_int b_len)) < 0
    && Int64.unsigned_compare b_lo (Int64.add a_lo (Int64.of_int a_len)) < 0
  in
  let wraps lo len =
    len > 0 && Int64.unsigned_compare (Int64.add lo (Int64.of_int len)) lo <= 0
  in
  let stack_lo = config.Config.stack_vaddr
  and stack_len = config.Config.stack_size in
  let ok = ref (not (wraps stack_lo stack_len)) in
  for i = 0 to n - 1 do
    let lo = rs.(i).Region.vaddr and len = Region.length rs.(i) in
    if wraps lo len || overlap lo len stack_lo stack_len then ok := false;
    for j = i + 1 to n - 1 do
      if overlap lo len rs.(j).Region.vaddr (Region.length rs.(j)) then
        ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Superblock (IR) backend.                                           *)

(* Fault-capable IR steps: where batched accounting must be applied
   before the operation body runs, exactly as the decoded tier would have
   accounted every instruction up to and including this one. *)
let step_flushes (op : Ir.op) =
  match op with
  | Ir.Alu { op = Opcode.Div | Opcode.Mod; src = Ir.Reg _; _ } -> true
  | Ir.Load { elide; _ } | Ir.Store { elide; _ } -> not elide
  | Ir.Call _ | Ir.Jcond _ | Ir.Trap _ | Ir.Trap_pre _ -> true
  | Ir.Alu _ | Ir.Movk _ | Ir.Swap _ | Ir.Nop -> false

(* [compile_ir] emits one closure per superblock: a trampoline threads
   block ids ([-1] = stop) so straight-line runs execute with no
   per-instruction dispatch, no per-instruction budget compares (bulk
   accounting at fault-capable steps and exits), proof-elided stack
   accesses, and region-inline-cached allow-list accesses.

   Budget exactness: in [Checked] mode each block entry checks that the
   whole block fits the remaining instruction and branch budgets; if not,
   the run continues in the decoded loop at the block's head pc, which
   reproduces the decoded tier's budget faults (payload and partial
   stats) bit-for-bit. *)
let compile_ir ~mode ~(ir : Ir.program) interp : code =
  let t0 = Obs.now_ns () in
  let config = Interp.config interp in
  let helpers = Interp.helpers interp in
  let stack_size = config.Config.stack_size in
  let stack_vaddr = config.Config.stack_vaddr in
  let checked = mode = Checked in
  let ilimit = Config.dynamic_instruction_limit config in
  let blimit = config.Config.max_branches in
  (* Region inline caches live in per-instance slots: each hoisted site
     is assigned a slot index at compile time, and every instance brings
     its own slot array, snapshot and disjointness verdict — so
     code shared between instances with different region layouts can never
     leak a cached region from one instance into another. *)
  let n_cache_sites = ref 0 in
  let fresh_slot () =
    let s = !n_cache_sites in
    incr n_cache_sites;
    s
  in
  let[@inline] bulk_acct cx dn dc =
    let m = cx.inst in
    m.Mem.insns_executed <- m.Mem.insns_executed + dn;
    m.Mem.cycles <- m.Mem.cycles + dc
  in
  let[@inline] mark_dirty cx lo hi =
    if lo < cx.fr.Frame.dirty_lo then cx.fr.Frame.dirty_lo <- lo;
    if hi > cx.fr.Frame.dirty_hi then cx.fr.Frame.dirty_hi <- hi
  in
  let mark_checked_store cx addr nbytes =
    let o = Int64.to_int (Int64.sub addr stack_vaddr) in
    if o >= 0 && o < stack_size then
      mark_dirty cx (max 0 o) (min stack_size (o + nbytes))
  in
  (* Non-faulting 64-bit ALU, no accounting (batched elsewhere). *)
  let gen_alu64 ~dst ~(src : Ir.operand) (op : Opcode.alu_op)
      (k : ctx -> int) =
    match src with
    | Ir.Imm v -> (
        match op with
        | Opcode.Add -> fun cx -> set_reg cx dst (Int64.add (reg cx dst) v); k cx
        | Opcode.Sub -> fun cx -> set_reg cx dst (Int64.sub (reg cx dst) v); k cx
        | Opcode.Mul -> fun cx -> set_reg cx dst (Int64.mul (reg cx dst) v); k cx
        | Opcode.Div ->
            (* zero divisors become [Trap] at lift time *)
            fun cx -> set_reg cx dst (Int64.unsigned_div (reg cx dst) v); k cx
        | Opcode.Mod ->
            fun cx -> set_reg cx dst (Int64.unsigned_rem (reg cx dst) v); k cx
        | Opcode.Or -> fun cx -> set_reg cx dst (Int64.logor (reg cx dst) v); k cx
        | Opcode.And -> fun cx -> set_reg cx dst (Int64.logand (reg cx dst) v); k cx
        | Opcode.Xor -> fun cx -> set_reg cx dst (Int64.logxor (reg cx dst) v); k cx
        | Opcode.Lsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun cx -> set_reg cx dst (Int64.shift_left (reg cx dst) sh); k cx
        | Opcode.Rsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun cx ->
              set_reg cx dst (Int64.shift_right_logical (reg cx dst) sh);
              k cx
        | Opcode.Arsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun cx -> set_reg cx dst (Int64.shift_right (reg cx dst) sh); k cx
        | Opcode.Neg -> fun cx -> set_reg cx dst (Int64.neg (reg cx dst)); k cx
        | Opcode.Mov -> fun cx -> set_reg cx dst v; k cx)
    | Ir.Reg src -> (
        match op with
        | Opcode.Add ->
            fun cx -> set_reg cx dst (Int64.add (reg cx dst) (reg cx src)); k cx
        | Opcode.Sub ->
            fun cx -> set_reg cx dst (Int64.sub (reg cx dst) (reg cx src)); k cx
        | Opcode.Mul ->
            fun cx -> set_reg cx dst (Int64.mul (reg cx dst) (reg cx src)); k cx
        | Opcode.Div | Opcode.Mod ->
            assert false (* fault-capable: handled by the flush generator *)
        | Opcode.Or ->
            fun cx -> set_reg cx dst (Int64.logor (reg cx dst) (reg cx src)); k cx
        | Opcode.And ->
            fun cx ->
              set_reg cx dst (Int64.logand (reg cx dst) (reg cx src));
              k cx
        | Opcode.Xor ->
            fun cx ->
              set_reg cx dst (Int64.logxor (reg cx dst) (reg cx src));
              k cx
        | Opcode.Lsh ->
            fun cx ->
              set_reg cx dst
                (Int64.shift_left (reg cx dst)
                   (Int64.to_int (Int64.logand (reg cx src) 63L)));
              k cx
        | Opcode.Rsh ->
            fun cx ->
              set_reg cx dst
                (Int64.shift_right_logical (reg cx dst)
                   (Int64.to_int (Int64.logand (reg cx src) 63L)));
              k cx
        | Opcode.Arsh ->
            fun cx ->
              set_reg cx dst
                (Int64.shift_right (reg cx dst)
                   (Int64.to_int (Int64.logand (reg cx src) 63L)));
              k cx
        | Opcode.Neg -> fun cx -> set_reg cx dst (Int64.neg (reg cx dst)); k cx
        | Opcode.Mov -> fun cx -> set_reg cx dst (reg cx src); k cx)
  in
  (* One IR step -> one closure in the block body; [dn]/[dc] is the
     batched accounting this step must apply first (0 for non-flush
     steps, which were folded into a later flush point). *)
  let gen_step (s : Ir.step) dn dc (k : ctx -> int) : ctx -> int =
    let pc = s.Ir.pc in
    match s.Ir.op with
    | Ir.Nop -> k
    | Ir.Movk { dst; v } ->
        fun cx ->
          set_reg cx dst v;
          k cx
    | Ir.Alu
        { op = (Opcode.Div | Opcode.Mod) as op; is64; dst; src = Ir.Reg src }
      ->
        if is64 then
          let div = op = Opcode.Div in
          fun cx ->
            bulk_acct cx dn dc;
            let sv = reg cx src in
            if Int64.equal sv 0L then
              raise (Vm_fault (Fault.Division_by_zero { pc }));
            set_reg cx dst
              (if div then Int64.unsigned_div (reg cx dst) sv
               else Int64.unsigned_rem (reg cx dst) sv);
            k cx
        else
          fun cx ->
            bulk_acct cx dn dc;
            if Int64.equal (Int64.logand (reg cx src) 0xFFFF_FFFFL) 0L then
              raise (Vm_fault (Fault.Division_by_zero { pc }));
            Interp.alu_regs false op cx.rf ~dst ~src;
            k cx
    | Ir.Alu { is64 = true; op; dst; src } -> gen_alu64 ~dst ~src op k
    | Ir.Alu { is64 = false; op; dst; src } -> (
        (* non-faulting 32-bit (imm divisors statically nonzero): routed
           through the shared semantics for exact parity *)
        match src with
        | Ir.Imm v ->
            fun cx ->
              (match Interp.alu32 pc op (reg cx dst) v with
              | Ok r -> set_reg cx dst r
              | Error f -> raise (Vm_fault f));
              k cx
        | Ir.Reg src ->
            fun cx ->
              Interp.alu_regs false op cx.rf ~dst ~src;
              k cx)
    | Ir.Swap { dst; endianness; width } ->
        (* the lifter traps every width but 16, 32 and 64 *)
        let bits = Int32.to_int width in
        fun cx ->
          Interp.byte_swap_regs endianness ~bits cx.rf ~dst;
          k cx
    | Ir.Load { dst; base; off; nbytes; elide = true; _ } ->
        let off64 = Int64.of_int off in
        if nbytes = 8 then fun cx ->
          let o =
            Int64.to_int (Int64.sub (Int64.add (reg cx base) off64) stack_vaddr)
          in
          if o < 0 || o > stack_size - 8 then
            raise
              (Vm_fault
                 (Fault.Memory_access
                    {
                      pc;
                      addr = Int64.add (reg cx base) off64;
                      size = 8;
                      write = false;
                    }));
          set_reg cx dst (get64 cx.stack o);
          k cx
        else fun cx ->
          let o =
            Int64.to_int (Int64.sub (Int64.add (reg cx base) off64) stack_vaddr)
          in
          if o < 0 || o + nbytes > stack_size then
            raise
              (Vm_fault
                 (Fault.Memory_access
                    {
                      pc;
                      addr = Int64.add (reg cx base) off64;
                      size = nbytes;
                      write = false;
                    }));
          set_reg cx dst (load_direct cx.stack o nbytes);
          k cx
    | Ir.Load { dst; base; off; nbytes; hoist; _ } ->
        let off64 = Int64.of_int off in
        if hoist then begin
          let slot = fresh_slot () in
          fun cx ->
            bulk_acct cx dn dc;
            let addr = Int64.add (reg cx base) off64 in
            (match Array.unsafe_get cx.inst.Mem.rcache slot with
            | r when Region.contains r addr nbytes ->
                set_reg cx dst
                  (load_direct r.Region.data (Region.offset_of r addr) nbytes)
            | _ -> (
                match Mem.find cx.inst ~addr ~size:nbytes ~write:false with
                | Some r ->
                    if cx.inst.Mem.cache_ok && in_snapshot cx.inst r then
                      cx.inst.Mem.rcache.(slot) <- r;
                    set_reg cx dst
                      (load_direct r.Region.data (Region.offset_of r addr)
                         nbytes)
                | None ->
                    raise
                      (Vm_fault
                         (Fault.Memory_access
                            { pc; addr; size = nbytes; write = false }))));
            k cx
        end
        else fun cx ->
          bulk_acct cx dn dc;
          let addr = Int64.add (reg cx base) off64 in
          (match Mem.load cx.inst ~addr ~size:nbytes with
          | Ok v -> set_reg cx dst v
          | Error () ->
              raise
                (Vm_fault
                   (Fault.Memory_access { pc; addr; size = nbytes; write = false })));
          k cx
    | Ir.Store { base; off; nbytes; v; elide = true; _ } ->
        let off64 = Int64.of_int off in
        let gen_store read_v =
          if nbytes = 8 then fun cx ->
            let o =
              Int64.to_int
                (Int64.sub (Int64.add (reg cx base) off64) stack_vaddr)
            in
            if o < 0 || o > stack_size - 8 then
              raise
                (Vm_fault
                   (Fault.Memory_access
                      {
                        pc;
                        addr = Int64.add (reg cx base) off64;
                        size = 8;
                        write = true;
                      }));
            if o < cx.fr.Frame.dirty_lo then cx.fr.Frame.dirty_lo <- o;
            if o + 8 > cx.fr.Frame.dirty_hi then cx.fr.Frame.dirty_hi <- o + 8;
            set64 cx.stack o (read_v cx);
            k cx
          else fun cx ->
            let o =
              Int64.to_int
                (Int64.sub (Int64.add (reg cx base) off64) stack_vaddr)
            in
            if o < 0 || o + nbytes > stack_size then
              raise
                (Vm_fault
                   (Fault.Memory_access
                      {
                        pc;
                        addr = Int64.add (reg cx base) off64;
                        size = nbytes;
                        write = true;
                      }));
            mark_dirty cx o (o + nbytes);
            store_direct cx.stack o nbytes (read_v cx);
            k cx
        in
        (match v with
        | Ir.Imm c -> gen_store (fun _ -> c)
        | Ir.Reg r -> gen_store (fun cx -> reg cx r))
    | Ir.Store { base; off; nbytes; v; hoist; _ } ->
        let off64 = Int64.of_int off in
        let read_v =
          match v with
          | Ir.Imm c -> fun (_ : ctx) -> c
          | Ir.Reg r -> fun cx -> reg cx r
        in
        if hoist then begin
          let slot = fresh_slot () in
          fun cx ->
            bulk_acct cx dn dc;
            let addr = Int64.add (reg cx base) off64 in
            (match Array.unsafe_get cx.inst.Mem.rcache slot with
            | r when Region.contains r addr nbytes ->
                store_direct r.Region.data (Region.offset_of r addr) nbytes
                  (read_v cx);
                mark_checked_store cx addr nbytes
            | _ -> (
                match Mem.find cx.inst ~addr ~size:nbytes ~write:true with
                | Some r ->
                    if cx.inst.Mem.cache_ok && in_snapshot cx.inst r then
                      cx.inst.Mem.rcache.(slot) <- r;
                    store_direct r.Region.data (Region.offset_of r addr) nbytes
                      (read_v cx);
                    mark_checked_store cx addr nbytes
                | None ->
                    raise
                      (Vm_fault
                         (Fault.Memory_access
                            { pc; addr; size = nbytes; write = true }))));
            k cx
        end
        else fun cx ->
          bulk_acct cx dn dc;
          let addr = Int64.add (reg cx base) off64 in
          (match Mem.store cx.inst ~addr ~size:nbytes (read_v cx) with
          | Ok () -> mark_checked_store cx addr nbytes
          | Error () ->
              raise
                (Vm_fault
                   (Fault.Memory_access { pc; addr; size = nbytes; write = true })));
          k cx
    | Ir.Call { id } -> (
        match Helper.find helpers id with
        | None ->
            fun cx ->
              bulk_acct cx dn dc;
              raise (Vm_fault (Fault.Unknown_helper { pc; id }))
        | Some entry ->
            let name = entry.Helper.name in
            let hcost = entry.Helper.cost_cycles in
            let fn = entry.Helper.fn in
            fun cx ->
              bulk_acct cx dn dc;
              cx.inst.Mem.helper_calls <- cx.inst.Mem.helper_calls + 1;
              if Obs.tracing () then
                Obs.event (fun () -> Otrace.Helper_call { id; name });
              cx.inst.Mem.cycles <- cx.inst.Mem.cycles + hcost;
              (try fn cx.inst cx.rf
               with Helper.Error message ->
                 raise (Vm_fault (Fault.Helper_error { pc; id; message })));
              cx.fr.Frame.dirty_lo <- 0;
              cx.fr.Frame.dirty_hi <- stack_size;
              k cx)
    | Ir.Jcond { is64; cond; dst; src; dest } -> (
        (* Taken side exits leave the superblock; the block-entry guard
           already reserved one branch, so no compare is needed here. *)
        let taken : ctx -> int =
          match dest with
          | Ir.Block id ->
              fun cx ->
                cx.inst.Mem.branches_taken <-
                  cx.inst.Mem.branches_taken + 1;
                id
          | Ir.Out_of_range target ->
              fun cx ->
                cx.inst.Mem.branches_taken <-
                  cx.inst.Mem.branches_taken + 1;
                raise (Vm_fault (Fault.Fall_off_end { pc = target }))
        in
        match src with
        | Ir.Imm v ->
            fun cx ->
              bulk_acct cx dn dc;
              if Interp.condition cond is64 (reg cx dst) v then taken cx
              else k cx
        | Ir.Reg src ->
            fun cx ->
              bulk_acct cx dn dc;
              if Interp.condition cond is64 (reg cx dst) (reg cx src) then
                taken cx
              else k cx)
    | Ir.Trap f ->
        let exn = Vm_fault f in
        fun cx ->
          bulk_acct cx dn dc;
          raise exn
    | Ir.Trap_pre f ->
        (* decoded-tier register-range check: faults before accounting;
           the lifter gives these steps weight 0, so [dn] covers only the
           preceding steps' accounting, which the decoded tier has also
           already performed at this point *)
        let exn = Vm_fault f in
        fun cx ->
          bulk_acct cx dn dc;
          raise exn
  in
  (* Finish the run in the decoded loop at [pc], over the same register
     file; the dirty window widens to the whole stack because interpreter
     stores are not tracked. *)
  let resume_decoded cx pc =
    let outcome = Interp.resume ~pc interp cx.inst cx.fr in
    cx.fr.Frame.dirty_lo <- 0;
    cx.fr.Frame.dirty_hi <- stack_size;
    match outcome with Ok _ -> -1 | Error f -> raise (Vm_fault f)
  in
  let gen_block (b : Ir.block) : ctx -> int =
    let steps = b.Ir.steps in
    let n = Array.length steps in
    (* Forward pass: batch accounting between flush points.  Non-flush
       steps fold their weight/cost into the next flush point (or the
       terminator), which applies them *before* its own body — the exact
       moment the decoded tier would have finished accounting them. *)
    let dn = Array.make (n + 1) 0 and dc = Array.make (n + 1) 0 in
    let pn = ref 0 and pcyc = ref 0 in
    for i = 0 to n - 1 do
      let s = steps.(i) in
      if step_flushes s.Ir.op then begin
        dn.(i) <- !pn + s.Ir.weight;
        dc.(i) <- !pcyc + s.Ir.cost;
        pn := 0;
        pcyc := 0
      end
      else begin
        pn := !pn + s.Ir.weight;
        pcyc := !pcyc + s.Ir.cost
      end
    done;
    let tdn = !pn and tdc = !pcyc in
    let term_k : ctx -> int =
      match b.Ir.term with
      | Ir.Exit { weight; cost; _ } ->
          let dni = tdn + weight and dci = tdc + cost in
          fun cx ->
            bulk_acct cx dni dci;
            -1
      | Ir.Jump { weight; cost; dest; _ } -> (
          let dni = tdn + weight and dci = tdc + cost in
          match dest with
          | Ir.Block id ->
              fun cx ->
                bulk_acct cx dni dci;
                cx.inst.Mem.branches_taken <-
                  cx.inst.Mem.branches_taken + 1;
                id
          | Ir.Out_of_range target ->
              fun cx ->
                bulk_acct cx dni dci;
                cx.inst.Mem.branches_taken <-
                  cx.inst.Mem.branches_taken + 1;
                raise (Vm_fault (Fault.Fall_off_end { pc = target })))
      | Ir.Fall { dest } ->
          if tdn = 0 && tdc = 0 then fun _ -> dest
          else
            fun cx ->
              bulk_acct cx tdn tdc;
              dest
      | Ir.Halt f ->
          let exn = Vm_fault f in
          fun cx ->
            bulk_acct cx tdn tdc;
            raise exn
    in
    let body = ref term_k in
    for i = n - 1 downto 0 do
      body := gen_step steps.(i) dn.(i) dc.(i) !body
    done;
    let body = !body in
    if not checked then body
    else begin
      (* Budget headroom guard: the whole block must fit both remaining
         budgets (at most one branch is taken per pass — a taken side
         exit leaves the block).  When it does not, finish the run in
         the decoded loop from the head pc for bit-exact budget faults. *)
      let w = b.Ir.weight in
      let head = b.Ir.head in
      if b.Ir.branch then
        fun cx ->
          if
            cx.inst.Mem.insns_executed + w > ilimit
            || cx.inst.Mem.branches_taken >= blimit
          then resume_decoded cx head
          else body cx
      else
        fun cx ->
          if cx.inst.Mem.insns_executed + w > ilimit then
            resume_decoded cx head
          else body cx
    end
  in
  let nblocks = Array.length ir.Ir.blocks in
  let bcode = Array.make nblocks (fun (_ : ctx) -> -1) in
  Array.iteri (fun i b -> bcode.(i) <- gen_block b) ir.Ir.blocks;
  let entry =
    if nblocks = 0 then fun (_ : ctx) ->
      (* only an empty program lifts to zero superblocks *)
      raise (Vm_fault (Fault.Fall_off_end { pc = 0 }))
    else
      fun cx ->
        let next = ref 0 in
        while !next >= 0 do
          next := (Array.unsafe_get bcode !next) cx
        done
  in
  let elided = Ir.elided_checks ir in
  let hoisted = Ir.hoisted_checks ir in
  let compile_ns = Obs.now_ns () -. t0 in
  if Obs.enabled () then begin
    Ometrics.observe m_compile_ns compile_ns;
    Ometrics.add m_ir_elided elided
  end;
  {
    entry;
    interp;
    stack_top =
      Int64.add config.Config.stack_vaddr (Int64.of_int config.Config.stack_size);
    stack_size;
    ir_blocks = nblocks;
    elided;
    hoisted;
    cache_sites = !n_cache_sites;
  }

let cache_sites code = code.cache_sites
let elided code = code.elided
let elided_count t = t.code.elided
let hoisted_count t = t.code.hoisted
let runs t = t.instance.Mem.runs

(* [reset] is the warm pool's dividend: instead of zeroing the whole
   stack it zeroes only the frame's dirty window — the stores earlier
   runs on this frame produced — then re-arms r10.  The register file
   is 88 bytes, cleared unconditionally. *)
let reset code cx =
  let fr = cx.fr in
  Bytes.fill cx.rf 0 88 '\000';
  if fr.Frame.dirty_hi > fr.Frame.dirty_lo then
    Bytes.fill cx.stack fr.Frame.dirty_lo
      (fr.Frame.dirty_hi - fr.Frame.dirty_lo)
      '\000';
  fr.Frame.dirty_lo <- max_int;
  fr.Frame.dirty_hi <- 0;
  set64 cx.rf 80 code.stack_top

let[@inline] load_args cx (args : int64 array) =
  let n = Array.length args in
  if n > 0 then set64 cx.rf 8 (Array.unsafe_get args 0);
  if n > 1 then set64 cx.rf 16 (Array.unsafe_get args 1);
  if n > 2 then set64 cx.rf 24 (Array.unsafe_get args 2);
  if n > 3 then set64 cx.rf 32 (Array.unsafe_get args 3);
  if n > 4 then set64 cx.rf 40 (Array.unsafe_get args 4)

(* The frame's context, pointed at instance [m]; built on the frame's
   first IR run. *)
let ctx_of m (fr : Frame.t) =
  match fr.Frame.slot with
  | Some (Ctx cx) ->
      if cx.inst != m then cx.inst <- m;
      cx
  | _ ->
      let cx = { rf = fr.Frame.rf; stack = fr.Frame.stack; fr; inst = m } in
      fr.Frame.slot <- Some (Ctx cx);
      cx

let exec_exn ~args code m fr =
  let cx = ctx_of m fr in
  m.Mem.runs <- m.Mem.runs + 1;
  reset code cx;
  load_args cx args;
  m.Mem.insns_executed <- 0;
  m.Mem.branches_taken <- 0;
  m.Mem.helper_calls <- 0;
  m.Mem.cycles <- 0;
  code.entry cx

(* A violated analyzer proof or unsafe escape, contained as a memory
   fault. *)
let escaped =
  Fault.Memory_access { pc = 0; addr = 0L; size = 0; write = false }

(* [exec] and [fire] borrow a frame for the run and give it back on
   every exit path. *)
let exec ~args code m =
  let outer = Mem.stack m in
  let fr = Interp.lend code.interp m in
  match exec_exn ~args code m fr with
  | () ->
      Interp.give_back m ~outer fr;
      Ok (get64 fr.Frame.rf 0)
  | exception Vm_fault f ->
      Interp.give_back m ~outer fr;
      Error f
  | exception Invalid_argument _ ->
      Interp.give_back m ~outer fr;
      Error escaped
  | exception e ->
      Interp.give_back m ~outer fr;
      raise e

let count_run (m : Mem.t) =
  Ometrics.incr m_runs;
  Ometrics.add m_insns m.Mem.insns_executed;
  Ometrics.add m_branches m.Mem.branches_taken;
  Ometrics.add m_helper_calls m.Mem.helper_calls;
  Ometrics.add m_cycles m.Mem.cycles

(* [run_on] mirrors [Interp.run]'s observability envelope so engine-level
   accounting is identical whichever tier a container runs on. *)
let run_on ?(args = [||]) code m =
  if not (Obs.enabled ()) then exec ~args code m
  else begin
    let t0 = Obs.now_ns () in
    let outcome = exec ~args code m in
    count_run m;
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

(* [fire_on] is the engine's steady-state dispatch entry: no result value
   is constructed and only counters (plain mutable stores) are updated,
   so a successful run of an allocation-free program performs zero
   minor-heap allocation.  Returns [false] when the run faulted. *)
let fire_on ~args code m =
  let outer = Mem.stack m in
  let fr = Interp.lend code.interp m in
  match exec_exn ~args code m fr with
  | () ->
      Interp.give_back m ~outer fr;
      if Obs.enabled () then count_run m;
      true
  | exception Vm_fault f ->
      Interp.give_back m ~outer fr;
      if Obs.enabled () then begin
        count_run m;
        Ometrics.incr m_faults;
        Obs.event (fun () ->
            Otrace.Fault { kind = Fault.kind f; detail = Fault.to_string f })
      end;
      false
  | exception Invalid_argument _ ->
      Interp.give_back m ~outer fr;
      if Obs.enabled () then begin
        Ometrics.incr m_runs;
        Ometrics.incr m_faults
      end;
      false
  | exception e ->
      Interp.give_back m ~outer fr;
      raise e

let run ?args t = run_on ?args t.code t.instance
let fire ~args t = fire_on ~args t.code t.instance

(* The frame the instance's last run on this domain borrowed, until the
   next run takes it. *)
let last_frame t = Frame.last (Interp.config t.code.interp)
let result t = get64 (last_frame t).Frame.rf 0

let ram_bytes code = code.ir_blocks * (Sys.word_size / 8)
