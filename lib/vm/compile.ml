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
   relies on.  Stores additionally maintain a dirty high-water mark over
   the stack so [reset] zeroes only the bytes the previous run touched. *)

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

(* Everything a run mutates lives in [state], which is passed to every
   generated closure as a parameter: the closures themselves are pure
   functions of the bytecode and can be shared between any number of
   instances (the container image/instance split relies on this — see
   [instantiate]).  That includes the run statistics and the per-site
   region inline caches, which earlier revisions captured at compile
   time and would have leaked between instances. *)
type state = {
  rf : bytes; (* 11 registers x 8 bytes *)
  stack : bytes; (* shared with the paired Interp instance *)
  mem : Mem.t;
  stats : Interp.stats; (* shared with the paired Interp instance *)
  interp : Interp.t; (* the decoded loop budget-guarded blocks resume in *)
  snapshot : Region.t array; (* this instance's allow-list at creation *)
  cache_ok : bool; (* snapshot pairwise disjoint: inline caches sound *)
  rcache : Region.t option array; (* per-site region inline caches *)
  mutable dirty_lo : int; (* dirty stack window [dirty_lo, dirty_hi) *)
  mutable dirty_hi : int;
}

(* The immutable compiled artifact: generated closures plus compile-time
   metadata.  Shared (never written after compilation) between every
   instance spawned from the same image. *)
type code = {
  entry : state -> unit; (* the superblock trampoline *)
  stack_top : int64; (* pre-boxed r10 reset value *)
  stack_size : int;
  ir_blocks : int; (* superblocks compiled *)
  elided : int; (* IR memory checks elided against analyzer proofs *)
  hoisted : int; (* IR allow-list scans behind a region inline cache *)
  cache_sites : int; (* inline-cache slots a [state] must provide *)
}

type t = { sh : code; st : state; mutable runs : int }

type mode = Checked | Proven

exception Vm_fault of Fault.t

let[@inline always] reg st i = get64 st.rf (i lsl 3)
let[@inline always] set_reg st i v = set64 st.rf (i lsl 3) v

(* Only regions that were in the instance's allow-list snapshot may be
   inline-cached: regions appended later scan *after* every snapshot
   region in [Mem.find], so a cached hit can never shadow them. *)
let in_snapshot st r =
  let ok = ref false in
  Array.iter (fun r' -> if r' == r then ok := true) st.snapshot;
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

(* Pairwise disjointness of an instance's allow-list is what makes a
   per-site region inline cache sound: with disjoint regions, [Mem.find]
   first-match is determined by containment alone, and regions appended
   later scan *after* every cached candidate, so a hit on a snapshot
   region can never shadow a better match.  Checked per instance (at
   [instantiate] time), since different instances of the same code can
   carry different region layouts. *)
let regions_disjoint (rs : Region.t array) =
  let n = Array.length rs in
  let span (r : Region.t) =
    let lo = r.Region.vaddr in
    let hi = Int64.add lo (Int64.of_int (Region.length r)) in
    (lo, hi)
  in
  let wraps (r : Region.t) =
    let lo, hi = span r in
    Region.length r > 0 && Int64.unsigned_compare hi lo <= 0
  in
  let overlap a b =
    let a_lo, a_hi = span a and b_lo, b_hi = span b in
    Region.length a > 0 && Region.length b > 0
    && Int64.unsigned_compare a_lo b_hi < 0
    && Int64.unsigned_compare b_lo a_hi < 0
  in
  let ok = ref true in
  for i = 0 to n - 1 do
    if wraps rs.(i) then ok := false;
    for j = i + 1 to n - 1 do
      if overlap rs.(i) rs.(j) then ok := false
    done
  done;
  !ok

(* Private run state for one instance over [cache_sites] inline-cache
   slots.  Everything else the closures touch is reached through this
   record, so building it is the entire per-instance cost of the
   compiled tier.  The interpreter is the instance's own, so a budget
   hand-over runs on this instance's registers, stack and stats. *)
let fresh_state ~cache_sites interp =
  let mem = Interp.mem interp in
  let snapshot = Mem.raw_regions mem in
  {
    rf = Bytes.make 88 '\000';
    stack = Interp.stack_data interp;
    mem;
    stats = Interp.stats interp;
    interp;
    snapshot;
    cache_ok = cache_sites > 0 && regions_disjoint snapshot;
    rcache = Array.make cache_sites None;
    dirty_lo = max_int;
    dirty_hi = 0;
  }

(* Bind shared compiled code to a fresh instance: no verification,
   analysis or compilation happens here — [m_compile_ns] is deliberately
   not observed, which the image-cache tests rely on. *)
let instantiate sh interp =
  { sh; st = fresh_state ~cache_sites:sh.cache_sites interp; runs = 0 }

let shared t = t.sh

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
let compile_ir ~mode ~(ir : Ir.program) interp =
  let t0 = Obs.now_ns () in
  let config = Interp.config interp in
  let helpers = Interp.helpers interp in
  let stack_size = config.Config.stack_size in
  let stack_vaddr = config.Config.stack_vaddr in
  let checked = mode = Checked in
  let ilimit = Config.dynamic_instruction_limit config in
  let blimit = config.Config.max_branches in
  (* Region inline caches live in per-instance [state] slots: each hoisted
     site is assigned a slot index at compile time, and every instance
     brings its own slot array, snapshot and disjointness verdict — so
     code shared between instances with different region layouts can never
     leak a cached region from one instance into another. *)
  let n_cache_sites = ref 0 in
  let fresh_slot () =
    let s = !n_cache_sites in
    incr n_cache_sites;
    s
  in
  let[@inline] bulk_acct st dn dc =
    let stats = st.stats in
    stats.Interp.insns_executed <- stats.Interp.insns_executed + dn;
    stats.Interp.cycles <- stats.Interp.cycles + dc
  in
  let[@inline] mark_dirty st lo hi =
    if lo < st.dirty_lo then st.dirty_lo <- lo;
    if hi > st.dirty_hi then st.dirty_hi <- hi
  in
  let mark_checked_store st addr nbytes =
    let o = Int64.to_int (Int64.sub addr stack_vaddr) in
    if o >= 0 && o < stack_size then
      mark_dirty st (max 0 o) (min stack_size (o + nbytes))
  in
  (* Non-faulting 64-bit ALU, no accounting (batched elsewhere). *)
  let gen_alu64 ~dst ~(src : Ir.operand) (op : Opcode.alu_op)
      (k : state -> int) =
    match src with
    | Ir.Imm v -> (
        match op with
        | Opcode.Add -> fun st -> set_reg st dst (Int64.add (reg st dst) v); k st
        | Opcode.Sub -> fun st -> set_reg st dst (Int64.sub (reg st dst) v); k st
        | Opcode.Mul -> fun st -> set_reg st dst (Int64.mul (reg st dst) v); k st
        | Opcode.Div ->
            (* zero divisors become [Trap] at lift time *)
            fun st -> set_reg st dst (Int64.unsigned_div (reg st dst) v); k st
        | Opcode.Mod ->
            fun st -> set_reg st dst (Int64.unsigned_rem (reg st dst) v); k st
        | Opcode.Or -> fun st -> set_reg st dst (Int64.logor (reg st dst) v); k st
        | Opcode.And -> fun st -> set_reg st dst (Int64.logand (reg st dst) v); k st
        | Opcode.Xor -> fun st -> set_reg st dst (Int64.logxor (reg st dst) v); k st
        | Opcode.Lsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun st -> set_reg st dst (Int64.shift_left (reg st dst) sh); k st
        | Opcode.Rsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun st ->
              set_reg st dst (Int64.shift_right_logical (reg st dst) sh);
              k st
        | Opcode.Arsh ->
            let sh = Int64.to_int (Int64.logand v 63L) in
            fun st -> set_reg st dst (Int64.shift_right (reg st dst) sh); k st
        | Opcode.Neg -> fun st -> set_reg st dst (Int64.neg (reg st dst)); k st
        | Opcode.Mov -> fun st -> set_reg st dst v; k st)
    | Ir.Reg src -> (
        match op with
        | Opcode.Add ->
            fun st -> set_reg st dst (Int64.add (reg st dst) (reg st src)); k st
        | Opcode.Sub ->
            fun st -> set_reg st dst (Int64.sub (reg st dst) (reg st src)); k st
        | Opcode.Mul ->
            fun st -> set_reg st dst (Int64.mul (reg st dst) (reg st src)); k st
        | Opcode.Div | Opcode.Mod ->
            assert false (* fault-capable: handled by the flush generator *)
        | Opcode.Or ->
            fun st -> set_reg st dst (Int64.logor (reg st dst) (reg st src)); k st
        | Opcode.And ->
            fun st ->
              set_reg st dst (Int64.logand (reg st dst) (reg st src));
              k st
        | Opcode.Xor ->
            fun st ->
              set_reg st dst (Int64.logxor (reg st dst) (reg st src));
              k st
        | Opcode.Lsh ->
            fun st ->
              set_reg st dst
                (Int64.shift_left (reg st dst)
                   (Int64.to_int (Int64.logand (reg st src) 63L)));
              k st
        | Opcode.Rsh ->
            fun st ->
              set_reg st dst
                (Int64.shift_right_logical (reg st dst)
                   (Int64.to_int (Int64.logand (reg st src) 63L)));
              k st
        | Opcode.Arsh ->
            fun st ->
              set_reg st dst
                (Int64.shift_right (reg st dst)
                   (Int64.to_int (Int64.logand (reg st src) 63L)));
              k st
        | Opcode.Neg -> fun st -> set_reg st dst (Int64.neg (reg st dst)); k st
        | Opcode.Mov -> fun st -> set_reg st dst (reg st src); k st)
  in
  (* One IR step -> one closure in the block body; [dn]/[dc] is the
     batched accounting this step must apply first (0 for non-flush
     steps, which were folded into a later flush point). *)
  let gen_step (s : Ir.step) dn dc (k : state -> int) : state -> int =
    let pc = s.Ir.pc in
    match s.Ir.op with
    | Ir.Nop -> k
    | Ir.Movk { dst; v } ->
        fun st ->
          set_reg st dst v;
          k st
    | Ir.Alu
        { op = (Opcode.Div | Opcode.Mod) as op; is64; dst; src = Ir.Reg src }
      ->
        if is64 then
          let div = op = Opcode.Div in
          fun st ->
            bulk_acct st dn dc;
            let sv = reg st src in
            if Int64.equal sv 0L then
              raise (Vm_fault (Fault.Division_by_zero { pc }));
            set_reg st dst
              (if div then Int64.unsigned_div (reg st dst) sv
               else Int64.unsigned_rem (reg st dst) sv);
            k st
        else
          fun st ->
            bulk_acct st dn dc;
            (match Interp.alu32 pc op (reg st dst) (reg st src) with
            | Ok r -> set_reg st dst r
            | Error f -> raise (Vm_fault f));
            k st
    | Ir.Alu { is64 = true; op; dst; src } -> gen_alu64 ~dst ~src op k
    | Ir.Alu { is64 = false; op; dst; src } -> (
        (* non-faulting 32-bit (imm divisors statically nonzero): routed
           through the shared semantics for exact parity *)
        match src with
        | Ir.Imm v ->
            fun st ->
              (match Interp.alu32 pc op (reg st dst) v with
              | Ok r -> set_reg st dst r
              | Error f -> raise (Vm_fault f));
              k st
        | Ir.Reg src ->
            fun st ->
              (match Interp.alu32 pc op (reg st dst) (reg st src) with
              | Ok r -> set_reg st dst r
              | Error f -> raise (Vm_fault f));
              k st)
    | Ir.Swap { dst; endianness; width } ->
        fun st ->
          (match Interp.byte_swap pc endianness width (reg st dst) with
          | Ok v -> set_reg st dst v
          | Error f -> raise (Vm_fault f));
          k st
    | Ir.Load { dst; base; off; nbytes; elide = true; _ } ->
        let off64 = Int64.of_int off in
        if nbytes = 8 then fun st ->
          let o =
            Int64.to_int (Int64.sub (Int64.add (reg st base) off64) stack_vaddr)
          in
          if o < 0 || o > stack_size - 8 then
            raise
              (Vm_fault
                 (Fault.Memory_access
                    {
                      pc;
                      addr = Int64.add (reg st base) off64;
                      size = 8;
                      write = false;
                    }));
          set_reg st dst (get64 st.stack o);
          k st
        else fun st ->
          let o =
            Int64.to_int (Int64.sub (Int64.add (reg st base) off64) stack_vaddr)
          in
          if o < 0 || o + nbytes > stack_size then
            raise
              (Vm_fault
                 (Fault.Memory_access
                    {
                      pc;
                      addr = Int64.add (reg st base) off64;
                      size = nbytes;
                      write = false;
                    }));
          set_reg st dst (load_direct st.stack o nbytes);
          k st
    | Ir.Load { dst; base; off; nbytes; hoist; _ } ->
        let off64 = Int64.of_int off in
        if hoist then begin
          let slot = fresh_slot () in
          fun st ->
            bulk_acct st dn dc;
            let addr = Int64.add (reg st base) off64 in
            (match Array.unsafe_get st.rcache slot with
            | Some r when Region.contains r addr nbytes ->
                set_reg st dst
                  (load_direct r.Region.data (Region.offset_of r addr) nbytes)
            | _ -> (
                match Mem.find st.mem ~addr ~size:nbytes ~write:false with
                | Some r ->
                    if st.cache_ok && in_snapshot st r then
                      st.rcache.(slot) <- Some r;
                    set_reg st dst
                      (load_direct r.Region.data (Region.offset_of r addr)
                         nbytes)
                | None ->
                    raise
                      (Vm_fault
                         (Fault.Memory_access
                            { pc; addr; size = nbytes; write = false }))));
            k st
        end
        else fun st ->
          bulk_acct st dn dc;
          let addr = Int64.add (reg st base) off64 in
          (match Mem.load st.mem ~addr ~size:nbytes with
          | Ok v -> set_reg st dst v
          | Error () ->
              raise
                (Vm_fault
                   (Fault.Memory_access { pc; addr; size = nbytes; write = false })));
          k st
    | Ir.Store { base; off; nbytes; v; elide = true; _ } ->
        let off64 = Int64.of_int off in
        let gen_store read_v =
          if nbytes = 8 then fun st ->
            let o =
              Int64.to_int
                (Int64.sub (Int64.add (reg st base) off64) stack_vaddr)
            in
            if o < 0 || o > stack_size - 8 then
              raise
                (Vm_fault
                   (Fault.Memory_access
                      {
                        pc;
                        addr = Int64.add (reg st base) off64;
                        size = 8;
                        write = true;
                      }));
            if o < st.dirty_lo then st.dirty_lo <- o;
            if o + 8 > st.dirty_hi then st.dirty_hi <- o + 8;
            set64 st.stack o (read_v st);
            k st
          else fun st ->
            let o =
              Int64.to_int
                (Int64.sub (Int64.add (reg st base) off64) stack_vaddr)
            in
            if o < 0 || o + nbytes > stack_size then
              raise
                (Vm_fault
                   (Fault.Memory_access
                      {
                        pc;
                        addr = Int64.add (reg st base) off64;
                        size = nbytes;
                        write = true;
                      }));
            mark_dirty st o (o + nbytes);
            store_direct st.stack o nbytes (read_v st);
            k st
        in
        (match v with
        | Ir.Imm c -> gen_store (fun _ -> c)
        | Ir.Reg r -> gen_store (fun st -> reg st r))
    | Ir.Store { base; off; nbytes; v; hoist; _ } ->
        let off64 = Int64.of_int off in
        let read_v =
          match v with
          | Ir.Imm c -> fun (_ : state) -> c
          | Ir.Reg r -> fun st -> reg st r
        in
        if hoist then begin
          let slot = fresh_slot () in
          fun st ->
            bulk_acct st dn dc;
            let addr = Int64.add (reg st base) off64 in
            (match Array.unsafe_get st.rcache slot with
            | Some r when Region.contains r addr nbytes ->
                store_direct r.Region.data (Region.offset_of r addr) nbytes
                  (read_v st);
                mark_checked_store st addr nbytes
            | _ -> (
                match Mem.find st.mem ~addr ~size:nbytes ~write:true with
                | Some r ->
                    if st.cache_ok && in_snapshot st r then
                      st.rcache.(slot) <- Some r;
                    store_direct r.Region.data (Region.offset_of r addr) nbytes
                      (read_v st);
                    mark_checked_store st addr nbytes
                | None ->
                    raise
                      (Vm_fault
                         (Fault.Memory_access
                            { pc; addr; size = nbytes; write = true }))));
            k st
        end
        else fun st ->
          bulk_acct st dn dc;
          let addr = Int64.add (reg st base) off64 in
          (match Mem.store st.mem ~addr ~size:nbytes (read_v st) with
          | Ok () -> mark_checked_store st addr nbytes
          | Error () ->
              raise
                (Vm_fault
                   (Fault.Memory_access { pc; addr; size = nbytes; write = true })));
          k st
    | Ir.Call { id } -> (
        match Helper.find helpers id with
        | None ->
            fun st ->
              bulk_acct st dn dc;
              raise (Vm_fault (Fault.Unknown_helper { pc; id }))
        | Some entry ->
            let name = entry.Helper.name in
            let hcost = entry.Helper.cost_cycles in
            let fn = entry.Helper.fn in
            fun st ->
              bulk_acct st dn dc;
              st.stats.Interp.helper_calls <- st.stats.Interp.helper_calls + 1;
              if Obs.tracing () then
                Obs.event (fun () -> Otrace.Helper_call { id; name });
              st.stats.Interp.cycles <- st.stats.Interp.cycles + hcost;
              let a =
                {
                  Helper.a1 = reg st 1;
                  a2 = reg st 2;
                  a3 = reg st 3;
                  a4 = reg st 4;
                  a5 = reg st 5;
                }
              in
              (match fn st.mem a with
              | Ok r0 -> set_reg st 0 r0
              | Error message ->
                  raise (Vm_fault (Fault.Helper_error { pc; id; message })));
              st.dirty_lo <- 0;
              st.dirty_hi <- stack_size;
              k st)
    | Ir.Jcond { is64; cond; dst; src; dest } -> (
        (* Taken side exits leave the superblock; the block-entry guard
           already reserved one branch, so no compare is needed here. *)
        let taken : state -> int =
          match dest with
          | Ir.Block id ->
              fun st ->
                st.stats.Interp.branches_taken <-
                  st.stats.Interp.branches_taken + 1;
                id
          | Ir.Out_of_range target ->
              fun st ->
                st.stats.Interp.branches_taken <-
                  st.stats.Interp.branches_taken + 1;
                raise (Vm_fault (Fault.Fall_off_end { pc = target }))
        in
        match src with
        | Ir.Imm v ->
            fun st ->
              bulk_acct st dn dc;
              if Interp.condition cond is64 (reg st dst) v then taken st
              else k st
        | Ir.Reg src ->
            fun st ->
              bulk_acct st dn dc;
              if Interp.condition cond is64 (reg st dst) (reg st src) then
                taken st
              else k st)
    | Ir.Trap f ->
        let exn = Vm_fault f in
        fun st ->
          bulk_acct st dn dc;
          raise exn
    | Ir.Trap_pre f ->
        (* decoded-tier register-range check: faults before accounting;
           the lifter gives these steps weight 0, so [dn] covers only the
           preceding steps' accounting, which the decoded tier has also
           already performed at this point *)
        let exn = Vm_fault f in
        fun st ->
          bulk_acct st dn dc;
          raise exn
  in
  (* Finish the run in the decoded loop at [pc]: the register file goes
     over and comes back, and the dirty window widens to the whole stack
     because interpreter stores are not tracked. *)
  let resume_decoded st pc =
    let regs = Interp.registers st.interp in
    for i = 0 to 10 do
      regs.(i) <- reg st i
    done;
    let outcome = Interp.resume ~pc st.interp in
    for i = 0 to 10 do
      set_reg st i regs.(i)
    done;
    st.dirty_lo <- 0;
    st.dirty_hi <- stack_size;
    match outcome with Ok _ -> -1 | Error f -> raise (Vm_fault f)
  in
  let gen_block (b : Ir.block) : state -> int =
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
    let term_k : state -> int =
      match b.Ir.term with
      | Ir.Exit { weight; cost; _ } ->
          let dni = tdn + weight and dci = tdc + cost in
          fun st ->
            bulk_acct st dni dci;
            -1
      | Ir.Jump { weight; cost; dest; _ } -> (
          let dni = tdn + weight and dci = tdc + cost in
          match dest with
          | Ir.Block id ->
              fun st ->
                bulk_acct st dni dci;
                st.stats.Interp.branches_taken <-
                  st.stats.Interp.branches_taken + 1;
                id
          | Ir.Out_of_range target ->
              fun st ->
                bulk_acct st dni dci;
                st.stats.Interp.branches_taken <-
                  st.stats.Interp.branches_taken + 1;
                raise (Vm_fault (Fault.Fall_off_end { pc = target })))
      | Ir.Fall { dest } ->
          if tdn = 0 && tdc = 0 then fun _ -> dest
          else
            fun st ->
              bulk_acct st tdn tdc;
              dest
      | Ir.Halt f ->
          let exn = Vm_fault f in
          fun st ->
            bulk_acct st tdn tdc;
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
        fun st ->
          if
            st.stats.Interp.insns_executed + w > ilimit
            || st.stats.Interp.branches_taken >= blimit
          then resume_decoded st head
          else body st
      else
        fun st ->
          if st.stats.Interp.insns_executed + w > ilimit then
            resume_decoded st head
          else body st
    end
  in
  let nblocks = Array.length ir.Ir.blocks in
  let bcode = Array.make nblocks (fun (_ : state) -> -1) in
  Array.iteri (fun i b -> bcode.(i) <- gen_block b) ir.Ir.blocks;
  let entry =
    if nblocks = 0 then fun (_ : state) ->
      (* only an empty program lifts to zero superblocks *)
      raise (Vm_fault (Fault.Fall_off_end { pc = 0 }))
    else
      fun st ->
        let next = ref 0 in
        while !next >= 0 do
          next := (Array.unsafe_get bcode !next) st
        done
  in
  let elided = Ir.elided_checks ir in
  let hoisted = Ir.hoisted_checks ir in
  let compile_ns = Obs.now_ns () -. t0 in
  if Obs.enabled () then begin
    Ometrics.observe m_compile_ns compile_ns;
    Ometrics.add m_ir_elided elided
  end;
  let sh =
    {
      entry;
      stack_top =
        Int64.add config.Config.stack_vaddr
          (Int64.of_int config.Config.stack_size);
      stack_size;
      ir_blocks = nblocks;
      elided;
      hoisted;
      cache_sites = !n_cache_sites;
    }
  in
  instantiate sh interp

let elided_count t = t.sh.elided
let hoisted_count t = t.sh.hoisted
let runs t = t.runs

(* [reset] is the warm pool's dividend: instead of zeroing the whole
   frame it zeroes only the dirty window the previous run's stores
   produced, then re-arms r10.  The register file is 88 bytes, cleared
   unconditionally. *)
let reset t =
  let st = t.st in
  Bytes.fill st.rf 0 88 '\000';
  if st.dirty_hi > st.dirty_lo then
    Bytes.fill st.stack st.dirty_lo (st.dirty_hi - st.dirty_lo) '\000';
  st.dirty_lo <- max_int;
  st.dirty_hi <- 0;
  set64 st.rf 80 t.sh.stack_top

let[@inline] load_args st (args : int64 array) =
  let n = Array.length args in
  if n > 0 then set64 st.rf 8 (Array.unsafe_get args 0);
  if n > 1 then set64 st.rf 16 (Array.unsafe_get args 1);
  if n > 2 then set64 st.rf 24 (Array.unsafe_get args 2);
  if n > 3 then set64 st.rf 32 (Array.unsafe_get args 3);
  if n > 4 then set64 st.rf 40 (Array.unsafe_get args 4)

let exec_exn ~args t =
  t.runs <- t.runs + 1;
  reset t;
  load_args t.st args;
  let stats = t.st.stats in
  stats.Interp.insns_executed <- 0;
  stats.Interp.branches_taken <- 0;
  stats.Interp.helper_calls <- 0;
  stats.Interp.cycles <- 0;
  t.sh.entry t.st

let exec ?(args = [||]) t =
  match exec_exn ~args t with
  | () -> Ok (get64 t.st.rf 0)
  | exception Vm_fault f -> Error f
  | exception Invalid_argument _ ->
      (* A violated analyzer proof or unsafe escape: contain it as a
         memory fault. *)
      Error (Fault.Memory_access { pc = 0; addr = 0L; size = 0; write = false })

(* [run] mirrors [Interp.run]'s observability envelope so engine-level
   accounting is identical whichever tier a container runs on. *)
let run ?(args = [||]) t =
  if not (Obs.enabled ()) then exec ~args t
  else begin
    let t0 = Obs.now_ns () in
    let outcome = exec ~args t in
    let stats = t.st.stats in
    Ometrics.incr m_runs;
    Ometrics.add m_insns stats.Interp.insns_executed;
    Ometrics.add m_branches stats.Interp.branches_taken;
    Ometrics.add m_helper_calls stats.Interp.helper_calls;
    Ometrics.add m_cycles stats.Interp.cycles;
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
            insns = stats.Interp.insns_executed;
            branches = stats.Interp.branches_taken;
            helpers = stats.Interp.helper_calls;
            cycles = stats.Interp.cycles;
            ok = Result.is_ok outcome;
          });
    outcome
  end

(* [fire] is the engine's steady-state dispatch entry: no result value is
   constructed and only counters (plain mutable stores) are updated, so a
   successful run of an allocation-free program performs zero minor-heap
   allocation.  Returns [false] when the run faulted. *)
let fire ~args t =
  match exec_exn ~args t with
  | () ->
      if Obs.enabled () then begin
        let stats = t.st.stats in
        Ometrics.incr m_runs;
        Ometrics.add m_insns stats.Interp.insns_executed;
        Ometrics.add m_branches stats.Interp.branches_taken;
        Ometrics.add m_helper_calls stats.Interp.helper_calls;
        Ometrics.add m_cycles stats.Interp.cycles
      end;
      true
  | exception Vm_fault f ->
      if Obs.enabled () then begin
        let stats = t.st.stats in
        Ometrics.incr m_runs;
        Ometrics.add m_insns stats.Interp.insns_executed;
        Ometrics.add m_branches stats.Interp.branches_taken;
        Ometrics.add m_helper_calls stats.Interp.helper_calls;
        Ometrics.add m_cycles stats.Interp.cycles;
        Ometrics.incr m_faults;
        Obs.event (fun () ->
            Otrace.Fault { kind = Fault.kind f; detail = Fault.to_string f })
      end;
      false
  | exception Invalid_argument _ ->
      if Obs.enabled () then begin
        Ometrics.incr m_runs;
        Ometrics.incr m_faults
      end;
      false

let result t = get64 t.st.rf 0

let copy_registers t dst =
  for i = 0 to 10 do
    dst.(i) <- get64 t.st.rf (i lsl 3)
  done

let ram_bytes t =
  let word = Sys.word_size / 8 in
  88 (* register file *)
  + (t.sh.ir_blocks * word)
