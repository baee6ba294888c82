(** The compiled execution tier.

    [compile_ir] translates the analyzer's optimized register IR into one
    specialized closure per superblock, threaded by a block-id
    trampoline.  Isolation semantics match the decoded interpreter
    bit-for-bit: [Checked] mode keeps the allow-list and both execution
    budgets; [Proven] mode is granted only to DAGs inside both static
    budgets, so the budget guard is compiled out.

    The instance is a warm pool entry: registers live in an unboxed byte
    buffer, stores maintain a dirty high-water mark over the stack, and
    [reset] zeroes only what the previous run touched — so [fire] on an
    allocation-free program performs zero minor-heap allocation. *)

type t

type code
(** The immutable compiled artifact: generated closures plus compile-time
    metadata.  All run-time mutable state (registers, stack, stats, dirty
    window, region inline caches) lives in the instance, so one [code]
    value can back any number of instances — the container image/instance
    split shares it via [shared]/[instantiate]. *)

type mode =
  | Checked  (** full defensive checks, like [Interp.run] *)
  | Proven
      (** the analyzer proved the program a DAG inside both static
          budgets, so the budget guard is compiled out *)

exception Vm_fault of Fault.t

val compile_ir : mode:mode -> ir:Ir.program -> Interp.t -> t
(** One specialized closure per IR block, threaded by a block-id
    trampoline.  The instance shares [interp]'s memory map, stack buffer
    and stats record.  Instruction/cycle accounting is batched at
    fault-capable steps and block exits; in [Checked] mode a per-block
    headroom guard hands the run to [Interp.resume] at the block's head
    pc when a budget could expire mid-block, so budget faults (payload
    and partial stats) stay bit-for-bit identical to the decoded
    interpreter.  Proof-elided stack accesses compile to direct
    byte-buffer access behind a residual frame-bounds guard; hoisted
    allow-list accesses use a per-site, per-instance region inline
    cache, enabled when the instance's region snapshot is pairwise
    disjoint (the only case where caching is sound).  Helper ids are
    resolved against the table once, at compile time. *)

val shared : t -> code
(** The shared compiled artifact backing [t]. *)

val instantiate : code -> Interp.t -> t
(** Bind shared compiled code to a fresh interpreter instance.  Performs
    no verification, analysis or compilation — only the per-instance run
    state (register file, inline-cache slots, region snapshot) is
    allocated.  The interpreter must have been created from the same
    program and config the code was compiled from. *)

val run : ?args:int64 array -> t -> (int64, Fault.t) result
(** Execute with [Interp.run]'s exact observability envelope. *)

val fire : args:int64 array -> t -> bool
(** Steady-state dispatch entry for the engine's warm pool: no result
    value is constructed; returns [false] when the run faulted.  Zero
    minor-heap allocation on success for allocation-free programs. *)

val result : t -> int64
(** r0 as left by the most recent execution. *)

val elided_count : t -> int
(** IR memory checks elided against analyzer proofs. *)

val hoisted_count : t -> int
(** IR allow-list scans compiled behind a region inline cache. *)

val runs : t -> int

val copy_registers : t -> int64 array -> unit
(** Copy the register file into [dst] (length >= 11) without allocating. *)

val ram_bytes : t -> int
(** Additional state owned by this tier: register file plus the block
    table (shared when the instance was spawned from an image). *)
