(** The compiled execution tier.

    [compile_ir] translates the analyzer's optimized register IR into one
    specialized closure per superblock, threaded by a block-id
    trampoline.  Isolation semantics match the decoded interpreter
    bit-for-bit: [Checked] mode keeps the allow-list and both execution
    budgets; [Proven] mode is granted only to DAGs inside both static
    budgets, so the budget guard is compiled out.

    An instance is a warm pool entry: each run borrows a {!Frame} from
    its domain, whose registers live in an unboxed byte buffer; stores
    maintain the frame's dirty window over the stack, and [reset] zeroes
    only what earlier runs on the frame touched — so [fire] on an
    allocation-free program performs zero minor-heap allocation. *)

type code
(** The immutable compiled artifact: generated closures plus compile-time
    metadata.  All run-time mutable state lives in the instance
    ({!Mem.t}: stats, region inline caches) or in the run's frame
    (registers, stack, dirty window), so one [code] value backs any
    number of instances — the container image/instance split shares
    it. *)

type t = { code : code; instance : Mem.t }
(** One instance running compiled code. *)

type mode =
  | Checked  (** full defensive checks, like [Interp.run] *)
  | Proven
      (** the analyzer proved the program a DAG inside both static
          budgets, so the budget guard is compiled out *)

exception Vm_fault of Fault.t

val compile_ir : mode:mode -> ir:Ir.program -> Interp.t -> code
(** One specialized closure per IR block, threaded by a block-id
    trampoline.  Every run borrows its registers and stack from a
    {!Frame} and mutates only its instance's stats and inline caches.
    Instruction/cycle accounting is batched at fault-capable steps and
    block exits; in [Checked] mode a per-block headroom guard hands the
    run to [Interp.resume] at the block's head pc when a budget could
    expire mid-block, so budget faults (payload and partial stats) stay
    bit-for-bit identical to the decoded interpreter.  Proof-elided
    stack accesses compile to direct byte-buffer access behind a
    residual frame-bounds guard; hoisted allow-list accesses use a
    per-site, per-instance region inline cache, enabled when the
    instance's region snapshot is pairwise disjoint (the only case where
    caching is sound).  Helper ids are resolved against the table once,
    at compile time. *)

val cache_sites : code -> int
(** Inline-cache slots an instance of [code] must provide. *)

val elided : code -> int
(** IR memory checks the code elided against analyzer proofs. *)

val regions_disjoint : Config.t -> Region.t list -> bool
(** Whether an allow-list and the stack are pairwise disjoint: the
    condition under which an instance's inline caches are sound. *)

val run_on : ?args:int64 array -> code -> Mem.t -> (int64, Fault.t) result
(** Execute the instance with [Interp.run]'s exact observability
    envelope. *)

val fire_on : args:int64 array -> code -> Mem.t -> bool
(** Steady-state dispatch entry for the engine's warm pool: no result
    value is constructed; returns [false] when the run faulted.  Zero
    minor-heap allocation on success for allocation-free programs. *)

val run : ?args:int64 array -> t -> (int64, Fault.t) result
val fire : args:int64 array -> t -> bool

val result : t -> int64
(** r0 as left by the most recent execution on this domain, until the
    next one takes its frame. *)

val elided_count : t -> int
(** IR memory checks elided against analyzer proofs. *)

val hoisted_count : t -> int
(** IR allow-list scans compiled behind a region inline cache. *)

val runs : t -> int

val ram_bytes : code -> int
(** Additional state used by this tier: the block table (shared by
    every instance).  Its registers are the frame's one register file,
    which {!Interp.ram_bytes} already bills. *)
