(** The optimized Femto-Container interpreter.

    The loop reads each slot in place from the program's wire bytes and
    dispatches on its kind from [Insn]'s static opcode table (the moral
    equivalent of the paper's computed jumptable).
    The interpreter trusts the pre-flight verifier for structural
    properties and performs the defensive runtime checks the verifier
    cannot do statically: allow-list memory access, division by zero, and
    the finite-execution budgets. *)

type stats = {
  mutable insns_executed : int;
  mutable branches_taken : int;
  mutable helper_calls : int;
  mutable cycles : int;  (** accumulated platform cycle-model cost *)
}

type t
(** What every instance of one program shares: the program, its
    configuration, helpers and cycle model.  An instance is a {!Mem.t}:
    it holds everything a run mutates. *)

val no_cost : Femto_ebpf.Insn.kind -> int

val create :
  ?config:Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  helpers:Helper.t ->
  Femto_ebpf.Program.t ->
  t
(** Bind a program to its helpers and cost model; nothing is decoded
    and no stack or register file is allocated — every run borrows a
    {!Frame} from its domain.  Callers should verify first; [run] still
    never crashes the host on an unverified program — it faults
    instead. *)

val stats : Mem.t -> stats
(** A copy of the instance's statistics of its last run. *)

(** {2 Structural accessors}

    Used by the IR backend ([Compile]). *)

val program : t -> Femto_ebpf.Program.t
val config : t -> Config.t
val helpers : t -> Helper.t

val lend : t -> Mem.t -> Frame.t
(** Borrow a frame for one run of the instance and put its stack in the
    instance's memory map.  Read [Mem.stack] first: {!give_back} needs
    it. *)

val give_back : Mem.t -> outer:Region.t -> Frame.t -> unit
(** Return the frame and restore the stack slot to [outer], on every
    exit path of the run. *)

val ram_bytes : t -> Mem.t -> int
(** Per-instance RAM in the paper's Table 3 sense: the borrowed frame's
    stack and register file ({!Frame.ram_bytes}), statistics and the
    region table. *)

val run : ?args:int64 array -> t -> Mem.t -> (int64, Fault.t) result
(** Execute the instance from slot 0 with r1..r5 preloaded from [args];
    returns r0. *)

val resume : pc:int -> t -> Mem.t -> Frame.t -> (int64, Fault.t) result
(** Continue a run at [pc] over the frame's registers and stack and the
    instance's stats, without resetting any of them and without the
    observability envelope of {!run}.  The IR tier hands a block over to
    this loop when the block might exhaust a budget, so budget faults
    keep the decoded interpreter's payload and partial stats. *)

(** {2 Shared instruction semantics}

    Used by the CertFC engine, the IR tier's closures and its constant
    folder, so every execution engine agrees bit-for-bit. *)

val alu64 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val alu32 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val condition : Femto_ebpf.Opcode.jmp_cond -> bool -> int64 -> int64 -> bool
val byte_swap :
  int -> Femto_ebpf.Opcode.endianness -> int32 -> int64 -> (int64, Fault.t) result

(** {3 Over a register file in bytes}

    The same semantics over registers held 8 bytes each in a [Bytes.t],
    the layout of a frame's register file (here the IR constant
    folder's known values).  No argument or result is
    an int64, so a call allocates nothing even where it is not
    inlined. *)

val zero_divisor : bool -> int64 -> bool
(** [zero_divisor is64 src]: a [Div]/[Mod] of that class by [src]
    faults. *)

val alu_regs :
  bool -> Femto_ebpf.Opcode.alu_op -> Bytes.t -> dst:int -> src:int -> unit
(** [alu_regs is64 op regs ~dst ~src] sets register [dst] to what
    [alu64]/[alu32] return for [dst] and [src]; the divisor must not be
    a [zero_divisor]. *)

val byte_swap_regs :
  Femto_ebpf.Opcode.endianness -> bits:int -> Bytes.t -> dst:int -> unit
(** [byte_swap] of register [dst] at width [bits] (16, 32 or 64), in
    place. *)

val condition_regs :
  Femto_ebpf.Opcode.jmp_cond -> bool -> Bytes.t -> dst:int -> src:int -> bool
(** [condition] of registers [dst] and [src]. *)
