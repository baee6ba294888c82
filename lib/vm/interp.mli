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

val no_cost : Femto_ebpf.Insn.kind -> int

val create :
  ?config:Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  helpers:Helper.t ->
  regions:Region.t list ->
  Femto_ebpf.Program.t ->
  t
(** Bind a program to fresh run state; nothing is decoded.  Callers
    should verify first; [run] still never crashes the host on an
    unverified program — it faults instead. *)

val mem : t -> Mem.t
val stats : t -> stats
val registers : t -> int64 array

(** {2 Structural accessors}

    Used by the IR backend ([Compile]), which shares this instance's
    memory map, stack buffer and stats record. *)

val config : t -> Config.t
val helpers : t -> Helper.t
val stack_data : t -> bytes

val ram_bytes : t -> int
(** Per-instance RAM in the paper's Table 3 sense: stack + register file
    + statistics + region table, from actual buffer sizes. *)

val run : ?args:int64 array -> t -> (int64, Fault.t) result
(** Execute from slot 0 with r1..r5 preloaded from [args]; returns r0. *)

val resume : pc:int -> t -> (int64, Fault.t) result
(** Continue a run at [pc] over the current registers, stack and stats,
    without resetting any of them and without the observability envelope
    of {!run}.  The IR tier hands a block over to this loop when the
    block might exhaust a budget, so budget faults keep the decoded
    interpreter's payload and partial stats. *)

(** {2 Shared instruction semantics}

    Used by the CertFC engine, the IR tier's closures and its constant
    folder, so every execution engine agrees bit-for-bit. *)

val alu64 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val alu32 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val condition : Femto_ebpf.Opcode.jmp_cond -> bool -> int64 -> int64 -> bool
val byte_swap :
  int -> Femto_ebpf.Opcode.endianness -> int32 -> int64 -> (int64, Fault.t) result
