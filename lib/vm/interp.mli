(** The optimized Femto-Container interpreter.

    Programs are pre-decoded into an array of typed instruction views at
    load time (the moral equivalent of the paper's computed jumptable).
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
  ?kinds:Femto_ebpf.Insn.kind array ->
  helpers:Helper.t ->
  regions:Region.t list ->
  Femto_ebpf.Program.t ->
  t
(** Pre-decode a program.  Callers should verify first; [run] still never
    crashes the host on an unverified program — it faults instead.
    [kinds], if given, must be the pre-decoded view of [program]; image
    spawns pass the shared array so instances skip the decode. *)

val mem : t -> Mem.t
val stats : t -> stats
val registers : t -> int64 array

(** {2 Structural accessors}

    Used by the IR backend ([Compile]), which shares this instance's
    memory map, stack buffer and stats record. *)

val kinds : t -> Femto_ebpf.Insn.kind array
(** The pre-decoded instruction views (shared, never mutated). *)

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

    Used by the CertFC engine and the install-time transpiler so all
    three execution engines agree bit-for-bit. *)

val alu64 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val alu32 : int -> Femto_ebpf.Opcode.alu_op -> int64 -> int64 -> (int64, Fault.t) result
val condition : Femto_ebpf.Opcode.jmp_cond -> bool -> int64 -> int64 -> bool
val byte_swap :
  int -> Femto_ebpf.Opcode.endianness -> int32 -> int64 -> (int64, Fault.t) result
