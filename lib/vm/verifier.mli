(** Pre-flight instruction checker (paper §7).

    Runs once, before a program is executed for the first time.  After a
    program passes, the interpreter can trust: every opcode decodes,
    register fields are in range, r10 is never written, every jump lands
    on a real instruction inside the program, every [lddw] pair is
    complete, reserved fields are zero, execution cannot fall off the end,
    and the program fits the static budget N_i. *)

type ok = {
  insn_count : int;  (** program length in slots *)
  branch_count : int;  (** static count of branch instructions *)
  call_ids : int list;  (** helper ids referenced, in program order *)
}

val writes_dst : Femto_ebpf.Insn.kind -> bool
(** Whether the instruction writes its destination register (used for the
    r10 read-only check; store instructions only read [dst]). *)

val is_branch : Femto_ebpf.Insn.kind -> bool
(** Whether the instruction is a (conditional or unconditional) branch. *)

val check_registers :
  Femto_ebpf.Program.t -> int -> Femto_ebpf.Insn.kind -> (unit, Fault.t) result
(** [check_registers program pc kind]: register fields in range, r10
    never written. *)

val check_reserved :
  Femto_ebpf.Program.t -> int -> Femto_ebpf.Insn.kind -> (unit, Fault.t) result
(** Reserved-field-zero checks on slot [pc], shared with the CertFC
    checker. *)

val verify :
  ?helpers:Helper.t -> Config.t -> Femto_ebpf.Program.t -> (ok, Fault.t) result
(** [verify ?helpers config program] returns static counts on success or
    the first fault found.  When [helpers] is given, every [call] target
    must be a registered helper. *)
