(** A single 64-bit eBPF instruction slot.

    Wire layout (little endian): 8-bit opcode, 4-bit destination register,
    4-bit source register, 16-bit signed offset, 32-bit signed immediate.
    [lddw] occupies two consecutive slots. *)

type t = {
  opcode : int;  (** 0..255 *)
  dst : int;  (** destination register field, 0..15 as encoded *)
  src : int;  (** source register field, 0..15 as encoded *)
  offset : int;  (** signed 16-bit branch/memory offset *)
  imm : int32;  (** signed 32-bit immediate *)
}

val size_bytes : int
(** Bytes per instruction slot (8). *)

val make : ?dst:int -> ?src:int -> ?offset:int -> ?imm:int32 -> int -> t
(** [make opcode] builds an instruction; omitted fields default to zero. *)

val equal : t -> t -> bool

(** Typed view of a decoded instruction. *)
type kind =
  | Alu of bool * Opcode.alu_op * Opcode.source
      (** [Alu (is_64bit, op, operand source)] *)
  | Load of Opcode.size  (** LDX: [dst <- *(src + offset)] *)
  | Store_imm of Opcode.size  (** ST: [*(dst + offset) <- imm] *)
  | Store_reg of Opcode.size  (** STX: [*(dst + offset) <- src] *)
  | Lddw_head  (** first slot of a 64-bit load; consumes the next slot *)
  | Lddw_tail  (** second slot of a 64-bit load; never executed *)
  | End of Opcode.endianness
      (** byte-order conversion; the immediate selects 16/32/64-bit width *)
  | Ja  (** unconditional relative jump *)
  | Jcond of bool * Opcode.jmp_cond * Opcode.source
      (** conditional jump; [bool] selects 64-bit vs 32-bit comparison *)
  | Call  (** helper (system) call by immediate id *)
  | Exit  (** return r0 *)
  | Invalid of int  (** unknown opcode byte *)

val kind_of_byte : int -> kind
(** The typed view of an opcode byte (its low 8 bits): a lookup in a
    256-entry table built once at module initialisation, so it allocates
    nothing. *)

val kind : t -> kind
(** [kind_of_byte insn.opcode]; an opcode outside 0..255 (only {!make}
    builds one) gets the same classification computed on the fly. *)

val lddw_imm : head:t -> tail:t -> int64
(** Reassemble the 64-bit immediate of an [lddw] pair. *)

val lddw_pair : int -> int64 -> t * t
(** [lddw_pair dst imm64] builds the two slots of an [lddw]. *)

val encode_into : bytes -> int -> t -> unit
(** [encode_into buf pos insn] writes the 8-byte wire form at [pos]. *)

val decode_from : bytes -> int -> t
(** [decode_from buf pos] reads the 8-byte wire form at [pos]. *)

val to_bytes : t -> bytes

val pp : Format.formatter -> t -> unit
