(** An eBPF program: its fixed 8-byte wire slots, held as one immutable
    string.

    The program is decoded once, here: the accessors read one field of
    one slot in place and allocate nothing, and {!kind} is a lookup in
    {!Insn}'s static kind table.  Every stage that walks a program reads
    it through them.  Accessors raise [Invalid_argument] when [pc] is not
    a slot of the program. *)

type t

exception Truncated of string
(** Raised by {!of_bytes}/{!of_string} when the input length is not a
    multiple of 8. *)

val of_bytes : bytes -> t
(** Copies the wire bytes. *)

val of_string : string -> t
(** Shares the wire bytes (strings are immutable). *)

val to_bytes : t -> bytes
(** A fresh copy of the wire bytes. *)

val to_string : t -> string
(** The wire bytes themselves, not copied. *)

val of_insns : Insn.t list -> t
(** Encode slots.  @raise Invalid_argument when a field does not fit its
    wire width (opcode 0..255, registers 0..15, signed 16-bit offset). *)

val length : t -> int
(** Number of instruction slots. *)

val byte_size : t -> int
(** Size of the wire form: 8 bytes per slot. *)

(** {2 Fields of slot [pc], read in place} *)

val opcode : t -> int -> int
val dst : t -> int -> int
val src : t -> int -> int

val offset : t -> int -> int
(** Sign-extended 16-bit offset. *)

val imm : t -> int -> int
(** Sign-extended 32-bit immediate, as an [int]. *)

val kind : t -> int -> Insn.kind
(** [Insn.kind_of_byte (opcode t pc)]. *)

val lddw_imm : t -> int -> int64
(** The 64-bit immediate of the lddw pair whose head is slot [pc]. *)

(** {2 Unchecked reads}

    The same fields without the per-read bounds check, for a loop that
    checks [0 <= pc < length t] itself once per slot, as the decoded
    interpreter does.  With any other [pc] they read outside the
    program. *)

val unsafe_kind : t -> int -> Insn.kind
val unsafe_dst : t -> int -> int
val unsafe_src : t -> int -> int
val unsafe_offset : t -> int -> int
val unsafe_imm : t -> int -> int

(** {2 Allocating views, for tests and cold paths} *)

val get : t -> int -> Insn.t
(** [get t pc] is slot [pc] as a record. *)

val insns : t -> Insn.t array
(** Every slot as a fresh record array. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
