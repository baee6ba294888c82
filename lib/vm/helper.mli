(** Helper (system call) registry.

    Containers reach OS facilities only through helpers invoked with the
    eBPF [call] instruction, with eBPF's calling convention: arguments
    in r1..r5 of the run's register file, the result in r0.  A helper
    also receives the container's memory map, so pointer arguments are
    checked against the same allow-list as VM loads and stores. *)

exception Error of string
(** Raised by a failing helper body: the calling tier turns it into the
    container's {!Fault.Helper_error} at the call site. *)

type fn = Mem.t -> bytes -> unit
(** A helper body over the run's register file (11 registers, 8 bytes
    each, the frame's [rf]): it reads its arguments r1..r5 with {!arg},
    writes its result with {!return}, and raises {!Error} to fault the
    calling container. *)

val arg : bytes -> int -> int64
(** [arg rf n] is register rN, [n] in 1..5. *)

val return : bytes -> int64 -> unit
(** [return rf v] sets r0 to [v]. *)

val fail : string -> 'a
(** [fail message] raises {!Error}. *)

type entry = {
  id : int;
  name : string;
  cost_cycles : int;  (** cycle-model cost charged per invocation *)
  arity : int option;
      (** number of argument registers r1..rN the helper consumes, when
          declared; used by the static analyzer's call-signature check *)
  fn : fn;
}

type t

val create : unit -> t

val register :
  t -> ?cost_cycles:int -> ?arity:int -> id:int -> name:string -> fn -> unit
(** Adds a helper; raises [Invalid_argument] on duplicate id or name, or
    an [arity] outside 0..5. *)

val find : t -> int -> entry option
val find_by_name : t -> string -> entry option
val id_of_name : t -> string -> int option
val name_of_id : t -> int -> string option
val mem : t -> int -> bool
val count : t -> int

val asm_resolver : t -> string -> int option
(** Plug for {!Femto_ebpf.Asm.assemble}'s [~helpers] argument. *)

val iter : t -> (entry -> unit) -> unit
(** Iterate in increasing id order. *)
