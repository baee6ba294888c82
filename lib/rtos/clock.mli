(** Virtual cycle clock.

    All RTOS-simulator time is counted in CPU cycles of the modelled
    microcontroller (64 MHz by default, as on the paper's boards), which
    makes every experiment deterministic. *)

type t

val default_frequency_hz : int
(** 64 MHz. *)

val create : ?frequency_hz:int -> unit -> t

val now : t -> int64

val now_int : t -> int
(** [now] as an immediate int, which never allocates. *)

val frequency_hz : t -> int

val advance : t -> int -> unit
(** Charge [cycles]; raises [Invalid_argument] on negative input. *)

val advance_to : t -> int64 -> unit
(** Jump forward to an absolute time (idle skip); never moves backward. *)

val advance_to_int : t -> int -> unit
(** [advance_to] with the time as an immediate int. *)

val cycles_of_us : t -> int -> int
val us_of_cycles : t -> int64 -> float
val ms_of_cycles : t -> int64 -> float
