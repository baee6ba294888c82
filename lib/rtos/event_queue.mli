(** Time-ordered event queue for the RTOS simulator.

    Events fire in (time, insertion-sequence) order, so simultaneous
    events are handled first-scheduled-first — deterministic by
    construction.  Backed by a binary min-heap: [add] and [pop] are
    O(log n), which is what keeps a fleet shard's wheel cheap with one
    parked timer per simulated device.  Times are cycle counts; the
    queue stores them as immediate ints, so an entry is one small block
    and the [_int] variants below never box a time. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> at:int64 -> 'a -> unit
(** Schedule a payload at an absolute cycle time. *)

val add_int : 'a t -> at:int -> 'a -> unit
(** [add] with the time as an immediate int: allocates the queue entry
    (4 words) and nothing else, once the heap has room. *)

val add_periodic_int : 'a t -> at:int -> period:int -> 'a -> unit
(** A payload due at [at], [at + period], [at + 2 period], ...: after
    each fire by {!advance_until}/{!advance_until_int}, the same entry
    goes back in, sequenced after everything its callback scheduled.
    ({!pop} and {!pop_due} remove it for good.)
    @raise Invalid_argument when [period <= 0]. *)

val peek_time : 'a t -> int64 option
(** Time of the earliest pending event. *)

val pop : 'a t -> (int64 * 'a) option

val pop_due : 'a t -> now:int64 -> (int64 * 'a) option
(** Pop the earliest event only if it is due at or before [now]. *)

val advance_until : 'a t -> until:int64 -> (at:int64 -> 'a -> unit) -> int
(** [advance_until t ~until f] fires every event due at or before
    [until] in (time, seq) order, handing each its due time; events the
    callbacks re-arm at or before [until] fire in the same call.
    Exactly equivalent to a [pop_due] loop.  Returns the number of
    events fired. *)

val advance_until_int : 'a t -> until:int -> (int -> 'a -> unit) -> int
(** [advance_until] with immediate-int times — one fleet-wheel epoch is
    one call. *)
