(** The RTOS simulator kernel: threads, priority scheduler, timers, and
    the context-switch hook Femto-Containers attach to.

    Stands in for RIOT (see DESIGN.md, substitutions): a deterministic
    cooperative simulation in which each scheduled thread runs one
    *quantum* (a closure) and reports whether it wants to run again,
    block, or finish.  Scheduling is priority-based (lower number = higher
    priority, RIOT convention) with round-robin among equal priorities;
    every scheduling decision fires the context-switch hooks. *)

type quantum_result = Yield | Block | Finish

type thread_state = Ready | Blocked | Done

type thread = {
  tid : int;
  name : string;
  mutable priority : int;  (** mutable for priority inheritance *)
  mutable state : thread_state;
  mutable last_run : int;
  mutable body : t -> quantum_result;
}

and t

val create : ?frequency_hz:int -> ?context_switch_cost:int -> unit -> t

val clock : t -> Clock.t
val now : t -> int64

val now_int : t -> int
(** [now] as an immediate int, which never allocates. *)

val now_us : t -> float

val current_tid : t -> int
(** 0 when no thread has run yet, matching the paper's thread-counter
    convention ("zero pid means no next thread"). *)

val context_switches : t -> int
val set_context_switch_cost : t -> int -> unit

val spawn : t -> name:string -> ?priority:int -> (t -> quantum_result) -> thread
val find_thread : t -> int -> thread option

val wake : thread -> unit
(** Blocked -> Ready; no-op otherwise. *)

val add_switch_hook : t -> (prev:int -> next:int -> unit) -> unit
(** Fires on every context switch, in registration order — the firmware
    launchpad of the paper's Listing 1 plugs in here. *)

(** {2 Timers} *)

val at_cycles : t -> at:int64 -> (t -> unit) -> unit
val after_cycles : t -> cycles:int -> (t -> unit) -> unit
val after_us : t -> us:int -> (t -> unit) -> unit

val every_us : t -> us:int -> (t -> bool) -> unit
(** Re-arming periodic timer: the callback first runs [us] after the
    call, then [us] after the clock at each fire, until it returns
    [false].  A fire allocates only its queue entry. *)

val sleep_us : t -> thread -> us:int -> unit

val run_timers_until : t -> until:int64 -> int
(** Timer-only epoch run: fire every timer due at or before [until] in
    (time, seq) order, advancing the clock to each timer's due time
    before its callback and finally to [until].  Thread quanta do not
    run — this is the fleet shard's wheel loop.  Returns the number of
    timers fired. *)

(** {2 Scheduling} *)

type step_outcome = Ran of int | Advanced_idle | Nothing_to_do

val step : t -> step_outcome
(** Fire due timers, then run one thread quantum or idle-advance the
    clock to the next timer. *)

val run : t -> ?until_cycles:int64 -> unit -> int
(** Run until the clock passes [until_cycles] or the system is fully idle
    with no pending timers; returns the number of quanta executed. *)

val run_for_us : t -> us:int -> int
