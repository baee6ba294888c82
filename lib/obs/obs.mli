(* Process-wide observability facade: one metrics registry, one trace
   ring, two switches.  See DESIGN.md "Observability". *)

val registry : Metrics.t
val ring : Trace.ring

(* Master switch for metric updates (default: on). *)
val enabled : unit -> bool
val set_enabled : bool -> unit

(* Switch for trace-event recording (default: off). *)
val tracing : unit -> bool
val set_tracing : bool -> unit

(* Nanosecond clock: CLOCK_MONOTONIC unless [set_clock] substituted
   another; [set_clock default_now_ns] restores it. *)
val now_ns : unit -> float
val set_clock : (unit -> float) -> unit
val default_now_ns : unit -> float

(* Handles into the global registry (idempotent per name). *)
val counter : string -> Metrics.counter
val gauge : string -> Metrics.gauge
val histogram : string -> Metrics.histogram

(* [event make] records [make ()] into the global ring iff tracing (and
   the master switch) is on; [make] is not called otherwise. *)
val event : (unit -> Trace.event) -> unit

(* Zero all metrics and clear the ring (handles stay valid). *)
val reset : unit -> unit

val snapshot_json : unit -> Jsonx.t
val metrics_json : unit -> Jsonx.t
val trace_json : unit -> Jsonx.t
