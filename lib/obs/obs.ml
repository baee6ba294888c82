(* Femto_obs.Obs — the process-wide observability facade.

   One global metrics registry and one global trace ring, behind two
   switches:

   - [enabled]  gates metric updates.  On by default: an update is a
     single mutable store, cheap enough for the VM dispatch loop.
   - [tracing]  gates event recording.  Off by default: events allocate
     a record and take a timestamp, which is too much for per-helper
     granularity in benchmarks unless explicitly requested.

   Instrumented libraries cache their metric handles at module level
   ([counter]/[histogram] are idempotent), then guard updates with
   [enabled ()] and event emission with [tracing ()]. *)

let registry = Metrics.create ()
let ring = Trace.create ()

let enabled_flag = ref true
let tracing_flag = ref false

let enabled () = !enabled_flag
let set_enabled v = enabled_flag := v
let tracing () = !tracing_flag
let set_tracing v = tracing_flag := v

(* CLOCK_MONOTONIC nanoseconds (bechamel's allocation-free stub): never
   steps backwards, unlike the wall clock.  Overridable for tests or a
   virtual clock. *)
let default_now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_ns_ref = ref default_now_ns
let now_ns () = !now_ns_ref ()
let set_clock f = now_ns_ref := f

let counter name = Metrics.counter registry name
let gauge name = Metrics.gauge registry name
let histogram name = Metrics.histogram registry name

(* [event e] records into the global ring when tracing is on.  The lazy
   timestamp keeps the disabled path to two loads and a branch. *)
let event make =
  if !tracing_flag && !enabled_flag then
    Trace.record ring ~t_ns:(now_ns ()) (make ())

let reset () =
  Metrics.reset registry;
  Trace.clear ring

let snapshot_json () =
  Jsonx.Obj
    [
      ("schema", Jsonx.String "femto-obs/1");
      ("enabled", Jsonx.Bool !enabled_flag);
      ("tracing", Jsonx.Bool !tracing_flag);
      ("metrics", Metrics.to_json registry);
      ("trace", Trace.to_json ring);
    ]

let metrics_json () = Metrics.to_json registry
let trace_json () = Trace.to_json ring
