(* Tests for the observability layer: metric semantics, ring-buffer
   wraparound, JSON round-trips, and the global facade switches. *)

module Jsonx = Femto_obs.Jsonx
module Metrics = Femto_obs.Metrics
module Trace = Femto_obs.Trace
module Obs = Femto_obs.Obs

(* --- counters / gauges --- *)

let test_counter_semantics () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  Alcotest.(check int) "incr and add accumulate" 42 (Metrics.value c);
  (* lookup by the same name returns the same counter *)
  let c' = Metrics.counter reg "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "idempotent registration" 43 (Metrics.value c);
  Metrics.reset reg;
  Alcotest.(check int) "reset zeroes" 0 (Metrics.value c)

let test_metric_type_clash () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "clash");
  Alcotest.check_raises "gauge on a counter name"
    (Invalid_argument "metric clash already registered with another type")
    (fun () -> ignore (Metrics.gauge reg "clash"))

let test_gauge_semantics () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "test.gauge" in
  Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "set" 3.5 (Metrics.gauge_value g);
  Metrics.set g (-1.0);
  Alcotest.(check (float 1e-9)) "overwrite" (-1.0) (Metrics.gauge_value g)

(* --- histograms --- *)

let test_histogram_semantics () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "test.hist" in
  Alcotest.(check int) "empty count" 0 (Metrics.count h);
  List.iter (fun v -> Metrics.observe h v) [ 1.0; 4.0; 4.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Metrics.count h);
  Alcotest.(check (float 1e-9)) "sum" 1009.0 (Metrics.sum h);
  Alcotest.(check (float 1e-9)) "mean" 252.25 (Metrics.mean h);
  (* p50 falls in the 2^2..2^3 bucket holding the two 4.0 samples *)
  Alcotest.(check (float 1e-9)) "p50 bucket bound" 8.0 (Metrics.quantile h 0.5);
  (* quantiles clamp to the observed max *)
  Alcotest.(check (float 1e-9)) "p99 clamped to max" 1000.0
    (Metrics.quantile h 0.99)

(* --- ring buffer --- *)

let test_ring_wraparound () =
  let ring = Trace.create ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record ring ~t_ns:(float_of_int i)
      (Trace.Helper_call { id = i; name = Printf.sprintf "h%d" i })
  done;
  Alcotest.(check int) "total counts every record" 10 (Trace.total ring);
  Alcotest.(check int) "dropped = total - capacity" 6 (Trace.dropped ring);
  let events = Trace.events ring in
  Alcotest.(check int) "window is capacity-sized" 4 (List.length events);
  Alcotest.(check (list int)) "oldest first, newest retained" [ 6; 7; 8; 9 ]
    (List.map (fun r -> r.Trace.seq) events);
  Trace.clear ring;
  Alcotest.(check int) "clear empties" 0 (Trace.total ring);
  Alcotest.(check int) "clear drops nothing" 0
    (List.length (Trace.events ring))

let test_ring_partial_fill () =
  let ring = Trace.create ~capacity:8 () in
  Trace.record ring ~t_ns:1.0 (Trace.Fault { kind = "k"; detail = "d" });
  Alcotest.(check int) "one event" 1 (List.length (Trace.events ring));
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ring)

(* --- JSON --- *)

let test_json_round_trip () =
  let doc =
    Jsonx.Obj
      [
        ("name", Jsonx.String "hello \"quoted\"\nline");
        ("count", Jsonx.Int (-42));
        ("ns", Jsonx.Float 1234.5);
        ("whole", Jsonx.Float 2.0);
        ("ok", Jsonx.Bool true);
        ("nothing", Jsonx.Null);
        ("items", Jsonx.List [ Jsonx.Int 1; Jsonx.String "two"; Jsonx.Obj [] ]);
      ]
  in
  let round_tripped = Jsonx.of_string (Jsonx.to_string doc) in
  Alcotest.(check bool) "compact round-trip" true (doc = round_tripped);
  let pretty = Jsonx.of_string (Jsonx.to_string_pretty doc) in
  Alcotest.(check bool) "pretty round-trip" true (doc = pretty)

let test_json_rejects_garbage () =
  List.iter
    (fun text ->
      match Jsonx.of_string text with
      | exception Jsonx.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" text)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

let test_metrics_json_shape () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "vm.test" in
  Metrics.add c 7;
  let h = Metrics.histogram reg "lat" in
  Metrics.observe h 100.0;
  let json = Jsonx.of_string (Jsonx.to_string (Metrics.to_json reg)) in
  let counter_value =
    Option.bind (Jsonx.member "vm.test" json) (fun m ->
        Option.bind (Jsonx.member "value" m) Jsonx.to_int)
  in
  Alcotest.(check (option int)) "counter exported" (Some 7) counter_value;
  let hist_count =
    Option.bind (Jsonx.member "lat" json) (fun m ->
        Option.bind (Jsonx.member "count" m) Jsonx.to_int)
  in
  Alcotest.(check (option int)) "histogram exported" (Some 1) hist_count

let test_trace_json_shape () =
  let ring = Trace.create ~capacity:2 () in
  Trace.record ring ~t_ns:5.0
    (Trace.Suit_step { step = "signature"; ok = true; ns = 12.0 });
  let json = Jsonx.of_string (Jsonx.to_string (Trace.to_json ring)) in
  let first_kind =
    Option.bind (Jsonx.member "events" json) Jsonx.to_list
    |> Option.map List.hd
    |> Fun.flip Option.bind (Jsonx.member "event")
    |> Fun.flip Option.bind (fun e -> Jsonx.to_str e)
  in
  Alcotest.(check (option string)) "event kind" (Some "suit_step") first_kind

(* --- facade --- *)

(* The default clock never steps backwards; [set_clock] still
   substitutes a virtual one. *)
let test_clock_monotonic_and_overridable () =
  let prev = ref (Obs.now_ns ()) in
  for _ = 1 to 10_000 do
    let now = Obs.now_ns () in
    if now < !prev then Alcotest.failf "clock went back: %f < %f" now !prev;
    prev := now
  done;
  Obs.set_clock (fun () -> 42.0);
  Alcotest.(check (float 0.0)) "virtual clock" 42.0 (Obs.now_ns ());
  Obs.set_clock Obs.default_now_ns;
  Alcotest.(check bool) "default restored" true (Obs.now_ns () >= !prev)

let test_facade_switches () =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_tracing false;
  let before = Trace.total Obs.ring in
  Obs.event (fun () -> Trace.Fault { kind = "k"; detail = "" });
  Alcotest.(check int) "no event while tracing off" before (Trace.total Obs.ring);
  Obs.set_tracing true;
  Obs.event (fun () -> Trace.Fault { kind = "k"; detail = "" });
  Alcotest.(check int) "event recorded while tracing on" (before + 1)
    (Trace.total Obs.ring);
  Obs.set_tracing false;
  let snapshot = Jsonx.of_string (Jsonx.to_string (Obs.snapshot_json ())) in
  Alcotest.(check (option string)) "snapshot schema" (Some "femto-obs/1")
    (Option.bind (Jsonx.member "schema" snapshot) Jsonx.to_str)

(* --- analysis instrumentation --- *)

let test_analysis_counters_and_event () =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_tracing true;
  let value name = Metrics.value (Obs.counter name) in
  let analyze source =
    Femto_analysis.Analysis.analyze Femto_vm.Config.default
      (Femto_ebpf.Asm.assemble source)
  in
  (* accepted straight-line program: accepted and fastpath counters bump *)
  (match analyze "mov r0, 1\nexit" with
  | Ok o ->
      Alcotest.(check bool) "accepted" true (Femto_analysis.Analysis.accepted o)
  | Error _ -> Alcotest.fail "structural fault");
  Alcotest.(check int) "analysis.accepted" 1 (value "analysis.accepted");
  Alcotest.(check int) "analysis.fastpath_eligible" 1
    (value "analysis.fastpath_eligible");
  Alcotest.(check int) "analysis.rejected untouched" 0
    (value "analysis.rejected");
  (* uninitialized-read program: rejected counter bumps *)
  ignore (analyze "mov r0, r6\nexit");
  Alcotest.(check int) "analysis.rejected" 1 (value "analysis.rejected");
  Alcotest.(check int) "accepted unchanged" 1 (value "analysis.accepted");
  (* both runs left an Analysis_done event in the ring *)
  let dones =
    List.filter
      (fun r ->
        match r.Trace.event with Trace.Analysis_done _ -> true | _ -> false)
      (Trace.events Obs.ring)
  in
  Alcotest.(check int) "two analysis_done events" 2 (List.length dones);
  (match (List.nth dones 1).Trace.event with
  | Trace.Analysis_done { errors; fastpath; _ } ->
      Alcotest.(check bool) "rejected run reports errors" true (errors > 0);
      Alcotest.(check bool) "rejected run has no fast path" false fastpath
  | _ -> assert false);
  Obs.set_tracing false;
  Obs.reset ()

(* The IR tier and the engine's warm pool surface their work: IR build
   and compile time and elided checks at load, pool hits/resets per fire, and a
   Tier_selected trace event naming the tier that was engaged. *)
let test_tier_and_pool_observability () =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_tracing true;
  let module Engine = Femto_core.Engine in
  let module Container = Femto_core.Container in
  let module Contract = Femto_core.Contract in
  let source = "mov r6, 1\nadd r6, 2\nstxdw [r10-8], r6\nldxdw r0, [r10-8]\nexit" in
  let program = Femto_ebpf.Asm.assemble source in
  (match
     Femto_analysis.Analysis.load ~helpers:(Femto_vm.Helper.create ())
       ~regions:[] program
   with
  | Ok vm ->
      Alcotest.(check bool) "ir tier" true
        (Femto_vm.Vm.tier vm = Femto_vm.Vm.Ir)
  | Error _ -> Alcotest.fail "load");
  Alcotest.(check bool) "vm.compile_ns observed" true
    (Metrics.count (Obs.histogram "vm.compile_ns") >= 1);
  Alcotest.(check bool) "analysis.ir_build_ns observed" true
    (Metrics.count (Obs.histogram "analysis.ir_build_ns") >= 1);
  Alcotest.(check bool) "vm.ir_checks_elided counted" true
    (Metrics.value (Obs.counter "vm.ir_checks_elided") > 0);
  (let tiers =
     List.filter_map
       (fun r ->
         match r.Trace.event with
         | Trace.Tier_selected { tier; proven } -> Some (tier, proven)
         | _ -> None)
       (Trace.events Obs.ring)
   in
   match tiers with
   | [ (tier, proven) ] ->
       Alcotest.(check string) "tier named" "ir" tier;
       Alcotest.(check bool) "proofs reported" true (proven > 0)
   | _ -> Alcotest.fail "expected exactly one tier_selected event");
  (* warm-pool fire path: every fire on a compiled instance is a pool
     hit; every fire after the first reuses (resets) the instance *)
  let engine = Engine.create () in
  let hook =
    Engine.register_hook engine ~uuid:"obs" ~name:"obs" ~ctx_size:8 ()
  in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"obs" ~tenant ~contract:(Contract.require [])
      program
  in
  (match Engine.attach engine ~hook_uuid:"obs" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  Alcotest.(check int) "no faults" 0 (Engine.fire engine hook);
  Alcotest.(check int) "no faults" 0 (Engine.fire engine hook);
  Alcotest.(check int) "pool hits" 2
    (Metrics.value (Obs.counter "engine.pool_hits"));
  Alcotest.(check int) "pool resets" 1
    (Metrics.value (Obs.counter "engine.pool_resets"));
  Obs.set_tracing false;
  Obs.reset ()

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
    Alcotest.test_case "metric type clash" `Quick test_metric_type_clash;
    Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
    Alcotest.test_case "histogram semantics" `Quick test_histogram_semantics;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring partial fill" `Quick test_ring_partial_fill;
    Alcotest.test_case "json round trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "metrics json shape" `Quick test_metrics_json_shape;
    Alcotest.test_case "trace json shape" `Quick test_trace_json_shape;
    Alcotest.test_case "facade switches" `Quick test_facade_switches;
    Alcotest.test_case "clock monotonic and overridable" `Quick
      test_clock_monotonic_and_overridable;
    Alcotest.test_case "tier and pool observability" `Quick
      test_tier_and_pool_observability;
    Alcotest.test_case "analysis counters and event" `Quick
      test_analysis_counters_and_event;
  ]

let () = Alcotest.run "femto_obs" [ ("obs", suite) ]
