(* femto-bench/1 conformance and the one ratio gate: every smoke family's
   emitter must produce documents the shared Schema.validate accepts, the
   committed bench/baseline.json must parse and still name current
   ratios, and Gate must fire on a regressed ratio, a missing ratio and
   an unreadable or malformed baseline — with one rule for every
   family. *)

module Schema = Femto_bench.Schema
module Family = Femto_bench.Family
module Gate = Femto_bench.Gate
module Smoke = Femto_bench.Smoke
module Corpus = Femto_bench.Corpus
module Dispatch_bench = Femto_bench.Dispatch_bench
module Spawn_bench = Femto_bench.Spawn_bench
module Fleet_bench = Femto_bench.Fleet_bench
module Edge_bench = Femto_bench.Edge_bench
module Jsonx = Femto_obs.Jsonx

let check_valid label doc =
  Alcotest.(check (list string)) (label ^ " validates") [] (Schema.validate doc)

let contains affix s = Astring.String.is_infix ~affix s
let family_doc name o = Schema.doc (Family.sections name o)

(* --- emitter conformance (synthetic rows: no timing in tests) -------- *)

let corpus_rows =
  [
    {
      Corpus.wname = "l1/fib"; layer = "l1"; runtime = "rbpf";
      tier = "decoded"; ns = 1000.0; result = 42L;
    };
    {
      Corpus.wname = "l1/fib"; layer = "l1"; runtime = "script";
      tier = "tree"; ns = 8000.0; result = 42L;
    };
    {
      Corpus.wname = "l2/anomaly"; layer = "l2"; runtime = "wasm";
      tier = "fast"; ns = 2500.0; result = 7L;
    };
  ]

let test_corpus_emitter () =
  check_valid "corpus doc" (family_doc "corpus" (Corpus.outcome corpus_rows))

let test_dispatch_emitter () =
  let o =
    Dispatch_bench.outcome
      [ ("dispatch/dagsum-decoded", 120.0); ("dispatch/dagsum-ir", 40.0) ]
  in
  check_valid "dispatch doc" (family_doc "dispatch" o);
  Alcotest.(check (list string)) "faster IR passes its floor" [] o.failures;
  Alcotest.(check int) "no gated ratio" 0 (List.length o.ratios);
  let slow =
    Dispatch_bench.outcome
      [ ("dispatch/dagsum-decoded", 40.0); ("dispatch/dagsum-ir", 120.0) ]
  in
  Alcotest.(check bool) "slower IR fails its floor" true (slow.failures <> [])

let spawn_rows =
  List.map
    (fun (w : Spawn_bench.workload) ->
      {
        Spawn_bench.name = w.w_name; attach_ns = 200_000.; spawn_ns = 900.;
        image_hits = 522; image_misses = 1;
      })
    (Spawn_bench.workloads ())

let spawn_fp =
  {
    Spawn_bench.spawn_1_100 = 2272.;
    spawn_100_10k = 2280.;
    attach_1_100 = 45440.;
    fraction = 0.05;
  }

let test_spawn_emitter () =
  let o = Spawn_bench.outcome spawn_rows spawn_fp in
  check_valid "spawn doc" (family_doc "spawn" o);
  Alcotest.(check (list string)) "floors hold" [] o.failures

let fleet_rows =
  [
    {
      Fleet_bench.c_name = "campaign-10k-1d"; c_domains = 1;
      c_wall_ns = 7.1e8; c_updates_ok = 10_000; c_ups_core = 14_000.;
      c_incomplete = 0; c_half = 0; c_fingerprint = "abc";
    };
    {
      Fleet_bench.c_name = "campaign-10k-2d"; c_domains = 2;
      c_wall_ns = 4.2e8; c_updates_ok = 10_000; c_ups_core = 11_900.;
      c_incomplete = 0; c_half = 0; c_fingerprint = "abc";
    };
  ]

let fleet_fp =
  { Fleet_bench.fleet_bytes = 4060.; spawn_bytes = 2296.; footprint_x = 1.77 }

let test_fleet_emitter () =
  let o = Fleet_bench.outcome ~cores:2 fleet_rows fleet_fp in
  check_valid "fleet doc" (family_doc "fleet" o);
  Alcotest.(check (list string)) "floors hold" [] o.failures

let edge_row ?p50 ?p90 ?p99 ?rps ?accepted name ns =
  {
    Edge_bench.e_name = name; e_ns = ns; e_p50 = p50; e_p90 = p90;
    e_p99 = p99; e_rps = rps; e_accepted = accepted; e_ok = true;
  }

let edge_rows =
  [
    edge_row "edge/udp-get-uncached" 30_000. ~p50:20_000. ~p90:40_000.
      ~p99:90_000. ~rps:33_000.;
    edge_row "edge/udp-get-cached" 15_000. ~p50:10_000. ~p90:15_000.
      ~p99:60_000. ~rps:66_000.;
    edge_row "edge/handler-uncached" 8_000.;
    edge_row "edge/handler-cached" 1_000.;
    edge_row "edge/update-hostile" 40_000. ~accepted:true;
  ]

let test_edge_emitter () =
  let o = Edge_bench.outcome edge_rows in
  check_valid "edge doc" (family_doc "edge" o);
  Alcotest.(check (list string)) "floors hold" [] o.failures

(* --- validator teeth -------------------------------------------------- *)

let edit_section doc section f =
  match doc with
  | Jsonx.Obj fields ->
      Jsonx.Obj (List.map (fun (k, v) -> if k = section then (k, f v) else (k, v)) fields)
  | doc -> doc

let test_rejects_bad_docs () =
  let not_ok label doc =
    Alcotest.(check bool) label false (Schema.validate doc = [])
  in
  not_ok "wrong tag" (Jsonx.Obj [ ("schema", Jsonx.String "nope/9") ]);
  not_ok "negative ns"
    (edit_section
       (family_doc "corpus" (Corpus.outcome corpus_rows))
       "corpus"
       (function
         | Jsonx.List (Jsonx.Obj row :: rest) ->
             Jsonx.List
               (Jsonx.Obj
                  (List.map
                     (function
                       | "ns_per_run", _ -> ("ns_per_run", Jsonx.Float (-5.0))
                       | kv -> kv)
                     row)
               :: rest)
         | v -> v));
  not_ok "crossed percentiles"
    (family_doc "edge"
       (Edge_bench.outcome
          [ edge_row "edge/crossed" 100. ~p50:9_000. ~p90:4_000. ~p99:5_000. ]));
  not_ok "negative percentile"
    (family_doc "edge"
       (Edge_bench.outcome [ edge_row "edge/negative" 100. ~p50:(-1.0) ]));
  not_ok "non-positive ratio"
    (edit_section
       (family_doc "corpus" (Corpus.outcome corpus_rows))
       "corpus_ratios"
       (fun _ -> Jsonx.Obj [ ("l1/fib:rbpf/decoded", Jsonx.Float 0.0) ]));
  not_ok "object section not named *_ratios"
    (Schema.doc [ ("spawn", Jsonx.Obj []) ]);
  not_ok "bad timestamp"
    (edit_section (Schema.doc []) "generated_at" (fun _ ->
         Jsonx.String "yesterday"))

let test_monotone_timestamps () =
  let stamp_of doc =
    match Jsonx.member "generated_at" doc with
    | Some (Jsonx.String s) -> (
        match Schema.parse_timestamp s with
        | Some t -> t
        | None -> Alcotest.failf "unparseable stamp %S" s)
    | _ -> Alcotest.fail "no generated_at"
  in
  let t1 = stamp_of (Schema.doc []) in
  let t2 = stamp_of (Schema.doc []) in
  Alcotest.(check bool) "stamps monotone" true (t2 >= t1)

(* --- the gate --------------------------------------------------------- *)

let test_gate_fires_on_slowdown () =
  let baseline = family_doc "corpus" (Corpus.outcome corpus_rows) in
  let gate rows = Gate.check_doc baseline [ (Corpus.family, Corpus.outcome rows) ] in
  (* unchanged timings: gate passes *)
  Alcotest.(check (list string)) "no regression accepted" [] (gate corpus_rows);
  (* inject a 10x slowdown into one non-reference row *)
  let failures =
    gate
      (List.map
         (fun (r : Corpus.row) ->
           if r.runtime = "script" then { r with Corpus.ns = r.ns *. 10.0 }
           else r)
         corpus_rows)
  in
  Alcotest.(check bool) "slowdown caught" true (failures <> []);
  Alcotest.(check bool)
    "failure names the row" true
    (List.exists (contains "corpus/l1/fib:script/tree") failures);
  (* a *missing* committed row must also fail *)
  Alcotest.(check bool)
    "missing row caught" true
    (gate (List.filter (fun (r : Corpus.row) -> r.runtime <> "wasm") corpus_rows)
    <> [])

let test_edge_gate_fires_on_regression () =
  let baseline = family_doc "edge" (Edge_bench.outcome edge_rows) in
  let gate rows =
    Gate.check_doc baseline [ (Edge_bench.family, Edge_bench.outcome rows) ]
  in
  Alcotest.(check (list string)) "unchanged ratios accepted" [] (gate edge_rows);
  (* cached speedup collapsing to ~1x must fail the gate *)
  let failures =
    gate
      (List.map
         (fun (r : Edge_bench.row) ->
           if r.e_name = "edge/handler-cached" then { r with e_ns = 7_000. }
           else r)
         edge_rows)
  in
  Alcotest.(check bool) "regression caught" true (failures <> []);
  Alcotest.(check bool)
    "failure names the ratio" true
    (List.exists (contains "edge/cached_handler_x") failures);
  (* a committed ratio disappearing must also fail *)
  Alcotest.(check bool)
    "missing ratio caught" true
    (gate
       (List.filter
          (fun (r : Edge_bench.row) -> not (contains "udp-get" r.e_name))
          edge_rows)
    <> [])

(* --- the committed baseline ------------------------------------------- *)

let baseline_path =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../bench/baseline.json"

let baseline () =
  match Gate.load baseline_path with
  | Ok doc -> doc
  | Error m -> Alcotest.fail m

let committed name =
  match Jsonx.member (Schema.ratios_key name) (baseline ()) with
  | Some (Jsonx.Obj kvs) ->
      List.map
        (fun (k, v) ->
          match Jsonx.to_float v with
          | Some f -> (k, f)
          | None -> Alcotest.failf "%s/%s not a float" name k)
        kvs
  | Some _ -> Alcotest.failf "%s ratios not an object" name
  | None -> []

let family name = List.find (fun (f : Family.t) -> f.name = name) Smoke.families
let run_of name ratios = (family name, { Family.rows = []; ratios; failures = [] })

(* Each family with committed ratios, and the tolerance it must keep:
   the gate is one rule, but no family's bound may loosen. *)
let gated = [ ("spawn", 0.6); ("fleet", 0.6); ("edge", 0.5); ("corpus", 0.5) ]

let test_gate_one_rule () =
  let doc = baseline () in
  Alcotest.(check (list string))
    "families with committed ratios"
    (List.map fst gated)
    (List.filter (fun n -> committed n <> []) Smoke.names);
  List.iter
    (fun (name, tolerance) ->
      let ratios = committed name in
      Alcotest.(check (float 0.0))
        (name ^ " tolerance") tolerance (family name).tolerance;
      Alcotest.(check (list string))
        (name ^ " unchanged passes") []
        (Gate.check_doc doc [ run_of name ratios ]);
      (* a drop just past 2x: the loosest tolerance is 0.5, and the
         boundary itself passes *)
      List.iter
        (fun (key, was) ->
          let id = name ^ "/" ^ key in
          let halved =
            Gate.check_doc doc
              [
                run_of name
                  (List.map
                     (fun (k, v) ->
                       if k = key then (k, Float.pred (was /. 2.)) else (k, v))
                     ratios);
              ]
          in
          (match halved with
          | [ m ] when contains id m -> ()
          | ms ->
              Alcotest.failf "%s halved: want one failure naming it, got [%s]"
                id (String.concat "; " ms));
          Alcotest.(check bool)
            (id ^ " missing fails") true
            (Gate.check_doc doc
               [ run_of name (List.remove_assoc key ratios) ]
            <> []))
        ratios)
    gated

let test_gate_unreadable_baseline () =
  let runs = [ run_of "edge" (committed "edge") ] in
  let fails label path affix =
    match Gate.check path runs with
    | [ m ] when contains affix m -> ()
    | ms -> Alcotest.failf "%s: got [%s]" label (String.concat "; " ms)
  in
  fails "missing file" "/nonexistent/baseline.json" "unreadable";
  let tmp = Filename.temp_file "baseline" ".json" in
  let write s =
    let oc = open_out tmp in
    output_string oc s;
    close_out oc
  in
  write "{ not json";
  fails "unparseable" tmp "malformed";
  write {|{"schema": "femto-bench/0"}|};
  fails "wrong schema" tmp "malformed";
  Sys.remove tmp;
  (* a family that produces ratios but has no committed section fails *)
  Alcotest.(check bool)
    "uncommitted family caught" true
    (Gate.check_doc (Schema.doc []) runs <> [])

(* The footprint ratios are reciprocals of lower-is-better numbers; the
   gate's edge must sit exactly at tolerance x committed. *)
let test_footprint_boundary () =
  let doc = baseline () in
  List.iter
    (fun (name, key) ->
      let tolerance = (family name).tolerance in
      let was = List.assoc key (committed name) in
      let gate now =
        Gate.check_doc doc
          [
            run_of name
              ((key, now) :: List.remove_assoc key (committed name));
          ]
      in
      Alcotest.(check (list string))
        (name ^ " at the boundary passes") [] (gate (was *. tolerance));
      Alcotest.(check bool)
        (name ^ " just past it fails") true
        (gate (Float.pred (was *. tolerance)) <> []))
    [
      ("spawn", Spawn_bench.inv_fraction_key);
      ("fleet", Fleet_bench.inv_footprint_key);
    ]

(* --- committed ratios still name what the families produce ------------ *)

let check_current name ~live ~required =
  let doc = baseline () in
  check_valid (name ^ " baseline") doc;
  let keys = List.map fst (committed name) in
  Alcotest.(check bool) (name ^ " baseline non-empty") true (keys <> []);
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " committed") true (List.mem key keys))
    required;
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " still produced") true (List.mem key live))
    keys

let test_corpus_baseline_current () =
  (* every committed ratio must name a workload/impl the registry still
     provides, so a renamed kernel can't silently stop gating *)
  let live =
    List.concat_map
      (fun (w : Femto_workloads.Harness.workload) ->
        List.map
          (fun (i : Femto_workloads.Harness.impl) ->
            Printf.sprintf "%s:%s/%s" w.wname i.runtime i.tier)
          w.impls)
      (Corpus.workloads ())
  in
  check_current "corpus" ~live ~required:[]

let test_spawn_baseline_current () =
  let live =
    List.map fst (Spawn_bench.outcome spawn_rows spawn_fp).ratios
  in
  check_current "spawn" ~live
    ~required:(Spawn_bench.inv_fraction_key :: Spawn_bench.floor_gated)

let test_fleet_baseline_current () =
  let live =
    List.map fst (Fleet_bench.outcome ~cores:2 fleet_rows fleet_fp).ratios
  in
  check_current "fleet" ~live ~required:live

let test_edge_baseline_current () =
  let live = List.map fst (Edge_bench.outcome edge_rows).ratios in
  check_current "edge" ~live ~required:live

let suite =
  [
    ( "emitters",
      [
        Alcotest.test_case "corpus doc conforms" `Quick test_corpus_emitter;
        Alcotest.test_case "dispatch doc conforms" `Quick test_dispatch_emitter;
        Alcotest.test_case "spawn doc conforms" `Quick test_spawn_emitter;
        Alcotest.test_case "fleet doc conforms" `Quick test_fleet_emitter;
        Alcotest.test_case "edge doc conforms" `Quick test_edge_emitter;
      ] );
    ( "validator",
      [
        Alcotest.test_case "rejects bad docs" `Quick test_rejects_bad_docs;
        Alcotest.test_case "timestamps monotone" `Quick test_monotone_timestamps;
      ] );
    ( "gate",
      [
        Alcotest.test_case "fires on injected slowdown" `Quick
          test_gate_fires_on_slowdown;
        Alcotest.test_case "edge gate fires on regression" `Quick
          test_edge_gate_fires_on_regression;
        Alcotest.test_case "one rule for every family" `Quick test_gate_one_rule;
        Alcotest.test_case "unreadable baseline fails" `Quick
          test_gate_unreadable_baseline;
        Alcotest.test_case "footprint reciprocal boundary" `Quick
          test_footprint_boundary;
      ] );
    ( "baselines",
      [
        Alcotest.test_case "corpus baseline current" `Quick
          test_corpus_baseline_current;
        Alcotest.test_case "spawn baseline current" `Quick
          test_spawn_baseline_current;
        Alcotest.test_case "fleet baseline current" `Quick
          test_fleet_baseline_current;
        Alcotest.test_case "edge baseline current" `Quick
          test_edge_baseline_current;
      ] );
  ]

let () = Alcotest.run "bench-schema" suite
