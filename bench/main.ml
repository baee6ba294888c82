(* Benchmark harness entry point: regenerates every table and figure of
   the paper's evaluation (prints paper-style tables; see EXPERIMENTS.md
   for the paper-vs-measured record), then optionally runs the Bechamel
   microbenchmark suite with statistically-fitted ns/run estimates.  The
   per-push CI smoke families live in the femto_bench library behind one
   registry ({!Femto_bench.Smoke}):

     dune exec bench/main.exe                      # all experiments
     dune exec bench/main.exe -- --quick           # skip the Bechamel suite
     dune exec bench/main.exe -- --bechamel-only --quota 0.05 --json b.json
     dune exec bench/main.exe -- --ir-ablation     # IR pass ablation table
     dune exec bench/main.exe -- --smoke --json smoke.json \
                                 --baseline bench/baseline.json
     dune exec bench/main.exe -- --smoke --only spawn

   --json FILE writes a machine-readable femto-bench/1 document — the
   artifact CI uploads to extend the bench trajectory (BENCH_*.json).
   Any workload failure exits non-zero with a one-line diagnosis instead
   of an uncaught exception, so CI failures are clean. *)

open Bechamel
module Fletcher = Femto_workloads.Fletcher
module Dagsum = Femto_workloads.Dagsum
module Analysis = Femto_analysis.Analysis
module Experiments = Femto_eval.Experiments
module Jsonx = Femto_obs.Jsonx
module Schema = Femto_bench.Schema
module Dispatch_bench = Femto_bench.Dispatch_bench

let data = Fletcher.input_360

let dispatch_tests () =
  List.map
    (fun { Dispatch_bench.case_name; vm; args } ->
      Test.make ~name:case_name
        (Staged.stage (fun () -> ignore (Femto_vm.Vm.run vm ~args))))
    (Dispatch_bench.dispatch_cases ())

(* One Bechamel test per table/figure workload: the statistically robust
   counterpart of the wall-clock medians used in the tables. *)
let bechamel_tests () =
  let ebpf =
    let program = Fletcher.ebpf_program () in
    let helpers = Femto_vm.Helper.create () in
    let regions = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
    match Femto_analysis.Analysis.load ~helpers ~regions program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let certfc =
    let program = Fletcher.ebpf_program () in
    let helpers = Femto_vm.Helper.create () in
    let regions = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
    match Femto_certfc.Certfc.load ~helpers ~regions program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let dag_checked, dag_ir =
    (* Same unrolled DAG program twice: once on the fully checked
       interpreter, once through the static analyzer (which must prove
       stack accesses for the IR tier to elide — asserted below, along
       with agreement on the native reference result). *)
    let program = Dagsum.ebpf_program () in
    let regions () = Dagsum.regions data in
    let checked =
      match
        Femto_vm.Vm.load
          ~helpers:(Femto_vm.Helper.create ())
          ~regions:(regions ()) program
      with
      | Ok vm -> vm
      | Error fault -> failwith (Femto_vm.Fault.to_string fault)
    in
    let ir =
      match
        Femto_analysis.Analysis.load
          ~helpers:(Femto_vm.Helper.create ())
          ~regions:(regions ()) program
      with
      | Ok vm -> vm
      | Error fault -> failwith (Femto_vm.Fault.to_string fault)
    in
    if Femto_vm.Vm.proven_count ir = 0 then
      failwith "dagsum: analyzer proved no stack access";
    let expect = Ok (Dagsum.reference data) in
    if Femto_vm.Vm.run checked ~args:[| Dagsum.data_vaddr |] <> expect then
      failwith "dagsum: checked interpreter disagrees with native reference";
    if Femto_vm.Vm.run ir ~args:[| Dagsum.data_vaddr |] <> expect then
      failwith "dagsum: IR tier disagrees with native reference";
    (checked, ir)
  in
  let wasm =
    Femto_wasm_mini.Fast.of_module Femto_wasm_mini.Samples.fletcher32_module
  in
  let jsish =
    Femto_script.Eval_tree.load Femto_script.Samples.fletcher32_source
  in
  let pyish =
    Femto_script.Stack_vm.load Femto_script.Samples.fletcher32_source
  in
  let script_args = Femto_script.Samples.fletcher32_args data in
  Test.make_grouped ~name:"femto-containers"
    ([
       (* Table 2 row: native baseline *)
       Test.make ~name:"table2/native-fletcher32"
         (Staged.stage (fun () -> ignore (Fletcher.checksum data)));
       (* Table 2 / Figure 9 row: rBPF VM *)
       Test.make ~name:"table2/rbpf-fletcher32"
         (Staged.stage (fun () ->
              ignore (Femto_vm.Vm.run ebpf ~args:[| 0x2000_0000L |])));
       (* Figure 8 / Table 3 row: CertFC *)
       Test.make ~name:"fig8/certfc-fletcher32"
         (Staged.stage (fun () ->
              ignore (Femto_certfc.Certfc.run certfc ~args:[| 0x2000_0000L |])));
       (* Static-analysis dividend: identical DAG program, budget-checked
          interpreter vs the analyzer-fed IR tier. *)
       Test.make ~name:"analysis/dagsum-checked"
         (Staged.stage (fun () ->
              ignore (Femto_vm.Vm.run dag_checked ~args:[| Dagsum.data_vaddr |])));
       Test.make ~name:"analysis/dagsum-ir"
         (Staged.stage (fun () ->
              ignore (Femto_vm.Vm.run dag_ir ~args:[| Dagsum.data_vaddr |])));
       (* Table 1/2 row: WASM *)
       Test.make ~name:"table2/wasm-fletcher32"
         (Staged.stage (fun () ->
              ignore (Femto_wasm_mini.Fast.run_fletcher32 wasm data)));
       (* Table 1/2 rows: script profiles *)
       Test.make ~name:"table2/jsish-fletcher32"
         (Staged.stage (fun () ->
              ignore (Femto_script.Eval_tree.call jsish "fletcher32" script_args)));
       Test.make ~name:"table2/pyish-fletcher32"
         (Staged.stage (fun () ->
              ignore (Femto_script.Stack_vm.call pyish "fletcher32" script_args)));
       (* Table 2 column: cold starts *)
       Test.make ~name:"table2/rbpf-cold-start"
         (Staged.stage
            (let program = Fletcher.ebpf_program () in
             let helpers = Femto_vm.Helper.create () in
             let regions = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
             fun () ->
               ignore (Femto_analysis.Analysis.load ~helpers ~regions program)));
       Test.make ~name:"table2/pyish-cold-start"
         (Staged.stage (fun () ->
              ignore
                (Femto_script.Stack_vm.load
                   Femto_script.Samples.fletcher32_source)));
       (* Table 4 workload: engine trigger with the thread-counter app *)
       Test.make ~name:"table4/hook-with-app"
         (Staged.stage
            (let fixture = Femto_eval.Setup.make_fixture () in
             let _container, trigger =
               Femto_eval.Setup.thread_counter_container fixture
             in
             fun () -> ignore (trigger ())));
     ]
    @ dispatch_tests ())

(* Run the suite and return (name, ns/run OLS estimate) rows. *)
let run_bechamel ~quota () =
  let tests = bechamel_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
  in
  let rows = List.sort compare rows in
  Printf.printf "\nBechamel microbenchmarks (ns/run, OLS fit)\n%s\n"
    (String.make 44 '-');
  let estimates =
    List.map
      (fun (name, result) ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            Printf.printf "  %-40s %12.1f\n" name est;
            (name, Some est)
        | _ ->
            Printf.printf "  %-40s (no estimate)\n" name;
            (name, None))
      rows
  in
  flush stdout;
  estimates

let bench_json ~quota estimates =
  Schema.doc
    [
      ("quota_s", Jsonx.Float quota);
      ( "bechamel",
        Jsonx.List
          (List.map
             (fun (name, estimate) ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String name);
                   ( "ns_per_run",
                     match estimate with
                     | Some ns -> Jsonx.Float ns
                     | None -> Jsonx.Null );
                 ])
             estimates) );
    ]

let write_json ~quota estimates path =
  Schema.write_doc (bench_json ~quota estimates) path

(* --- entry point --- *)

let opt_value args flag =
  let rec find = function
    | a :: value :: _ when String.equal a flag -> Some value
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let () =
  let args = Array.to_list Sys.argv in
  let quick = List.mem "--quick" args in
  let bechamel_only = List.mem "--bechamel-only" args in
  let smoke = List.mem "--smoke" args in
  let ir_ablation = List.mem "--ir-ablation" args in
  let json_file = opt_value args "--json" in
  let baseline_file = opt_value args "--baseline" in
  let only = opt_value args "--only" in
  let quota =
    match opt_value args "--quota" with
    | None -> 0.25
    | Some raw -> (
        match float_of_string_opt raw with
        | Some q when q > 0.0 -> q
        | Some _ | None ->
            Printf.eprintf "bench: invalid --quota %S\n" raw;
            exit 2)
  in
  match
    if smoke then exit (Femto_bench.Smoke.run ~only ~json_file ~baseline_file)
    else if ir_ablation then Dispatch_bench.run_ir_ablation ()
    else begin
      if not bechamel_only then Experiments.run_all ();
      if not quick then begin
        let estimates = run_bechamel ~quota () in
        Option.iter (write_json ~quota estimates) json_file
      end
    end
  with
  | () -> exit 0
  | exception e ->
      (* a workload failure (wrong checksum, verifier rejection, ...)
         must fail the CI job cleanly, not abort with a raw backtrace *)
      Printf.eprintf "bench: workload failure: %s\n" (Printexc.to_string e);
      exit 1
