(* dispatch/* bench family: the execution-tier ablation (decoded vs ir)
   over the three hook workloads whose instruction mix the tiers were
   designed around.  Each case is one VM instance pinned to a tier,
   pre-checked against the workload's native reference so a semantics
   regression can never be reported as a performance number.
   As a smoke family its one gate is a hard floor: the IR tier must never
   fall behind the decoded interpreter. *)

module Analysis = Femto_analysis.Analysis
module Fletcher = Femto_workloads.Fletcher
module Dagsum = Femto_workloads.Dagsum
module Loop_sum = Femto_workloads.Loop_sum
module Hotcall = Femto_workloads.Hotcall
module Jsonx = Femto_obs.Jsonx
module Measure = Femto_eval.Measure

let data = Fletcher.input_360

type dispatch_case = {
  case_name : string;
  vm : Femto_vm.Vm.t;
  args : int64 array;
}

let dispatch_cases () =
  let mk name vm args expect =
    (match Femto_vm.Vm.run vm ~args with
    | Ok v when Int64.equal v expect -> ()
    | Ok v ->
        failwith
          (Printf.sprintf "%s: got %Ld, reference says %Ld" name v expect)
    | Error fault ->
        failwith (name ^ ": " ^ Femto_vm.Fault.to_string fault));
    { case_name = "dispatch/" ^ name; vm; args }
  in
  let decoded ?(helpers = Femto_vm.Helper.create ()) ~regions program =
    match Femto_vm.Vm.load ~helpers ~regions program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let ir ?(helpers = Femto_vm.Helper.create ()) ~regions program =
    match Analysis.load ~helpers ~regions program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let dag = Dagsum.ebpf_program () in
  let dag_args = [| Dagsum.data_vaddr |] in
  let dag_expect = Dagsum.reference data in
  let loop = Loop_sum.ebpf_program () in
  let loop_args = [| Loop_sum.data_vaddr |] in
  let loop_expect = Loop_sum.reference data in
  let hot = Hotcall.ebpf_program () in
  [
    (* dagsum: straight-line DAG, analyzer proofs available *)
    mk "dagsum-decoded" (decoded ~regions:(Dagsum.regions data) dag) dag_args
      dag_expect;
    mk "dagsum-ir" (ir ~regions:(Dagsum.regions data) dag) dag_args dag_expect;
    (* loop_sum: back edge, no analyzer fast path — the IR tier keeps
       its budget guard *)
    mk "loop-sum-decoded"
      (decoded ~regions:(Loop_sum.regions data) loop)
      loop_args loop_expect;
    mk "loop-sum-ir" (ir ~regions:(Loop_sum.regions data) loop) loop_args
      loop_expect;
    (* hotcall: helper-call-bound straight line *)
    mk "hotcall-decoded"
      (decoded ~helpers:(Hotcall.helpers ()) ~regions:[] hot)
      [||] Hotcall.reference;
    mk "hotcall-ir"
      (ir ~helpers:(Hotcall.helpers ()) ~regions:[] hot)
      [||] Hotcall.reference;
  ]

(* Micro-kernel batching: these cases run tens of ns to a few µs. *)
let wall_ns_per_run f = Measure.wall_ns ~warmup:200 ~iters:2000 ~trials:3 f

(* --ir-ablation: the IR pass pipeline with each stage toggled off in
   turn (plus the all/none ends), over the two kernels the ≥2x
   acceptance gate names.  Equivalence is implied — every configuration
   is differentially tested in test_ir.ml — so this only times. *)
let run_ir_ablation () =
  let module Passes = Femto_analysis.Passes in
  let configs =
    [
      ("all", Passes.all);
      ("no-canon", { Passes.all with Passes.canon = false });
      ("no-const-fold", { Passes.all with Passes.const_fold = false });
      ("no-dead-elim", { Passes.all with Passes.dead_elim = false });
      ("no-bounds-elim", { Passes.all with Passes.bounds_elim = false });
      ("none", Passes.none);
    ]
  in
  let kernels =
    [
      ( "dagsum",
        Dagsum.ebpf_program (),
        Dagsum.regions data,
        [| Dagsum.data_vaddr |],
        Dagsum.reference data );
      ( "loop_sum",
        Loop_sum.ebpf_program (),
        Loop_sum.regions data,
        [| Loop_sum.data_vaddr |],
        Loop_sum.reference data );
    ]
  in
  Printf.printf "\nIR pass ablation (wall-clock ns/run, best of 3)\n%s\n"
    (String.make 47 '-');
  List.iter
    (fun (kname, program, regions, args, expect) ->
      Printf.printf "  %s\n" kname;
      List.iter
        (fun (cname, passes) ->
          let vm =
            match
              Analysis.load ~passes ~helpers:(Femto_vm.Helper.create ())
                ~regions program
            with
            | Ok vm -> vm
            | Error fault -> failwith (Femto_vm.Fault.to_string fault)
          in
          (match Femto_vm.Vm.run vm ~args with
          | Ok v when Int64.equal v expect -> ()
          | Ok v -> failwith (Printf.sprintf "%s/%s: got %Ld" kname cname v)
          | Error fault ->
              failwith (Femto_vm.Fault.to_string fault));
          let ns =
            wall_ns_per_run (fun () -> ignore (Femto_vm.Vm.run vm ~args))
          in
          Printf.printf "    %-20s %12.1f\n" cname ns)
        configs)
    kernels;
  flush stdout

(* Each workload's IR case against its decoded case: the speedup is
   reported on the IR row and floored at 1.0; it is not baseline-gated. *)
let pairs =
  [ ("dagsum", "dagsum"); ("loop_sum", "loop-sum"); ("hotcall", "hotcall") ]

(* (workload, IR row name, decoded/IR speedup) for every pair timed. *)
let speedups rows =
  let find case = List.assoc_opt ("dispatch/" ^ case) rows in
  List.filter_map
    (fun (workload, case) ->
      match (find (case ^ "-decoded"), find (case ^ "-ir")) with
      | Some decoded, Some ir ->
          Some (workload, "dispatch/" ^ case ^ "-ir", decoded /. ir)
      | _ -> None)
    pairs

let outcome rows =
  let speedups = speedups rows in
  {
    Family.rows =
      List.map
        (fun (name, ns) ->
          Jsonx.Obj
            ([ ("name", Jsonx.String name); ("ns_per_run", Jsonx.Float ns) ]
            @ List.filter_map
                (fun (_, ir, s) ->
                  if ir = name then Some ("speedup_x", Jsonx.Float s) else None)
                speedups))
        rows;
    ratios = [];
    failures =
      List.concat_map
        (fun (workload, _, s) ->
          Family.fail_if (s < 1.0)
            "faster tier fell behind its baseline on %s_ir (%.2fx)" workload s)
        speedups;
  }

let run () =
  let rows =
    List.map
      (fun { case_name; vm; args } ->
        ( case_name,
          wall_ns_per_run (fun () -> ignore (Femto_vm.Vm.run vm ~args)) ))
      (dispatch_cases ())
  in
  Printf.printf "\nDispatch smoke (wall-clock ns/run, best of 3)\n%s\n"
    (String.make 45 '-');
  List.iter (fun (name, ns) -> Printf.printf "  %-40s %12.1f\n" name ns) rows;
  List.iter
    (fun (workload, _, s) ->
      Printf.printf "  %-40s %11.2fx\n" (workload ^ "_ir speedup") s)
    (speedups rows);
  outcome rows

(* No committed ratios, so [tolerance] is never consulted; 1.0 is the
   strictest value should one be committed. *)
let family = { Family.name = "dispatch"; tolerance = 1.0; run }
