(* install/* bench family: the compile a signed update pays on install.

   One program shape, the one fcbench's edge-update workload installs: 4
   register initialisations, 505 seeded ALU fillers, [lddw r0, C] and
   [exit] — 512 slots, 4 KiB.  The row times [Program.of_bytes] +
   [Analysis.load] on its wire bytes (the whole install compile: decode,
   verify, analyze, IR build, VM build) and counts the minor-heap words
   one load allocates; per-stage rows split both numbers.  The [ir] row
   is [Passes.run]: lift into the flat scratch, the four passes, and the
   step records built once.

   The gated ratio is [inv_minor_words_x] = 100 000 / minor words per
   load: deterministic for a given compiler, so its gate does not
   depend on the host's timing noise.  The ns columns are reported next
   to it but not gated. *)

module Jsonx = Femto_obs.Jsonx
module Measure = Femto_eval.Measure
module Program = Femto_ebpf.Program
module Analysis = Femto_analysis.Analysis
module Passes = Femto_analysis.Passes
module Vm = Femto_vm.Vm
module Platform = Femto_platform.Platform

let ratio_key = "inv_minor_words_x"
let slots = 512

(* The fcbench edge-update template (same generator, fixed seed). *)
let program_bytes () =
  let rng = Random.State.make [| 1; 0x5017 |] in
  let b = Buffer.create 8192 in
  for r = 2 to 5 do
    Printf.bprintf b "mov r%d, %d\n" r (Random.State.int rng 1000)
  done;
  for i = 0 to 504 do
    Printf.bprintf b "%s r%d, %d\n"
      (if i land 1 = 0 then "add" else "xor")
      (2 + (i land 3))
      (Random.State.int rng 1000)
  done;
  Buffer.add_string b "lddw r0, 0x12345678\nexit\n";
  let bytes = Program.to_bytes (Femto_ebpf.Asm.assemble (Buffer.contents b)) in
  assert (Bytes.length bytes = slots * 8);
  bytes

(* Minor words one call of [f] allocates, averaged over [iters] calls. *)
let minor_words ?(iters = 50) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let ns f = Measure.wall_ns ~warmup:5 ~iters:40 ~trials:5 f

type stage = { stage : string; ns : float; words : float }

let measure stage f =
  let ns = ns (fun () -> ignore (Sys.opaque_identity (f ()))) in
  { stage; ns; words = minor_words f }

(* The row set and the gated ratio, from the whole load ([total]) and
   its stages. *)
let outcome ~total stages =
  let row s =
    Jsonx.Obj
      [
        ("name", Jsonx.String ("install/" ^ s.stage));
        ("ns_per_run", Jsonx.Float s.ns);
        ("minor_words_per_run", Jsonx.Float s.words);
      ]
  in
  {
    Family.rows = List.map row (total :: stages);
    ratios = [ (ratio_key, 100_000. /. total.words) ];
    failures = [];
  }

let run () =
  let bytes = program_bytes () in
  let helpers = Femto_vm.Helper.create () in
  let config = Femto_vm.Config.default in
  let cycle_cost = Platform.cycle_cost Platform.cortex_m4 Platform.Fc in
  let load () =
    match
      Analysis.load ~config ~cycle_cost ~helpers ~regions:[]
        (Program.of_bytes bytes)
    with
    | Ok vm -> vm
    | Error f ->
        failwith ("install program refused: " ^ Femto_vm.Fault.to_string f)
  in
  (match Vm.run (load ()) with
  | Ok 0x12345678L -> ()
  | Ok v -> failwith (Printf.sprintf "install program returned %Ld" v)
  | Error f -> failwith (Femto_vm.Fault.to_string f));
  let total = measure "total" load in
  let program = Program.of_bytes bytes in
  let analysis =
    match Analysis.analyze ~helpers config program with
    | Ok o -> o
    | Error f -> failwith (Femto_vm.Fault.to_string f)
  in
  let build_ir () =
    Passes.run ~cost:cycle_cost ~facts:analysis.Analysis.mem_facts program
  in
  let ir, _ = build_ir () in
  let stages =
    [
      measure "of_bytes" (fun () -> Program.of_bytes bytes);
      measure "verify" (fun () ->
          Femto_vm.Verifier.verify ~helpers config program);
      measure "analyze" (fun () -> Analysis.analyze ~helpers config program);
      measure "ir" build_ir;
      measure "vm_build" (fun () ->
          Vm.load_analyzed ~config ~cycle_cost
            ?proofs:analysis.Analysis.fastpath ~ir ~helpers ~regions:[]
            program);
    ]
  in
  Printf.printf
    "\nInstall smoke (%d-slot program, of_bytes + Analysis.load)\n%s\n" slots
    (String.make 42 '-');
  List.iter
    (fun s ->
      Printf.printf "  %-10s %10.1f us  %9.0f minor words\n" s.stage
        (s.ns /. 1000.) s.words)
    (stages @ [ total ]);
  outcome ~total stages

let family = { Family.name = "install"; tolerance = 0.9; run }
