(* One entry point per table and figure of the paper's evaluation.
   `dune exec bench/main.exe` runs them all; EXPERIMENTS.md records
   paper-vs-measured.  Columns are labelled (measured) for host
   measurements and (model) for the calibrated ROM/cycle models — see
   Footprint and Platform for the model documentation. *)

module Platform = Femto_platform.Platform
module Engine = Femto_core.Engine
module Analysis = Femto_analysis.Analysis
module Container = Femto_core.Container
module Fletcher = Femto_workloads.Fletcher
module Apps = Femto_workloads.Apps
module Wsamples = Femto_wasm_mini.Samples
module Winterp = Femto_wasm_mini.Interp
module Wbinary = Femto_wasm_mini.Binary
module Eval_tree = Femto_script.Eval_tree
module Stack_vm = Femto_script.Stack_vm
module Ssamples = Femto_script.Samples
module Value = Femto_script.Value

let data = Fletcher.input_360

(* --- the four VM runtimes of §6, uniformly packaged --- *)

type vm_runtime = {
  row : string;
  code_size_bytes : int;
  cold_start : unit -> unit; (* parse/decode/verify/instantiate *)
  run : unit -> int64; (* one fletcher32 execution *)
  live_instance : unit -> Obj.t; (* for RAM measurement *)
}

(* One row per rBPF tier: the decoded interpreter is the paper's rBPF,
   the IR tier is what the engine hosts containers on. *)
let ebpf_runtime ~row loader () =
  let program = Fletcher.ebpf_program () in
  let helpers = Femto_vm.Helper.create () in
  let regions () = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
  let load () =
    match loader ~helpers ~regions:(regions ()) program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let vm = load () in
  {
    row;
    code_size_bytes = Femto_ebpf.Program.byte_size program;
    cold_start = (fun () -> ignore (load ()));
    run =
      (fun () ->
        match Femto_vm.Vm.run vm ~args:[| 0x2000_0000L |] with
        | Ok v -> v
        | Error fault -> failwith (Femto_vm.Fault.to_string fault));
    live_instance = (fun () -> Obj.repr vm);
  }

let wasm_runtime () =
  (* the WASM3-style pipeline: decode + validate + transpile to threaded
     code (the expensive cold start) then run the fused interpreter *)
  let binary = Wsamples.fletcher32_binary () in
  let load () =
    let m = Wbinary.decode binary in
    (match Femto_wasm_mini.Validate.validate m with
    | Ok () -> ()
    | Error e -> failwith e.Femto_wasm_mini.Validate.message);
    (match Femto_wasm_mini.Typecheck.check m with
    | Ok () -> ()
    | Error e -> failwith e.Femto_wasm_mini.Typecheck.message);
    Femto_wasm_mini.Fast.of_module m
  in
  let instance = load () in
  {
    row = "WASM (wasm_mini)";
    code_size_bytes = String.length binary;
    cold_start = (fun () -> ignore (load ()));
    run =
      (fun () ->
        match Femto_wasm_mini.Fast.run_fletcher32 instance data with
        | Ok v -> v
        | Error trap -> failwith (Winterp.trap_to_string trap));
    live_instance = (fun () -> Obj.repr instance);
  }

let jsish_runtime () =
  let source = Ssamples.fletcher32_source in
  let t = Eval_tree.load source in
  let args = Ssamples.fletcher32_args data in
  {
    row = "RIOT.js-class (script/tree)";
    code_size_bytes = String.length source;
    cold_start = (fun () -> ignore (Eval_tree.load source));
    run =
      (fun () ->
        match Eval_tree.call t "fletcher32" args with
        | Ok (Value.Int v) -> v
        | Ok _ -> failwith "non-int result"
        | Error m -> failwith m);
    live_instance = (fun () -> Obj.repr (t, args));
  }

let pyish_runtime () =
  let source = Ssamples.fletcher32_source in
  let t = Stack_vm.load source in
  let args = Ssamples.fletcher32_args data in
  {
    row = "MicroPython-class (script/bytecode)";
    code_size_bytes = String.length source;
    cold_start = (fun () -> ignore (Stack_vm.load source));
    run =
      (fun () ->
        match Stack_vm.call t "fletcher32" args with
        | Ok (Value.Int v) -> v
        | Ok _ -> failwith "non-int result"
        | Error m -> failwith m);
    live_instance = (fun () -> Obj.repr (t, args));
  }

let all_vm_runtimes () =
  [
    wasm_runtime ();
    ebpf_runtime ~row:"rBPF (femto_vm, decoded)"
      (fun ~helpers ~regions p -> Femto_vm.Vm.load ~helpers ~regions p)
      ();
    ebpf_runtime ~row:"rBPF (femto_vm, ir)"
      (fun ~helpers ~regions p -> Analysis.load ~helpers ~regions p)
      ();
    jsish_runtime ();
    pyish_runtime ();
  ]

(* --- Table 1: memory requirements of the runtimes --- *)

let table1 () =
  let rom = function
    | "WASM (wasm_mini)" -> Footprint.wasm_rom
    | "rBPF (femto_vm, decoded)" | "rBPF (femto_vm, ir)" -> Footprint.rbpf_rom
    | "RIOT.js-class (script/tree)" -> Footprint.riotjs_rom
    | "MicroPython-class (script/bytecode)" -> Footprint.micropython_rom
    | _ -> assert false
  in
  let rows =
    List.map
      (fun runtime ->
        ignore (runtime.run ());
        [
          runtime.row;
          Report.kib (rom runtime.row).Footprint.total;
          Report.kib (Footprint.instance_ram_bytes (runtime.live_instance ()));
        ])
      (all_vm_runtimes ())
    @ [
        [ "Host OS (without VM)";
          Report.kib Footprint.host_os_rom.Footprint.total;
          Report.kib Footprint.host_os_ram_bytes ];
      ]
  in
  Report.table ~title:"Table 1: Memory requirements for runtimes"
    ~header:[ "Runtime"; "ROM size (model)"; "RAM size (measured, host)" ]
    ~note:
      "ROM: calibrated structural model (see lib/eval/footprint.ml); RAM: \
       deep heap size of the live instance on the host."
    rows

(* --- Table 2: fletcher32 size/cold-start/run-time per runtime --- *)

let table2 () =
  let expected = Int64.of_int (Fletcher.checksum data) in
  let native_ns = Measure.time_ns (fun () -> Fletcher.checksum data) in
  let rows =
    [
      [ "Native OCaml"; "-"; "-"; Report.time_str native_ns; "1.0x" ];
    ]
    @ List.map
        (fun runtime ->
          let result = runtime.run () in
          if not (Int64.equal result expected) then
            failwith (runtime.row ^ ": wrong checksum");
          let cold_ns = Measure.time_ns runtime.cold_start in
          let run_ns = Measure.time_ns runtime.run in
          [
            runtime.row;
            Report.bytes_str runtime.code_size_bytes;
            Report.time_str cold_ns;
            Report.time_str run_ns;
            Printf.sprintf "%.0fx" (run_ns /. native_ns);
          ])
        (all_vm_runtimes ())
  in
  Report.table
    ~title:"Table 2: fletcher32 (360 B) hosted in each runtime (measured, host)"
    ~header:[ "Runtime"; "code size"; "cold start"; "run time"; "slowdown" ]
    ~note:"All columns measured on the host; shapes compare with paper Table 2."
    rows

(* --- Figure 2: flash distribution with different runtimes --- *)

let figure2 () =
  let os = Footprint.host_os_rom.Footprint.total in
  let entries =
    [
      ("RIOT alone", 0);
      ("RIOT + rBPF", Footprint.rbpf_rom.Footprint.total);
      ("RIOT + WASM", Footprint.wasm_rom.Footprint.total);
      ("RIOT + MicroPython-class", Footprint.micropython_rom.Footprint.total);
      ("RIOT + RIOT.js-class", Footprint.riotjs_rom.Footprint.total);
    ]
  in
  Report.table ~title:"Figure 2: Flash memory distribution (model)"
    ~header:[ "Configuration"; "OS"; "VM runtime"; "total"; "VM overhead" ]
    ~note:"RIOT configured with 6LoWPAN, CoAP, SUIT OTA (Figure 2 of the paper)."
    (List.map
       (fun (label, vm) ->
         [
           label;
           Report.kib os;
           Report.kib vm;
           Report.kib (os + vm);
           Printf.sprintf "%.0f%%" (100.0 *. float_of_int vm /. float_of_int os);
         ])
       entries)

(* --- Table 3: engine footprint, FC vs rBPF vs CertFC --- *)

let table3 () =
  let engines =
    [
      ("Femto-Containers", Platform.Fc, Footprint.femto_container_rom);
      ("rBPF", Platform.Rbpf, Footprint.rbpf_rom);
      ("CertFC", Platform.Certfc, Footprint.certfc_rom);
    ]
  in
  let rows =
    List.map
      (fun (label, runtime, rom) ->
        let fixture = Setup.make_fixture () in
        let tenant = Engine.add_tenant fixture.Setup.engine "t" in
        let container =
          Container.create ~name:label ~tenant
            ~contract:(Femto_core.Contract.require [])
            ~runtime (Apps.minimal ())
        in
        ignore
          (Setup.fail_attach
             (Engine.attach fixture.Setup.engine ~hook_uuid:Setup.bench_uuid
                container));
        ignore (Engine.trigger fixture.Setup.engine fixture.Setup.bench_hook ());
        let ram =
          match container.Container.instance with
          | Some (Container.Fc_instance vm) -> Femto_vm.Vm.ram_bytes vm
          | Some (Container.Certfc_instance vm) ->
              Femto_certfc.Interp.ram_bytes vm
          | None -> 0
        in
        [ label; Report.bytes_str rom.Footprint.total; Report.bytes_str ram ])
      engines
  in
  Report.table
    ~title:"Table 3: Footprint of a container hosting minimal logic"
    ~header:[ "Engine"; "ROM size (model)"; "RAM size (measured, host)" ]
    ~note:
      "RAM = stack + registers + stats + region table of the live instance. \
       Paper: FC 2992 B / rBPF 3032 B / CertFC 1378 B ROM; 624/620/672 B RAM."
    rows

(* --- Figure 7: flash requirement per implementation and platform --- *)

let figure7 () =
  let rows =
    List.map
      (fun platform ->
        [
          platform.Platform.name;
          Report.bytes_str
            (Footprint.rom_on_platform platform Footprint.femto_container_rom);
          Report.bytes_str (Footprint.rom_on_platform platform Footprint.rbpf_rom);
          Report.bytes_str (Footprint.rom_on_platform platform Footprint.certfc_rom);
        ])
      Platform.all
  in
  Report.table
    ~title:"Figure 7: Flash requirement per implementation and platform (model)"
    ~header:[ "Platform"; "Femto-Containers"; "rBPF"; "CertFC" ] rows

(* --- Figure 8: time per instruction class on Cortex-M4 --- *)

(* Micro-programs exercising one instruction class each; time per
   instruction is measured on the host for the three engines. *)
let instruction_class_programs =
  let repeat n line = String.concat "\n" (List.init n (fun _ -> line)) in
  let n = 512 in
  [
    ("ALU64", repeat n "add r0, 1" ^ "\nexit", n);
    ("ALU32", repeat n "add32 r0, 1" ^ "\nexit", n);
    ("MUL64", repeat n "mul r0, 3" ^ "\nexit", n);
    ("Load", "mov r1, r10\nsub r1, 8\n" ^ repeat n "ldxdw r0, [r1]" ^ "\nexit", n + 2);
    ("Store", "mov r1, r10\nsub r1, 8\n" ^ repeat n "stxdw [r1], r0" ^ "\nexit", n + 2);
    ( "Branch (taken)",
      (* chain of always-taken forward jumps *)
      repeat n "jeq r0, 0, +0" ^ "\nexit",
      n );
    ("Call", repeat 64 "call 1" ^ "\nexit", 64);
  ]

let figure8 () =
  let helpers = Femto_vm.Helper.create () in
  Femto_vm.Helper.register helpers ~id:1 ~cost_cycles:10 ~name:"nop_helper"
    (fun _mem _args -> Ok 0L);
  (* Both rBPF columns time the decoded interpreter: the IR tier's
     constant folding and per-block batching would erase the
     per-instruction cost this figure compares. *)
  let time_fc program insns =
    match Femto_vm.Vm.load ~helpers ~regions:[] program with
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
    | Ok vm ->
        Measure.time_ns ~repetitions:9 (fun () -> ignore (Femto_vm.Vm.run vm))
        /. float_of_int insns
  in
  let time_rbpf program insns =
    (* rBPF compatibility configuration of the same engine *)
    match
      Femto_vm.Vm.load ~config:Femto_vm.Config.rbpf_compat ~helpers ~regions:[]
        program
    with
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
    | Ok vm ->
        Measure.time_ns ~repetitions:9 (fun () -> ignore (Femto_vm.Vm.run vm))
        /. float_of_int insns
  in
  let time_certfc program insns =
    match Femto_certfc.Certfc.load ~helpers ~regions:[] program with
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
    | Ok vm ->
        Measure.time_ns ~repetitions:9 (fun () ->
            ignore (Femto_certfc.Certfc.run vm))
        /. float_of_int insns
  in
  let rows =
    List.map
      (fun (label, source, insns) ->
        let program = Femto_ebpf.Asm.assemble source in
        [
          label;
          Printf.sprintf "%.1f ns" (time_fc program insns);
          Printf.sprintf "%.1f ns" (time_rbpf program insns);
          Printf.sprintf "%.1f ns" (time_certfc program insns);
        ])
      instruction_class_programs
  in
  Report.table
    ~title:"Figure 8: Time per instruction class (measured, host ns/insn)"
    ~header:[ "Instruction class"; "Femto-Container"; "rBPF"; "CertFC" ]
    ~note:
      "Paper shape: FC and rBPF nearly identical; CertFC lagging behind."
    rows

(* --- Figure 9: execution duration of the three §8 apps --- *)

let app_cycles fixture (container, trigger) =
  (* run once and read the cycle-model cost of the VM execution plus hook
     dispatch and engine setup *)
  let reports = trigger () in
  List.iter
    (fun report ->
      match report.Engine.result with
      | Ok _ -> ()
      | Error fault ->
          failwith
            (Printf.sprintf "%s: %s"
               (Container.name report.Engine.container)
               (Femto_vm.Fault.to_string fault)))
    reports;
  let platform = Engine.platform fixture.Setup.engine in
  let vm_cycles = Container.last_run_cycles container in
  platform.Platform.empty_hook_cycles
  + Platform.hook_setup_cycles platform container.Container.runtime
  + vm_cycles

let figure9 () =
  let apps =
    [
      ("fletcher32 (360 B)", `Fletcher);
      ("thread counter (Listing 2)", `Counter);
      ("CoAP response formatter", `Coap);
    ]
  in
  List.iter
    (fun (app_label, which) ->
      let rows =
        List.map
          (fun platform ->
            let cells =
              List.map
                (fun runtime ->
                  let fixture = Setup.make_fixture ~platform () in
                  let cycles =
                    match which with
                    | `Fletcher ->
                        app_cycles fixture (Setup.fletcher_container ~runtime fixture)
                    | `Counter ->
                        app_cycles fixture
                          (Setup.thread_counter_container ~runtime fixture)
                    | `Coap ->
                        let container, _builder, trigger =
                          Setup.coap_formatter_container ~runtime fixture
                        in
                        app_cycles fixture (container, trigger)
                  in
                  Report.us (Platform.us_of_cycles platform cycles))
                [ Platform.Fc; Platform.Rbpf; Platform.Certfc ]
            in
            platform.Platform.name :: cells)
          Platform.all
      in
      Report.table
        ~title:
          (Printf.sprintf "Figure 9: %s execution duration (cycle model, 64 MHz)"
             app_label)
        ~header:[ "Platform"; "Femto-Container"; "rBPF"; "CertFC" ]
        rows)
    apps

(* --- Table 4: hook overhead in clock ticks --- *)

let table4 () =
  let rows =
    List.map
      (fun platform ->
        let empty_ticks =
          (* an empty hook: dispatch cost only, measured on the simulated
             kernel clock *)
          let fixture = Setup.make_fixture ~platform () in
          let before = Femto_rtos.Kernel.now fixture.Setup.kernel in
          ignore (Engine.trigger fixture.Setup.engine fixture.Setup.bench_hook ());
          Int64.to_int (Int64.sub (Femto_rtos.Kernel.now fixture.Setup.kernel) before)
        in
        let app_ticks =
          let fixture = Setup.make_fixture ~platform () in
          let _container, trigger = Setup.thread_counter_container fixture in
          let before = Femto_rtos.Kernel.now fixture.Setup.kernel in
          ignore (trigger ());
          Int64.to_int (Int64.sub (Femto_rtos.Kernel.now fixture.Setup.kernel) before)
        in
        [ platform.Platform.name; string_of_int empty_ticks; string_of_int app_ticks ])
      Platform.all
  in
  Report.table
    ~title:"Table 4: Hook overhead in clock ticks (thread switch example)"
    ~header:[ "Platform"; "Empty hook"; "Hook with application" ]
    ~note:"Paper: 109/83/106 empty; 1750/1163/754 with application."
    rows

(* --- §10.3: multiple instances, multiple tenants --- *)

let multi_instance () =
  let fixture = Setup.make_fixture () in
  let engine = fixture.Setup.engine in
  (* tenant 1: OS maintainer with the debug counter; tenant 2: acme with
     sensor-process + CoAP formatter — the paper's 3-container/2-tenant
     deployment *)
  let counter, _ = Setup.thread_counter_container fixture in
  Engine.register_sensor engine ~id:1 (fun () -> Ok 42L);
  let tenant = Engine.add_tenant engine "acme" in
  let sensor =
    Container.create ~name:"sensor-process" ~tenant
      ~contract:
        (Femto_core.Contract.require
           Femto_core.Contract.[ Sensors; Kv_local; Kv_tenant ])
      (Apps.sensor_process ())
  in
  ignore
    (Setup.fail_attach
       (Engine.attach engine ~hook_uuid:Setup.timer_uuid sensor));
  let formatter, _builder, _trigger = Setup.coap_formatter_container fixture in
  let containers = [ counter; sensor; formatter ] in
  let instance_bytes container =
    match container.Container.instance with
    | Some (Container.Fc_instance vm) -> Femto_vm.Vm.ram_bytes vm
    | Some (Container.Certfc_instance vm) -> Femto_certfc.Interp.ram_bytes vm
    | None -> 0
  in
  let rows =
    List.map
      (fun container ->
        [
          Container.name container;
          Femto_core.Tenant.id (Container.tenant container);
          Report.bytes_str (Container.bytecode_size container);
          Report.bytes_str (instance_bytes container);
        ])
      containers
  in
  let total_instances =
    List.fold_left (fun acc c -> acc + instance_bytes c) 0 containers
  in
  let store_bytes =
    Femto_core.Kvstore.ram_bytes (Engine.global_store engine)
    + List.fold_left
        (fun acc t -> acc + Femto_core.Kvstore.ram_bytes (Femto_core.Tenant.store t))
        0 (Engine.tenants engine)
    + List.fold_left
        (fun acc c ->
          acc + Femto_core.Kvstore.ram_bytes (Container.local_store c))
        0 containers
  in
  Report.table
    ~title:"Sec 10.3: three containers, two tenants on one device (measured, host)"
    ~header:[ "Container"; "Tenant"; "Bytecode"; "Instance RAM" ]
    ~note:
      (Printf.sprintf
         "Total instance RAM %s + key-value stores %s = %s (paper: 3.2 KiB \
          incl. 340 B stores). Density on 256 KiB RAM at ~2000 B/app: ~%d \
          instances."
         (Report.kib total_instances) (Report.bytes_str store_bytes)
         (Report.kib (total_instances + store_bytes))
         (256 * 1024 / ((total_instances / 3) + 2000)))
    rows

(* --- ablations: the design choices DESIGN.md calls out --- *)

(* Ablation A — install-time transpilation (§11): one-off cold-start cost
   vs per-execution speed, comparing the interpreter, the transpiled
   engine and CertFC on fletcher32. *)
let ablation_transpile () =
  let program = Fletcher.ebpf_program () in
  let helpers = Femto_vm.Helper.create () in
  let regions () = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
  let interp_cold () =
    ignore (Femto_vm.Vm.load ~helpers ~regions:(regions ()) program)
  in
  let transpile_cold () =
    ignore (Femto_vm.Transpile.load ~helpers ~regions:(regions ()) program)
  in
  let certfc_cold () =
    ignore (Femto_certfc.Certfc.load ~helpers ~regions:(regions ()) program)
  in
  let interp_vm =
    match Femto_vm.Vm.load ~helpers ~regions:(regions ()) program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let transpiled =
    match Femto_vm.Transpile.load ~helpers ~regions:(regions ()) program with
    | Ok t -> t
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let certfc_vm =
    match Femto_certfc.Certfc.load ~helpers ~regions:(regions ()) program with
    | Ok vm -> vm
    | Error fault -> failwith (Femto_vm.Fault.to_string fault)
  in
  let args = [| 0x2000_0000L |] in
  let rows =
    [
      ( "interpreter (pre-decoded)",
        Measure.time_ns interp_cold,
        Measure.time_ns (fun () -> Femto_vm.Vm.run interp_vm ~args) );
      ( "transpiled at install (closure-compiled)",
        Measure.time_ns transpile_cold,
        Measure.time_ns (fun () -> Femto_vm.Transpile.run transpiled ~args) );
      ( "CertFC (defensive, pure)",
        Measure.time_ns certfc_cold,
        Measure.time_ns (fun () -> Femto_certfc.Certfc.run certfc_vm ~args) );
    ]
  in
  Report.table
    ~title:"Ablation A (paper Sec 11): install-time transpilation, fletcher32"
    ~header:[ "Engine"; "install (cold)"; "run" ]
    ~note:"Transpilation trades a costlier install for faster executions."
    (List.map
       (fun (label, cold, run) ->
         [ label; Report.time_str cold; Report.time_str run ])
       rows)

(* Ablation B — allow-list length: the runtime memory check walks the
   region list, so access cost grows with the number of granted regions.
   Measured on the decoded tier ([Vm.load]): the IR tier's per-site
   region inline cache skips the walk. *)
let ablation_regions () =
  let loads = 256 in
  let body =
    String.concat "\n" (List.init loads (fun _ -> "ldxdw r0, [r1]")) ^ "\nexit"
  in
  let program = Femto_ebpf.Asm.assemble ("mov r1, 0x5000\n" ^ body) in
  let helpers = Femto_vm.Helper.create () in
  let rows =
    List.map
      (fun extra_count ->
        (* the target region is last: worst case for the walk *)
        let decoys =
          List.init extra_count (fun i ->
              Femto_vm.Region.make
                ~name:(Printf.sprintf "decoy%d" i)
                ~vaddr:(Int64.of_int (0x9000_0000 + (i * 0x1000)))
                ~perm:Femto_vm.Region.Read_only (Bytes.create 16))
        in
        let target =
          Femto_vm.Region.make ~name:"target" ~vaddr:0x5000L
            ~perm:Femto_vm.Region.Read_write (Bytes.create 64)
        in
        let vm =
          match
            Femto_vm.Vm.load ~helpers ~regions:(decoys @ [ target ]) program
          with
          | Ok vm -> vm
          | Error fault -> failwith (Femto_vm.Fault.to_string fault)
        in
        let ns = Measure.time_ns (fun () -> Femto_vm.Vm.run vm) in
        [
          string_of_int (extra_count + 2) (* + stack + target *);
          Printf.sprintf "%.1f ns" (ns /. float_of_int loads);
        ])
      [ 0; 1; 2; 4; 8; 16 ]
  in
  Report.table
    ~title:"Ablation B: allow-list length vs load cost (measured, host)"
    ~header:[ "regions in allow-list"; "per-load time" ]
    ~note:"Linear walk: per-access cost grows with granted regions."
    rows

(* Ablation C — variable-length encoding (§11): image size of every
   workload under the compact encoding. *)
let ablation_compact () =
  let programs =
    [
      ("fletcher32", Fletcher.ebpf_program ());
      ("thread counter", Apps.thread_counter ());
      ("sensor process", Apps.sensor_process ());
      ("CoAP formatter", Apps.coap_formatter ());
      ("minimal", Apps.minimal ());
    ]
  in
  Report.table
    ~title:"Ablation C (paper Sec 11): variable-length instruction encoding"
    ~header:[ "Program"; "fixed (8 B/insn)"; "compact"; "ratio" ]
    ~note:"The paper estimates ~50% of instructions shrink; decompression \
           happens once at install."
    (List.map
       (fun (label, program) ->
         let stats = Femto_ebpf.Compact.measure program in
         [
           label;
           Report.bytes_str stats.Femto_ebpf.Compact.fixed_bytes;
           Report.bytes_str stats.Femto_ebpf.Compact.compact_bytes;
           Printf.sprintf "%.2f" stats.Femto_ebpf.Compact.ratio;
         ])
       programs)

(* Ablation D — pre-flight verification cost vs program length: the cost
   a device pays once per install. *)
let ablation_verifier () =
  let rows =
    List.map
      (fun n ->
        let body =
          List.init n (fun i ->
              Femto_ebpf.Insn.make 0xb7 ~dst:(i mod 6)
                ~imm:(Int32.of_int i))
        in
        let program =
          Femto_ebpf.Program.of_insns (body @ [ Femto_ebpf.Insn.make 0x95 ])
        in
        let ns =
          Measure.time_ns (fun () ->
              Femto_vm.Verifier.verify Femto_vm.Config.default program)
        in
        [ string_of_int (n + 1); Report.time_str ns ])
      [ 16; 64; 256; 1024; 4095 ]
  in
  Report.table
    ~title:"Ablation D: pre-flight verifier cost vs program length (measured)"
    ~header:[ "instructions"; "verify time" ]
    rows

let ablations () =
  ablation_transpile ();
  ablation_regions ();
  ablation_compact ();
  ablation_verifier ()

(* --- §11 discussion: virtualization vs power efficiency --- *)

module Energy = Femto_platform.Energy

let discussion_energy () =
  (* side (a): per-execution CPU energy of the sensor-processing app,
     native vs hosted, and its impact on a 1-sample-per-10 s duty cycle *)
  let app_cycles runtime profile =
    let fixture =
      Setup.make_fixture ~platform:profile.Energy.platform ()
    in
    Engine.register_sensor fixture.Setup.engine ~id:1 (fun () -> Ok 42L);
    let tenant = Engine.add_tenant fixture.Setup.engine "acme" in
    let container =
      Container.create ~name:"sensor" ~tenant
        ~contract:
          (Femto_core.Contract.require
             Femto_core.Contract.[ Sensors; Kv_local; Kv_tenant ])
        ~runtime (Apps.sensor_process ())
    in
    ignore
      (Setup.fail_attach
         (Engine.attach fixture.Setup.engine ~hook_uuid:Setup.timer_uuid
            container));
    let before = Femto_rtos.Kernel.now fixture.Setup.kernel in
    (match Engine.trigger_by_uuid fixture.Setup.engine ~uuid:Setup.timer_uuid () with
    | Ok [ { Engine.result = Ok _; _ } ] -> ()
    | Ok _ | Error _ -> failwith "sensor app failed");
    Int64.to_int (Int64.sub (Femto_rtos.Kernel.now fixture.Setup.kernel) before)
  in
  (* native execution of the same logic: the helper costs without any
     interpreted instructions — the floor the paper compares against *)
  let native_cycles = 500 + 80 + 80 + 80 + 200 in
  let period_s = 10.0 in
  let rows =
    List.map
      (fun profile ->
        let fc = app_cycles Platform.Fc profile in
        let cert = app_cycles Platform.Certfc profile in
        [
          profile.Energy.platform.Platform.name;
          Printf.sprintf "%.2f uJ" (Energy.cpu_energy_uj profile ~cycles:native_cycles);
          Printf.sprintf "%.2f uJ" (Energy.cpu_energy_uj profile ~cycles:fc);
          Printf.sprintf "%.2f uJ" (Energy.cpu_energy_uj profile ~cycles:cert);
          Printf.sprintf "%.0f d"
            (Energy.battery_days profile ~active_cycles:native_cycles ~period_s
               ~capacity_mah:1000.0);
          Printf.sprintf "%.0f d"
            (Energy.battery_days profile ~active_cycles:fc ~period_s
               ~capacity_mah:1000.0);
        ])
      Energy.all
  in
  Report.table
    ~title:
      "Discussion (Sec 11a): per-sample energy, native vs hosted (model); \
       CR2477 battery life at 1 sample / 10 s"
    ~header:
      [ "Platform"; "native"; "Femto-Container"; "CertFC"; "battery native";
        "battery FC" ]
    ~note:
      "Virtualization overhead is real per execution but negligible against \
       the duty-cycled battery budget — the paper's argument (a)."
    rows;
  (* side (b): radio energy of an update — full firmware vs one container *)
  let firmware_bytes = Footprint.host_os_rom.Footprint.total in
  let container_bytes =
    Femto_ebpf.Program.byte_size (Apps.sensor_process ()) + 160
    (* + SUIT manifest & COSE envelope *)
  in
  let rows =
    List.map
      (fun profile ->
        let full = Energy.radio_energy_uj profile ~bytes:firmware_bytes in
        let update = Energy.radio_energy_uj profile ~bytes:container_bytes in
        [
          profile.Energy.platform.Platform.name;
          Printf.sprintf "%.0f uJ" full;
          Printf.sprintf "%.1f uJ" update;
          Printf.sprintf "%.0fx" (full /. update);
        ])
      Energy.all
  in
  Report.table
    ~title:
      "Discussion (Sec 11b): radio energy per update - full firmware vs one \
       Femto-Container (model)"
    ~header:[ "Platform"; "full firmware OTA"; "container OTA"; "saving" ]
    ~note:
      (Printf.sprintf
         "Full image %d B vs container update %d B incl. manifest: the \
          paper's argument (b), updates via containers cost orders of \
          magnitude less radio energy."
         firmware_bytes container_bytes)
    rows

(* --- run everything --- *)

let run_all () =
  table1 ();
  table2 ();
  figure2 ();
  table3 ();
  figure7 ();
  figure8 ();
  figure9 ();
  table4 ();
  multi_instance ();
  ablations ();
  discussion_energy ()
