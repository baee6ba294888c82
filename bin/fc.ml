(* fc — command-line front end for the Femto-Containers toolchain.

     fc asm prog.S -o prog.bin        assemble eBPF text to bytecode
     fc disasm prog.bin               disassemble bytecode
     fc verify prog.bin               run the pre-flight checker
     fc run prog.bin --arg 7          verify + execute (fc or certfc engine)
     fc inspect prog.bin              static statistics
     fc suit-sign ...                 build + sign a SUIT manifest
     fc suit-verify ...               verify a manifest against a payload *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let load_program path =
  Femto_ebpf.Program.of_bytes (Bytes.of_string (read_file path))

let helpers_table () =
  (* the standard syscall ABI, so `call bpf_store_global` assembles and
     helper ids disassemble to names *)
  Femto_core.Syscall.standard_names

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input file.")

let output_arg default =
  Arg.(value & opt string default & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")

(* --- asm --- *)

let asm_cmd =
  let run input output =
    let source = read_file input in
    match
      Femto_ebpf.Asm.assemble
        ~helpers:(fun name -> List.assoc_opt name (helpers_table ()))
        source
    with
    | exception Femto_ebpf.Asm.Error { line; message } ->
        Printf.eprintf "%s:%d: %s\n" input line message;
        exit 1
    | program ->
        write_file output (Bytes.to_string (Femto_ebpf.Program.to_bytes program));
        Printf.printf "%s: %d instructions, %d bytes -> %s\n" input
          (Femto_ebpf.Program.length program)
          (Femto_ebpf.Program.byte_size program)
          output;
        0
  in
  Cmd.v (Cmd.info "asm" ~doc:"Assemble eBPF text to Femto-Container bytecode")
    Term.(const run $ input_arg $ output_arg "out.bin")

(* --- disasm --- *)

let disasm_cmd =
  let run input =
    let program = load_program input in
    let names = helpers_table () in
    let helper_name id =
      List.find_map (fun (name, i) -> if i = id then Some name else None) names
    in
    print_string (Femto_ebpf.Disasm.to_string ~helper_name program);
    0
  in
  Cmd.v (Cmd.info "disasm" ~doc:"Disassemble Femto-Container bytecode")
    Term.(const run $ input_arg)

(* --- verify --- *)

let verify_cmd =
  let run input =
    let program = load_program input in
    match Femto_vm.Verifier.verify Femto_vm.Config.default program with
    | Ok ok ->
        (* Output format (documented in README): one OK line with the
           static counts — instruction slots, branch instructions, and
           the distinct helper ids called (listed in ascending order when
           there are any). *)
        let distinct =
          List.sort_uniq compare ok.Femto_vm.Verifier.call_ids
        in
        Printf.printf "OK: %d instructions, %d branches, %d distinct helper ids%s\n"
          ok.Femto_vm.Verifier.insn_count ok.Femto_vm.Verifier.branch_count
          (List.length distinct)
          (match distinct with
          | [] -> ""
          | ids ->
              Printf.sprintf " [%s]"
                (String.concat ", " (List.map string_of_int ids)));
        0
    | Error fault ->
        Printf.printf "REJECTED: %s\n" (Femto_vm.Fault.to_string fault);
        1
  in
  Cmd.v (Cmd.info "verify" ~doc:"Run the pre-flight instruction checker")
    Term.(const run $ input_arg)

(* --- analyze --- *)

(* A fully populated helper registry (every capability granted, inert
   facilities) so the analyzer can check call ids and arities for any
   program that uses the standard syscall ABI. *)
let analysis_helpers () =
  let facilities =
    {
      Femto_core.Syscall.local_store = Femto_core.Kvstore.create "local";
      tenant_store = Femto_core.Kvstore.create "tenant";
      global_store = Femto_core.Kvstore.create "global";
      now_ms = (fun () -> 0L);
      ticks = (fun () -> 0L);
      read_sensor = (fun _ -> Error "no sensor");
      trace = ignore;
    }
  in
  Femto_core.Syscall.build ~granted:Femto_core.Contract.all facilities

let analyze_cmd =
  let ir_arg =
    Arg.(
      value & flag
      & info [ "ir" ]
          ~doc:
            "Also lift to the superblock register IR, run the optimization \
             pass pipeline, and include the IR dump with per-pass rewrite \
             statistics in the JSON report.")
  in
  let run input ir =
    let program = load_program input in
    let helpers = analysis_helpers () in
    let report =
      Femto_analysis.Analysis.analyze ~helpers Femto_vm.Config.default program
    in
    let json = Femto_analysis.Analysis.report_to_json report in
    let json =
      match (ir, report) with
      | true, Ok outcome ->
          let lifted =
            Femto_analysis.Ir.lift ~cost:Femto_vm.Interp.no_cost
              ~facts:outcome.Femto_analysis.Analysis.mem_facts program
          in
          let optimized, preport = Femto_analysis.Passes.run lifted in
          let ir_json = Femto_analysis.Passes.to_json optimized preport in
          (match json with
          | Femto_obs.Jsonx.Obj fields ->
              Femto_obs.Jsonx.Obj (fields @ [ ("ir", ir_json) ])
          | other -> other)
      | _ -> json
    in
    print_endline (Femto_obs.Jsonx.to_string_pretty json);
    match report with
    | Ok outcome when Femto_analysis.Analysis.accepted outcome -> 0
    | Ok _ | Error _ -> 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run the abstract-interpretation analyzer (CFG, register \
          initialization, static stack bounds, termination) and emit JSON \
          diagnostics; exits non-zero on error-severity findings.  With \
          $(b,--ir), also dump the optimized superblock IR and per-pass \
          statistics.")
    Term.(const run $ input_arg $ ir_arg)

(* --- run --- *)

let run_cmd =
  let engine_arg =
    Arg.(value & opt (enum [ ("fc", `Fc); ("certfc", `Certfc) ]) `Fc
         & info [ "engine" ] ~doc:"Interpreter: fc (optimized) or certfc (verified-style).")
  in
  let args_arg =
    Arg.(value & opt_all int64 [] & info [ "arg" ] ~docv:"N" ~doc:"Argument register value (r1..r5), repeatable.")
  in
  let tier_arg =
    Arg.(value
         & opt (enum [ ("decoded", Femto_vm.Vm.Decoded);
                       ("ir", Femto_vm.Vm.Ir) ])
             Femto_vm.Vm.Ir
         & info [ "tier" ]
             ~doc:"Execution tier for the fc engine: decoded (defensive \
                   interpreter) or ir (superblock IR backend: analyzer \
                   proofs, optimization passes, one closure per block; the \
                   engine's tier and the default).")
  in
  let run input engine tier args =
    let program = load_program input in
    let helpers = Femto_vm.Helper.create () in
    let args = Array.of_list args in
    let outcome =
      match engine with
      | `Fc -> (
          let loaded =
            match tier with
            | Femto_vm.Vm.Decoded ->
                Femto_vm.Vm.load ~helpers ~regions:[] program
            | Femto_vm.Vm.Ir ->
                Femto_analysis.Analysis.load ~helpers ~regions:[] program
          in
          match loaded with
          | Error fault -> Error fault
          | Ok vm -> (
              match Femto_vm.Vm.run vm ~args with
              | Ok v ->
                  let stats = Femto_vm.Vm.stats vm in
                  Ok (v, stats.Femto_vm.Interp.insns_executed,
                      stats.Femto_vm.Interp.branches_taken)
              | Error fault -> Error fault))
      | `Certfc -> (
          match Femto_certfc.Certfc.load ~helpers ~regions:[] program with
          | Error fault -> Error fault
          | Ok vm -> (
              match Femto_certfc.Certfc.run vm ~args with
              | Ok v -> (
                  match Femto_certfc.Certfc.last_state vm with
                  | Some s ->
                      Ok (v, s.Femto_certfc.Interp.insns_executed,
                          s.Femto_certfc.Interp.branches_taken)
                  | None -> Ok (v, 0, 0))
              | Error fault -> Error fault))
    in
    match outcome with
    | Ok (v, insns, branches) ->
        Printf.printf "r0 = %Ld (0x%Lx) after %d instructions, %d branches\n" v v
          insns branches;
        0
    | Error fault ->
        Printf.printf "FAULT: %s\n" (Femto_vm.Fault.to_string fault);
        1
  in
  Cmd.v (Cmd.info "run" ~doc:"Verify and execute bytecode in a sandbox")
    Term.(const run $ input_arg $ engine_arg $ tier_arg $ args_arg)

(* --- metrics / trace: run under observability, dump JSON --- *)

let obs_engine_arg =
  Arg.(value & opt (enum [ ("fc", `Fc); ("certfc", `Certfc) ]) `Fc
       & info [ "engine" ] ~doc:"Interpreter: fc (optimized) or certfc (verified-style).")

let obs_args_arg =
  Arg.(value & opt_all int64 [] & info [ "arg" ] ~docv:"N"
       ~doc:"Argument register value (r1..r5), repeatable.")

(* Verify + execute [input] with the observability layer switched on;
   returns the process exit code.  Shared by `fc metrics` and `fc trace`. *)
let observed_run input engine args =
  Femto_obs.Obs.set_enabled true;
  Femto_obs.Obs.set_tracing true;
  Femto_obs.Obs.reset ();
  let program = load_program input in
  let helpers = Femto_vm.Helper.create () in
  let args = Array.of_list args in
  let outcome =
    match engine with
    | `Fc -> (
        match Femto_analysis.Analysis.load ~helpers ~regions:[] program with
        | Error fault -> Error fault
        | Ok vm -> Femto_vm.Vm.run vm ~args)
    | `Certfc -> (
        match Femto_certfc.Certfc.load ~helpers ~regions:[] program with
        | Error fault -> Error fault
        | Ok vm -> Femto_certfc.Certfc.run vm ~args)
  in
  match outcome with
  | Ok _ -> 0
  | Error fault ->
      Printf.eprintf "FAULT: %s\n" (Femto_vm.Fault.to_string fault);
      1

let metrics_cmd =
  let run input engine args =
    let code = observed_run input engine args in
    print_endline
      (Femto_obs.Jsonx.to_string_pretty (Femto_obs.Obs.metrics_json ()));
    code
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Execute bytecode with the observability layer enabled and dump \
          the metrics registry as JSON")
    Term.(const run $ input_arg $ obs_engine_arg $ obs_args_arg)

let trace_cmd =
  let run input engine args =
    let code = observed_run input engine args in
    print_endline
      (Femto_obs.Jsonx.to_string_pretty (Femto_obs.Obs.trace_json ()));
    code
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Execute bytecode with event tracing enabled and dump the trace \
          ring as JSON")
    Term.(const run $ input_arg $ obs_engine_arg $ obs_args_arg)

(* --- spawn: image-cache demo — N instances from one verified image --- *)

let spawn_cmd =
  let count_arg =
    Arg.(value & opt int 100
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Number of instances to spawn from the image.")
  in
  let fire_arg =
    Arg.(value & flag
         & info [ "fire" ]
             ~doc:"Run each spawned instance once after spawning and report \
                   the result distribution.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the spawn report as JSON (latencies, image-cache \
                   hit/miss counters, footprint) instead of text.")
  in
  let run input count fire json args =
    if count < 1 then begin
      prerr_endline "fc spawn: --count must be >= 1";
      2
    end
    else begin
      Femto_obs.Obs.set_enabled true;
      Femto_obs.Obs.reset ();
      let program = load_program input in
      let module Engine = Femto_core.Engine in
      let module Container = Femto_core.Container in
      let engine = Engine.create () in
      let hook_uuid = "fc-spawn" in
      let _hook =
        Engine.register_hook engine ~uuid:hook_uuid ~name:"fc spawn"
          ~ctx_size:16 ()
      in
      let tenant = Engine.add_tenant engine "cli" in
      let contract = Femto_core.Contract.require Femto_core.Contract.all in
      let make i =
        Container.create ~name:(Printf.sprintf "inst-%d" i) ~tenant ~contract
          program
      in
      let spawn c =
        match Engine.spawn engine ~hook_uuid c with
        | Ok _ -> ()
        | Error e ->
            Printf.eprintf "fc spawn: %s\n" (Engine.attach_error_to_string e);
            exit 1
      in
      (* the first spawn is the cache miss: verify + analyze + compile *)
      let t0 = Unix.gettimeofday () in
      let first = make 0 in
      spawn first;
      let cold_us = (Unix.gettimeofday () -. t0) *. 1e6 in
      let rest = List.init (count - 1) (fun i -> make (i + 1)) in
      let t1 = Unix.gettimeofday () in
      List.iter spawn rest;
      let warm_us = (Unix.gettimeofday () -. t1) *. 1e6 in
      let metric name =
        Femto_obs.Metrics.value (Femto_obs.Obs.counter name)
      in
      let image_words, instance_words = Engine.update_footprint_gauges engine in
      let word_bytes = Sys.word_size / 8 in
      if json then
        print_endline
          (Femto_obs.Jsonx.to_string_pretty
             (Femto_obs.Jsonx.Obj
                [
                  ("count", Femto_obs.Jsonx.Int count);
                  ("cold_spawn_us", Femto_obs.Jsonx.Float cold_us);
                  ( "warm_spawn_us",
                    if count > 1 then
                      Femto_obs.Jsonx.Float (warm_us /. float_of_int (count - 1))
                    else Femto_obs.Jsonx.Null );
                  ("images_cached", Femto_obs.Jsonx.Int (Engine.images_cached engine));
                  ("image_hits", Femto_obs.Jsonx.Int (metric "engine.image_hits"));
                  ("image_misses", Femto_obs.Jsonx.Int (metric "engine.image_misses"));
                  ("spawns", Femto_obs.Jsonx.Int (metric "engine.spawns"));
                  ("image_bytes", Femto_obs.Jsonx.Int (image_words * word_bytes));
                  ("instance_bytes", Femto_obs.Jsonx.Int (instance_words * word_bytes));
                ]))
      else begin
        Printf.printf "image built on first spawn: %.1f us\n" cold_us;
        if count > 1 then
          Printf.printf "%d cached spawns: %.2f us/instance\n" (count - 1)
            (warm_us /. float_of_int (count - 1));
        Printf.printf
          "image cache: %d image(s), %d hit(s), %d miss(es), %d spawn(s)\n"
          (Engine.images_cached engine)
          (metric "engine.image_hits")
          (metric "engine.image_misses")
          (metric "engine.spawns");
        Printf.printf
          "footprint: image %d B shared, instances %d B total (%.0f B/instance)\n"
          (image_words * word_bytes)
          (instance_words * word_bytes)
          (float_of_int (instance_words * word_bytes) /. float_of_int count)
      end;
      if fire then begin
        let args = Array.of_list args in
        let ok = ref 0 and faults = ref 0 and sample = ref None in
        List.iter
          (fun c ->
            match Container.run_instance c ~args with
            | Ok v ->
                incr ok;
                if !sample = None then sample := Some v
            | Error _ -> incr faults)
          (first :: rest);
        (match !sample with
        | Some v -> Printf.printf "fired %d instance(s): %d ok (r0 = %Ld), %d faulted\n" count !ok v !faults
        | None -> Printf.printf "fired %d instance(s): %d ok, %d faulted\n" count !ok !faults);
        if !faults > 0 then exit 1
      end;
      0
    end
  in
  Cmd.v
    (Cmd.info "spawn"
       ~doc:
         "Spawn $(b,N) container instances from one cached image (verify, \
          analyze and compile happen once; every further instance shares the \
          immutable artifact and privately owns only its stack and \
          copy-on-write kv delta) and report spawn latency, image-cache \
          counters and the shared-vs-private memory footprint.")
    Term.(const run $ input_arg $ count_arg $ fire_arg $ json_arg $ obs_args_arg)

(* --- inspect --- *)

let inspect_cmd =
  let run input =
    let program = load_program input in
    let count_kind predicate =
      Array.fold_left
        (fun acc insn -> if predicate (Femto_ebpf.Insn.kind insn) then acc + 1 else acc)
        0 (Femto_ebpf.Program.insns program)
    in
    Printf.printf "slots:        %d (%d bytes)\n"
      (Femto_ebpf.Program.length program)
      (Femto_ebpf.Program.byte_size program);
    Printf.printf "alu:          %d\n"
      (count_kind (function Femto_ebpf.Insn.Alu _ -> true | _ -> false));
    Printf.printf "memory:       %d\n"
      (count_kind (function
        | Femto_ebpf.Insn.Load _ | Femto_ebpf.Insn.Store_imm _
        | Femto_ebpf.Insn.Store_reg _ -> true
        | _ -> false));
    Printf.printf "branches:     %d\n"
      (count_kind (function
        | Femto_ebpf.Insn.Ja | Femto_ebpf.Insn.Jcond _ -> true
        | _ -> false));
    Printf.printf "helper calls: %d\n"
      (count_kind (function Femto_ebpf.Insn.Call -> true | _ -> false));
    0
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Static statistics of a bytecode file")
    Term.(const run $ input_arg)

(* --- suit-sign / suit-verify --- *)

let key_args =
  let key_id =
    Arg.(value & opt string "fc-cli-key" & info [ "key-id" ] ~doc:"COSE key identifier.")
  in
  let secret =
    Arg.(required & opt (some string) None & info [ "key" ] ~doc:"Signing secret.")
  in
  Term.(const (fun key_id secret -> Femto_cose.Cose.make_key ~key_id ~secret)
        $ key_id $ secret)

let suit_sign_cmd =
  let seq =
    Arg.(value & opt int64 1L & info [ "seq" ] ~doc:"Manifest sequence number.")
  in
  let uuid =
    Arg.(required & opt (some string) None & info [ "uuid" ] ~doc:"Storage-location (hook) UUID.")
  in
  let run key seq uuid payload_file output =
    let payload = read_file payload_file in
    let manifest =
      Femto_suit.Suit.make ~sequence:seq
        [ Femto_suit.Suit.component_for ~storage_uuid:uuid payload ]
    in
    write_file output (Femto_suit.Suit.sign manifest key);
    Printf.printf "signed manifest seq %Ld for %s (%d B payload) -> %s\n" seq uuid
      (String.length payload) output;
    0
  in
  Cmd.v (Cmd.info "suit-sign" ~doc:"Build and sign a SUIT manifest for a payload")
    Term.(const run $ key_args $ seq $ uuid $ input_arg $ output_arg "manifest.suit")

let suit_verify_cmd =
  let uuid =
    Arg.(required & opt (some string) None & info [ "uuid" ] ~doc:"Storage-location (hook) UUID.")
  in
  let payload_file =
    Arg.(required & opt (some file) None & info [ "payload" ] ~doc:"Payload file to check.")
  in
  let run key uuid manifest_file payload_file =
    let device =
      Femto_suit.Suit.create_device ~key
        ~install:(fun ~sequence:_ ~storage_uuid:_ _ -> Ok ())
        ~known_storage:(fun u -> String.equal u uuid)
        ()
    in
    match
      Femto_suit.Suit.process device ~envelope:(read_file manifest_file)
        ~payloads:[ (uuid, read_file payload_file) ]
    with
    | Ok manifest ->
        Printf.printf "OK: manifest seq %Ld verifies for %s\n"
          manifest.Femto_suit.Suit.sequence uuid;
        0
    | Error e ->
        Printf.printf "REJECTED: %s\n" (Femto_suit.Suit.error_to_string e);
        1
  in
  Cmd.v (Cmd.info "suit-verify" ~doc:"Verify a SUIT manifest against a payload")
    Term.(const run $ key_args $ uuid $ input_arg $ payload_file)

(* --- pipeline: N-tenant parallel update verification --- *)

let pipeline_cmd =
  let tenants_arg =
    Arg.(value & opt int 4 & info [ "tenants" ] ~doc:"Number of tenant devices.")
  in
  let updates_arg =
    Arg.(value & opt int 8 & info [ "updates" ] ~doc:"Updates per tenant.")
  in
  let domains_arg =
    Arg.(value & opt int Femto_suit.Pipeline.default_domains
         & info [ "domains" ] ~doc:"Worker domains for the verification pool.")
  in
  let size_arg =
    Arg.(value & opt int 4096
         & info [ "payload-bytes" ] ~doc:"Payload size of each update.")
  in
  let run tenants updates domains payload_bytes =
    Femto_obs.Obs.set_enabled true;
    Femto_obs.Obs.set_tracing true;
    Femto_obs.Obs.reset ();
    let key = Femto_cose.Cose.make_key ~key_id:"cli" ~secret:"cli" in
    let uuid = "pipeline-0000-4000-8000-000000000001" in
    let devices =
      List.init tenants (fun i ->
          ( Printf.sprintf "tenant-%d" i,
            Femto_suit.Suit.create_device ~key
              ~install:(fun ~sequence:_ ~storage_uuid:_ _ -> Ok ())
              ~known_storage:(fun u -> String.equal u uuid)
              () ))
    in
    let pool = Femto_suit.Pipeline.create ~domains () in
    let t0 = Unix.gettimeofday () in
    for seq = 1 to updates do
      List.iter
        (fun (tenant, device) ->
          let payload =
            Printf.sprintf "%s update %d %s" tenant seq
              (String.make payload_bytes 'p')
          in
          let manifest =
            Femto_suit.Suit.make ~sequence:(Int64.of_int seq)
              [ Femto_suit.Suit.component_for ~storage_uuid:uuid payload ]
          in
          (* digest hint as the streaming CoAP path would hand it over *)
          let hint =
            {
              Femto_suit.Suit.streamed = Femto_crypto.Crypto.sha256 payload;
              bytes = String.length payload;
            }
          in
          Femto_suit.Pipeline.submit pool ~digests:[ (uuid, hint) ] ~tenant
            ~device
            ~envelope:(Femto_suit.Suit.sign manifest key)
            ~payloads:[ (uuid, payload) ] ())
        devices
    done;
    let results = Femto_suit.Pipeline.shutdown pool in
    let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let accepted =
      List.length (List.filter (fun (_, r) -> Result.is_ok r) results)
    in
    Printf.printf
      "%d updates across %d tenants on %d domain(s): %d accepted, %d \
       rejected in %.1f ms\n"
      (List.length results) tenants domains accepted
      (List.length results - accepted)
      elapsed_ms;
    print_endline
      (Femto_obs.Jsonx.to_string_pretty (Femto_obs.Obs.metrics_json ()));
    if accepted = List.length results then 0 else 1
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:
         "Drive the parallel multi-tenant update-verification pool and dump \
          the suit.pipeline.* metrics as JSON")
    Term.(const run $ tenants_arg $ updates_arg $ domains_arg $ size_arg)

(* --- compile: MiniScript -> eBPF --- *)

let compile_cmd =
  let entry_arg =
    Arg.(value & opt string "main" & info [ "entry" ] ~docv:"FN"
         ~doc:"Function to compile (parameters arrive in r1..r5).")
  in
  let run input entry output =
    let source = read_file input in
    match
      Femto_script.To_ebpf.compile_function
        ~helpers:(fun name -> List.assoc_opt name (helpers_table ()))
        source entry
    with
    | exception Femto_script.To_ebpf.Unsupported m ->
        Printf.eprintf "%s: %s
" input m;
        exit 1
    | exception Femto_script.Parser.Parse_error { line; message } ->
        Printf.eprintf "%s:%d: %s
" input line message;
        exit 1
    | program -> (
        match Femto_vm.Verifier.verify Femto_vm.Config.default program with
        | Error fault ->
            Printf.eprintf "internal: generated code rejected: %s
"
              (Femto_vm.Fault.to_string fault);
            exit 2
        | Ok _ ->
            write_file output
              (Bytes.to_string (Femto_ebpf.Program.to_bytes program));
            Printf.printf "%s: compiled '%s' to %d instructions (%d bytes) -> %s
"
              input entry
              (Femto_ebpf.Program.length program)
              (Femto_ebpf.Program.byte_size program)
              output;
            0)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a MiniScript function to verified eBPF bytecode")
    Term.(const run $ input_arg $ entry_arg $ output_arg "out.bin")

(* --- compact / expand: the paper's Sec 11 variable-length encoding --- *)

let compact_cmd =
  let run input output =
    let program = load_program input in
    let stats = Femto_ebpf.Compact.measure program in
    write_file output (Femto_ebpf.Compact.compress program);
    Printf.printf "%d B fixed -> %d B compact (ratio %.2f) -> %s
"
      stats.Femto_ebpf.Compact.fixed_bytes stats.Femto_ebpf.Compact.compact_bytes
      stats.Femto_ebpf.Compact.ratio output;
    0
  in
  Cmd.v
    (Cmd.info "compact" ~doc:"Compress bytecode to the variable-length encoding")
    Term.(const run $ input_arg $ output_arg "out.fcz")

let expand_cmd =
  let run input output =
    match Femto_ebpf.Compact.decompress (read_file input) with
    | exception Femto_ebpf.Compact.Malformed m ->
        Printf.eprintf "%s: %s
" input m;
        exit 1
    | program ->
        write_file output (Bytes.to_string (Femto_ebpf.Program.to_bytes program));
        Printf.printf "%d instructions -> %s
"
          (Femto_ebpf.Program.length program)
          output;
        0
  in
  Cmd.v (Cmd.info "expand" ~doc:"Expand variable-length bytecode to fixed slots")
    Term.(const run $ input_arg $ output_arg "out.bin")

(* --- shell: an interactive simulated device on stdin --- *)

let shell_cmd =
  let run () =
    let kernel = Femto_rtos.Kernel.create () in
    let network = Femto_net.Network.create ~kernel () in
    let flash = Femto_flash.Flash.create ~page_size:256 ~pages:64 () in
    let hook = "demo0000-0000-4000-8000-000000000001" in
    let device =
      Femto_device.Device.boot
        ~identity:
          {
            Femto_device.Device.vendor_id = "fc-cli";
            class_id = "sim";
            update_key = Femto_cose.Cose.make_key ~key_id:"cli" ~secret:"cli";
          }
        ~hooks:
          [ Femto_device.Device.hook_spec ~uuid:hook ~name:"demo" ~ctx_size:16 () ]
        ~flash ~slot_count:4 ~network ~addr:1 ()
    in
    (* preinstall a demo container so the shell has something to show *)
    let payload =
      Bytes.to_string
        (Femto_ebpf.Program.to_bytes
           (Femto_ebpf.Asm.assemble
              ~helpers:Femto_core.Syscall.resolve_name
              "mov r1, 1
mov r2, r10
sub r2, 8
call bpf_fetch_global
               ldxdw r3, [r10-8]
add r3, 1
mov r1, 1
mov r2, r3
               call bpf_store_global
mov r0, r3
exit"))
    in
    let manifest =
      Femto_suit.Suit.make ~sequence:1L
        [ Femto_suit.Suit.component_for ~storage_uuid:hook payload ]
    in
    (match
       Femto_suit.Suit.process
         (Femto_device.Device.suit_processor device)
         ~envelope:
           (Femto_suit.Suit.sign manifest
              (Femto_cose.Cose.make_key ~key_id:"cli" ~secret:"cli"))
         ~payloads:[ (hook, payload) ]
     with
    | Ok _ -> ()
    | Error e -> prerr_endline (Femto_suit.Suit.error_to_string e));
    let shell = Femto_shell.Shell.create device in
    Printf.printf
      "fc simulated device shell (demo container on hook %s)
       type 'help'; ctrl-d exits
" hook;
    (try
       while true do
         print_string "fc> ";
         flush stdout;
         let line = input_line stdin in
         print_endline (Femto_shell.Shell.exec shell line)
       done
     with End_of_file -> print_newline ());
    0
  in
  Cmd.v
    (Cmd.info "shell" ~doc:"Interactive shell on a simulated device (reads stdin)")
    Term.(const run $ const ())

(* --- serve / get: the real-UDP CoAP edge --- *)

(* Boot the same demo device the shell uses (one hook, a signed demo
   counter container, SUIT endpoints) and return it with its hook uuid. *)
let boot_demo_device () =
  let kernel = Femto_rtos.Kernel.create () in
  let network = Femto_net.Network.create ~kernel () in
  let flash = Femto_flash.Flash.create ~page_size:256 ~pages:64 () in
  let hook = "demo0000-0000-4000-8000-000000000001" in
  let device =
    Femto_device.Device.boot
      ~identity:
        {
          Femto_device.Device.vendor_id = "fc-cli";
          class_id = "sim";
          update_key = Femto_cose.Cose.make_key ~key_id:"cli" ~secret:"cli";
        }
      ~hooks:
        [ Femto_device.Device.hook_spec ~uuid:hook ~name:"demo" ~ctx_size:16 () ]
      ~flash ~slot_count:4 ~network ~addr:1 ()
  in
  let payload =
    Bytes.to_string
      (Femto_ebpf.Program.to_bytes
         (Femto_ebpf.Asm.assemble
            ~helpers:Femto_core.Syscall.resolve_name
            "mov r1, 1\nmov r2, r10\nsub r2, 8\ncall bpf_fetch_global\n\
             ldxdw r3, [r10-8]\nadd r3, 1\nmov r1, 1\nmov r2, r3\n\
             call bpf_store_global\nmov r0, r3\nexit"))
  in
  let manifest =
    Femto_suit.Suit.make ~sequence:1L
      [ Femto_suit.Suit.component_for ~storage_uuid:hook payload ]
  in
  (match
     Femto_suit.Suit.process
       (Femto_device.Device.suit_processor device)
       ~envelope:
         (Femto_suit.Suit.sign manifest
            (Femto_cose.Cose.make_key ~key_id:"cli" ~secret:"cli"))
       ~payloads:[ (hook, payload) ]
   with
  | Ok _ -> ()
  | Error e -> prerr_endline (Femto_suit.Suit.error_to_string e));
  (device, hook)

let serve_cmd =
  let module Server = Femto_coap.Server in
  let module Transport = Femto_coap.Transport in
  let module Message = Femto_coap.Message in
  let port_arg =
    Arg.(value & opt int 5683
         & info [ "port" ] ~docv:"PORT"
             ~doc:"UDP port to bind (0 picks an ephemeral port).")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind.")
  in
  let max_requests_arg =
    Arg.(value & opt int 0
         & info [ "max-requests" ] ~docv:"N"
             ~doc:"Exit after serving $(docv) requests (0 = run until \
                   SIGINT); for scripted smoke tests.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print edge statistics as JSON on exit.")
  in
  let run port host max_requests json_stats =
    let device, hook = boot_demo_device () in
    let server = Femto_device.Device.server device in
    let engine = Femto_device.Device.engine device in
    let fire () =
      match Femto_core.Engine.trigger_by_uuid engine ~uuid:hook () with
      | Ok (report :: _) -> (
          match report.Femto_core.Engine.result with
          | Ok v -> Printf.sprintf "demo -> %Ld" v
          | Error fault -> "demo FAULT: " ^ Femto_vm.Fault.to_string fault)
      | Ok [] -> "demo: no container attached"
      | Error e -> Femto_core.Engine.attach_error_to_string e
    in
    Server.register server ~path:"/hello" (fun ~src:_ _ ->
        Server.respond ~payload:"hello from femto-containers" Message.code_content);
    (* the same hook-firing handler twice: the raw path and the cached
       edge in front of it, so cached-vs-uncached is an honest pair *)
    Server.register server ~path:"/demo/run" (fun ~src:_ _ ->
        Server.respond ~payload:(fire ()) Message.code_content);
    Server.register_cached ~max_age_s:60 server ~path:"/demo/cached"
      (fun ~src:_ _ -> Server.respond ~payload:(fire ()) Message.code_content);
    let transport = Transport.create ~host ~port () in
    Printf.printf "fc serve: CoAP on %s:%d (hook %s)\n%!" host
      (Transport.port transport) hook;
    Transport.spawn transport server;
    let stop = Atomic.make false in
    (try
       Sys.set_signal Sys.sigint
         (Sys.Signal_handle (fun _ -> Atomic.set stop true))
     with Invalid_argument _ -> ());
    while
      (not (Atomic.get stop))
      && (max_requests = 0 || Server.requests_served server < max_requests)
    do
      Unix.sleepf 0.05
    done;
    Transport.stop transport;
    let tstats = Transport.stats transport in
    let hits, misses = Server.cache_stats server in
    if json_stats then
      print_endline
        (Femto_obs.Jsonx.to_string_pretty
           (Femto_obs.Jsonx.Obj
              [
                ("port", Femto_obs.Jsonx.Int (Transport.port transport));
                ("requests_served",
                 Femto_obs.Jsonx.Int (Server.requests_served server));
                ("cache_hits", Femto_obs.Jsonx.Int hits);
                ("cache_misses", Femto_obs.Jsonx.Int misses);
                ("dedupe_evictions",
                 Femto_obs.Jsonx.Int (Server.dedupe_evictions server));
                ("rx_datagrams", Femto_obs.Jsonx.Int tstats.Transport.rx_datagrams);
                ("rx_bytes", Femto_obs.Jsonx.Int tstats.Transport.rx_bytes);
                ("tx_datagrams", Femto_obs.Jsonx.Int tstats.Transport.tx_datagrams);
                ("tx_bytes", Femto_obs.Jsonx.Int tstats.Transport.tx_bytes);
                ("peers", Femto_obs.Jsonx.Int (Transport.peer_count transport));
                ("suit_accepted",
                 Femto_obs.Jsonx.Int (Femto_device.Device.suit_accepted device));
              ]))
    else
      Printf.printf
        "served %d requests (%d cache hits, %d misses), %d peers, rx %d tx %d\n"
        (Server.requests_served server)
        hits misses
        (Transport.peer_count transport)
        tstats.Transport.rx_datagrams tstats.Transport.tx_datagrams;
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a simulated Femto-Containers device over a real UDP socket: \
          CoAP resources ($(b,/hello), $(b,/demo/run), cached \
          $(b,/demo/cached)), the SUIT upload/install endpoints, discovery \
          and container listing.")
    Term.(const run $ port_arg $ host_arg $ max_requests_arg $ json_arg)

let get_cmd =
  let module Transport = Femto_coap.Transport in
  let module Message = Femto_coap.Message in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH" ~doc:"Resource path, e.g. /hello.")
  in
  let port_arg =
    Arg.(value & opt int 5683 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")
  in
  let timeout_arg =
    Arg.(value & opt float 2.0
         & info [ "timeout" ] ~docv:"S" ~doc:"Per-attempt ACK timeout.")
  in
  let observe_arg =
    Arg.(value & opt int 0
         & info [ "observe" ] ~docv:"N"
             ~doc:"Register as an observer and wait for $(docv) \
                   notifications before exiting.")
  in
  let run path host port timeout observe =
    let client =
      Transport.Client.create ~host ~ack_timeout_s:timeout ~port ()
    in
    let show prefix (m : Message.t) =
      Printf.printf "%s%s %s\n" prefix
        (Message.code_to_string m.Message.code)
        m.Message.payload
    in
    let status =
      if observe = 0 then
        match Transport.Client.get client ~path with
        | Ok response ->
            show "" response;
            if fst response.Message.code = 2 then 0 else 1
        | Error `Timeout ->
            prerr_endline "fc get: timeout";
            1
      else
        match Transport.Client.observe client ~path with
        | Error `Timeout ->
            prerr_endline "fc get: observe registration timed out";
            1
        | Ok response ->
            show "registered: " response;
            let rec wait n =
              if n = 0 then 0
              else
                match Transport.Client.recv client ~timeout_s:(timeout *. 10.) with
                | Some notification ->
                    show "notify: " notification;
                    wait (n - 1)
                | None ->
                    prerr_endline "fc get: notification timeout";
                    1
            in
            wait observe
    in
    Transport.Client.close client;
    status
  in
  Cmd.v
    (Cmd.info "get"
       ~doc:"One-shot CoAP GET (or observe) against a real UDP server")
    Term.(const run $ path_arg $ host_arg $ port_arg $ timeout_arg $ observe_arg)

(* --- fleet: sharded device-fleet campaign simulator --- *)

let fleet_cmd =
  let devices_arg =
    Arg.(value & opt int 10_000
         & info [ "devices" ] ~docv:"N" ~doc:"Number of simulated devices.")
  in
  let domains_arg =
    Arg.(value & opt int 1
         & info [ "domains" ] ~docv:"D"
             ~doc:"Compute domains (shards are distributed round-robin).")
  in
  let shards_arg =
    Arg.(value & opt int 64
         & info [ "shards" ] ~docv:"S"
             ~doc:"Shard count — the determinism unit, independent of \
                   $(b,--domains).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Scenario seed.")
  in
  let epoch_arg =
    Arg.(value & opt int 5_000
         & info [ "epoch-us" ] ~doc:"Virtual length of one wheel epoch.")
  in
  let telemetry_arg =
    Arg.(value & opt int 50_000
         & info [ "telemetry-us" ]
             ~doc:"Per-device telemetry period (0 disables).")
  in
  let wave_arg =
    Arg.(value & opt int 0
         & info [ "wave" ]
             ~doc:"Update pushes per epoch (0 = devices/100).")
  in
  let loss_arg =
    Arg.(value & opt int 0
         & info [ "loss-permille" ] ~doc:"Per-frame radio loss, 1/1000.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the campaign report as JSON.")
  in
  let run devices domains shards seed epoch_us telemetry_us wave loss json =
    if devices < 1 || domains < 1 || shards < 1 then begin
      prerr_endline "fc fleet: --devices, --domains and --shards must be >= 1";
      2
    end
    else begin
      let module Fleet = Femto_fleet.Fleet in
      let config =
        {
          Fleet.default_config with
          devices;
          domains;
          shards;
          seed;
          epoch_us;
          telemetry_us;
          wave;
          loss_permille = loss;
        }
      in
      let t0 = Unix.gettimeofday () in
      let fleet = Fleet.create config in
      let boot_s = Unix.gettimeofday () -. t0 in
      let r = Fleet.run_campaign fleet in
      let per_core =
        float_of_int r.Fleet.r_updates_ok
        /. (r.Fleet.r_wall_ns /. 1e9)
        /. float_of_int r.Fleet.r_domains
      in
      if json then
        print_endline
          (Femto_obs.Jsonx.to_string_pretty
             (Femto_obs.Jsonx.Obj
                [
                  ("devices", Femto_obs.Jsonx.Int r.Fleet.r_devices);
                  ("shards", Femto_obs.Jsonx.Int r.Fleet.r_shards);
                  ("domains", Femto_obs.Jsonx.Int r.Fleet.r_domains);
                  ("epochs", Femto_obs.Jsonx.Int r.Fleet.r_epochs);
                  ("virtual_ms", Femto_obs.Jsonx.Float r.Fleet.r_virtual_ms);
                  ("boot_s", Femto_obs.Jsonx.Float boot_s);
                  ("wall_ns", Femto_obs.Jsonx.Float r.Fleet.r_wall_ns);
                  ("updates_ok", Femto_obs.Jsonx.Int r.Fleet.r_updates_ok);
                  ("updates_rejected", Femto_obs.Jsonx.Int r.Fleet.r_updates_rejected);
                  ("updates_per_sec_per_core", Femto_obs.Jsonx.Float per_core);
                  ("telemetry_fires", Femto_obs.Jsonx.Int r.Fleet.r_telemetry_fires);
                  ("cross_shard", Femto_obs.Jsonx.Int r.Fleet.r_cross_shard);
                  ("timer_events", Femto_obs.Jsonx.Int r.Fleet.r_timer_events);
                  ("images_built", Femto_obs.Jsonx.Int r.Fleet.r_images_built);
                  ("image_hits", Femto_obs.Jsonx.Int r.Fleet.r_image_hits);
                  ("incomplete", Femto_obs.Jsonx.Int r.Fleet.r_incomplete);
                  ("half_installed", Femto_obs.Jsonx.Int r.Fleet.r_half_installed);
                  ("fingerprint", Femto_obs.Jsonx.String (Fleet.fingerprint fleet));
                ]))
      else begin
        Format.printf "%a@." Fleet.pp_report r;
        Printf.printf "boot: %.2f s, campaign: %.2f s, %.0f updates/s/core\n"
          boot_s
          (r.Fleet.r_wall_ns /. 1e9)
          per_core;
        Printf.printf "fingerprint: %s\n" (Fleet.fingerprint fleet)
      end;
      if r.Fleet.r_incomplete > 0 || r.Fleet.r_half_installed > 0 then 1 else 0
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a device fleet (one engine, SUIT processor, CoW kv delta \
          and radio per device; one firmware image per shard) and run a \
          rolling signed-update campaign across an OCaml domain pool. \
          Deterministic for a given seed and shard count, whatever \
          $(b,--domains) is.")
    Term.(
      const run $ devices_arg $ domains_arg $ shards_arg $ seed_arg $ epoch_arg
      $ telemetry_arg $ wave_arg $ loss_arg $ json_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "fc" ~version:"1.0.0"
      ~doc:"Femto-Containers toolchain (assemble, verify, run, SUIT-sign)"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ asm_cmd; disasm_cmd; verify_cmd; analyze_cmd; run_cmd; spawn_cmd;
            fleet_cmd; inspect_cmd; metrics_cmd; trace_cmd; pipeline_cmd;
            compile_cmd; compact_cmd; expand_cmd; suit_sign_cmd;
            suit_verify_cmd; shell_cmd; serve_cmd; get_cmd ]))
