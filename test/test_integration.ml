(* Integration tests: the full stacks wired together.

   - SUIT update over CoAP through the lossy simulated network into the
     hosting engine (the paper's §5 pipeline), including attack rejection.
   - The §8.3 multi-tenant deployment: timer-driven sensor container
     publishing through the tenant store, CoAP-triggered formatter
     answering a remote client.
   - The experiment harness itself (every table/figure entry runs). *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Server = Femto_coap.Server
module Client = Femto_coap.Client
module Message = Femto_coap.Message
module Gcoap = Femto_coap.Gcoap
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Apps = Femto_workloads.Apps

let attach_or_fail engine ~hook_uuid ?extra_regions container =
  match Engine.attach engine ~hook_uuid ?extra_regions container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e)

(* --- secure update over the network --- *)

type update_rig = {
  kernel : Kernel.t;
  engine : Engine.t;
  hook : Femto_core.Hook.t;
  container : Container.t;
  device : Suit.device;
  client : Client.t;
  network : Network.t;
  key : Cose.key;
}

let hook_uuid = "11111111-2222-4333-8444-555555555555"

let make_update_rig ?(loss_permille = 200) () =
  let kernel = Kernel.create () in
  let engine = Engine.create ~kernel () in
  let hook = Engine.register_hook engine ~uuid:hook_uuid ~name:"app" ~ctx_size:8 () in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"app" ~tenant ~contract:(Contract.require [])
      (Femto_ebpf.Asm.assemble "mov r0, 1\nexit")
  in
  attach_or_fail engine ~hook_uuid container;
  let key = Cose.make_key ~key_id:"k" ~secret:"fleet secret" in
  let device =
    Suit.create_device ~key
      ~install:(fun ~sequence:_ ~storage_uuid payload ->
        if storage_uuid <> hook_uuid then Error "wrong hook"
        else
          match Femto_ebpf.Program.of_string payload with
          | exception Femto_ebpf.Program.Truncated m -> Error m
          | program ->
              Result.map_error Engine.attach_error_to_string
                (Engine.update_program engine container program))
      ~known_storage:(fun uuid -> Engine.find_hook engine uuid <> None)
      ()
  in
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille "integration")
      ()
  in
  let server = Server.create ~network ~addr:1 () in
  let pending = ref "" in
  Server.register server ~path:"/suit/slot" (fun ~src:_ request ->
      pending := request.Message.payload;
      Server.respond Message.code_changed);
  Server.register server ~path:"/suit/install" (fun ~src:_ request ->
      match
        Suit.process device ~envelope:request.Message.payload
          ~payloads:[ (hook_uuid, !pending) ]
      with
      | Ok _ -> Server.respond Message.code_changed
      | Error _ -> Server.respond Message.code_unauthorized);
  let client = Client.create ~network ~kernel ~addr:2 in
  { kernel; engine; hook; container; device; client; network; key }

let current_version rig =
  match Engine.trigger rig.engine rig.hook () with
  | [ { Engine.result = Ok v; _ } ] -> v
  | _ -> Alcotest.fail "trigger failed"

let deploy rig ~key ~sequence program ~mitm =
  let bytes = Femto_ebpf.Program.to_string program in
  let manifest =
    Suit.make ~sequence [ Suit.component_for ~storage_uuid:hook_uuid bytes ]
  in
  let envelope = Suit.sign manifest key in
  let response_code = ref None in
  Client.post_blockwise rig.client ~dst:1 ~path:"/suit/slot" ~payload:(mitm bytes) (fun _ ->
      Client.post rig.client ~dst:1 ~path:"/suit/install" ~payload:envelope
        (fun result ->
          match result with
          | Ok response -> response_code := Some response.Message.code
          | Error `Timeout -> ()));
  ignore (Kernel.run rig.kernel ());
  !response_code

let test_update_happy_path () =
  let rig = make_update_rig () in
  Alcotest.(check int64) "factory" 1L (current_version rig);
  let code =
    deploy rig ~key:rig.key ~sequence:1L
      (Femto_ebpf.Asm.assemble "mov r0, 2\nexit")
      ~mitm:Fun.id
  in
  Alcotest.(check bool) "2.04 changed" true (code = Some Message.code_changed);
  Alcotest.(check int64) "updated" 2L (current_version rig);
  Alcotest.(check int) "accepted" 1 rig.device.Suit.accepted

let test_update_attacks_rejected () =
  let rig = make_update_rig () in
  ignore
    (deploy rig ~key:rig.key ~sequence:1L
       (Femto_ebpf.Asm.assemble "mov r0, 2\nexit")
       ~mitm:Fun.id);
  (* wrong key *)
  let bad_key = Cose.make_key ~key_id:"k" ~secret:"wrong" in
  let code =
    deploy rig ~key:bad_key ~sequence:2L
      (Femto_ebpf.Asm.assemble "mov r0, 666\nexit")
      ~mitm:Fun.id
  in
  Alcotest.(check bool) "4.01" true (code = Some Message.code_unauthorized);
  (* replay *)
  let code =
    deploy rig ~key:rig.key ~sequence:1L
      (Femto_ebpf.Asm.assemble "mov r0, 666\nexit")
      ~mitm:Fun.id
  in
  Alcotest.(check bool) "replay rejected" true (code = Some Message.code_unauthorized);
  (* payload swap in transit *)
  let evil =
    Bytes.to_string
      (Femto_ebpf.Program.to_bytes (Femto_ebpf.Asm.assemble "mov r0, 666\nexit"))
  in
  let code =
    deploy rig ~key:rig.key ~sequence:2L
      (Femto_ebpf.Asm.assemble "mov r0, 3\nexit")
      ~mitm:(fun _ -> evil)
  in
  Alcotest.(check bool) "swap rejected" true (code = Some Message.code_unauthorized);
  (* a broken program passes SUIT but is rejected by the pre-flight
     verifier; the device must not bump its sequence number *)
  let code =
    deploy rig ~key:rig.key ~sequence:2L
      (Femto_ebpf.Program.of_insns [ Femto_ebpf.Insn.make 0xb7 ])
      ~mitm:Fun.id
  in
  Alcotest.(check bool) "verifier rejection" true (code = Some Message.code_unauthorized);
  Alcotest.(check int64) "sequence unchanged" 1L rig.device.Suit.sequence;
  (* device still runs version 2, and a clean update still works *)
  Alcotest.(check int64) "v2 intact" 2L (current_version rig);
  let code =
    deploy rig ~key:rig.key ~sequence:3L
      (Femto_ebpf.Asm.assemble "mov r0, 3\nexit")
      ~mitm:Fun.id
  in
  Alcotest.(check bool) "final ok" true (code = Some Message.code_changed);
  Alcotest.(check int64) "v3" 3L (current_version rig);
  Alcotest.(check int) "rejections counted" 4 rig.device.Suit.rejected

let test_update_survives_heavy_loss () =
  let rig = make_update_rig ~loss_permille:350 () in
  let code =
    deploy rig ~key:rig.key ~sequence:1L
      (Femto_ebpf.Asm.assemble "mov r0, 9\nexit")
      ~mitm:Fun.id
  in
  (* with 35 % frame loss the confirmable retransmission should still
     usually get the two POSTs through *)
  match code with
  | Some code when code = Message.code_changed ->
      Alcotest.(check int64) "updated" 9L (current_version rig);
      Alcotest.(check bool) "retransmissions happened" true
        (Client.retransmissions rig.client > 0)
  | Some _ | None ->
      (* a full timeout is possible at this loss rate; the device must
         then still be on version 1, never in a half-updated state *)
      Alcotest.(check int64) "unchanged" 1L (current_version rig)

(* --- §8.3 multi-tenant CoAP pipeline --- *)

let test_sensor_pipeline_end_to_end () =
  let kernel = Kernel.create () in
  let engine = Engine.create ~kernel () in
  Engine.register_sensor engine ~id:1 (fun () -> Ok 2372L);
  let timer_hook =
    Engine.register_hook engine ~uuid:"t" ~name:"timer" ~ctx_size:8 ()
  in
  let coap_hook =
    Engine.register_hook engine ~uuid:"c" ~name:"coap" ~ctx_size:16 ()
  in
  let acme = Engine.add_tenant engine "acme" in
  let sensor =
    Container.create ~name:"sensor" ~tenant:acme
      ~contract:(Contract.require [ Contract.Sensors; Contract.Kv_local; Contract.Kv_tenant ])
      (Apps.sensor_process ())
  in
  attach_or_fail engine ~hook_uuid:"t" sensor;
  let builder = Gcoap.create_builder () in
  Gcoap.attach_to_engine engine builder;
  let formatter =
    Container.create ~name:"fmt" ~tenant:acme
      ~contract:(Contract.require [ Contract.Kv_tenant; Contract.Net_coap ])
      (Apps.coap_formatter ())
  in
  attach_or_fail engine ~hook_uuid:"c"
    ~extra_regions:[ Gcoap.pkt_region builder ] formatter;
  let network = Network.create ~kernel () in
  let server = Server.create ~network ~addr:1 () in
  Server.register server ~path:"/sensor/value" (fun ~src:_ _ ->
      Gcoap.reset builder;
      match Engine.trigger engine coap_hook () with
      | [ { Engine.result = Ok _; _ } ] -> Gcoap.response builder
      | _ -> Server.respond Message.code_internal_error);
  let client = Client.create ~network ~kernel ~addr:2 in
  (* sample the sensor twice, then query *)
  ignore (Engine.trigger engine timer_hook ());
  ignore (Engine.trigger engine timer_hook ());
  let payload = ref None in
  let format = ref None in
  Client.get client ~dst:1 ~path:"/sensor/value" (function
    | Ok response ->
        payload := Some response.Message.payload;
        format := Message.content_format response
    | Error `Timeout -> ());
  ignore (Kernel.run kernel ());
  Alcotest.(check (option string)) "payload is the EMA" (Some "2372") !payload;
  Alcotest.(check (option int)) "text/plain" (Some 0) !format

(* --- experiment harness smoke --- *)

let with_quiet_stdout f =
  (* the experiment entries print tables; keep test output readable *)
  let saved = Unix.dup Unix.stdout in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 devnull Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved;
      Unix.close devnull)
    f

let test_experiments_run () =
  with_quiet_stdout (fun () ->
      Femto_eval.Experiments.table1 ();
      Femto_eval.Experiments.figure2 ();
      Femto_eval.Experiments.table3 ();
      Femto_eval.Experiments.figure7 ();
      Femto_eval.Experiments.figure9 ();
      Femto_eval.Experiments.table4 ();
      Femto_eval.Experiments.multi_instance ();
      Femto_eval.Experiments.ablation_compact ();
      Femto_eval.Experiments.discussion_energy ())

let test_table4_shape () =
  (* Table 4's shape, asserted: empty-hook dispatch is ~100 ticks and the
     hosted app costs at least 5x more *)
  with_quiet_stdout (fun () -> ());
  List.iter
    (fun platform ->
      let fixture = Femto_eval.Setup.make_fixture ~platform () in
      let before = Kernel.now fixture.Femto_eval.Setup.kernel in
      ignore
        (Engine.trigger fixture.Femto_eval.Setup.engine
           fixture.Femto_eval.Setup.bench_hook ());
      let empty =
        Int64.to_int (Int64.sub (Kernel.now fixture.Femto_eval.Setup.kernel) before)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s empty hook ~100 ticks" platform.Femto_platform.Platform.name)
        true
        (empty >= 50 && empty <= 200);
      let fixture2 = Femto_eval.Setup.make_fixture ~platform () in
      let _container, trigger =
        Femto_eval.Setup.thread_counter_container fixture2
      in
      let before = Kernel.now fixture2.Femto_eval.Setup.kernel in
      ignore (trigger ());
      let with_app =
        Int64.to_int (Int64.sub (Kernel.now fixture2.Femto_eval.Setup.kernel) before)
      in
      Alcotest.(check bool) "app >= 5x empty" true (with_app >= 5 * empty))
    Femto_platform.Platform.all

let test_fc_rbpf_within_few_percent () =
  (* Figure 8's headline: the Femto-Container extensions add negligible
     overhead over plain rBPF (cycle model) *)
  let fixture_fc = Femto_eval.Setup.make_fixture () in
  let c_fc, t_fc = Femto_eval.Setup.fletcher_container ~runtime:Femto_platform.Platform.Fc fixture_fc in
  ignore (t_fc ());
  let fixture_rbpf = Femto_eval.Setup.make_fixture () in
  let c_rbpf, t_rbpf =
    Femto_eval.Setup.fletcher_container ~runtime:Femto_platform.Platform.Rbpf fixture_rbpf
  in
  ignore (t_rbpf ());
  let fc = float_of_int (Container.last_run_cycles c_fc) in
  let rbpf = float_of_int (Container.last_run_cycles c_rbpf) in
  Alcotest.(check bool) "within 5%" true (Float.abs (fc -. rbpf) /. rbpf < 0.05)

let test_certfc_slower_than_fc () =
  let fixture_fc = Femto_eval.Setup.make_fixture () in
  let c_fc, t_fc = Femto_eval.Setup.fletcher_container ~runtime:Femto_platform.Platform.Fc fixture_fc in
  ignore (t_fc ());
  let fixture_cert = Femto_eval.Setup.make_fixture () in
  let c_cert, t_cert =
    Femto_eval.Setup.fletcher_container ~runtime:Femto_platform.Platform.Certfc fixture_cert
  in
  ignore (t_cert ());
  Alcotest.(check bool) "certfc at least 1.5x fc cycles" true
    (Container.last_run_cycles c_cert > 3 * Container.last_run_cycles c_fc / 2)

let test_hook_fire_records_event () =
  let module Obs = Femto_obs.Obs in
  let module Ometrics = Femto_obs.Metrics in
  let module Otrace = Femto_obs.Trace in
  let kernel = Kernel.create () in
  let engine = Engine.create ~kernel () in
  let uuid = "99999999-2222-4333-8444-555555555555" in
  let hook = Engine.register_hook engine ~uuid ~name:"obs-hook" ~ctx_size:8 () in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"obs-app" ~tenant ~contract:(Contract.require [])
      (Femto_ebpf.Asm.assemble "mov r0, 7\nexit")
  in
  attach_or_fail engine ~hook_uuid:uuid container;
  Obs.set_enabled true;
  Obs.set_tracing true;
  let fires = Ometrics.counter Obs.registry "engine.hook_fires" in
  let before_fires = Ometrics.value fires in
  let before_seq = Otrace.total Obs.ring in
  (match Engine.trigger engine hook () with
  | [ { Engine.result = Ok 7L; _ } ] -> ()
  | _ -> Alcotest.fail "trigger failed");
  Obs.set_tracing false;
  Alcotest.(check int) "hook fire counted" (before_fires + 1)
    (Ometrics.value fires);
  let fired =
    List.exists
      (fun r ->
        r.Otrace.seq >= before_seq
        &&
        match r.Otrace.event with
        | Otrace.Hook_fired { name = "obs-hook"; containers = 1; _ } -> true
        | _ -> false)
      (Otrace.events Obs.ring)
  in
  Alcotest.(check bool) "hook fire traced" true fired

let suite =
  [
    Alcotest.test_case "suit update happy path" `Quick test_update_happy_path;
    Alcotest.test_case "suit attacks rejected" `Quick test_update_attacks_rejected;
    Alcotest.test_case "suit under heavy loss" `Quick test_update_survives_heavy_loss;
    Alcotest.test_case "sensor pipeline end to end" `Quick test_sensor_pipeline_end_to_end;
    Alcotest.test_case "experiments run" `Slow test_experiments_run;
    Alcotest.test_case "table4 shape" `Quick test_table4_shape;
    Alcotest.test_case "fc ~ rbpf cycles" `Quick test_fc_rbpf_within_few_percent;
    Alcotest.test_case "certfc slower" `Quick test_certfc_slower_than_fc;
    Alcotest.test_case "hook fire records event" `Quick
      test_hook_fire_records_event;
  ]

let () = Alcotest.run "femto_integration" [ ("integration", suite) ]
