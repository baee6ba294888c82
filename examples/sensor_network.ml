(* Paper §8.3 — networked multi-tenant sensor node.

   Three containers, two tenants, on one simulated device:
   - tenant "os-maintainer": the §8.2 thread counter on the scheduler hook;
   - tenant "acme": a timer-triggered container that reads a (simulated)
     SAUL sensor and maintains an exponential moving average in its local
     store, publishing it to the tenant store; and a CoAP-triggered
     container that formats the published value into a CoAP response.

   A CoAP client on another node GETs /sensor/value over the simulated
   lossy 6LoWPAN network; the response payload is produced inside the
   second container through the gcoap helpers.

     dune exec examples/sensor_network.exe *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Server = Femto_coap.Server
module Client = Femto_coap.Client
module Gcoap = Femto_coap.Gcoap
module Message = Femto_coap.Message
module Apps = Femto_workloads.Apps

let attach_or_fail engine ~hook_uuid ?extra_regions container =
  match Engine.attach engine ~hook_uuid ?extra_regions container with
  | Ok _ -> ()
  | Error e -> failwith (Engine.attach_error_to_string e)

let () =
  let kernel = Kernel.create () in
  let engine = Engine.create ~kernel () in

  (* --- device facilities: a noisy temperature sensor (centi-degrees) --- *)
  let temperature = ref 2150L in
  Engine.register_sensor engine ~id:1 (fun () ->
      (* a slow upward drift with deterministic jitter *)
      temperature := Int64.add !temperature (Int64.of_int ((Int64.to_int !temperature * 7 mod 13) - 5));
      Ok !temperature);

  (* --- hooks compiled into the firmware --- *)
  let sched_hook =
    Engine.register_hook engine ~uuid:"hook-sched" ~name:"sched-switch" ~ctx_size:16 ()
  in
  let timer_hook =
    Engine.register_hook engine ~uuid:"hook-timer" ~name:"sensor-timer" ~ctx_size:8 ()
  in
  let coap_hook =
    Engine.register_hook engine ~uuid:"hook-coap" ~name:"coap-get" ~ctx_size:16 ()
  in

  (* --- tenant 1: OS maintainer's debug counter --- *)
  let os_tenant = Engine.add_tenant engine "os-maintainer" in
  let counter =
    Container.create ~name:"thread-counter" ~tenant:os_tenant
      ~contract:(Contract.require [ Contract.Kv_global ])
      (Apps.thread_counter ())
  in
  attach_or_fail engine ~hook_uuid:"hook-sched" counter;
  Kernel.add_switch_hook kernel (fun ~prev ~next ->
      let ctx = Bytes.create 16 in
      Bytes.set_int64_le ctx 0 (Int64.of_int prev);
      Bytes.set_int64_le ctx 8 (Int64.of_int next);
      ignore (Engine.trigger engine sched_hook ~ctx ()));

  (* --- tenant 2: acme's sensor pipeline --- *)
  let acme = Engine.add_tenant engine "acme" in
  let sensor_container =
    Container.create ~name:"sensor-process" ~tenant:acme
      ~contract:
        (Contract.require [ Contract.Sensors; Contract.Kv_local; Contract.Kv_tenant ])
      (Apps.sensor_process ())
  in
  attach_or_fail engine ~hook_uuid:"hook-timer" sensor_container;

  let builder = Gcoap.create_builder () in
  Gcoap.attach_to_engine engine builder;
  let formatter =
    Container.create ~name:"coap-formatter" ~tenant:acme
      ~contract:(Contract.require [ Contract.Kv_tenant; Contract.Net_coap ])
      (Apps.coap_formatter ())
  in
  attach_or_fail engine ~hook_uuid:"hook-coap"
    ~extra_regions:[ Gcoap.pkt_region builder ]
    formatter;

  (* --- network: device node + remote client over lossy 6LoWPAN --- *)
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille:100 "lossy-10%")
      ()
  in
  let server = Server.create ~network ~addr:1 () in

  (* --- periodic sensor sampling: fire the timer hook every 100 ms for a
     bounded demo run; every third sample pushes an RFC 7641 notification
     to observers of /sensor/value --- *)
  let samples = ref 0 in
  Kernel.every_us kernel ~us:100_000 (fun _ ->
      ignore (Engine.trigger engine timer_hook ());
      incr samples;
      if !samples mod 3 = 0 then ignore (Server.notify server ~path:"/sensor/value");
      !samples < 12);
  Server.register server ~path:"/sensor/value" (fun ~src:_ _request ->
      Gcoap.reset builder;
      match Engine.trigger engine coap_hook () with
      | [ { Engine.result = Ok _; _ } ] -> Gcoap.response builder
      | _ -> Server.respond Message.code_internal_error);
  let client = Client.create ~network ~kernel ~addr:2 in

  (* a background thread, so the scheduler hook has something to count *)
  let busy = ref 40 in
  let _worker =
    Kernel.spawn kernel ~name:"worker" (fun _ ->
        decr busy;
        if !busy > 0 then Kernel.Yield else Kernel.Finish)
  in

  (* the remote client observes the sensor: one registration, then the
     device pushes updates (RFC 7641) as samples come in *)
  let responses = ref [] in
  let _observation =
    Client.observe client ~dst:1 ~path:"/sensor/value" (fun response ->
        responses := response.Message.payload :: !responses)
  in

  ignore (Kernel.run_for_us kernel ~us:10_000_000);

  Printf.printf "simulated %.1f ms of device time\n" (Kernel.now_us kernel /. 1000.0);
  Printf.printf "sensor container ran %d times (EMA in tenant store: %Ld)\n"
    (Container.executions sensor_container)
    (Femto_core.Kvstore.fetch (Femto_core.Tenant.store acme) Apps.sensor_value_key);
  Printf.printf "thread-counter ran %d times for tenant %s\n"
    (Container.executions counter)
    (Femto_core.Tenant.id os_tenant);
  List.iteri
    (fun i payload -> Printf.printf "observe update %d -> %S\n" (i + 1) payload)
    (List.rev !responses);
  let stats = Network.stats network in
  Printf.printf "network: %d frames sent, %d lost, %d retransmissions\n"
    stats.Network.frames_sent stats.Network.frames_dropped
    (Client.retransmissions client);
  (* tenant isolation: acme's store is invisible to the os-maintainer *)
  Printf.printf "os-maintainer tenant store entries: %d (acme's data is isolated)\n"
    (Femto_core.Kvstore.length (Femto_core.Tenant.store os_tenant))
