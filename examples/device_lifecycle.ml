(* Full device lifecycle: factory boot -> remote discovery -> secure
   install over the network -> execution -> power cycle -> persistence.

   This drives the femto_device composition (engine + SUIT + flash slots +
   CoAP management endpoints) the way a fleet operator would:

   1. boot a device with an empty flash;
   2. discover its management endpoints (GET /.well-known/core);
   3. upload an application payload block-wise and install it with a
      signed SUIT manifest (POST /suit/slot, /suit/install);
   4. watch the container run on its hook;
   5. power-cycle the device (re-boot over the same flash);
   6. verify the container came back from the flash slot without any
      network traffic — then send a v2 update and check the rollback
      counter also survived the reboot.

     dune exec examples/device_lifecycle.exe *)

module Device = Femto_device.Device
module Engine = Femto_core.Engine
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Client = Femto_coap.Client
module Message = Femto_coap.Message
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Flash = Femto_flash.Flash

let hook_uuid = "0a6e1a80-1111-4222-8333-444444444444"
let device_addr = 1

let identity =
  {
    Device.vendor_id = "example-corp";
    class_id = "nrf52840-sensor-v2";
    update_key = Cose.make_key ~key_id:"fleet-2026" ~secret:"fleet root secret";
  }

let hooks =
  [ Device.hook_spec ~uuid:hook_uuid ~name:"periodic-task" ~ctx_size:16 () ]

let boot_device ~network ~flash =
  Device.boot ~identity ~hooks ~flash ~slot_count:4 ~network ~addr:device_addr ()

let run_app device =
  match Engine.trigger_by_uuid (Device.engine device) ~uuid:hook_uuid () with
  | Ok [ { Engine.result = Ok v; _ } ] -> Printf.sprintf "returned %Ld" v
  | Ok [] -> "no container attached"
  | Ok _ -> "unexpected reports"
  | Error e -> Engine.attach_error_to_string e

let deploy client kernel ~sequence program =
  let payload =
    Femto_ebpf.Program.to_string program
  in
  let manifest =
    Suit.make ~vendor_id:identity.Device.vendor_id
      ~class_id:identity.Device.class_id ~sequence
      [ Suit.component_for ~storage_uuid:hook_uuid payload ]
  in
  let envelope = Suit.sign manifest identity.Device.update_key in
  let outcome = ref "no answer" in
  Client.post_blockwise client ~dst:device_addr ~path:"/suit/slot" ~payload
    (fun _ ->
      Client.post client ~dst:device_addr ~path:"/suit/install"
        ~payload:envelope (fun result ->
          outcome :=
            match result with
            | Ok r when r.Message.code = Message.code_changed -> "installed"
            | Ok r -> Printf.sprintf "rejected: %s" r.Message.payload
            | Error `Timeout -> "timeout"));
  ignore (Kernel.run kernel ());
  !outcome

let () =
  let kernel = Kernel.create () in
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille:100 "lossy-10%")
      ()
  in
  let flash = Flash.create ~page_size:256 ~pages:64 () in
  let client = Client.create ~network ~kernel ~addr:9 in

  (* 1. factory boot: empty flash, nothing attached *)
  let device = boot_device ~network ~flash in
  Printf.printf "boot #1: %s\n" (run_app device);

  (* 2. discovery *)
  let discovered = ref "" in
  Client.get_blockwise client ~dst:device_addr ~path:"/.well-known/core" (function
    | Ok r -> discovered := r.Message.payload
    | Error `Timeout -> ());
  ignore (Kernel.run kernel ());
  Printf.printf "discovered: %s\n" !discovered;

  (* 3. install v1 over the network *)
  let v1 = Femto_ebpf.Asm.assemble "mov r0, 100\nexit" in
  Printf.printf "deploy v1 (seq 1): %s\n" (deploy client kernel ~sequence:1L v1);
  Printf.printf "after install: %s\n" (run_app device);

  (* 4. power cycle: the device leaves the network and boots afresh over
     the same flash *)
  Network.remove_node network ~addr:device_addr;
  let device = boot_device ~network ~flash in
  Printf.printf "boot #2 (no network install): %s\n" (run_app device);

  (* 5. the rollback counter survived too: replaying seq 1 must fail... *)
  Printf.printf "replay v1 (seq 1): %s\n" (deploy client kernel ~sequence:1L v1);

  (* ...while a proper v2 goes through and also persists *)
  let v2 = Femto_ebpf.Asm.assemble "mov r0, 200\nexit" in
  Printf.printf "deploy v2 (seq 2): %s\n" (deploy client kernel ~sequence:2L v2);
  Printf.printf "after update: %s\n" (run_app device);

  Network.remove_node network ~addr:device_addr;
  let device = boot_device ~network ~flash in
  Printf.printf "boot #3: %s\n" (run_app device);

  (* 6. fleet introspection *)
  let listing = ref "" in
  Client.get_blockwise client ~dst:device_addr ~path:"/fc/containers" (function
    | Ok r -> listing := r.Message.payload
    | Error `Timeout -> ());
  ignore (Kernel.run kernel ());
  Printf.printf "container listing:\n  %s\n" !listing;
  Printf.printf "flash wear: %d page erases\n" (Flash.total_erases flash)
