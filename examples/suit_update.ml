(* Paper §5 — secure over-the-network update of a Femto-Container.

   The full pipeline end to end, over the simulated lossy low-power
   network:
     maintainer side: build bytecode -> SUIT manifest (storage-location
       UUID = target hook, SHA-256 digest) -> COSE_Sign1 envelope ->
       CoAP POSTs to the device;
     device side: verify signature -> check rollback counter -> check
       payload digest -> pre-flight verify bytecode -> hot-swap the
       container.

   Then the attack paths: wrong signing key, replayed (old) sequence
   number, and payload swapped in transit — each rejected at the right
   gate while the previous version keeps running.

     dune exec examples/suit_update.exe *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Server = Femto_coap.Server
module Client = Femto_coap.Client
module Message = Femto_coap.Message
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose

let hook_uuid = "f3de9d60-0001-4000-8000-0000000000aa"

let () =
  let kernel = Kernel.create () in
  let engine = Engine.create ~kernel () in
  let hook = Engine.register_hook engine ~uuid:hook_uuid ~name:"app" ~ctx_size:8 () in
  let tenant = Engine.add_tenant engine "acme" in

  (* version 1 of the application, installed at the factory *)
  let container =
    Container.create ~name:"app" ~tenant ~contract:(Contract.require [])
      (Femto_ebpf.Asm.assemble "mov r0, 1\nexit")
  in
  (match Engine.attach engine ~hook_uuid container with
  | Ok _ -> ()
  | Error e -> failwith (Engine.attach_error_to_string e));

  let run_version () =
    match Engine.trigger engine hook () with
    | [ { Engine.result = Ok v; _ } ] -> v
    | _ -> failwith "trigger failed"
  in
  Printf.printf "factory version returns: %Ld\n" (run_version ());

  (* --- device-side SUIT processor wired to the hosting engine --- *)
  let device_key = Cose.make_key ~key_id:"fleet-2026" ~secret:"fleet signing secret" in
  let device =
    Suit.create_device ~key:device_key
      ~install:(fun ~sequence:_ ~storage_uuid payload ->
        if not (String.equal storage_uuid hook_uuid) then Error "wrong hook"
        else
          match Femto_ebpf.Program.of_string payload with
          | exception Femto_ebpf.Program.Truncated m -> Error m
          | program -> (
              match Engine.update_program engine container program with
              | Ok () -> Ok ()
              | Error e -> Error (Engine.attach_error_to_string e)))
      ~known_storage:(fun uuid -> Engine.find_hook engine uuid <> None)
      ()
  in

  (* --- device CoAP endpoints: payload slot + manifest install --- *)
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille:150 "lossy-15%")
      ()
  in
  let server = Server.create ~network ~addr:1 () in
  let pending_payload = ref "" in
  Server.register server ~path:"/suit/slot" (fun ~src:_ request ->
      pending_payload := request.Message.payload;
      Server.respond Message.code_changed);
  Server.register server ~path:"/suit/install" (fun ~src:_ request ->
      match
        Suit.process device ~envelope:request.Message.payload
          ~payloads:[ (hook_uuid, !pending_payload) ]
      with
      | Ok manifest ->
          Printf.printf "device: installed manifest seq %Ld\n"
            manifest.Suit.sequence;
          Server.respond Message.code_changed
      | Error e ->
          Printf.printf "device: REJECTED update (%s)\n" (Suit.error_to_string e);
          Server.respond Message.code_unauthorized);

  (* --- maintainer side --- *)
  let client = Client.create ~network ~kernel ~addr:2 in
  let deploy ~key ~sequence ~payload ~deliver_payload () =
    let program_bytes = Femto_ebpf.Program.to_string payload in
    let manifest =
      Suit.make ~sequence [ Suit.component_for ~storage_uuid:hook_uuid program_bytes ]
    in
    let envelope = Suit.sign manifest key in
    Client.post_blockwise client ~dst:1 ~path:"/suit/slot" ~payload:(deliver_payload program_bytes)
      (fun _ ->
        Client.post client ~dst:1 ~path:"/suit/install" ~payload:envelope
          (fun _ -> ()))
  in

  let v2 = Femto_ebpf.Asm.assemble "mov r0, 2\nexit" in
  let v3 = Femto_ebpf.Asm.assemble "mov r0, 3\nexit" in

  (* legitimate update to v2 *)
  deploy ~key:device_key ~sequence:1L ~payload:v2 ~deliver_payload:Fun.id ();
  ignore (Kernel.run kernel ());
  Printf.printf "after legitimate update: %Ld\n\n" (run_version ());

  (* attack 1: attacker signs with the wrong key *)
  let attacker = Cose.make_key ~key_id:"fleet-2026" ~secret:"guessed secret" in
  deploy ~key:attacker ~sequence:2L ~payload:v3 ~deliver_payload:Fun.id ();
  ignore (Kernel.run kernel ());
  Printf.printf "after attacker-signed update: %Ld (unchanged)\n\n" (run_version ());

  (* attack 2: replay of the already-installed sequence number *)
  deploy ~key:device_key ~sequence:1L ~payload:v3 ~deliver_payload:Fun.id ();
  ignore (Kernel.run kernel ());
  Printf.printf "after replayed update: %Ld (unchanged)\n\n" (run_version ());

  (* attack 3: man-in-the-middle swaps the payload in transit *)
  let evil = Femto_ebpf.Program.to_string v3 in
  deploy ~key:device_key ~sequence:2L ~payload:v2
    ~deliver_payload:(fun _ -> evil)
    ();
  ignore (Kernel.run kernel ());
  Printf.printf "after payload-swapped update: %Ld (unchanged)\n\n" (run_version ());

  (* and a final legitimate update to v3 still works *)
  deploy ~key:device_key ~sequence:3L ~payload:v3 ~deliver_payload:Fun.id ();
  ignore (Kernel.run kernel ());
  Printf.printf "after final legitimate update: %Ld\n" (run_version ());
  Printf.printf "device accepted %d updates, rejected %d\n" device.Suit.accepted
    device.Suit.rejected;
  let stats = Network.stats network in
  Printf.printf "network: %d frames sent, %d lost (CoAP retransmission recovered)\n"
    stats.Network.frames_sent stats.Network.frames_dropped
