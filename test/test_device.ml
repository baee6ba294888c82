(* Tests for the femto_device composition: boot, network install,
   persistence across reboot, rollback-counter persistence, identity
   conditions, and management endpoints. *)

module Device = Femto_device.Device
module Engine = Femto_core.Engine
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Client = Femto_coap.Client
module Message = Femto_coap.Message
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Flash = Femto_flash.Flash
module Slots = Femto_flash.Slots

let hook_a = "0a6e1a80-aaaa-4222-8333-444444444444"
let hook_b = "0a6e1a80-bbbb-4222-8333-444444444444"
let device_addr = 1

let key = Cose.make_key ~key_id:"fleet" ~secret:"fleet secret"

let identity =
  { Device.vendor_id = "acme"; class_id = "m4-sensor"; update_key = key }

let hooks =
  [
    Device.hook_spec ~uuid:hook_a ~name:"task-a" ~ctx_size:16 ();
    Device.hook_spec ~uuid:hook_b ~name:"task-b" ~ctx_size:16 ();
  ]

type rig = {
  kernel : Kernel.t;
  network : Network.t;
  flash : Flash.t;
  client : Client.t;
  mutable device : Device.t;
}

let make_rig () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let flash = Flash.create ~page_size:256 ~pages:64 () in
  let client = Client.create ~network ~kernel ~addr:9 in
  let device =
    Device.boot ~identity ~hooks ~flash ~slot_count:4 ~network
      ~addr:device_addr ()
  in
  { kernel; network; flash; client; device }

let reboot rig =
  Network.remove_node rig.network ~addr:device_addr;
  rig.device <-
    Device.boot ~identity ~hooks ~flash:rig.flash ~slot_count:4
      ~network:rig.network ~addr:device_addr ()

let run_hook rig uuid =
  match Engine.trigger_by_uuid (Device.engine rig.device) ~uuid () with
  | Ok [ { Engine.result = Ok v; _ } ] -> Some v
  | Ok [] -> None
  | Ok _ | Error _ -> Alcotest.fail "unexpected trigger outcome"

let deploy ?vendor_id ?class_id ?(key = key) rig ~sequence ~uuid source =
  let payload =
    Bytes.to_string (Femto_ebpf.Program.to_bytes (Femto_ebpf.Asm.assemble source))
  in
  let manifest =
    Suit.make
      ~vendor_id:(Option.value vendor_id ~default:identity.Device.vendor_id)
      ~class_id:(Option.value class_id ~default:identity.Device.class_id)
      ~sequence
      [ Suit.component_for ~storage_uuid:uuid payload ]
  in
  let envelope = Suit.sign manifest key in
  let outcome = ref None in
  Client.post_blockwise rig.client ~dst:device_addr ~path:"/suit/slot" ~payload
    (fun _ ->
      Client.post rig.client ~dst:device_addr ~path:"/suit/install"
        ~payload:envelope (fun result ->
          outcome :=
            match result with
            | Ok r -> Some r.Message.code
            | Error `Timeout -> None));
  ignore (Kernel.run rig.kernel ());
  !outcome

let test_factory_boot_is_empty () =
  let rig = make_rig () in
  Alcotest.(check (option int64)) "nothing on hook a" None (run_hook rig hook_a);
  Alcotest.(check int) "no containers" 0 (List.length (Device.containers rig.device))

let test_network_install_and_run () =
  let rig = make_rig () in
  let code = deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 11\nexit" in
  Alcotest.(check bool) "2.04" true (code = Some Message.code_changed);
  Alcotest.(check (option int64)) "runs" (Some 11L) (run_hook rig hook_a)

let test_persistence_across_reboot () =
  let rig = make_rig () in
  ignore (deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 11\nexit");
  ignore (deploy rig ~sequence:2L ~uuid:hook_b "mov r0, 22\nexit");
  reboot rig;
  Alcotest.(check (option int64)) "a restored" (Some 11L) (run_hook rig hook_a);
  Alcotest.(check (option int64)) "b restored" (Some 22L) (run_hook rig hook_b)

let test_newest_version_wins_after_reboot () =
  let rig = make_rig () in
  ignore (deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 1\nexit");
  ignore (deploy rig ~sequence:2L ~uuid:hook_a "mov r0, 2\nexit");
  ignore (deploy rig ~sequence:3L ~uuid:hook_a "mov r0, 3\nexit");
  reboot rig;
  Alcotest.(check (option int64)) "v3 active" (Some 3L) (run_hook rig hook_a)

let test_rollback_counter_survives_reboot () =
  let rig = make_rig () in
  ignore (deploy rig ~sequence:5L ~uuid:hook_a "mov r0, 5\nexit");
  reboot rig;
  let code = deploy rig ~sequence:5L ~uuid:hook_a "mov r0, 666\nexit" in
  Alcotest.(check bool) "replay rejected after reboot" true
    (code = Some Message.code_unauthorized);
  Alcotest.(check (option int64)) "v5 intact" (Some 5L) (run_hook rig hook_a)

let test_identity_conditions_enforced () =
  let rig = make_rig () in
  let code =
    deploy rig ~vendor_id:"someone-else" ~sequence:1L ~uuid:hook_a
      "mov r0, 666\nexit"
  in
  Alcotest.(check bool) "wrong vendor rejected" true
    (code = Some Message.code_unauthorized);
  let code =
    deploy rig ~class_id:"esp32-board" ~sequence:1L ~uuid:hook_a
      "mov r0, 666\nexit"
  in
  Alcotest.(check bool) "wrong class rejected" true
    (code = Some Message.code_unauthorized);
  Alcotest.(check (option int64)) "nothing installed" None (run_hook rig hook_a)

let test_wrong_key_rejected () =
  let rig = make_rig () in
  let attacker = Cose.make_key ~key_id:"fleet" ~secret:"guessed" in
  let code = deploy ~key:attacker rig ~sequence:1L ~uuid:hook_a "mov r0, 1\nexit" in
  Alcotest.(check bool) "rejected" true (code = Some Message.code_unauthorized)

let test_broken_program_rejected_not_persisted () =
  let rig = make_rig () in
  (* passes SUIT but fails pre-flight: must not reach the flash *)
  let payload =
    Bytes.to_string
      (Femto_ebpf.Program.to_bytes
         (Femto_ebpf.Program.of_insns [ Femto_ebpf.Insn.make 0xb7 ]))
  in
  let manifest =
    Suit.make ~vendor_id:identity.Device.vendor_id
      ~class_id:identity.Device.class_id ~sequence:1L
      [ Suit.component_for ~storage_uuid:hook_a payload ]
  in
  let envelope = Suit.sign manifest key in
  let outcome = ref None in
  Client.post_blockwise rig.client ~dst:device_addr ~path:"/suit/slot" ~payload
    (fun _ ->
      Client.post rig.client ~dst:device_addr ~path:"/suit/install"
        ~payload:envelope (fun result ->
          outcome := match result with Ok r -> Some r.Message.code | _ -> None));
  ignore (Kernel.run rig.kernel ());
  Alcotest.(check bool) "rejected" true (!outcome = Some Message.code_unauthorized);
  Alcotest.(check int) "flash untouched" 0
    (List.length (Slots.scan (Device.slots rig.device)))

let post_install rig envelope =
  let outcome = ref None in
  Client.post rig.client ~dst:device_addr ~path:"/suit/install"
    ~payload:envelope (fun result ->
      outcome := match result with Ok r -> Some r.Message.code | _ -> None);
  ignore (Kernel.run rig.kernel ());
  !outcome

let test_install_releases_upload () =
  let rig = make_rig () in
  let code = deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 11\nexit" in
  Alcotest.(check bool) "2.04" true (code = Some Message.code_changed);
  let payload, digest = Device.pending_upload rig.device in
  Alcotest.(check int) "payload released" 0 (String.length payload);
  Alcotest.(check bool) "digest released" true (digest = None)

let test_refused_install_keeps_upload () =
  let rig = make_rig () in
  let payload =
    Femto_ebpf.Program.to_string (Femto_ebpf.Asm.assemble "mov r0, 7\nexit")
  in
  let envelope key =
    Suit.sign
      (Suit.make ~vendor_id:identity.Device.vendor_id
         ~class_id:identity.Device.class_id ~sequence:1L
         [ Suit.component_for ~storage_uuid:hook_a payload ])
      key
  in
  let attacker = Cose.make_key ~key_id:"fleet" ~secret:"guessed" in
  let refused = ref None in
  Client.post_blockwise rig.client ~dst:device_addr ~path:"/suit/slot" ~payload
    (fun _ ->
      Client.post rig.client ~dst:device_addr ~path:"/suit/install"
        ~payload:(envelope attacker) (fun result ->
          refused :=
            match result with Ok r -> Some r.Message.code | _ -> None));
  ignore (Kernel.run rig.kernel ());
  Alcotest.(check bool) "4.01" true (!refused = Some Message.code_unauthorized);
  let held, digest = Device.pending_upload rig.device in
  Alcotest.(check string) "payload kept" payload held;
  Alcotest.(check bool) "digest kept" true (digest <> None);
  (* the corrected manifest alone, no second upload *)
  Alcotest.(check bool) "2.04" true
    (post_install rig (envelope key) = Some Message.code_changed);
  Alcotest.(check (option int64)) "runs" (Some 7L) (run_hook rig hook_a);
  Alcotest.(check int) "released" 0
    (String.length (fst (Device.pending_upload rig.device)))

let test_management_endpoints () =
  let rig = make_rig () in
  ignore (deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 1\nexit");
  ignore (run_hook rig hook_a);
  let listing = ref "" in
  Client.get_blockwise rig.client ~dst:device_addr ~path:"/fc/containers"
    (function
      | Ok r -> listing := r.Message.payload
      | Error `Timeout -> ());
  ignore (Kernel.run rig.kernel ());
  Alcotest.(check bool) "lists the container" true
    (Astring.String.is_infix ~affix:hook_a !listing);
  Alcotest.(check bool) "reports runs" true
    (Astring.String.is_infix ~affix:"runs=1" !listing)

(* --- hostile-network updates (PR 10) --- *)

module Profile = Femto_net.Profile

let assemble source =
  Bytes.to_string (Femto_ebpf.Program.to_bytes (Femto_ebpf.Asm.assemble source))

(* Install a manifest through the SUIT processor directly (no network):
   the firmware the device is already running when the hostile update
   starts. *)
let install_direct device ~sequence ~uuid source =
  let payload = assemble source in
  let manifest =
    Suit.make ~vendor_id:identity.Device.vendor_id
      ~class_id:identity.Device.class_id ~sequence
      [ Suit.component_for ~storage_uuid:uuid payload ]
  in
  match
    Suit.process
      (Device.suit_processor device)
      ~envelope:(Suit.sign manifest key)
      ~payloads:[ (uuid, payload) ]
  with
  | Ok _ -> payload
  | Error e -> Alcotest.fail (Suit.error_to_string e)

let run_hook_on device uuid =
  match Engine.trigger_by_uuid (Device.engine device) ~uuid () with
  | Ok [ { Engine.result = Ok v; _ } ] -> Some v
  | Ok [] -> None
  | Ok _ | Error _ -> Alcotest.fail "unexpected trigger outcome"

(* Whatever a hostile schedule did to the transfer, the device must be
   in one of exactly two states: still running v1, or fully running v2.
   Slot images are digest-checked (Slots.scan drops anything torn), the
   header-last streaming commit means an aborted upload scans as empty,
   and an accepted install must actually fire v2 — before AND after a
   power cycle over the same flash. *)
let prop_hostile_update_never_torn =
  let gen =
    QCheck.Gen.(
      map
        (fun (loss, dup, reorder, seed) -> (loss, dup, reorder, seed))
        (quad (int_bound 250) (int_bound 400) (int_bound 400) (int_bound 9999)))
  in
  let print (loss, dup, reorder, seed) =
    Printf.sprintf "loss=%d dup=%d reorder=%d seed=%d" loss dup reorder seed
  in
  QCheck.Test.make ~name:"hostile schedules never expose a torn update"
    ~count:30
    (QCheck.make ~print gen)
    (fun (loss, dup, reorder, seed) ->
      let profile =
        Profile.make ~loss_permille:loss ~dup_permille:dup
          ~reorder_permille:reorder ~jitter_us:800 "qcheck"
      in
      let kernel = Kernel.create () in
      let network = Network.create ~kernel ~profile ~seed () in
      let flash = Flash.create ~page_size:256 ~pages:64 () in
      let client = Client.create ~network ~kernel ~addr:9 in
      let device =
        Device.boot ~identity ~hooks ~flash ~slot_count:4 ~network
          ~addr:device_addr ()
      in
      let v1 = install_direct device ~sequence:1L ~uuid:hook_a "mov r0, 1\nexit" in
      let v2 = assemble "mov r0, 2\nexit" in
      let manifest =
        Suit.make ~vendor_id:identity.Device.vendor_id
          ~class_id:identity.Device.class_id ~sequence:2L
          [ Suit.component_for ~storage_uuid:hook_a v2 ]
      in
      let outcome = ref None in
      Client.post_blockwise client ~dst:device_addr ~path:"/suit/slot"
        ~payload:v2 (fun _ ->
          Client.post client ~dst:device_addr ~path:"/suit/install"
            ~payload:(Suit.sign manifest key) (fun result ->
              outcome :=
                match result with
                | Ok r -> Some r.Message.code
                | Error `Timeout -> None));
      ignore (Kernel.run kernel ());
      let accepted = !outcome = Some Message.code_changed in
      let images_whole device =
        List.for_all
          (fun (_, image) ->
            String.equal image.Slots.hook_uuid hook_a
            && (String.equal image.Slots.payload v1
               || String.equal image.Slots.payload v2))
          (Slots.scan (Device.slots device))
      in
      let state_sane device =
        match run_hook_on device hook_a with
        | Some 1L -> not accepted (* a 2.04 means v2 must be live *)
        | Some 2L -> true
        | _ -> false
      in
      let live_ok = images_whole device && state_sane device in
      (* power-cycle over the same flash: the bootloader sees only
         whole, digest-checked images *)
      Network.remove_node network ~addr:device_addr;
      let rebooted =
        Device.boot ~identity ~hooks ~flash ~slot_count:4 ~network
          ~addr:device_addr ()
      in
      live_ok && images_whole rebooted && state_sane rebooted)

(* The rollback half of the hostile matrix, deterministically: a replayed
   sequence number pushed through a lossy link must be rejected and must
   leave v1 firing. *)
let test_hostile_rollback_leaves_v1 () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel ~profile:Profile.lossy ~seed:4 () in
  let flash = Flash.create ~page_size:256 ~pages:64 () in
  let client = Client.create ~network ~kernel ~addr:9 in
  let device =
    Device.boot ~identity ~hooks ~flash ~slot_count:4 ~network
      ~addr:device_addr ()
  in
  ignore (install_direct device ~sequence:5L ~uuid:hook_a "mov r0, 1\nexit");
  let rollback = assemble "mov r0, 666\nexit" in
  let manifest =
    Suit.make ~vendor_id:identity.Device.vendor_id
      ~class_id:identity.Device.class_id ~sequence:5L
      [ Suit.component_for ~storage_uuid:hook_a rollback ]
  in
  let outcome = ref None in
  Client.post_blockwise client ~dst:device_addr ~path:"/suit/slot"
    ~payload:rollback (fun _ ->
      Client.post client ~dst:device_addr ~path:"/suit/install"
        ~payload:(Suit.sign manifest key) (fun result ->
          outcome :=
            match result with
            | Ok r -> Some r.Message.code
            | Error `Timeout -> None));
  ignore (Kernel.run kernel ());
  Alcotest.(check bool) "replay rejected" true
    (!outcome = Some Message.code_unauthorized);
  Alcotest.(check (option int64)) "v1 still firing" (Some 1L)
    (run_hook_on device hook_a)

let test_corrupt_slot_skipped_on_boot () =
  let rig = make_rig () in
  ignore (deploy rig ~sequence:1L ~uuid:hook_a "mov r0, 1\nexit");
  ignore (deploy rig ~sequence:2L ~uuid:hook_b "mov r0, 2\nexit");
  (* corrupt hook_a's image behind the manager's back *)
  let slot_a, _ =
    List.find
      (fun (_, image) -> String.equal image.Slots.hook_uuid hook_a)
      (Slots.scan (Device.slots rig.device))
  in
  (* clear the first payload byte (the 0xb7 opcode), guaranteed nonzero *)
  let offset = (slot_a * (Flash.size rig.flash / 4)) + 84 in
  (match Flash.write rig.flash ~offset (Bytes.of_string "\x00") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Flash.error_to_string e));
  reboot rig;
  Alcotest.(check (option int64)) "corrupt image skipped" None (run_hook rig hook_a);
  Alcotest.(check (option int64)) "healthy image restored" (Some 2L)
    (run_hook rig hook_b)

(* The stale sweep after a commit reads headers only, so an older image
   of the same hook is erased even when its payload no longer matches
   its digest (a digest-filtered scan would skip it and leave it on
   flash). *)
let test_install_sweeps_tampered_stale_image () =
  let rig = make_rig () in
  let slots = Device.slots rig.device in
  let old_payload =
    Bytes.to_string
      (Femto_ebpf.Program.to_bytes (Femto_ebpf.Asm.assemble "mov r0, 1\nexit"))
  in
  (* an old hook_a image in slot 2, behind the device's back, then
     tampered: slots 0 and 1 stay empty, so it is not the victim *)
  (match
     Slots.store slots ~slot:2
       { Slots.sequence = 1L; hook_uuid = hook_a; payload = old_payload }
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Slots.error_to_string e));
  let offset = (2 * (Flash.size rig.flash / 4)) + 84 in
  (match Flash.write rig.flash ~offset (Bytes.of_string "\x00") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Flash.error_to_string e));
  (match Slots.load slots ~slot:2 with
  | Error (Slots.Corrupt_slot _) -> ()
  | _ -> Alcotest.fail "tampered image not detected");
  let code = deploy rig ~sequence:2L ~uuid:hook_a "mov r0, 2\nexit" in
  Alcotest.(check bool) "2.04" true (code = Some Message.code_changed);
  (match Slots.header slots ~slot:2 with
  | Error (Slots.Empty_slot 2) -> ()
  | _ -> Alcotest.fail "tampered stale image left on flash");
  Alcotest.(check (option int64)) "v2 fires" (Some 2L) (run_hook rig hook_a);
  reboot rig;
  Alcotest.(check (option int64)) "v2 restored" (Some 2L) (run_hook rig hook_a)

let suite =
  [
    Alcotest.test_case "factory boot empty" `Quick test_factory_boot_is_empty;
    Alcotest.test_case "network install" `Quick test_network_install_and_run;
    Alcotest.test_case "persistence" `Quick test_persistence_across_reboot;
    Alcotest.test_case "newest wins" `Quick test_newest_version_wins_after_reboot;
    Alcotest.test_case "rollback survives reboot" `Quick
      test_rollback_counter_survives_reboot;
    Alcotest.test_case "identity conditions" `Quick test_identity_conditions_enforced;
    Alcotest.test_case "wrong key" `Quick test_wrong_key_rejected;
    Alcotest.test_case "broken program not persisted" `Quick
      test_broken_program_rejected_not_persisted;
    Alcotest.test_case "install releases upload" `Quick
      test_install_releases_upload;
    Alcotest.test_case "refused install keeps upload" `Quick
      test_refused_install_keeps_upload;
    Alcotest.test_case "management endpoints" `Quick test_management_endpoints;
    Alcotest.test_case "corrupt slot skipped" `Quick test_corrupt_slot_skipped_on_boot;
    Alcotest.test_case "install sweeps tampered stale image" `Quick
      test_install_sweeps_tampered_stale_image;
    QCheck_alcotest.to_alcotest prop_hostile_update_never_torn;
    Alcotest.test_case "hostile rollback leaves v1" `Quick
      test_hostile_rollback_leaves_v1;
  ]

let () = Alcotest.run "femto_device" [ ("device", suite) ]
