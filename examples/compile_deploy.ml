(* High-level programming of containers: write MiniScript, compile to
   eBPF, deploy through the secure-update pipeline, run in the sandbox.

   The paper's §8 notes that any language able to target the eBPF ISA can
   program Femto-Containers (they use C via LLVM); this repository ships
   its own small compiler (Femto_script.To_ebpf), so the whole
   write -> compile -> sign -> install -> execute loop runs here without
   leaving OCaml.

     dune exec examples/compile_deploy.exe *)

module To_ebpf = Femto_script.To_ebpf
module Device = Femto_device.Device
module Engine = Femto_core.Engine
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Client = Femto_coap.Client
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Flash = Femto_flash.Flash

let hook = "c0de0000-0000-4000-8000-000000000001"
let key = Cose.make_key ~key_id:"fleet" ~secret:"fleet secret"

(* The application, written at high level.  It receives the hook context
   value in its first parameter and keeps a smoothed maximum in the
   global key-value store through helpers. *)
let application_source =
  {|
    fn track(ctx) {
      # the launchpad wrote the sample into the hook context
      let sample = load64(ctx);
      # running peak with decay, persisted across invocations
      let peak = bpf_fetch_peak();
      if (sample > peak) {
        peak = sample;
      } else {
        peak = peak - max(peak / 16, 1);
        peak = max(peak, 0);
      }
      bpf_store_peak(peak);
      return peak;
    }
  |}

(* Device-side helpers the script calls; ids in the device ABI space. *)
let id_fetch_peak = 0x40
let id_store_peak = 0x41

let resolve = function
  | "bpf_fetch_peak" -> Some id_fetch_peak
  | "bpf_store_peak" -> Some id_store_peak
  | name -> Femto_core.Syscall.resolve_name name

let () =
  (* 1. compile the script to eBPF *)
  let program = To_ebpf.compile_function ~helpers:resolve application_source "track" in
  Printf.printf "compiled 'track' to %d eBPF instructions (%d bytes; compact: %d bytes)\n"
    (Femto_ebpf.Program.length program)
    (Femto_ebpf.Program.byte_size program)
    (String.length (Femto_ebpf.Compact.compress program));
  print_string "--- generated code ---\n";
  print_string
    (Femto_ebpf.Disasm.to_string
       ~helper_name:(fun id ->
         if id = id_fetch_peak then Some "bpf_fetch_peak"
         else if id = id_store_peak then Some "bpf_store_peak"
         else None)
       program);
  print_string "----------------------\n";

  (* 2. boot a device whose engine offers the custom helpers *)
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let flash = Flash.create ~page_size:256 ~pages:64 () in
  let device =
    Device.boot
      ~identity:{ Device.vendor_id = "acme"; class_id = "m4"; update_key = key }
      ~hooks:[ Device.hook_spec ~uuid:hook ~name:"sample" ~ctx_size:16 () ]
      ~flash ~slot_count:4 ~network ~addr:1 ()
  in
  let peak = ref 0L in
  Engine.add_helper_installer (Device.engine device) Femto_core.Contract.Time
    (fun helpers ->
      Femto_vm.Helper.register helpers ~id:id_fetch_peak ~name:"bpf_fetch_peak"
        (fun _mem rf -> Femto_vm.Helper.return rf !peak);
      Femto_vm.Helper.register helpers ~id:id_store_peak ~name:"bpf_store_peak"
        (fun _mem rf ->
          peak := Femto_vm.Helper.arg rf 1;
          Femto_vm.Helper.return rf 0L));

  (* 3. deploy over the network through SUIT *)
  let client = Client.create ~network ~kernel ~addr:9 in
  let payload = Femto_ebpf.Program.to_string program in
  let manifest =
    Suit.make ~sequence:1L [ Suit.component_for ~storage_uuid:hook payload ]
  in
  Client.post_blockwise client ~dst:1 ~path:"/suit/slot" ~payload (fun _ ->
      Client.post client ~dst:1 ~path:"/suit/install"
        ~payload:(Suit.sign manifest key) (fun _ -> ()));
  ignore (Kernel.run kernel ());

  (* 4. feed samples through the hook and watch the peak tracker *)
  let samples = [ 10L; 50L; 40L; 30L; 90L; 10L; 10L; 10L; 10L ] in
  List.iter
    (fun sample ->
      match
        Engine.trigger_by_uuid (Device.engine device) ~uuid:hook
          ~ctx:
            (let b = Bytes.create 16 in
             Bytes.set_int64_le b 0 sample;
             b)
          ()
      with
      | Ok [ { Engine.result = Ok value; _ } ] ->
          Printf.printf "sample %3Ld -> peak %3Ld\n" sample value
      | Ok [ { Engine.result = Error f; _ } ] ->
          Printf.printf "fault: %s\n" (Femto_vm.Fault.to_string f)
      | _ -> print_endline "trigger failed")
    samples
