(* Fleet simulator tests: campaign correctness, bit-determinism across
   domain counts, cross-shard traffic, cross-engine image sharing, and
   the rtos mailbox/sync primitives under cross-domain use. *)

module Fleet = Femto_fleet.Fleet
module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Syscall = Femto_core.Syscall
module Kernel = Femto_rtos.Kernel
module Sync = Femto_rtos.Sync
module Mailbox = Femto_rtos.Mailbox

let config ?(devices = 240) ?(shards = 8) ?(domains = 1) ?(loss = 0) () =
  {
    Fleet.default_config with
    devices;
    shards;
    domains;
    loss_permille = loss;
    (* short periods keep the virtual campaign small for tests *)
    epoch_us = 2_000;
    telemetry_us = 10_000;
  }

(* --- campaign correctness --- *)

let test_campaign_completes () =
  let fleet = Fleet.create (config ()) in
  let r = Fleet.run_campaign fleet in
  Alcotest.(check int) "all devices" 240 r.Fleet.r_devices;
  Alcotest.(check int) "every device accepted the update" 240
    r.Fleet.r_updates_ok;
  Alcotest.(check int) "none incomplete" 0 r.Fleet.r_incomplete;
  Alcotest.(check int) "none half-installed" 0 r.Fleet.r_half_installed;
  Alcotest.(check int) "acks crossed shards" 240 r.Fleet.r_cross_shard;
  (* one v1 + one v2 image per shard, every other spawn a cache hit *)
  Alcotest.(check int) "2 images per shard" 16 r.Fleet.r_images_built;
  Alcotest.(check int) "2 spawns per device" (2 * 240)
    (r.Fleet.r_images_built + r.Fleet.r_image_hits);
  Alcotest.(check bool) "telemetry kept firing" true
    (r.Fleet.r_telemetry_fires > 240);
  (* the v2 marker (local[9] = 2) proves the new firmware actually ran
     on every device after install — not just that SUIT accepted it *)
  Array.iter
    (fun line ->
      Alcotest.(check bool)
        ("v2 fired: " ^ line)
        true
        (Astring.String.is_infix ~affix:"9=2" line
        && Astring.String.is_infix ~affix:"seq=2" line))
    (Fleet.device_states fleet)

let test_campaign_report_sane () =
  let fleet = Fleet.create (config ~devices:60 ~shards:4 ()) in
  let r = Fleet.run_campaign fleet in
  Alcotest.(check bool) "epochs counted" true (r.Fleet.r_epochs > 0);
  Alcotest.(check bool) "virtual time advanced" true (r.Fleet.r_virtual_ms > 0.);
  Alcotest.(check bool) "wall time measured" true (r.Fleet.r_wall_ns > 0.);
  Alcotest.(check bool) "timer events counted" true
    (r.Fleet.r_timer_events >= r.Fleet.r_telemetry_fires)

(* --- determinism across domain counts (the contract that makes the
       domain pool a pure optimization) --- *)

let states_for ~domains =
  let fleet = Fleet.create (config ~devices:300 ~shards:12 ~domains ()) in
  let r = Fleet.run_campaign fleet in
  Alcotest.(check int)
    (Printf.sprintf "%d-domain run complete" domains)
    0 r.Fleet.r_incomplete;
  (Fleet.device_states fleet, Fleet.fingerprint fleet)

let test_determinism_across_domains () =
  let s1, f1 = states_for ~domains:1 in
  let s2, f2 = states_for ~domains:2 in
  let s4, f4 = states_for ~domains:4 in
  Alcotest.(check string) "1 = 2 domains" f1 f2;
  Alcotest.(check string) "1 = 4 domains" f1 f4;
  (* fingerprints are sha-256 of the states; compare the first lines
     directly too so a mismatch diagnosis is readable *)
  Alcotest.(check (array string)) "full per-device states equal" s1 s2;
  Alcotest.(check (array string)) "full per-device states equal (4)" s1 s4

let test_determinism_under_loss () =
  (* radio loss exercises the per-shard RNG and the server's retransmit
     path; the loss pattern is seeded per shard, so it too must be
     domain-count invariant *)
  let run domains =
    let fleet =
      Fleet.create (config ~devices:200 ~shards:8 ~domains ~loss:30 ())
    in
    let r = Fleet.run_campaign fleet in
    Alcotest.(check int) "complete despite loss" 0 r.Fleet.r_incomplete;
    Alcotest.(check int) "no half-install despite loss" 0
      r.Fleet.r_half_installed;
    Fleet.fingerprint fleet
  in
  Alcotest.(check string) "lossy run domain-invariant" (run 1) (run 4)

(* Skewed load at 2 % loss: shard 1's devices send many datagrams among
   themselves, so its first epoch costs far more than any other shard's
   and the domains finish shards out of index order; every device also
   sends one datagram to a device of shard 0, so the barrier re-sends
   datagrams from every shard onto shard 0's network, where their order
   decides the loss draws.  Which domain ran a shard must not show:
   states and inboxes match at 1/2/4 domains. *)
let test_determinism_skewed_load () =
  let devices = 480 and shards = 8 in
  let per_shard = devices / shards in
  let run domains =
    let fleet = Fleet.create (config ~devices ~shards ~domains ~loss:20 ()) in
    let send src dst tag =
      Fleet.send_datagram fleet ~src_device:src ~dst_device:dst
        (Bytes.of_string (Printf.sprintf "%d-%s" src tag))
    in
    for src = 0 to devices - 1 do
      send src ((src * 37) mod per_shard * shards) "to-0";
      if src mod shards = 1 then
        for j = 1 to 16 do
          let dst = ((((src * 7) + j) mod per_shard) * shards) + 1 in
          send src dst (string_of_int j)
        done
    done;
    let r = Fleet.run_campaign fleet in
    Alcotest.(check int) "complete under skew" 0 r.Fleet.r_incomplete;
    let inboxes =
      List.init devices (fun id ->
          Fleet.device_inbox fleet id
          |> List.map Bytes.to_string |> String.concat ",")
    in
    (Fleet.fingerprint fleet, inboxes)
  in
  let f1, i1 = run 1 in
  Alcotest.(check bool) "traffic delivered" true
    (List.exists (fun inbox -> inbox <> "") i1);
  List.iter
    (fun domains ->
      let f, i = run domains in
      Alcotest.(check string) (Printf.sprintf "1 = %d domains" domains) f1 f;
      Alcotest.(check (list string))
        (Printf.sprintf "inboxes 1 = %d domains" domains)
        i1 i)
    [ 2; 4 ]

(* Devices boot shard by shard, but every by-id view stays by id:
   line i of the determinism witness is device i. *)
let test_states_by_id () =
  let fleet = Fleet.create (config ~devices:50 ~shards:7 ()) in
  Array.iteri
    (fun i line ->
      let prefix = Printf.sprintf "d%d " i in
      Alcotest.(check bool)
        (Printf.sprintf "line %d is device %d: %s" i i line)
        true
        (String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix))
    (Fleet.device_states fleet);
  (* and traffic addressed by id reaches that id *)
  Fleet.send_datagram fleet ~src_device:3 ~dst_device:48
    (Bytes.of_string "to-48");
  Fleet.run_epochs fleet 4;
  Alcotest.(check (list string)) "delivered by id" [ "to-48" ]
    (List.map Bytes.to_string (Fleet.device_inbox fleet 48))

let test_seed_changes_behaviour () =
  let fp seed =
    let fleet =
      Fleet.create { (config ~loss:30 ()) with seed }
    in
    ignore (Fleet.run_campaign fleet);
    Fleet.fingerprint fleet
  in
  Alcotest.(check bool) "different seeds, different histories" true
    (not (String.equal (fp 1) (fp 2)))

(* --- cross-shard device-to-device traffic --- *)

let test_cross_shard_datagram () =
  (* devices 0..3 over 2 shards: 0 and 2 in shard 0, 1 and 3 in shard 1 *)
  let fleet = Fleet.create (config ~devices:4 ~shards:2 ()) in
  Fleet.send_datagram fleet ~src_device:0 ~dst_device:1
    (Bytes.of_string "hello");
  (* same-shard for contrast *)
  Fleet.send_datagram fleet ~src_device:0 ~dst_device:2
    (Bytes.of_string "local");
  Fleet.run_epochs fleet 4;
  Alcotest.(check (list string)) "crossed the shard boundary" [ "hello" ]
    (List.map Bytes.to_string (Fleet.device_inbox fleet 1));
  Alcotest.(check (list string)) "same-shard delivery" [ "local" ]
    (List.map Bytes.to_string (Fleet.device_inbox fleet 2));
  Alcotest.(check (list string)) "inbox drained" []
    (List.map Bytes.to_string (Fleet.device_inbox fleet 1))

(* --- one image, many engines (the PR 9 extension of the PR 8 cache) --- *)

let counter_source =
  {|
    mov r1, 1
    mov r2, r10
    sub r2, 8
    call bpf_fetch_local
    ldxdw r3, [r10-8]
    add r3, 1
    mov r1, 1
    mov r2, r3
    call bpf_store_local
    mov r0, r3
    exit
  |}

let test_image_shared_across_engines () =
  let program =
    Femto_ebpf.Asm.assemble ~helpers:Syscall.resolve_name counter_source
  in
  let images = Hashtbl.create 4 in
  let boot name =
    let engine = Engine.create ~images () in
    let _hook =
      Engine.register_hook engine ~uuid:"shared" ~name ~ctx_size:8 ()
    in
    let tenant = Engine.add_tenant engine name in
    let container =
      Container.create ~name ~tenant
        ~contract:(Contract.require [ Contract.Kv_local ])
        program
    in
    (match Engine.spawn engine ~hook_uuid:"shared" container with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
    (engine, container)
  in
  let _e1, c1 = boot "dev1" in
  let _e2, c2 = boot "dev2" in
  (* the second engine found the image the first one built *)
  Alcotest.(check int) "one image total" 1 (Hashtbl.length images);
  (* and yet the instances' CoW state is fully isolated: interleaved
     runs each count privately, with helpers rebound per dispatch *)
  let run c =
    match Container.run_instance c with
    | Ok v -> v
    | Error f -> Alcotest.failf "fault: %s" (Femto_vm.Fault.to_string f)
  in
  Alcotest.(check int64) "dev1 first" 1L (run c1);
  Alcotest.(check int64) "dev2 first" 1L (run c2);
  Alcotest.(check int64) "dev1 second" 2L (run c1);
  Alcotest.(check int64) "dev2 second" 2L (run c2);
  Alcotest.(check int64) "dev1 third" 3L (run c1)

(* --- mailbox/sync under cross-domain use --- *)

let test_mailbox_cross_domain_handoff () =
  (* the fleet pattern: a worker domain owns the mailbox during its
     epoch, the barrier (Domain.join here) publishes it, the owner
     drains.  FIFO order, capacity and drop accounting must survive the
     domain crossing. *)
  let box = Mailbox.create ~capacity:16 () in
  let worker =
    Domain.spawn (fun () ->
        let accepted = ref 0 in
        for i = 1 to 20 do
          if Mailbox.send box i then incr accepted
        done;
        !accepted)
  in
  let accepted = Domain.join worker in
  Alcotest.(check int) "capacity respected" 16 accepted;
  Alcotest.(check int) "overflow counted" 4 (Mailbox.dropped box);
  Alcotest.(check (list int)) "FIFO across the barrier"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ]
    (Mailbox.drain box)

(* One simulated-kernel scenario (threads contending on a PI mutex and a
   semaphore, posting to a mailbox) run to completion; returns the full
   event trace.  Running it concurrently on several domains must yield
   the serial trace on every domain — the property the fleet's
   shard-per-domain split relies on. *)
let sync_scenario () =
  let kernel = Kernel.create () in
  let mutex = Sync.create_mutex () in
  let sem = Sync.create_semaphore ~count:0 in
  let box = Mailbox.create ~capacity:8 () in
  let trace = ref [] in
  let mark m = trace := m :: !trace in
  let make_producer name priority items =
    let self = ref None in
    let produced = ref 0 in
    let thread =
      Kernel.spawn kernel ~name ~priority (fun _ ->
          let t = Option.get !self in
          if !produced >= items then begin
            ignore (Sync.unlock mutex t);
            mark (name ^ ":done");
            Sync.sem_release sem;
            Kernel.Finish
          end
          else begin
            (match Sync.lock mutex t with
            | `Acquired ->
                incr produced;
                ignore (Mailbox.send box (name ^ string_of_int !produced));
                mark (name ^ ":put");
                ignore (Sync.unlock mutex t)
            | `Blocked -> mark (name ^ ":blocked"));
            Kernel.Yield
          end)
    in
    self := Some thread;
    thread
  in
  let consumer_self = ref None in
  let got = ref [] in
  let consumer =
    Kernel.spawn kernel ~name:"consumer" ~priority:1 (fun _ ->
        let t = Option.get !consumer_self in
        match Sync.sem_acquire sem t with
        | `Blocked ->
            mark "consumer:waits";
            Kernel.Yield
        | `Acquired ->
            got := Mailbox.drain box @ !got;
            mark "consumer:drained";
            Kernel.Finish)
  in
  consumer_self := Some consumer;
  let _p1 = make_producer "p1" 3 3 in
  let _p2 = make_producer "p2" 5 3 in
  ignore (Kernel.run kernel ());
  (List.rev !trace, List.rev !got, Sync.contentions mutex, Kernel.now kernel)

let test_sync_scenario_domain_invariant () =
  let serial = sync_scenario () in
  let workers = Array.init 4 (fun _ -> Domain.spawn sync_scenario) in
  Array.iteri
    (fun i w ->
      let result = Domain.join w in
      Alcotest.(check bool)
        (Printf.sprintf "domain %d trace = serial trace" i)
        true (result = serial))
    workers;
  (* and the scenario is not vacuous *)
  let trace, got, _, _ = serial in
  Alcotest.(check bool) "producers produced" true (List.length got > 0);
  Alcotest.(check bool) "trace non-trivial" true (List.length trace >= 8)

(* The campaign encodes its push once and patches the message id per
   device; every patched datagram must equal the per-device encoding,
   including an id that wraps past 16 bits. *)
let test_push_patched_equals_encoded () =
  let fleet = Fleet.create (config ~devices:4 ~shards:2 ()) in
  List.iter
    (fun id ->
      let expected =
        Femto_coap.Message.encode
          (Fleet.push_message fleet ~message_id:(id land 0xffff))
      in
      Alcotest.(check string)
        (Printf.sprintf "id %#x" id)
        (Bytes.to_string expected)
        (Bytes.to_string (Fleet.push_datagram fleet ~id)))
    [ 0; 1; 0xffff; 0x10000 ]

(* Acks are two encodings made at create with the message id patched
   in; each must equal the full per-device encode. *)
let test_ack_patched_equals_encoded () =
  let fleet = Fleet.create (config ~devices:4 ~shards:2 ()) in
  List.iter
    (fun (ok, id) ->
      let expected =
        Femto_coap.Message.encode
          (Fleet.ack_message ~ok ~message_id:(id land 0xffff) ())
      in
      Alcotest.(check string)
        (Printf.sprintf "%s id %#x" (if ok then "ok" else "rej") id)
        (Bytes.to_string expected)
        (Bytes.to_string (Fleet.ack_datagram fleet ~ok ~id)))
    (List.concat_map
       (fun id -> [ (true, id); (false, id) ])
       [ 0; 1; 0xffff; 0x10000 ])

(* --- footprint sanity (the hard gate lives in bench/fleet_bench.ml) --- *)

(* Marginal resident words per device between a 256- and a 512-device
   fleet.  The bounds are the measured marginals (250 words after boot,
   286 after a campaign on x86-64, OCaml 5) plus about 8 %: a hash
   table, a boxed field or a per-instance stack creeping back into
   per-device state fails them. *)
let marginal_words ~campaign ~telemetry_us =
  let words n =
    let fleet =
      Fleet.create { (config ~devices:n ~shards:4 ()) with telemetry_us }
    in
    if campaign then ignore (Fleet.run_campaign fleet);
    Fleet.resident_words fleet
  in
  let w256 = words 256 and w512 = words 512 in
  Alcotest.(check bool) "more devices, more words" true (w512 > w256);
  (w512 - w256) / 256

let check_marginal ~bound marginal =
  Alcotest.(check bool)
    (Printf.sprintf "marginal %d words/device < %d" marginal bound)
    true (marginal < bound)

let test_resident_words_scale () =
  check_marginal ~bound:270 (marginal_words ~campaign:false ~telemetry_us:0)

(* After a campaign every device has respawned onto v2 and its telemetry
   has written its CoW kv delta (local[1], local[9]). *)
let test_resident_words_after_campaign () =
  check_marginal ~bound:310
    (marginal_words ~campaign:true ~telemetry_us:(config ()).Fleet.telemetry_us)

let suite =
  [
    ( "campaign",
      [
        Alcotest.test_case "completes, installs, fires v2" `Quick
          test_campaign_completes;
        Alcotest.test_case "report sane" `Quick test_campaign_report_sane;
      ] );
    ( "determinism",
      [
        Alcotest.test_case "domains 1/2/4 bit-identical" `Quick
          test_determinism_across_domains;
        Alcotest.test_case "lossy runs domain-invariant" `Quick
          test_determinism_under_loss;
        Alcotest.test_case "seed changes history" `Quick
          test_seed_changes_behaviour;
        Alcotest.test_case "skewed load domain-invariant" `Quick
          test_determinism_skewed_load;
        Alcotest.test_case "states by id after shard-major boot" `Quick
          test_states_by_id;
      ] );
    ( "traffic",
      [
        Alcotest.test_case "cross-shard datagram" `Quick
          test_cross_shard_datagram;
        Alcotest.test_case "patched push = per-device encode" `Quick
          test_push_patched_equals_encoded;
        Alcotest.test_case "patched ack = per-device encode" `Quick
          test_ack_patched_equals_encoded;
      ] );
    ( "images",
      [
        Alcotest.test_case "one image, many engines" `Quick
          test_image_shared_across_engines;
      ] );
    ( "cross-domain",
      [
        Alcotest.test_case "mailbox handoff at a barrier" `Quick
          test_mailbox_cross_domain_handoff;
        Alcotest.test_case "sync scenario domain-invariant" `Quick
          test_sync_scenario_domain_invariant;
      ] );
    ( "footprint",
      [
        Alcotest.test_case "resident words bounded" `Quick
          test_resident_words_scale;
        Alcotest.test_case "resident words bounded after a campaign" `Quick
          test_resident_words_after_campaign;
      ] );
  ]

let () = Alcotest.run "femto_fleet" suite
