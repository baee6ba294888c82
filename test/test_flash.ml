(* Tests for the NOR-flash simulator and the slot manager. *)

module Flash = Femto_flash.Flash
module Slots = Femto_flash.Slots

let make_flash () = Flash.create ~page_size:256 ~pages:64 ()

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Flash.error_to_string e)

let slots_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Slots.error_to_string e)

(* --- flash semantics --- *)

let test_erased_flash_reads_ones () =
  let flash = make_flash () in
  let data = ok_or_fail "read" (Flash.read flash ~offset:0 ~length:16) in
  Alcotest.(check bool) "all ones" true
    (Bytes.for_all (fun c -> c = '\xff') data)

let test_write_then_read () =
  let flash = make_flash () in
  ok_or_fail "write" (Flash.write flash ~offset:10 (Bytes.of_string "hello"));
  let data = ok_or_fail "read" (Flash.read flash ~offset:10 ~length:5) in
  Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string data)

let test_write_without_erase_fails () =
  let flash = make_flash () in
  ok_or_fail "first" (Flash.write flash ~offset:0 (Bytes.of_string "\x00"));
  (* writing 0xFF over 0x00 would need 0->1 transitions *)
  match Flash.write flash ~offset:0 (Bytes.of_string "\xff") with
  | Error (Flash.Write_needs_erase { page = 0 }) -> ()
  | Ok () -> Alcotest.fail "0->1 write accepted"
  | Error e -> Alcotest.failf "wrong error: %s" (Flash.error_to_string e)

let test_clearing_bits_without_erase_is_fine () =
  let flash = make_flash () in
  ok_or_fail "w1" (Flash.write flash ~offset:0 (Bytes.of_string "\xf0"));
  (* 0xf0 -> 0x30 only clears bits *)
  ok_or_fail "w2" (Flash.write flash ~offset:0 (Bytes.of_string "\x30"))

let test_erase_restores_writability () =
  let flash = make_flash () in
  ok_or_fail "w" (Flash.write flash ~offset:0 (Bytes.of_string "\x00"));
  ok_or_fail "erase" (Flash.erase_page flash ~page:0);
  ok_or_fail "rewrite" (Flash.write flash ~offset:0 (Bytes.of_string "\xaa"));
  Alcotest.(check int) "erase counted" 1 (Flash.erase_count flash 0)

let test_out_of_range () =
  let flash = make_flash () in
  (match Flash.read flash ~offset:Flash.(size flash) ~length:1 with
  | Error (Flash.Out_of_range _) -> ()
  | _ -> Alcotest.fail "OOB read accepted");
  match Flash.erase_range flash ~offset:13 ~length:256 with
  | Error (Flash.Unaligned_erase _) -> ()
  | _ -> Alcotest.fail "unaligned erase accepted"

(* --- slots --- *)

let uuid = "aaaaaaaa-bbbb-4ccc-8ddd-eeeeeeeeeeee"

let image ?(sequence = 1L) payload = { Slots.sequence; hook_uuid = uuid; payload }

let test_slot_store_load () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  slots_ok "store" (Slots.store slots ~slot:2 (image "program bytes"));
  let loaded = slots_ok "load" (Slots.load slots ~slot:2) in
  Alcotest.(check string) "payload" "program bytes" loaded.Slots.payload;
  Alcotest.(check string) "uuid" uuid loaded.Slots.hook_uuid;
  Alcotest.(check int64) "sequence" 1L loaded.Slots.sequence

let test_empty_slot () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  match Slots.load slots ~slot:0 with
  | Error (Slots.Empty_slot 0) -> ()
  | _ -> Alcotest.fail "empty slot not detected"

let test_slot_overwrite () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  slots_ok "v1" (Slots.store slots ~slot:1 (image ~sequence:1L "v1"));
  slots_ok "v2" (Slots.store slots ~slot:1 (image ~sequence:2L "version two"));
  let loaded = slots_ok "load" (Slots.load slots ~slot:1) in
  Alcotest.(check string) "latest payload" "version two" loaded.Slots.payload

let test_corruption_detected () =
  let flash = make_flash () in
  let slots = Slots.create ~flash ~count:4 in
  slots_ok "store" (Slots.store slots ~slot:0 (image "sensitive"));
  (* flip payload bits behind the manager's back (clearing bits only, so
     the raw write is accepted) *)
  ok_or_fail "tamper" (Flash.write flash ~offset:90 (Bytes.of_string "\x00"));
  match Slots.load slots ~slot:0 with
  | Error (Slots.Corrupt_slot { slot = 0; _ }) -> ()
  | Ok _ -> Alcotest.fail "tampered image loaded"
  | Error e -> Alcotest.failf "wrong error: %s" (Slots.error_to_string e)

let test_image_too_large () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  let oversize = String.make (Slots.capacity slots + 1) 'x' in
  match Slots.store slots ~slot:0 (image oversize) with
  | Error (Slots.Image_too_large _) -> ()
  | _ -> Alcotest.fail "oversized image accepted"

let test_scan_and_victim () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  slots_ok "a" (Slots.store slots ~slot:0 (image ~sequence:5L "a"));
  slots_ok "b" (Slots.store slots ~slot:3 (image ~sequence:9L "b"));
  let found = Slots.scan slots in
  Alcotest.(check int) "two images" 2 (List.length found);
  (* an empty slot is preferred as the next victim *)
  Alcotest.(check int) "victim is empty slot" 1 (Slots.victim_slot slots);
  slots_ok "c" (Slots.store slots ~slot:1 (image ~sequence:10L "c"));
  slots_ok "d" (Slots.store slots ~slot:2 (image ~sequence:11L "d"));
  (* all full: the oldest sequence (slot 0, seq 5) is the victim *)
  Alcotest.(check int) "victim is oldest" 0 (Slots.victim_slot slots)

(* Placement reads headers only, but a full slot set still falls back to
   the digest scan, so a tampered image is reused before the oldest
   valid one. *)
let test_victim_reuses_tampered_slot_when_full () =
  let flash = make_flash () in
  let slots = Slots.create ~flash ~count:4 in
  List.iteri
    (fun slot sequence ->
      slots_ok "fill" (Slots.store slots ~slot (image ~sequence "payload")))
    [ 5L; 9L; 10L; 11L ];
  (* clear a payload byte of slot 2; its header stays intact *)
  let payload_at = (2 * (Flash.size flash / 4)) + 84 in
  ok_or_fail "tamper"
    (Flash.write flash ~offset:payload_at (Bytes.of_string "\x00"));
  (match Slots.header slots ~slot:2 with
  | Ok h -> Alcotest.(check int64) "header intact" 10L h.Slots.seq
  | Error e -> Alcotest.failf "header: %s" (Slots.error_to_string e));
  Alcotest.(check int) "victim is the tampered slot" 2 (Slots.victim_slot slots)

let test_victim_prefers_empty_over_tampered () =
  let flash = make_flash () in
  let slots = Slots.create ~flash ~count:4 in
  slots_ok "a" (Slots.store slots ~slot:0 (image ~sequence:5L "a"));
  slots_ok "c" (Slots.store slots ~slot:2 (image ~sequence:7L "c"));
  slots_ok "d" (Slots.store slots ~slot:3 (image ~sequence:8L "d"));
  ok_or_fail "tamper" (Flash.write flash ~offset:84 (Bytes.of_string "\x00"));
  Alcotest.(check int) "victim is the empty slot" 1 (Slots.victim_slot slots)

(* --- streaming installs --- *)

let test_stream_install () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  let payload = String.init 300 (fun i -> Char.chr ((i * 13) mod 256)) in
  let stream = slots_ok "begin" (Slots.begin_stream slots ~slot:1) in
  (* chunked exactly as a block-wise transfer would deliver it *)
  let rec feed pos =
    if pos < String.length payload then begin
      let n = min 64 (String.length payload - pos) in
      slots_ok "chunk" (Slots.stream_write stream (String.sub payload pos n));
      feed (pos + n)
    end
  in
  feed 0;
  Alcotest.(check int) "written" (String.length payload)
    (Slots.stream_written stream);
  (* header not yet programmed: the slot still scans as empty *)
  Alcotest.(check int) "uncommitted scans empty" 0
    (List.length (Slots.scan slots));
  slots_ok "finish"
    (Slots.finish_stream stream ~sequence:7L ~hook_uuid:uuid
       ~digest:(Femto_crypto.Crypto.sha256 payload));
  let loaded = slots_ok "load" (Slots.load slots ~slot:1) in
  Alcotest.(check string) "payload" payload loaded.Slots.payload;
  Alcotest.(check int64) "sequence" 7L loaded.Slots.sequence;
  Alcotest.(check string) "uuid" uuid loaded.Slots.hook_uuid

let test_stream_abandoned_leaves_slot_empty () =
  (* dropping a stream mid-transfer must not leave a half image behind *)
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  slots_ok "existing" (Slots.store slots ~slot:0 (image ~sequence:1L "keep me"));
  let stream = slots_ok "begin" (Slots.begin_stream slots ~slot:2) in
  slots_ok "partial" (Slots.stream_write stream "half an ima");
  (* no finish_stream: simulated transfer failure *)
  (match Slots.load slots ~slot:2 with
  | Error (Slots.Empty_slot 2) -> ()
  | Ok _ -> Alcotest.fail "abandoned stream produced a loadable image"
  | Error e -> Alcotest.failf "wrong error: %s" (Slots.error_to_string e));
  Alcotest.(check int) "only the committed image scans" 1
    (List.length (Slots.scan slots))

let test_stream_capacity_enforced () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  let stream = slots_ok "begin" (Slots.begin_stream slots ~slot:0) in
  let chunk = String.make 1024 'x' in
  let rec fill () =
    match Slots.stream_write stream chunk with
    | Ok () -> fill ()
    | Error (Slots.Image_too_large _) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Slots.error_to_string e)
  in
  fill ();
  Alcotest.(check bool) "stopped at capacity" true
    (Slots.stream_written stream <= Slots.capacity slots)

let test_stream_bad_header_rejected () =
  let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
  let stream = slots_ok "begin" (Slots.begin_stream slots ~slot:0) in
  slots_ok "chunk" (Slots.stream_write stream "payload");
  (* a 37-char uuid cannot fit the fixed header field *)
  match
    Slots.finish_stream stream ~sequence:1L
      ~hook_uuid:(String.make 37 'u')
      ~digest:(Femto_crypto.Crypto.sha256 "payload")
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversized uuid accepted"

let test_persistence_across_reboot () =
  (* store a container image, simulate a reboot by re-creating the slot
     manager over the same flash, verify the engine can re-attach it *)
  let flash = make_flash () in
  let slots = Slots.create ~flash ~count:4 in
  let program = Femto_ebpf.Asm.assemble "mov r0, 77\nexit" in
  let payload = Femto_ebpf.Program.to_string program in
  slots_ok "store" (Slots.store slots ~slot:0 { Slots.sequence = 3L; hook_uuid = uuid; payload });
  (* --- reboot --- *)
  let slots' = Slots.create ~flash ~count:4 in
  let engine = Femto_core.Engine.create () in
  let _hook =
    Femto_core.Engine.register_hook engine ~uuid ~name:"restored" ~ctx_size:8 ()
  in
  let tenant = Femto_core.Engine.add_tenant engine "acme" in
  List.iter
    (fun (_, restored) ->
      let program =
        Femto_ebpf.Program.of_bytes (Bytes.of_string restored.Slots.payload)
      in
      let container =
        Femto_core.Container.create ~name:"restored" ~tenant
          ~contract:(Femto_core.Contract.require [])
          program
      in
      match
        Femto_core.Engine.attach engine ~hook_uuid:restored.Slots.hook_uuid
          container
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Femto_core.Engine.attach_error_to_string e))
    (Slots.scan slots');
  match Femto_core.Engine.trigger_by_uuid engine ~uuid () with
  | Ok [ { Femto_core.Engine.result = Ok 77L; _ } ] -> ()
  | _ -> Alcotest.fail "restored container did not run"

let prop_slot_roundtrip =
  QCheck.Test.make ~name:"slot store/load roundtrip" ~count:100
    QCheck.(make Gen.(pair (string_size ~gen:char (int_range 0 512)) small_nat))
    (fun (payload, seq) ->
      let slots = Slots.create ~flash:(make_flash ()) ~count:4 in
      match
        Slots.store slots ~slot:0
          { Slots.sequence = Int64.of_int seq; hook_uuid = uuid; payload }
      with
      | Error _ -> String.length payload > Slots.capacity slots
      | Ok () -> (
          match Slots.load slots ~slot:0 with
          | Ok loaded -> String.equal loaded.Slots.payload payload
          | Error _ -> false))

(* [Flash.write] checks a word at a time; a byte-by-byte reference over
   a copy of the flash must agree on the result (the first violating
   page included) and on every byte left on flash.  Small pages and a
   payload that mostly clears bits make both outcomes common, at every
   alignment. *)
let reference_write image ~page_size ~offset payload =
  let length = Bytes.length payload in
  if offset < 0 || offset + length > Bytes.length image then
    Error (Flash.Out_of_range { offset; length })
  else begin
    let bad = ref None in
    Bytes.iteri
      (fun i c ->
        let current = Char.code (Bytes.get image (offset + i)) in
        if Char.code c land lnot current <> 0 && !bad = None then
          bad := Some ((offset + i) / page_size))
      payload;
    match !bad with
    | Some page -> Error (Flash.Write_needs_erase { page })
    | None ->
        Bytes.blit payload 0 image offset length;
        Ok ()
  end

let prop_write_matches_bytewise =
  let page_size = 16 and pages = 8 in
  let size = page_size * pages in
  QCheck.Test.make ~name:"word-wise write = byte-wise reference" ~count:500
    QCheck.(
      make
        Gen.(
          triple
            (string_size ~gen:char (return size))
            (int_range (-4) (size + 4))
            (pair (string_size ~gen:char (int_range 0 40)) (int_range 0 3))))
    (fun (before, offset, (noise, mode)) ->
      let flash = Flash.create ~page_size ~pages () in
      ignore (Flash.write_string flash ~offset:0 before);
      let image = Bytes.of_string before in
      (* mode 0: arbitrary bytes; otherwise clear bits of what is there,
         with the odd noise byte left unmasked in mode 1 *)
      let payload =
        Bytes.init (String.length noise) (fun i ->
            let n = Char.code noise.[i] in
            let current =
              if offset + i >= 0 && offset + i < size then
                Char.code before.[offset + i]
              else 0xff
            in
            Char.chr
              (match mode with
              | 0 -> n
              | 1 when i = String.length noise / 2 -> n
              | _ -> n land current))
      in
      let expected = reference_write image ~page_size ~offset payload in
      let got = Flash.write flash ~offset payload in
      got = expected
      &&
      let after = Flash.read flash ~offset:0 ~length:size in
      Bytes.equal image (ok_or_fail "read" after))

let suite =
  [
    Alcotest.test_case "erased reads ones" `Quick test_erased_flash_reads_ones;
    Alcotest.test_case "write/read" `Quick test_write_then_read;
    Alcotest.test_case "write needs erase" `Quick test_write_without_erase_fails;
    Alcotest.test_case "clearing bits ok" `Quick test_clearing_bits_without_erase_is_fine;
    Alcotest.test_case "erase restores" `Quick test_erase_restores_writability;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "slot store/load" `Quick test_slot_store_load;
    Alcotest.test_case "empty slot" `Quick test_empty_slot;
    Alcotest.test_case "slot overwrite" `Quick test_slot_overwrite;
    Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
    Alcotest.test_case "image too large" `Quick test_image_too_large;
    Alcotest.test_case "scan and victim" `Quick test_scan_and_victim;
    Alcotest.test_case "victim reuses tampered when full" `Quick
      test_victim_reuses_tampered_slot_when_full;
    Alcotest.test_case "victim prefers empty over tampered" `Quick
      test_victim_prefers_empty_over_tampered;
    Alcotest.test_case "stream install" `Quick test_stream_install;
    Alcotest.test_case "stream abandoned" `Quick test_stream_abandoned_leaves_slot_empty;
    Alcotest.test_case "stream capacity" `Quick test_stream_capacity_enforced;
    Alcotest.test_case "stream bad header" `Quick test_stream_bad_header_rejected;
    Alcotest.test_case "persistence across reboot" `Quick test_persistence_across_reboot;
    QCheck_alcotest.to_alcotest prop_slot_roundtrip;
    QCheck_alcotest.to_alcotest prop_write_matches_bytewise;
  ]

let () = Alcotest.run "femto_flash" [ ("flash", suite) ]
