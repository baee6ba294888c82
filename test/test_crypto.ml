(* Crypto tests: SHA-256 NIST/FIPS vectors, HMAC-SHA256 RFC 4231 vectors,
   COSE sign/verify with tamper and wrong-key rejection. *)

module Crypto = Femto_crypto.Crypto
module Sha256 = Femto_crypto.Sha256
module Cose = Femto_cose.Cose

let check_sha input expected_hex =
  Alcotest.(check string) ("sha256 of " ^ String.escaped input) expected_hex
    (Crypto.to_hex (Crypto.sha256 input))

let test_sha256_vectors () =
  check_sha "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check_sha "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  check_sha "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1";
  (* FIPS 180-4 896-bit two-block message *)
  check_sha "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1";
  (* one million 'a': the classic long-message vector *)
  check_sha (String.make 1_000_000 'a')
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"

let test_sha256_block_boundaries () =
  (* lengths around the 64-byte block and 56-byte padding edges *)
  let reference = [
    (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
    (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
    (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
    (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
  ]
  in
  List.iter
    (fun (n, expected) -> check_sha (String.make n 'a') expected)
    reference

let test_sha256_incremental () =
  (* feeding in odd-sized chunks must equal one-shot hashing *)
  let message = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let ctx = Sha256.init () in
  let rec feed pos step =
    if pos < String.length message then begin
      let n = min step (String.length message - pos) in
      Sha256.update_string ctx (String.sub message pos n);
      feed (pos + n) (step + 7)
    end
  in
  feed 0 1;
  Alcotest.(check string) "incremental = one-shot"
    (Crypto.to_hex (Crypto.sha256 message))
    (Crypto.to_hex (Sha256.finalize ctx))

(* Arbitrary chunkings of arbitrary messages: the streaming digest the
   CoAP Block1 path drives must equal one-shot hashing no matter how the
   transfer is split. *)
let prop_sha256_chunking =
  QCheck.Test.make ~name:"incremental = one-shot under any chunking"
    ~count:200
    QCheck.(
      make
        Gen.(
          pair
            (string_size ~gen:char (int_range 0 600))
            (list_size (int_range 0 20) (int_range 1 100))))
    (fun (message, cuts) ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun step ->
          let n = min step (String.length message - !pos) in
          if n > 0 then begin
            Sha256.update_substring ctx message !pos n;
            pos := !pos + n
          end)
        cuts;
      Sha256.update_substring ctx message !pos (String.length message - !pos);
      String.equal (Crypto.sha256 message) (Sha256.finalize ctx))

let test_sha256_copy_independent () =
  (* extending a copied midstate must not disturb the original *)
  let ctx = Sha256.init () in
  Sha256.update_string ctx "common prefix ";
  let branch = Sha256.copy ctx in
  Sha256.update_string branch "left";
  Sha256.update_string ctx "right";
  Alcotest.(check string) "branch"
    (Crypto.to_hex (Crypto.sha256 "common prefix left"))
    (Crypto.to_hex (Sha256.finalize branch));
  Alcotest.(check string) "original"
    (Crypto.to_hex (Crypto.sha256 "common prefix right"))
    (Crypto.to_hex (Sha256.finalize ctx))

let test_sha256_update_allocates_nothing () =
  (* the firmware hash of every signed update runs this loop: no closure
     per block, no boxed length per call *)
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Sha256.init () in
  Sha256.update ctx data 0 4096;
  let w0 = Gc.minor_words () in
  Sha256.update ctx data 0 4096;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words of a warm 4 KiB update" 0.0 words;
  let reference = Bytes.cat data data in
  Alcotest.(check string) "digest unchanged"
    (Crypto.to_hex (Sha256.digest_bytes reference))
    (Crypto.to_hex (Sha256.finalize ctx))

(* RFC 4231 HMAC-SHA256 test cases. *)
let test_hmac_vectors () =
  let check ~key ~data expected =
    Alcotest.(check string) "hmac" expected
      (Crypto.to_hex (Crypto.hmac_sha256 ~key data))
  in
  check
    ~key:(String.make 20 '\x0b')
    ~data:"Hi There"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7";
  check ~key:"Jefe" ~data:"what do ya want for nothing?"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843";
  check
    ~key:(String.make 20 '\xaa')
    ~data:(String.make 50 '\xdd')
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe";
  (* key longer than the block size *)
  check
    ~key:(String.make 131 '\xaa')
    ~data:"Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"

let test_constant_time_equal () =
  Alcotest.(check bool) "equal" true (Crypto.constant_time_equal "abc" "abc");
  Alcotest.(check bool) "differs" false (Crypto.constant_time_equal "abc" "abd");
  Alcotest.(check bool) "length differs" false (Crypto.constant_time_equal "ab" "abc")

let test_hex_roundtrip () =
  Alcotest.(check string) "roundtrip" "\x00\xff\x10"
    (Crypto.of_hex (Crypto.to_hex "\x00\xff\x10"));
  Alcotest.(check string) "upper accepted" "\xab" (Crypto.of_hex "AB");
  let every_byte = String.init 256 Char.chr in
  Alcotest.(check string) "every byte, as %02x"
    (String.concat ""
       (List.init 256 (fun b -> Printf.sprintf "%02x" b)))
    (Crypto.to_hex every_byte)

(* --- COSE --- *)

let key = Cose.make_key ~key_id:"device-key-1" ~secret:"super secret key material"

let test_cose_sign_verify () =
  let payload = "the manifest bytes" in
  let envelope = Cose.sign key payload in
  match Cose.verify key envelope with
  | Ok recovered -> Alcotest.(check string) "payload" payload recovered
  | Error e -> Alcotest.fail (Cose.error_to_string e)

let test_cose_tamper_rejected () =
  let envelope = Cose.sign key "payload" in
  (* flip one byte somewhere in the middle *)
  let tampered = Bytes.of_string envelope in
  let i = String.length envelope / 2 in
  Bytes.set tampered i (Char.chr (Char.code (Bytes.get tampered i) lxor 1));
  match Cose.verify key (Bytes.to_string tampered) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered envelope accepted"

let test_cose_wrong_key_rejected () =
  let envelope = Cose.sign key "payload" in
  let other = Cose.make_key ~key_id:"device-key-1" ~secret:"different secret" in
  match Cose.verify other envelope with
  | Error Cose.Bad_signature -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Cose.error_to_string e)

let test_cose_wrong_key_id_rejected () =
  let envelope = Cose.sign key "payload" in
  let other = Cose.make_key ~key_id:"other-key" ~secret:"super secret key material" in
  match Cose.verify other envelope with
  | Error (Cose.Wrong_key_id "device-key-1") -> ()
  | Ok _ -> Alcotest.fail "wrong key id accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Cose.error_to_string e)

let test_cose_garbage_rejected () =
  match Cose.verify key "not cbor at all \x00\x01" with
  | Error (Cose.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Cose.error_to_string e)

let prop_cose_roundtrip =
  QCheck.Test.make ~name:"cose roundtrip on random payloads" ~count:100
    QCheck.(make Gen.(string_size ~gen:char (int_range 0 512)))
    (fun payload ->
      match Cose.verify key (Cose.sign key payload) with
      | Ok recovered -> String.equal recovered payload
      | Error _ -> false)

let prop_cose_bitflip_rejected =
  QCheck.Test.make ~name:"any bitflip is rejected" ~count:200
    QCheck.(make Gen.(pair (string_size ~gen:char (int_range 1 64)) (pair small_nat small_nat)))
    (fun (payload, (byte_idx, bit_idx)) ->
      let envelope = Cose.sign key payload in
      let i = byte_idx mod String.length envelope in
      let bit = bit_idx mod 8 in
      let tampered = Bytes.of_string envelope in
      Bytes.set tampered i (Char.chr (Char.code envelope.[i] lxor (1 lsl bit)));
      let tampered = Bytes.to_string tampered in
      if String.equal tampered envelope then true
      else
        match Cose.verify key tampered with
        | Error _ -> true
        | Ok recovered ->
            (* flipping inside the payload while the signature still
               verifies must be impossible *)
            String.equal recovered payload)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 block boundaries" `Quick test_sha256_block_boundaries;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "sha256 copy" `Quick test_sha256_copy_independent;
    Alcotest.test_case "sha256 update allocates nothing" `Quick
      test_sha256_update_allocates_nothing;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "constant-time equal" `Quick test_constant_time_equal;
    Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
    Alcotest.test_case "cose sign/verify" `Quick test_cose_sign_verify;
    Alcotest.test_case "cose tamper" `Quick test_cose_tamper_rejected;
    Alcotest.test_case "cose wrong key" `Quick test_cose_wrong_key_rejected;
    Alcotest.test_case "cose wrong key id" `Quick test_cose_wrong_key_id_rejected;
    Alcotest.test_case "cose garbage" `Quick test_cose_garbage_rejected;
    QCheck_alcotest.to_alcotest prop_sha256_chunking;
    QCheck_alcotest.to_alcotest prop_cose_roundtrip;
    QCheck_alcotest.to_alcotest prop_cose_bitflip_rejected;
  ]

let () = Alcotest.run "femto_crypto" [ ("crypto", suite) ]
