(* Tests for the simulated network (fragmentation, loss) and the CoAP
   stack (codec, server dispatch, client retransmission). *)

module Kernel = Femto_rtos.Kernel
module Frag = Femto_net.Frag
module Network = Femto_net.Network
module Message = Femto_coap.Message
module Server = Femto_coap.Server
module Client = Femto_coap.Client
module Gcoap = Femto_coap.Gcoap
module Block = Femto_coap.Block

(* --- fragmentation --- *)

let test_small_datagram_single_frame () =
  let frames = Frag.fragment ~tag:1 (Bytes.of_string "hello") in
  Alcotest.(check int) "one frame" 1 (List.length frames)

let test_fragment_reassemble () =
  let payload = Bytes.init 500 (fun i -> Char.chr (i mod 256)) in
  let frames = Frag.fragment ~tag:7 payload in
  Alcotest.(check bool) "multiple frames" true (List.length frames > 1);
  List.iter
    (fun frame ->
      Alcotest.(check bool) "within MTU" true (Bytes.length frame <= Frag.frame_mtu))
    frames;
  let reasm = Frag.create_reassembler () in
  let result =
    List.fold_left
      (fun acc frame ->
        match Frag.accept reasm ~src:3 frame with Some d -> Some d | None -> acc)
      None frames
  in
  match result with
  | Some datagram -> Alcotest.(check bytes) "roundtrip" payload datagram
  | None -> Alcotest.fail "no reassembly"

let test_missing_fragment_no_delivery () =
  let payload = Bytes.create 400 in
  let frames = Frag.fragment ~tag:9 payload in
  let reasm = Frag.create_reassembler () in
  let all_but_last = List.filteri (fun i _ -> i < List.length frames - 1) frames in
  let delivered =
    List.exists (fun f -> Frag.accept reasm ~src:1 f <> None) all_but_last
  in
  Alcotest.(check bool) "not delivered" false delivered;
  Alcotest.(check int) "pending state" 1 (Frag.pending_count reasm)

let test_duplicate_fragment_ignored () =
  let payload = Bytes.create 400 in
  let frames = Frag.fragment ~tag:5 payload in
  let reasm = Frag.create_reassembler () in
  let first = List.hd frames in
  ignore (Frag.accept reasm ~src:1 first);
  ignore (Frag.accept reasm ~src:1 first);
  (* duplicates must not complete reassembly early or corrupt state *)
  let complete =
    List.fold_left
      (fun acc f -> match Frag.accept reasm ~src:1 f with Some d -> Some d | None -> acc)
      None (List.tl frames)
  in
  Alcotest.(check bool) "completes once" true (complete <> None)

let test_reassembler_flush () =
  let payload = Bytes.create 400 in
  let frames = Frag.fragment ~tag:9 payload in
  let reasm = Frag.create_reassembler () in
  (* partial state from two sources *)
  ignore (Frag.accept reasm ~src:1 (List.hd frames));
  ignore (Frag.accept reasm ~src:2 (List.hd frames));
  Alcotest.(check int) "two pending" 2 (Frag.pending_count reasm);
  Frag.flush reasm ~src:1;
  Alcotest.(check int) "one flushed" 1 (Frag.pending_count reasm);
  (* the flushed source restarts cleanly *)
  let complete =
    List.fold_left
      (fun acc f -> match Frag.accept reasm ~src:1 f with Some d -> Some d | None -> acc)
      None frames
  in
  Alcotest.(check bool) "src 1 reassembles after flush" true (complete <> None)

let prop_fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip" ~count:200
    QCheck.(make Gen.(string_size ~gen:char (int_range 0 2000)))
    (fun s ->
      let payload = Bytes.of_string s in
      let frames = Frag.fragment ~tag:1 payload in
      let reasm = Frag.create_reassembler () in
      let result =
        List.fold_left
          (fun acc f -> match Frag.accept reasm ~src:1 f with Some d -> Some d | None -> acc)
          None frames
      in
      match result with Some d -> Bytes.equal d payload | None -> false)

(* --- network --- *)

let test_network_delivery () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let _a = Network.add_node network ~addr:1 in
  let b = Network.add_node network ~addr:2 in
  let received = ref None in
  Network.set_receiver b (fun ~src datagram -> received := Some (src, datagram));
  Network.send network ~src:1 ~dst:2 (Bytes.of_string "ping");
  ignore (Kernel.run kernel ());
  match !received with
  | Some (1, datagram) -> Alcotest.(check string) "payload" "ping" (Bytes.to_string datagram)
  | _ -> Alcotest.fail "not delivered"

let test_network_large_datagram () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let _a = Network.add_node network ~addr:1 in
  let b = Network.add_node network ~addr:2 in
  let payload = Bytes.init 1000 (fun i -> Char.chr (i mod 256)) in
  let received = ref None in
  Network.set_receiver b (fun ~src:_ datagram -> received := Some datagram);
  Network.send network ~src:1 ~dst:2 payload;
  ignore (Kernel.run kernel ());
  (match !received with
  | Some datagram -> Alcotest.(check bytes) "reassembled" payload datagram
  | None -> Alcotest.fail "not delivered");
  Alcotest.(check bool) "fragmented on the wire" true
    ((Network.stats network).Network.frames_sent > 1)

let test_network_total_loss () =
  let kernel = Kernel.create () in
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille:1000 "total-loss")
      ()
  in
  let _a = Network.add_node network ~addr:1 in
  let b = Network.add_node network ~addr:2 in
  let received = ref false in
  Network.set_receiver b (fun ~src:_ _ -> received := true);
  Network.send network ~src:1 ~dst:2 (Bytes.of_string "doomed");
  ignore (Kernel.run kernel ());
  Alcotest.(check bool) "nothing arrives" false !received;
  Alcotest.(check int) "drop counted" 1 (Network.stats network).Network.frames_dropped

(* --- CoAP codec --- *)

let test_coap_encode_decode () =
  let message =
    Message.make ~token:"tk"
      ~options:(Message.options_of_path "/sensor/value" @ [ Message.content_format_option 0 ])
      ~payload:"23.7" ~code:Message.code_content ~message_id:0x1234 ()
  in
  let decoded = Message.decode (Message.encode message) in
  Alcotest.(check bool) "roundtrip" true (Message.equal message decoded);
  Alcotest.(check string) "path" "/sensor/value" (Message.path_string decoded);
  Alcotest.(check (option int)) "format" (Some 0) (Message.content_format decoded)

let test_coap_code_encoding () =
  Alcotest.(check int) "2.05 = 69" 69 (Message.code_to_int Message.code_content);
  Alcotest.(check int) "GET = 1" 1 (Message.code_to_int Message.code_get);
  Alcotest.(check int) "4.04 = 132" 132 (Message.code_to_int Message.code_not_found)

let test_coap_large_option_delta () =
  (* Uri-Query (15) after Uri-Path (11), plus a fabricated high option *)
  let message =
    Message.make ~options:[ (11, "x"); (15, "q=1"); (300, "big") ]
      ~code:Message.code_get ~message_id:1 ()
  in
  let decoded = Message.decode (Message.encode message) in
  Alcotest.(check bool) "roundtrip" true (Message.equal message decoded)

let test_coap_rejects_garbage () =
  (match Message.decode (Bytes.of_string "ab") with
  | exception Message.Parse_error _ -> ()
  | _ -> Alcotest.fail "short message accepted");
  match Message.decode (Bytes.of_string "\x81\x01\x00\x01") with
  | exception Message.Parse_error _ -> () (* version 2 *)
  | _ -> Alcotest.fail "bad version accepted"

let prop_coap_roundtrip =
  let gen =
    QCheck.Gen.(
      let path_opt = map (fun s -> (11, s)) (string_size (int_range 0 16)) in
      let fmt_opt = map (fun v -> Message.content_format_option (v land 0xffff)) int in
      map3
        (fun opts payload (mid, token_len) ->
          Message.make
            ~token:(String.sub "abcdefgh" 0 (abs token_len mod 9))
            ~options:opts ~payload ~code:Message.code_content
            ~message_id:(abs mid land 0xFFFF) ())
        (list_size (int_range 0 4) (oneof [ path_opt; fmt_opt ]))
        (string_size (int_range 0 64))
        (pair int int))
  in
  QCheck.Test.make ~name:"coap roundtrip" ~count:300 (QCheck.make gen)
    (fun message ->
      (* empty payload with a 0xFF marker is invalid; [make] never produces
         it, so the roundtrip must hold *)
      Message.equal message (Message.decode (Message.encode message)))

(* --- server/client over the network --- *)

let setup ?(loss_permille = 0) () =
  let kernel = Kernel.create () in
  let network =
    Network.create ~kernel
      ~profile:(Femto_net.Profile.make ~loss_permille "setup")
      ()
  in
  let server = Server.create ~network ~addr:1 () in
  let client = Client.create ~network ~kernel ~addr:2 in
  (kernel, network, server, client)

let test_request_response () =
  let kernel, _network, server, client = setup () in
  Server.register server ~path:"/hello" (fun ~src:_ _request ->
      Server.respond ~payload:"world" Message.code_content);
  let answer = ref None in
  Client.get client ~dst:1 ~path:"/hello" (fun result -> answer := Some result);
  ignore (Kernel.run kernel ());
  match !answer with
  | Some (Ok response) ->
      Alcotest.(check string) "payload" "world" response.Message.payload;
      Alcotest.(check bool) "code 2.05" true (response.Message.code = Message.code_content)
  | Some (Error `Timeout) -> Alcotest.fail "timeout"
  | None -> Alcotest.fail "no answer"

let test_not_found () =
  let kernel, _network, _server, client = setup () in
  let answer = ref None in
  Client.get client ~dst:1 ~path:"/missing" (fun result -> answer := Some result);
  ignore (Kernel.run kernel ());
  match !answer with
  | Some (Ok response) ->
      Alcotest.(check bool) "4.04" true (response.Message.code = Message.code_not_found)
  | _ -> Alcotest.fail "expected 4.04"

let test_retransmission_recovers_loss () =
  (* 30% frame loss: confirmable retransmission must still deliver *)
  let kernel, _network, server, client = setup ~loss_permille:300 () in
  Server.register server ~path:"/data" (fun ~src:_ _ ->
      Server.respond ~payload:"ok" Message.code_content);
  let successes = ref 0 in
  for _ = 1 to 10 do
    Client.get client ~dst:1 ~path:"/data" (function
      | Ok _ -> incr successes
      | Error `Timeout -> ())
  done;
  ignore (Kernel.run kernel ());
  Alcotest.(check bool)
    (Printf.sprintf "most requests succeed (%d/10, retransmissions=%d)"
       !successes (Client.retransmissions client))
    true (!successes >= 8)

let test_total_loss_times_out () =
  let kernel, _network, _server, client = setup ~loss_permille:1000 () in
  let outcome = ref None in
  Client.get client ~dst:1 ~path:"/x" (fun result -> outcome := Some result);
  ignore (Kernel.run kernel ());
  match !outcome with
  | Some (Error `Timeout) ->
      Alcotest.(check int) "timeouts counted" 1 (Client.timeouts client)
  | _ -> Alcotest.fail "expected timeout"

(* The back-off schedule, on the detached client with a recording [send]
   and timers run by hand: a request nobody answers goes out 5 times,
   byte-identical, at 0, 2, 6, 14 and 30 s (ACK_TIMEOUT 2 s, doubling,
   MAX_RETRANSMIT 4) and times out at 62 s. *)
let test_backoff_schedule () =
  let now = ref 0 in
  let sent = ref [] in
  let timers = ref [] in
  let client =
    Client.create_detached
      ~send:(fun ~dst:_ data -> sent := (!now, Bytes.to_string data) :: !sent)
      ~after_us:(fun ~us f -> timers := (!now + us, f) :: !timers)
      ~first_id:1 ~ack_timeout_us:2_000_000
  in
  let outcome = ref None in
  Client.get client ~dst:1 ~path:"/x" (fun r -> outcome := Some (!now, r));
  let rec run () =
    match List.sort (fun (a, _) (b, _) -> compare a b) !timers with
    | [] -> ()
    | (at, f) :: rest ->
        timers := rest;
        now := at;
        f ();
        run ()
  in
  run ();
  let sent = List.rev !sent in
  Alcotest.(check (list int)) "send times (us)"
    [ 0; 2_000_000; 6_000_000; 14_000_000; 30_000_000 ]
    (List.map fst sent);
  Alcotest.(check int) "one distinct datagram" 1
    (List.length (List.sort_uniq compare (List.map snd sent)));
  (match !outcome with
  | Some (at, Error `Timeout) ->
      Alcotest.(check int) "timeout at 62 s" 62_000_000 at
  | Some (_, Ok _) | None -> Alcotest.fail "expected a timeout");
  Alcotest.(check int) "retransmissions" 4 (Client.retransmissions client);
  Alcotest.(check int) "timeouts" 1 (Client.timeouts client)

let test_post_payload () =
  let kernel, _network, server, client = setup () in
  let seen = ref "" in
  Server.register server ~path:"/store" (fun ~src:_ request ->
      seen := request.Message.payload;
      Server.respond Message.code_changed);
  Client.post client ~dst:1 ~path:"/store" ~payload:"new config" (fun _ -> ());
  ignore (Kernel.run kernel ());
  Alcotest.(check string) "payload arrived" "new config" !seen

let test_server_deduplicates_retransmissions () =
  (* the same CON message id must not run the handler twice; the cached
     response is replayed (RFC 7252 deduplication) *)
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let server = Server.create ~network ~addr:1 () in
  let handler_runs = ref 0 in
  Server.register server ~path:"/once" (fun ~src:_ _ ->
      incr handler_runs;
      Server.respond ~payload:"done" Message.code_content);
  let raw_node = Network.add_node network ~addr:5 in
  let responses = ref 0 in
  Network.set_receiver raw_node (fun ~src:_ _ -> incr responses);
  let request =
    Message.make ~token:"tk"
      ~options:(Message.options_of_path "/once")
      ~code:Message.code_get ~message_id:0x42 ()
  in
  (* send the identical message twice, as a retransmitting client would *)
  Network.send network ~src:5 ~dst:1 (Message.encode request);
  ignore (Kernel.run kernel ());
  Network.send network ~src:5 ~dst:1 (Message.encode request);
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "handler ran once" 1 !handler_runs;
  Alcotest.(check int) "both got answers" 2 !responses

(* --- RFC 7959 block-wise transfer --- *)

let test_block_option_codec () =
  let cases =
    [ Block.make ~num:0 ~more:false ~size:16;
      Block.make ~num:0 ~more:true ~size:64;
      Block.make ~num:5 ~more:true ~size:128;
      Block.make ~num:300 ~more:false ~size:1024;
      Block.make ~num:100000 ~more:true ~size:32 ]
  in
  List.iter
    (fun block ->
      match Block.decode (Block.encode block) with
      | Some decoded ->
          Alcotest.(check int) "num" block.Block.num decoded.Block.num;
          Alcotest.(check bool) "more" block.Block.more decoded.Block.more;
          Alcotest.(check int) "size" (Block.size block) (Block.size decoded)
      | None -> Alcotest.fail "decode failed")
    cases;
  Alcotest.(check bool) "reserved szx rejected" true (Block.decode "\x07" = None)

let test_block_codec_exhaustive () =
  (* every encodable (num, more, szx) triple — the full 3-byte option
     space — round-trips exactly *)
  for szx = 0 to 6 do
    let size = 1 lsl (szx + 4) in
    List.iter
      (fun more ->
        for num = 0 to Block.max_num do
          let block = Block.make ~num ~more ~size in
          match Block.decode (Block.encode block) with
          | Some d
            when d.Block.num = num && d.Block.more = more
                 && Block.size d = size ->
              ()
          | _ ->
              Alcotest.failf "roundtrip failed at num=%d more=%b szx=%d" num
                more szx
        done)
      [ false; true ]
  done;
  (* value 0 encodes as the RFC 7959 zero-length option *)
  Alcotest.(check string) "v=0 is empty" ""
    (Block.encode (Block.make ~num:0 ~more:false ~size:16));
  (match Block.decode "" with
  | Some d ->
      Alcotest.(check int) "empty num" 0 d.Block.num;
      Alcotest.(check bool) "empty more" false d.Block.more;
      Alcotest.(check int) "empty size" 16 (Block.size d)
  | None -> Alcotest.fail "empty option value must decode");
  (* out-of-range fields raise instead of truncating *)
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | (_ : Block.t) -> Alcotest.fail "out-of-range accepted")
    [
      (fun () -> Block.make ~num:(Block.max_num + 1) ~more:false ~size:16);
      (fun () -> Block.make ~num:(-1) ~more:false ~size:16);
      (fun () -> Block.make ~num:0 ~more:false ~size:17);
      (fun () -> Block.make ~num:0 ~more:false ~size:2048);
    ];
  (match Block.encode { Block.num = Block.max_num + 1; more = false; szx = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode must reject an unencodable num")

let test_block_slice () =
  let payload = String.init 150 (fun i -> Char.chr (i mod 256)) in
  (match Block.slice ~num:0 ~size:64 payload with
  | Some (chunk, true) -> Alcotest.(check int) "first" 64 (String.length chunk)
  | _ -> Alcotest.fail "first slice");
  (match Block.slice ~num:2 ~size:64 payload with
  | Some (chunk, false) -> Alcotest.(check int) "last" 22 (String.length chunk)
  | _ -> Alcotest.fail "last slice");
  Alcotest.(check bool) "past end" true (Block.slice ~num:3 ~size:64 payload = None)

let test_blockwise_upload () =
  let kernel, _network, server, client = setup () in
  let received = ref "" in
  Server.register server ~path:"/upload" (fun ~src:_ request ->
      received := request.Message.payload;
      Server.respond Message.code_changed);
  let payload = String.init 500 (fun i -> Char.chr ((i * 7) mod 256)) in
  let final = ref None in
  Client.post_blockwise client ~dst:1 ~path:"/upload" ~payload (fun result ->
      final := Some result);
  ignore (Kernel.run kernel ());
  (match !final with
  | Some (Ok response) ->
      Alcotest.(check bool) "2.04" true (response.Message.code = Message.code_changed)
  | Some (Error `Timeout) -> Alcotest.fail "timeout"
  | None -> Alcotest.fail "no final response");
  Alcotest.(check string) "payload reassembled on the server" payload !received

let test_blockwise_upload_survives_loss () =
  let kernel, _network, server, client = setup ~loss_permille:200 () in
  let received = ref "" in
  Server.register server ~path:"/upload" (fun ~src:_ request ->
      received := request.Message.payload;
      Server.respond Message.code_changed);
  let payload = String.init 300 (fun i -> Char.chr (i mod 256)) in
  let final = ref None in
  Client.post_blockwise client ~dst:1 ~path:"/upload" ~payload (fun result ->
      final := Some result);
  ignore (Kernel.run kernel ());
  match !final with
  | Some (Ok _) -> Alcotest.(check string) "reassembled" payload !received
  | Some (Error `Timeout) -> () (* possible at this loss rate; no corruption *)
  | None -> Alcotest.fail "no outcome"

let test_blockwise_download () =
  let kernel, _network, server, client = setup () in
  let payload = String.init 400 (fun i -> Char.chr ((i * 3) mod 256)) in
  Server.register server ~path:"/fw" (fun ~src:_ _ ->
      Server.respond ~payload Message.code_content);
  let result = ref None in
  Client.get_blockwise client ~dst:1 ~path:"/fw" (fun r -> result := Some r);
  ignore (Kernel.run kernel ());
  match !result with
  | Some (Ok response) ->
      Alcotest.(check string) "downloaded" payload response.Message.payload
  | _ -> Alcotest.fail "download failed"

let test_plain_get_of_large_resource_gets_first_block () =
  (* a client unaware of block-wise still receives a valid first block *)
  let kernel, _network, server, client = setup () in
  let payload = String.make 300 'x' in
  Server.register server ~path:"/big" (fun ~src:_ _ ->
      Server.respond ~payload Message.code_content);
  let result = ref None in
  Client.get client ~dst:1 ~path:"/big" (fun r -> result := Some r);
  ignore (Kernel.run kernel ());
  match !result with
  | Some (Ok response) ->
      Alcotest.(check int) "first block only" 64 (String.length response.Message.payload);
      Alcotest.(check bool) "block2 present" true
        (Block.of_message ~number:Block.opt_block2 response <> None)
  | _ -> Alcotest.fail "no response"

let test_streaming_upload_sink () =
  (* a registered sink sees chunks in order while blocks arrive, and the
     streaming digest handed to [finish] matches the whole payload *)
  let kernel, _network, server, client = setup () in
  let payload = String.init 500 (fun i -> Char.chr ((i * 11) mod 256)) in
  let started = ref 0 and chunks = ref [] and finished = ref None in
  Server.register_upload server ~path:"/stream"
    {
      Server.start = (fun () -> incr started);
      chunk = (fun c -> chunks := c :: !chunks);
      finish =
        (fun ~src:_ ~digest ~size _request ->
          finished := Some (digest, size);
          Server.respond Message.code_changed);
      abort = (fun () -> Alcotest.fail "abort on a clean transfer");
    };
  let final = ref None in
  Client.post_blockwise client ~dst:1 ~path:"/stream" ~payload (fun result ->
      final := Some result);
  ignore (Kernel.run kernel ());
  (match !final with
  | Some (Ok response) ->
      Alcotest.(check bool) "2.04" true
        (response.Message.code = Message.code_changed)
  | _ -> Alcotest.fail "upload failed");
  Alcotest.(check int) "start once" 1 !started;
  Alcotest.(check string) "chunks arrive in order" payload
    (String.concat "" (List.rev !chunks));
  match !finished with
  | Some (digest, size) ->
      Alcotest.(check int) "size" (String.length payload) size;
      Alcotest.(check string) "streaming digest"
        (Femto_crypto.Crypto.sha256 payload) digest
  | None -> Alcotest.fail "finish not called"

let test_streaming_upload_sink_failure_aborts () =
  (* a sink that throws mid-transfer gets aborted and the client sees a
     5.00 rather than a wedged transfer *)
  let kernel, _network, server, client = setup () in
  let aborted = ref 0 in
  Server.register_upload server ~path:"/failing"
    {
      Server.start = (fun () -> ());
      chunk = (fun _ -> failwith "flash full");
      finish =
        (fun ~src:_ ~digest:_ ~size:_ _ -> Server.respond Message.code_changed);
      abort = (fun () -> incr aborted);
    };
  let payload = String.make 300 'z' in
  let final = ref None in
  Client.post_blockwise client ~dst:1 ~path:"/failing" ~payload (fun result ->
      final := Some result);
  ignore (Kernel.run kernel ());
  (match !final with
  | Some (Ok response) ->
      Alcotest.(check bool) "5.00" true
        (response.Message.code = Message.code_internal_error)
  | _ -> Alcotest.fail "no response");
  Alcotest.(check bool) "aborted" true (!aborted >= 1)

(* --- RFC 7641 observe --- *)

let test_observe_register_and_notify () =
  let kernel, _network, server, client = setup () in
  let value = ref 10 in
  Server.register server ~path:"/temp" (fun ~src:_ _ ->
      Server.respond ~payload:(string_of_int !value) Message.code_content);
  let received = ref [] in
  let _obs =
    Client.observe client ~dst:1 ~path:"/temp" (fun response ->
        received := response.Message.payload :: !received)
  in
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "registered" 1 (Server.observer_count server ~path:"/temp");
  Alcotest.(check (list string)) "initial value" [ "10" ] (List.rev !received);
  (* resource changes: the server pushes without being asked *)
  value := 20;
  Alcotest.(check int) "notified one observer" 1 (Server.notify server ~path:"/temp");
  ignore (Kernel.run kernel ());
  value := 30;
  ignore (Server.notify server ~path:"/temp");
  ignore (Kernel.run kernel ());
  Alcotest.(check (list string)) "all values pushed" [ "10"; "20"; "30" ]
    (List.rev !received)

let test_observe_cancel () =
  let kernel, _network, server, client = setup () in
  Server.register server ~path:"/x" (fun ~src:_ _ ->
      Server.respond ~payload:"v" Message.code_content);
  let count = ref 0 in
  let obs = Client.observe client ~dst:1 ~path:"/x" (fun _ -> incr count) in
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "initial" 1 !count;
  Client.cancel_observe client obs;
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "deregistered on server" 0
    (Server.observer_count server ~path:"/x");
  Alcotest.(check int) "no more notifications" 0 (Server.notify server ~path:"/x");
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "listener silent" 1 !count

let test_observe_notification_carries_sequence () =
  let kernel, _network, server, client = setup () in
  Server.register server ~path:"/s" (fun ~src:_ _ ->
      Server.respond ~payload:"p" Message.code_content);
  let sequences = ref [] in
  let _obs =
    Client.observe client ~dst:1 ~path:"/s" (fun response ->
        match Message.observe response with
        | Some seq -> sequences := seq :: !sequences
        | None -> ())
  in
  ignore (Kernel.run kernel ());
  ignore (Server.notify server ~path:"/s");
  ignore (Kernel.run kernel ());
  ignore (Server.notify server ~path:"/s");
  ignore (Kernel.run kernel ());
  (* sequence numbers must be strictly increasing (RFC 7641 reordering
     detection) *)
  let sorted = List.sort_uniq compare !sequences in
  Alcotest.(check int) "three distinct" 3 (List.length sorted)

(* --- message-id dedupe LRU (PR 10) --- *)

let detached_server ?dedupe_capacity () =
  let sent = ref [] in
  let server =
    Server.create_detached ?dedupe_capacity ~addr:1
      ~send:(fun ~dst:_ datagram -> sent := datagram :: !sent)
      ()
  in
  (server, sent)

let get_datagram ?(path = "/r") ~mid () =
  Message.encode
    (Message.make ~token:"tk"
       ~options:(Message.options_of_path path)
       ~code:Message.code_get ~message_id:mid ())

let test_dedupe_lru_eviction () =
  let server, sent = detached_server ~dedupe_capacity:4 () in
  let runs = ref 0 in
  Server.register server ~path:"/r" (fun ~src:_ _ ->
      incr runs;
      Server.respond ~payload:"x" Message.code_content);
  (* a CON retransmission is answered from the dedupe table *)
  Server.handle_datagram server ~src:5 (get_datagram ~mid:1 ());
  Server.handle_datagram server ~src:5 (get_datagram ~mid:1 ());
  Alcotest.(check int) "handler ran once" 1 !runs;
  Alcotest.(check int) "both copies answered" 2 (List.length !sent);
  (match !sent with
  | [ a; b ] -> Alcotest.(check bytes) "identical replies" a b
  | _ -> Alcotest.fail "expected two replies");
  (* overflow the 4-entry table: oldest keys fall out, counted *)
  for mid = 2 to 6 do
    Server.handle_datagram server ~src:5 (get_datagram ~mid ())
  done;
  Alcotest.(check bool) "evictions counted" true
    (Server.dedupe_evictions server > 0);
  (* the evicted (src=5, mid=1) is no longer deduplicated... *)
  let before = !runs in
  Server.handle_datagram server ~src:5 (get_datagram ~mid:1 ());
  Alcotest.(check int) "evicted entry re-runs handler" (before + 1) !runs;
  (* ...but a recent mid still is *)
  Server.handle_datagram server ~src:5 (get_datagram ~mid:6 ());
  Alcotest.(check int) "recent mid still deduped" (before + 1) !runs

(* --- idempotent-GET response cache (PR 10) --- *)

let test_response_cache_hits_and_expiry () =
  let server, sent = detached_server () in
  let now = ref 1_000.0 in
  Server.set_time_source server (fun () -> !now);
  let runs = ref 0 in
  Server.register_cached ~max_age_s:60 server ~path:"/c" (fun ~src:_ _ ->
      incr runs;
      Server.respond ~payload:"v" Message.code_content);
  Server.handle_datagram server ~src:1 (get_datagram ~path:"/c" ~mid:1 ());
  Server.handle_datagram server ~src:2 (get_datagram ~path:"/c" ~mid:2 ());
  Alcotest.(check int) "handler ran once for two clients" 1 !runs;
  Alcotest.(check (pair int int)) "one hit, one miss" (1, 1)
    (Server.cache_stats server);
  (* both replies carry the same ETag and a Max-Age *)
  let replies = List.rev_map Message.decode !sent in
  let etags = List.map Message.etag replies in
  (match etags with
  | [ Some a; Some b ] -> Alcotest.(check string) "stable ETag" a b
  | _ -> Alcotest.fail "expected an ETag on both replies");
  List.iter
    (fun r ->
      Alcotest.(check bool) "max-age present" true (Message.max_age r <> None);
      Alcotest.(check string) "payload served" "v" r.Message.payload)
    replies;
  (* past Max-Age the entry is stale: the handler runs again *)
  now := !now +. 61.0;
  Server.handle_datagram server ~src:3 (get_datagram ~path:"/c" ~mid:3 ());
  Alcotest.(check int) "expired entry re-evaluated" 2 !runs;
  (* invalidate drops the fresh entry too *)
  Server.invalidate server ~path:"/c";
  Server.handle_datagram server ~src:4 (get_datagram ~path:"/c" ~mid:4 ());
  Alcotest.(check int) "invalidate forces re-evaluation" 3 !runs

(* --- observe fan-out: one evaluation, one encode, N sends (PR 10) --- *)

let test_observe_fanout_single_evaluation () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let server = Server.create ~network ~addr:1 () in
  let runs = ref 0 in
  Server.register server ~path:"/t" (fun ~src:_ _ ->
      incr runs;
      Server.respond ~payload:"temp=21" Message.code_content);
  let payloads = ref [] in
  for i = 1 to 3 do
    let client = Client.create ~network ~kernel ~addr:(10 + i) in
    ignore
      (Client.observe client ~dst:1 ~path:"/t" (fun m ->
           match Message.observe m with
           | Some seq when seq > 1 -> payloads := m.Message.payload :: !payloads
           | _ -> ()))
  done;
  ignore (Kernel.run kernel ());
  let before = !runs in
  Alcotest.(check int) "all three notified" 3 (Server.notify server ~path:"/t");
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "resource evaluated once for the fan-out" (before + 1)
    !runs;
  Alcotest.(check (list string)) "every observer got the payload"
    [ "temp=21"; "temp=21"; "temp=21" ] !payloads

(* --- fault-injection profiles (PR 10) --- *)

let test_profile_duplication_counted () =
  let kernel = Kernel.create () in
  let profile = Femto_net.Profile.make ~dup_permille:1000 "alldup" in
  let network = Network.create ~kernel ~profile ~seed:3 () in
  let _a = Network.add_node network ~addr:1 in
  let b = Network.add_node network ~addr:2 in
  let received = ref 0 in
  Network.set_receiver b (fun ~src:_ _ -> incr received);
  for _ = 1 to 20 do
    Network.send network ~src:1 ~dst:2 (Bytes.of_string "ping")
  done;
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "every frame duplicated" 20
    (Network.stats network).Network.frames_duplicated;
  Alcotest.(check bool) "duplicates reach the receiver" true (!received > 20)

let test_profile_schedule_deterministic () =
  let run seed =
    let kernel = Kernel.create () in
    let network =
      Network.create ~kernel ~profile:Femto_net.Profile.hostile ~seed ()
    in
    let _a = Network.add_node network ~addr:1 in
    let b = Network.add_node network ~addr:2 in
    let received = ref 0 in
    Network.set_receiver b (fun ~src:_ _ -> incr received);
    for i = 1 to 50 do
      Network.send network ~src:1 ~dst:2
        (Bytes.make (100 + i) (Char.chr (i land 0xff)))
    done;
    ignore (Kernel.run kernel ());
    let s = Network.stats network in
    (!received, s.Network.frames_dropped, s.Network.frames_duplicated,
     s.Network.frames_reordered)
  in
  Alcotest.(check bool) "same seed, same fault schedule" true
    (run 42 = run 42)

let test_coap_roundtrip_under_duplicator_profile () =
  let kernel = Kernel.create () in
  let network =
    Network.create ~kernel ~profile:Femto_net.Profile.duplicator ~seed:5 ()
  in
  let server = Server.create ~network ~addr:1 () in
  let runs = ref 0 in
  Server.register server ~path:"/x" (fun ~src:_ _ ->
      incr runs;
      Server.respond ~payload:"ok" Message.code_content);
  let client = Client.create ~network ~kernel ~addr:2 in
  let got = ref None in
  Client.get client ~dst:1 ~path:"/x" (fun r -> got := Some r);
  ignore (Kernel.run kernel ());
  (match !got with
  | Some (Ok r) -> Alcotest.(check string) "payload" "ok" r.Message.payload
  | _ -> Alcotest.fail "no response under duplication");
  (* duplicated requests are absorbed by the dedupe table *)
  Alcotest.(check int) "handler ran once" 1 !runs

(* --- gcoap glue --- *)

let test_fmt_s16_dfp () =
  Alcotest.(check string) "scale -2" "23.72" (Gcoap.fmt_s16_dfp 2372L (-2));
  Alcotest.(check string) "scale 0" "7" (Gcoap.fmt_s16_dfp 7L 0);
  Alcotest.(check string) "scale 2" "700" (Gcoap.fmt_s16_dfp 7L 2);
  Alcotest.(check string) "negative" "-1.5" (Gcoap.fmt_s16_dfp (-15L) (-1))

let suite =
  [
    Alcotest.test_case "single frame" `Quick test_small_datagram_single_frame;
    Alcotest.test_case "fragment/reassemble" `Quick test_fragment_reassemble;
    Alcotest.test_case "missing fragment" `Quick test_missing_fragment_no_delivery;
    Alcotest.test_case "duplicate fragment" `Quick test_duplicate_fragment_ignored;
    Alcotest.test_case "reassembler flush" `Quick test_reassembler_flush;
    QCheck_alcotest.to_alcotest prop_fragment_roundtrip;
    Alcotest.test_case "network delivery" `Quick test_network_delivery;
    Alcotest.test_case "network large datagram" `Quick test_network_large_datagram;
    Alcotest.test_case "network total loss" `Quick test_network_total_loss;
    Alcotest.test_case "coap codec" `Quick test_coap_encode_decode;
    Alcotest.test_case "coap codes" `Quick test_coap_code_encoding;
    Alcotest.test_case "coap large delta" `Quick test_coap_large_option_delta;
    Alcotest.test_case "coap rejects garbage" `Quick test_coap_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_coap_roundtrip;
    Alcotest.test_case "request/response" `Quick test_request_response;
    Alcotest.test_case "not found" `Quick test_not_found;
    Alcotest.test_case "retransmission" `Quick test_retransmission_recovers_loss;
    Alcotest.test_case "total loss timeout" `Quick test_total_loss_times_out;
    Alcotest.test_case "back-off schedule" `Quick test_backoff_schedule;
    Alcotest.test_case "post payload" `Quick test_post_payload;
    Alcotest.test_case "CON deduplication" `Quick test_server_deduplicates_retransmissions;
    Alcotest.test_case "fmt_s16_dfp" `Quick test_fmt_s16_dfp;
    Alcotest.test_case "block option codec" `Quick test_block_option_codec;
    Alcotest.test_case "block codec exhaustive" `Slow test_block_codec_exhaustive;
    Alcotest.test_case "streaming upload sink" `Quick test_streaming_upload_sink;
    Alcotest.test_case "upload sink failure aborts" `Quick
      test_streaming_upload_sink_failure_aborts;
    Alcotest.test_case "block slice" `Quick test_block_slice;
    Alcotest.test_case "blockwise upload" `Quick test_blockwise_upload;
    Alcotest.test_case "blockwise upload under loss" `Quick
      test_blockwise_upload_survives_loss;
    Alcotest.test_case "blockwise download" `Quick test_blockwise_download;
    Alcotest.test_case "plain GET of large resource" `Quick
      test_plain_get_of_large_resource_gets_first_block;
    Alcotest.test_case "observe register/notify" `Quick test_observe_register_and_notify;
    Alcotest.test_case "observe cancel" `Quick test_observe_cancel;
    Alcotest.test_case "observe sequence" `Quick test_observe_notification_carries_sequence;
    Alcotest.test_case "dedupe LRU eviction" `Quick test_dedupe_lru_eviction;
    Alcotest.test_case "response cache" `Quick test_response_cache_hits_and_expiry;
    Alcotest.test_case "observe fan-out single eval" `Quick
      test_observe_fanout_single_evaluation;
    Alcotest.test_case "profile duplication" `Quick test_profile_duplication_counted;
    Alcotest.test_case "profile determinism" `Quick test_profile_schedule_deterministic;
    Alcotest.test_case "coap under duplicator" `Quick
      test_coap_roundtrip_under_duplicator_profile;
  ]

let () = Alcotest.run "femto_net_coap" [ ("net-coap", suite) ]
