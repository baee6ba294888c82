(* Tests for the socket edge (PR 10): the Unix-UDP transport in front of
   the CoAP server — real datagrams over loopback, the zero-copy decode
   path, block-wise uploads through a socket, and observe fan-out to a
   socket peer. *)

module Message = Femto_coap.Message
module Server = Femto_coap.Server
module Transport = Femto_coap.Transport

(* --- codec slices (the zero-alloc receive path) --- *)

let test_decode_sub_matches_decode () =
  let m =
    Message.make ~token:"abcd"
      ~options:(Message.options_of_path "/a/b" @ [ Message.etag_option "ETAG" ])
      ~payload:"hello" ~code:Message.code_content ~message_id:777 ()
  in
  let wire = Message.encode m in
  (* embed the wire form mid-buffer, as the reused recv buffer holds it *)
  let buf = Bytes.make (Bytes.length wire + 7) '\xff' in
  Bytes.blit wire 0 buf 3 (Bytes.length wire);
  let parsed = Message.decode_sub buf ~off:3 ~len:(Bytes.length wire) in
  Alcotest.(check bool) "slice parse equals whole-buffer parse" true
    (Message.equal parsed (Message.decode wire))

let test_decode_sub_rejects_bad_bounds () =
  let wire = Message.encode (Message.make ~code:Message.code_get ~message_id:1 ()) in
  let bad off len =
    match Message.decode_sub wire ~off ~len with
    | exception Message.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "negative offset" true (bad (-1) 4);
  Alcotest.(check bool) "length past end" true (bad 0 (Bytes.length wire + 1))

let test_encode_into_appends () =
  let m1 = Message.make ~payload:"x" ~code:Message.code_content ~message_id:1 () in
  let m2 = Message.make ~payload:"y" ~code:Message.code_content ~message_id:2 () in
  let buf = Buffer.create 64 in
  Message.encode_into buf m1;
  let split = Buffer.length buf in
  Message.encode_into buf m2;
  let both = Buffer.to_bytes buf in
  Alcotest.(check bytes) "first message intact"
    (Message.encode m1) (Bytes.sub both 0 split);
  Alcotest.(check bytes) "second appended"
    (Message.encode m2)
    (Bytes.sub both split (Bytes.length both - split))

(* --- loopback UDP --- *)

(* A transport + server pair on an ephemeral loopback port, torn down
   after [f].  The acceptor runs on its own domain, exactly as `fc
   serve` runs it. *)
let with_edge f =
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  Server.register server ~path:"/hello" (fun ~src:_ _ ->
      Server.respond ~payload:"hi" Message.code_content);
  let transport = Transport.create () in
  Transport.spawn transport server;
  Fun.protect
    ~finally:(fun () -> Transport.stop transport)
    (fun () -> f server transport)

let client_of transport =
  Transport.Client.create ~ack_timeout_s:1.0 ~port:(Transport.port transport) ()

let test_udp_get_over_loopback () =
  with_edge (fun server transport ->
      let client = client_of transport in
      Fun.protect
        ~finally:(fun () -> Transport.Client.close client)
        (fun () ->
          (match Transport.Client.get client ~path:"/hello" with
          | Ok r ->
              Alcotest.(check bool) "2.05" true (r.Message.code = Message.code_content);
              Alcotest.(check string) "payload" "hi" r.Message.payload
          | Error `Timeout -> Alcotest.fail "timeout on loopback");
          (match Transport.Client.get client ~path:"/missing" with
          | Ok r ->
              Alcotest.(check bool) "4.04" true
                (r.Message.code = Message.code_not_found)
          | Error `Timeout -> Alcotest.fail "timeout on 4.04 path");
          Alcotest.(check int) "one socket peer" 1 (Transport.peer_count transport);
          Alcotest.(check int) "resource requests counted" 1
            (Server.requests_served server);
          let s = Transport.stats transport in
          Alcotest.(check bool) "rx counted" true (s.Transport.rx_datagrams >= 2);
          Alcotest.(check bool) "tx counted" true (s.Transport.tx_datagrams >= 2)))

let test_udp_blockwise_upload () =
  with_edge (fun server transport ->
      let received = Buffer.create 1024 in
      let finished = ref None in
      Server.register_upload server ~path:"/up"
        {
          Server.start = (fun () -> Buffer.clear received);
          chunk = (fun c -> Buffer.add_string received c);
          finish =
            (fun ~src:_ ~digest:_ ~size _ ->
              finished := Some size;
              Server.respond Message.code_changed);
          abort = (fun () -> ());
        };
      let payload = String.init 1500 (fun i -> Char.chr (i mod 256)) in
      let client = client_of transport in
      Fun.protect
        ~finally:(fun () -> Transport.Client.close client)
        (fun () ->
          match Transport.Client.post_blockwise client ~path:"/up" ~payload with
          | Ok r ->
              Alcotest.(check bool) "2.04" true
                (r.Message.code = Message.code_changed);
              Alcotest.(check (option int)) "size streamed" (Some 1500) !finished;
              Alcotest.(check string) "payload reassembled across blocks" payload
                (Buffer.contents received)
          | Error `Timeout -> Alcotest.fail "upload timed out"))

let test_udp_observe_notification () =
  with_edge (fun server transport ->
      let temp = ref 21 in
      Server.register server ~path:"/temp" (fun ~src:_ _ ->
          Server.respond ~payload:(Printf.sprintf "t=%d" !temp)
            Message.code_content);
      let client = client_of transport in
      Fun.protect
        ~finally:(fun () -> Transport.Client.close client)
        (fun () ->
          (match Transport.Client.observe client ~path:"/temp" with
          | Ok r -> Alcotest.(check string) "registration payload" "t=21" r.Message.payload
          | Error `Timeout -> Alcotest.fail "observe registration timed out");
          Alcotest.(check int) "registered" 1
            (Server.observer_count server ~path:"/temp");
          temp := 22;
          Alcotest.(check int) "one observer notified" 1
            (Server.notify server ~path:"/temp");
          match Transport.Client.recv client ~timeout_s:2.0 with
          | Some n ->
              Alcotest.(check string) "fresh state" "t=22" n.Message.payload;
              Alcotest.(check bool) "carries a sequence number" true
                (match Message.observe n with Some s -> s > 1 | None -> false)
          | None -> Alcotest.fail "notification never arrived"))

let test_udp_cached_resource () =
  with_edge (fun server transport ->
      let runs = ref 0 in
      Server.register_cached ~max_age_s:60 server ~path:"/c" (fun ~src:_ _ ->
          incr runs;
          Server.respond ~payload:"v" Message.code_content);
      let client = client_of transport in
      Fun.protect
        ~finally:(fun () -> Transport.Client.close client)
        (fun () ->
          let etag_of = function
            | Ok r -> Message.etag r
            | Error `Timeout -> Alcotest.fail "timeout"
          in
          let e1 = etag_of (Transport.Client.get client ~path:"/c") in
          let e2 = etag_of (Transport.Client.get client ~path:"/c") in
          Alcotest.(check int) "handler ran once over the socket" 1 !runs;
          Alcotest.(check bool) "stable ETag" true (e1 = e2 && e1 <> None)))

(* The UDP client's retransmission path: against a bound socket that
   never answers, a GET goes out 5 times, byte-identical, then times
   out. *)
let test_udp_retransmits_then_times_out () =
  let silent = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close silent)
    (fun () ->
      Unix.bind silent (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname silent with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let client = Transport.Client.create ~ack_timeout_s:0.01 ~port () in
      let result =
        Fun.protect
          ~finally:(fun () -> Transport.Client.close client)
          (fun () -> Transport.Client.get client ~path:"/void")
      in
      Alcotest.(check bool) "timed out" true (result = Error `Timeout);
      Unix.set_nonblock silent;
      let buf = Bytes.create 2048 in
      let rec drain acc =
        match Unix.recvfrom silent buf 0 (Bytes.length buf) [] with
        | len, _ -> drain (Bytes.sub_string buf 0 len :: acc)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            acc
      in
      let datagrams = drain [] in
      Alcotest.(check int) "5 transmissions" 5 (List.length datagrams);
      Alcotest.(check int) "byte-identical" 1
        (List.length (List.sort_uniq compare datagrams)))

let suite =
  [
    Alcotest.test_case "decode_sub equals decode" `Quick test_decode_sub_matches_decode;
    Alcotest.test_case "decode_sub bounds" `Quick test_decode_sub_rejects_bad_bounds;
    Alcotest.test_case "encode_into appends" `Quick test_encode_into_appends;
    Alcotest.test_case "UDP GET over loopback" `Quick test_udp_get_over_loopback;
    Alcotest.test_case "UDP blockwise upload" `Quick test_udp_blockwise_upload;
    Alcotest.test_case "UDP observe" `Quick test_udp_observe_notification;
    Alcotest.test_case "UDP cached resource" `Quick test_udp_cached_resource;
    Alcotest.test_case "UDP retransmits then times out" `Quick
      test_udp_retransmits_then_times_out;
  ]

let () = Alcotest.run "femto_edge" [ ("edge", suite) ]
