(* The bounded CoAP edge: allocation pins for the request path, fixed
   per-peer state, the one-message receive bound, the monotonic clock
   behind Max-Age, and totality of the in-place decoder under mutated
   frames and of the update decoders (CBOR views, COSE, SUIT) under
   mutated signed updates. *)

module Message = Femto_coap.Message
module Block = Femto_coap.Block
module Server = Femto_coap.Server
module Transport = Femto_coap.Transport
module Obs = Femto_obs.Obs

let hello ~src:_ _ = Server.respond ~payload:"hi" Message.code_content

let discard_sink =
  {
    Server.start = ignore;
    chunk = ignore;
    finish = (fun ~src:_ ~digest:_ ~size:_ _ -> Server.respond Message.code_changed);
    abort = ignore;
  }

let encode_request ?(token = "\001\002") ?(options = []) ?(payload = "") ~path
    ~code ~mid () =
  Message.encode
    (Message.make ~token ~options:(Message.options_of_path path @ options)
       ~payload ~code ~message_id:mid ())

(* A server behind a transport on an ephemeral loopback port, drained
   on this domain, and a client socket connected to it. *)
let with_socket_edge f =
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  let transport = Transport.create () in
  Transport.attach transport server;
  let client = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.connect client
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Transport.port transport));
  Fun.protect
    ~finally:(fun () ->
      Unix.close client;
      Transport.stop transport)
    (fun () -> f server transport client)

let reply_buf = Bytes.create 2048

(* Send [datagram] and serve it with one drain that consumed it; returns
   the words that drain allocated. *)
let serve_words transport server client datagram =
  ignore (Unix.send client datagram 0 (Bytes.length datagram) []);
  let rec drain () =
    let w0 = Gc.minor_words () in
    let n = Transport.drain transport server in
    let w1 = Gc.minor_words () in
    if n > 0 then w1 -. w0
    else begin
      ignore (Unix.select [] [] [] 0.001);
      drain ()
    end
  in
  drain ()

let read_reply client =
  match Unix.select [ client ] [] [] 2.0 with
  | [], _, _ -> Alcotest.fail "no reply on loopback"
  | _ -> Message.decode (Bytes.sub reply_buf 0 (Unix.recv client reply_buf 0 2048 []))

(* --- allocation pins --- *)

let test_cached_get_words () =
  with_socket_edge (fun server transport client ->
      Server.register_cached ~max_age_s:3600 server ~path:"/cached" (fun ~src:_ _ ->
          Server.respond ~payload:"1710143201" Message.code_content);
      let request = encode_request ~path:"/cached" ~code:Message.code_get ~mid:0 () in
      let get mid =
        Bytes.set_uint16_be request 2 mid;
        let words = serve_words transport server client request in
        if (read_reply client).Message.payload <> "1710143201" then
          Alcotest.fail "wrong cached payload";
        words
      in
      (* past the first miss and a full dedupe ring *)
      for mid = 1 to 200 do ignore (get mid) done;
      let n = 300 in
      let total = ref 0.0 in
      for mid = 201 to 200 + n do total := !total +. get mid done;
      let per_get = !total /. float_of_int n in
      Printf.printf "cached GET: %.1f words per drain\n" per_get;
      Alcotest.(check bool)
        (Printf.sprintf "<= 100 words per cached GET (%.1f)" per_get)
        true (per_get <= 100.0);
      Alcotest.(check (pair int int)) "one miss, the rest hits" (n + 199, 1)
        (Server.cache_stats server))

let test_block1_words () =
  with_socket_edge (fun server transport client ->
      Server.register_upload server ~path:"/up" discard_sink;
      let blocks = 64 in
      let datagram num =
        encode_request ~path:"/up" ~code:Message.code_post ~mid:num
          ~options:
            [ Block.to_option ~number:Block.opt_block1
                (Block.make ~num ~more:(num < blocks - 1) ~size:64) ]
          ~payload:(String.make 64 (Char.chr (num land 0xff)))
          ()
      in
      let total = ref 0.0 and counted = ref 0 in
      for round = 0 to 3 do
        for num = 0 to blocks - 1 do
          let d = datagram num in
          Bytes.set_uint16_be d 2 ((round * blocks) + num);
          let words = serve_words transport server client d in
          let code = Message.code_to_string (read_reply client).Message.code in
          let last = num = blocks - 1 in
          if code <> if last then "2.04" else "2.31" then
            Alcotest.failf "block %d answered %s" num code;
          if round > 0 && num > 0 && not last then begin
            total := !total +. words;
            incr counted
          end
        done
      done;
      let per_block = !total /. float_of_int !counted in
      Printf.printf "Block1 64 B block: %.1f words per drain\n" per_block;
      Alcotest.(check bool)
        (Printf.sprintf "<= 130 words per 64 B block (%.1f)" per_block)
        true (per_block <= 130.0))

(* --- the message bound --- *)

let test_oversize_never_parsed () =
  with_socket_edge (fun server transport client ->
      let runs = ref 0 in
      Server.register server ~path:"/hello" (fun ~src:_ _ ->
          incr runs;
          Server.respond ~payload:"hi" Message.code_content);
      let big =
        encode_request ~path:"/hello" ~code:Message.code_post ~mid:7
          ~payload:(String.make 2000 'x') ()
      in
      ignore (serve_words transport server client big);
      let reply = read_reply client in
      Alcotest.(check string) "4.13" "4.13" (Message.code_to_string reply.Message.code);
      Alcotest.(check int) "same message id" 7 reply.Message.message_id;
      Alcotest.(check string) "same token" "\001\002" reply.Message.token;
      Alcotest.(check (option string)) "Size1 = the bound"
        (Some (Message.uint_value Message.max_size))
        (List.assoc_opt Message.opt_size1 reply.Message.options);
      Alcotest.(check int) "handler never ran" 0 !runs;
      Alcotest.(check int) "counted" 1 (Transport.stats transport).Transport.rx_oversize;
      (* one byte under the bound is a message like any other *)
      let fits =
        encode_request ~path:"/hello" ~code:Message.code_get ~mid:8 ()
      in
      let padded = Bytes.make Message.max_size '\000' in
      Bytes.blit fits 0 padded 0 (Bytes.length fits);
      Bytes.set padded (Bytes.length fits) '\xff';
      ignore (serve_words transport server client padded);
      Alcotest.(check string) "max-size GET answered" "2.05"
        (Message.code_to_string (read_reply client).Message.code);
      ignore
        (serve_words transport server client
           (encode_request ~path:"/hello" ~code:Message.code_get ~mid:9 ()));
      Alcotest.(check string) "next GET answered" "hi" (read_reply client).Message.payload;
      Alcotest.(check int) "two GETs ran the handler" 2 !runs)

(* --- bounded per-peer state --- *)

let words_of v = Obj.reachable_words (Obj.repr v)

let test_peers_bounded () =
  with_socket_edge (fun server transport _ ->
      Server.register server ~path:"/hello" hello;
      let port = Transport.port transport in
      (* every socket stays open, so no two peers share a port *)
      let sockets = ref [] in
      Fun.protect ~finally:(fun () -> List.iter Unix.close !sockets) @@ fun () ->
      let from_new_peer mid =
        let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        sockets := s :: !sockets;
        Unix.connect s (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        ignore
          (serve_words transport server s
             (encode_request ~path:"/hello" ~code:Message.code_get ~mid ()));
        if (read_reply s).Message.payload <> "hi" then Alcotest.fail "not answered"
      in
      let cap = Transport.peer_capacity in
      (* past the peer table's and the dedupe ring's capacity *)
      let first = 2 * max cap 64 in
      for i = 1 to first do from_new_peer i done;
      let w1 = words_of (server, transport) in
      for i = first + 1 to 2 * first do from_new_peer i done;
      let w2 = words_of (server, transport) in
      Alcotest.(check int) "server + transport words flat" w1 w2;
      Alcotest.(check int) "peers remembered" cap (Transport.peer_count transport);
      Alcotest.(check int) "every eviction counted" ((2 * first) - cap)
        (Transport.stats transport).Transport.peer_evictions)

let detached () =
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  Server.register_upload server ~path:"/up" discard_sink;
  Server.register server ~path:"/big" (fun ~src:_ _ ->
      Server.respond ~payload:(String.make 300 'b') Message.code_content);
  Server.register server ~path:"/obs" hello;
  (* fill the dedupe ring first: its replies are not what is measured *)
  for mid = 1 to 100 do
    Server.handle_datagram server ~src:1
      (encode_request ~path:"/obs" ~code:Message.code_get ~mid ())
  done;
  server

(* [n] sources each open one piece of state with [datagram src]. *)
let open_from server ~first ~n datagram =
  for src = first to first + n - 1 do
    Server.handle_datagram server ~src (datagram src)
  done

let check_flat name capacity datagram evicted =
  let server = detached () in
  (* each round also refills the whole dedupe ring *)
  let n = 64 + (2 * capacity) in
  open_from server ~first:1000 ~n datagram;
  let w1 = words_of server in
  open_from server ~first:2000 ~n datagram;
  Alcotest.(check int) (name ^ ": server words flat") w1 (words_of server);
  Alcotest.(check int) (name ^ ": every eviction counted") ((2 * n) - capacity)
    (evicted (Server.evictions server))

let test_uploads_bounded () =
  check_flat "uploads" Server.upload_capacity
    (fun src ->
      encode_request ~path:"/up" ~code:Message.code_post ~mid:src
        ~options:
          [ Block.to_option ~number:Block.opt_block1
              (Block.make ~num:0 ~more:true ~size:64) ]
        ~payload:(String.make 64 'u') ())
    (fun e -> e.Server.uploads)

let test_downloads_bounded () =
  check_flat "downloads" Server.download_capacity
    (fun src -> encode_request ~path:"/big" ~code:Message.code_get ~mid:src ())
    (fun e -> e.Server.downloads)

let test_observers_bounded () =
  check_flat "observers" Server.observer_capacity
    (fun src ->
      encode_request ~path:"/obs" ~code:Message.code_get ~mid:src
        ~options:[ Message.observe_option 0 ] ())
    (fun e -> e.Server.observers);
  let server = detached () in
  open_from server ~first:1 ~n:(3 * Server.observer_capacity) (fun src ->
      encode_request ~path:"/obs" ~code:Message.code_get ~mid:src
        ~options:[ Message.observe_option 0 ] ());
  Alcotest.(check int) "registrations held" Server.observer_capacity
    (Server.observer_count server ~path:"/obs");
  Alcotest.(check int) "newest observers notified" Server.observer_capacity
    (Server.notify server ~path:"/obs")

(* An evicted partial upload restarts cleanly: its next block is out of
   order (4.08), and block 0 opens a fresh transfer. *)
let test_evicted_upload_restarts () =
  let sent = ref [] in
  let server =
    Server.create_detached ~addr:1 ~send:(fun ~dst:_ d -> sent := d :: !sent) ()
  in
  Server.register_upload server ~path:"/up" discard_sink;
  let mid = ref 0 in
  let block ~src ~num ~more =
    incr mid;
    Server.handle_datagram server ~src
      (encode_request ~path:"/up" ~code:Message.code_post ~mid:!mid
         ~options:
           [ Block.to_option ~number:Block.opt_block1 (Block.make ~num ~more ~size:64) ]
         ~payload:(String.make 64 'u') ());
    Message.code_to_string (Message.decode (List.hd !sent)).Message.code
  in
  Alcotest.(check string) "block 0" "2.31" (block ~src:1 ~num:0 ~more:true);
  for src = 2 to Server.upload_capacity + 1 do
    ignore (block ~src ~num:0 ~more:true)
  done;
  Alcotest.(check string) "evicted transfer is incomplete" "4.08"
    (block ~src:1 ~num:1 ~more:false);
  Alcotest.(check string) "restart" "2.31" (block ~src:1 ~num:0 ~more:true);
  Alcotest.(check string) "completes" "2.04" (block ~src:1 ~num:1 ~more:false)

(* --- one monotonic clock --- *)

let test_obs_clock_drives_expiry () =
  let now_ns = ref 5e12 in
  Obs.set_clock (fun () -> !now_ns);
  Fun.protect ~finally:(fun () -> Obs.set_clock Obs.default_now_ns) @@ fun () ->
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  let runs = ref 0 in
  Server.register_cached ~max_age_s:60 server ~path:"/c" (fun ~src:_ _ ->
      incr runs;
      Server.respond ~payload:"v" Message.code_content);
  let get mid =
    Server.handle_datagram server ~src:5
      (encode_request ~path:"/c" ~code:Message.code_get ~mid ())
  in
  get 1;
  now_ns := !now_ns +. 59e9;
  get 2;
  Alcotest.(check int) "fresh within Max-Age" 1 !runs;
  now_ns := !now_ns +. 2e9;
  get 3;
  Alcotest.(check int) "expired on the Obs clock" 2 !runs

(* Max-Age and Observe values past two bytes round-trip. *)
let test_long_uint_options () =
  let decoded options =
    Message.decode
      (Message.encode (Message.make ~options ~code:Message.code_content ~message_id:1 ()))
  in
  Alcotest.(check (option int)) "one day of Max-Age" (Some 86_400)
    (Message.max_age (decoded [ Message.max_age_option 86_400 ]));
  Alcotest.(check (option int)) "Observe wraps at 24 bits" (Some 5)
    (Message.observe (decoded [ Message.observe_option 0x1000005 ]))

(* --- totality of the in-place decoder --- *)

let frame_gen =
  QCheck.Gen.(
    let option =
      oneof
        [
          map (fun s -> (Message.opt_uri_path, s)) (string_size (int_range 0 12));
          map (fun v -> Message.observe_option (v land 0xFFFFFF)) nat;
          map
            (fun (num, more, szx) ->
              Block.to_option
                ~number:(if more then Block.opt_block1 else Block.opt_block2)
                (Block.make ~num:(num land 0xFFF) ~more ~size:(16 lsl (szx mod 7))))
            (triple nat bool nat);
          map (fun s -> (Message.opt_etag, s)) (string_size (int_range 0 8));
          map (fun (n, s) -> (1 + (n mod 2000), s)) (pair nat (string_size (int_range 0 300)));
        ]
    in
    map
      (fun (((kind, code), mid, token), (options, payload)) ->
        Message.encode
          (Message.make
             ~msg_type:
               (match kind mod 4 with
               | 0 -> Message.Confirmable
               | 1 -> Message.Non_confirmable
               | 2 -> Message.Acknowledgement
               | _ -> Message.Reset)
             ~token ~options ~payload
             ~code:(Message.code_of_int (code land 0xff))
             ~message_id:(mid land 0xFFFF) ()))
      (pair
         (triple (pair nat nat) nat (string_size (int_range 0 8)))
         (pair (list_size (int_range 0 8) option) (string_size (int_range 0 200)))))

(* Bit flips, truncations and splices of valid inputs from [valid_gen]. *)
let mutations valid_gen =
  QCheck.Gen.(
    let flip b =
      map
        (fun (i, bit) ->
          let b = Bytes.copy b in
          if Bytes.length b > 0 then begin
            let i = i mod Bytes.length b in
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)))
          end;
          b)
        (pair nat nat)
    in
    valid_gen >>= fun a ->
    valid_gen >>= fun b ->
    oneof
      [
        return a;
        flip a;
        flip a >>= flip;
        map (fun n -> Bytes.sub a 0 (n mod (Bytes.length a + 1))) nat;
        map
          (fun (i, j) ->
            let i = i mod (Bytes.length a + 1) and j = j mod (Bytes.length b + 1) in
            Bytes.cat (Bytes.sub a 0 i) (Bytes.sub b j (Bytes.length b - j)))
          (pair nat nat);
      ])

let mutant_gen = mutations frame_gen
let mutant = QCheck.make ~print:(fun b -> String.escaped (Bytes.to_string b)) mutant_gen

let prop_decode_total =
  QCheck.Test.make ~name:"decode_sub and Block.decode are total" ~count:3000 mutant
    (fun data ->
      let pad = Bytes.make (Bytes.length data + 5) '\xff' in
      Bytes.blit data 0 pad 3 (Bytes.length data);
      let decoded =
        match Message.decode_sub pad ~off:3 ~len:(Bytes.length data) with
        | m -> Some m
        | exception Message.Parse_error _ -> None
      in
      let scanned =
        match Message.scan pad ~off:3 ~len:(Bytes.length data) with
        | v -> Some (Message.message v)
        | exception Message.Parse_error _ -> None
      in
      (match decoded with
      | Some m ->
          List.iter (fun (_, v) -> ignore (Block.decode v)) m.Message.options;
          (* the in-place path matcher agrees with [path_string] *)
          let v = Message.scan pad ~off:3 ~len:(Bytes.length data) in
          if not (Message.path_matches v (Message.path_string m)) then
            QCheck.Test.fail_report "path_matches disagrees with path_string"
      | None -> ());
      Option.equal Message.equal decoded scanned)

let fuzz_server () =
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  Server.register server ~path:"/hello" hello;
  Server.register_cached server ~path:"/c" (fun ~src:_ _ ->
      Server.respond ~payload:"cached" Message.code_content);
  Server.register server ~path:"/big" (fun ~src:_ _ ->
      Server.respond ~payload:(String.make 300 'b') Message.code_content);
  Server.register_upload server ~path:"/up" discard_sink;
  Server.register server ~path:"/" (fun ~src:_ _ -> failwith "handler fault");
  server

let prop_server_total =
  let server = fuzz_server () in
  QCheck.Test.make ~name:"handle_datagram_sub never raises" ~count:3000 mutant
    (fun data ->
      Server.handle_datagram_sub server ~src:(Bytes.length data land 7) data ~off:0
        ~len:(Bytes.length data);
      true)

(* The same mutants through a live socket: the edge keeps answering. *)
let test_fuzzed_socket_edge () =
  let server = fuzz_server () in
  let transport = Transport.create () in
  Transport.spawn transport server;
  Fun.protect ~finally:(fun () -> Transport.stop transport) @@ fun () ->
  let raw = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.connect raw (Unix.ADDR_INET (Unix.inet_addr_loopback, Transport.port transport));
  let rand = Random.State.make [| 26 |] in
  for _ = 1 to 2000 do
    let d = QCheck.Gen.generate1 ~rand mutant_gen in
    (try ignore (Unix.send raw d 0 (Bytes.length d) [])
     with Unix.Unix_error _ -> ());
    (* drain whatever the edge answered *)
    while
      match Unix.select [ raw ] [] [] 0.0 with
      | [], _, _ -> false
      | _ -> ( try ignore (Unix.recv raw reply_buf 0 2048 []); true with Unix.Unix_error _ -> true)
    do () done
  done;
  Unix.close raw;
  let client = Transport.Client.create ~ack_timeout_s:1.0 ~port:(Transport.port transport) () in
  Fun.protect ~finally:(fun () -> Transport.Client.close client) @@ fun () ->
  match Transport.Client.get client ~path:"/hello" with
  | Ok r -> Alcotest.(check string) "still answering" "hi" r.Message.payload
  | Error `Timeout -> Alcotest.fail "the edge stopped answering"

(* --- totality of the update decoders ---

   The same mutations of a valid signed update (a SUIT manifest in a
   COSE_Sign1 envelope, as the Block1 upload delivers it), and of its
   manifest alone, through the CBOR view decoder, COSE and SUIT. *)

module Cbor = Femto_cbor.Cbor
module Slice = Femto_cbor.Slice
module Cose = Femto_cose.Cose
module Suit = Femto_suit.Suit

let update_key = Cose.make_key ~key_id:"fuzz-key" ~secret:"fuzz-secret"

let manifest_gen =
  QCheck.Gen.(
    map
      (fun ((seq, vendor, cls), components) ->
        Suit.make ?vendor_id:vendor ?class_id:cls ~sequence:(Int64.of_int seq)
          (List.map
             (fun (uuid, payload) -> Suit.component_for ~storage_uuid:uuid payload)
             components))
      (pair
         (triple nat
            (opt (string_size (int_range 0 12)))
            (opt (string_size (int_range 0 12))))
         (list_size (int_range 0 3)
            (pair (string_size (int_range 0 36)) (string_size (int_range 0 64))))))

let signed_update_gen =
  QCheck.Gen.map
    (fun m -> Bytes.of_string (Suit.sign m update_key))
    manifest_gen

let manifest_bytes_gen =
  QCheck.Gen.map (fun m -> Bytes.of_string (Suit.encode m)) manifest_gen

let update_mutant =
  QCheck.make
    ~print:(fun b -> String.escaped (Bytes.to_string b))
    QCheck.Gen.(
      oneof [ mutations signed_update_gen; mutations manifest_bytes_gen ])

(* The same accepted value, or both refused (an error's message may
   name a position in the enclosing buffer). *)
let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> x = y
  | Error _, Error _ -> true
  | _ -> false

(* [data] as a window of a larger buffer, so slice offsets are nonzero. *)
let window data =
  let s = "\xff\xff\xff" ^ Bytes.to_string data ^ "\xff\xff" in
  Slice.make s ~off:3 ~len:(Bytes.length data)

(* The CBOR decoders fail only with [Decode_error], and a view decoded
   out of a window is the tree the tree decoder reads. *)
let prop_cbor_views_total =
  QCheck.Test.make ~name:"CBOR slice views raise only Decode_error" ~count:3000
    update_mutant (fun data ->
      let tree =
        match Cbor.decode (Bytes.to_string data) with
        | t -> Some t
        | exception Cbor.Decode_error _ -> None
      in
      let viewed =
        match Cbor.decode_view_slice (window data) with
        | v -> Some (Cbor.view_to_tree v)
        | exception Cbor.Decode_error _ -> None
      in
      Option.equal Cbor.equal tree viewed)

let prop_cose_total =
  QCheck.Test.make ~name:"Cose.parse and verify_slice are total" ~count:3000
    update_mutant (fun data ->
      let s = Bytes.to_string data in
      ignore (Cose.parse s : (Cose.envelope, Cose.error) result);
      let sliced =
        Result.map Slice.to_string (Cose.verify_slice update_key (window data))
      in
      (* the slice path agrees with the copying one *)
      same_outcome sliced (Cose.verify update_key s))

let prop_suit_total =
  QCheck.Test.make ~name:"Suit.decode and decode_slice are total" ~count:3000
    update_mutant (fun data ->
      let whole = Suit.decode (Bytes.to_string data) in
      let sliced = Suit.decode_slice (window data) in
      (* the manifest inside a verified envelope decodes totally too *)
      (match Cose.verify_slice update_key (window data) with
      | Ok payload -> ignore (Suit.decode_slice payload : (Suit.t, Suit.error) result)
      | Error _ -> ());
      same_outcome whole sliced)

let () =
  Alcotest.run "femto_coap_bounds"
    [
      ( "allocation",
        [
          Alcotest.test_case "cached GET <= 100 words" `Quick test_cached_get_words;
          Alcotest.test_case "Block1 block <= 130 words" `Quick test_block1_words;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "oversize never parsed" `Quick test_oversize_never_parsed;
          Alcotest.test_case "peers bounded" `Quick test_peers_bounded;
          Alcotest.test_case "uploads bounded" `Quick test_uploads_bounded;
          Alcotest.test_case "downloads bounded" `Quick test_downloads_bounded;
          Alcotest.test_case "observers bounded" `Quick test_observers_bounded;
          Alcotest.test_case "evicted upload restarts" `Quick test_evicted_upload_restarts;
        ] );
      ( "options",
        [ Alcotest.test_case "long uint options" `Quick test_long_uint_options ] );
      ( "clock",
        [ Alcotest.test_case "Obs clock drives Max-Age" `Quick test_obs_clock_drives_expiry ] );
      ( "totality",
        [
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_server_total;
          Alcotest.test_case "fuzzed socket edge answers" `Quick test_fuzzed_socket_edge;
          QCheck_alcotest.to_alcotest prop_cbor_views_total;
          QCheck_alcotest.to_alcotest prop_cose_total;
          QCheck_alcotest.to_alcotest prop_suit_total;
        ] );
    ]
