(* edge/* bench family: the socket-backed CoAP edge (PR 10).

   Four sub-benches, one femto-bench/1 document:

     edge/udp-get-*        req/s and p50/p90/p99 of real CoAP GETs over a
                           loopback UDP socket (Transport + acceptor
                           domain), cached vs uncached resource
     edge/handler-*        the same two resources timed on the in-process
                           handler path (Server.handle_datagram with
                           pre-encoded requests) — the honest
                           cached-vs-uncached pair the >= 5x gate uses,
                           free of socket noise
     edge/observe-fanout   one Server.notify across N registered
                           observers on the simulated net (single encode,
                           N sends), delivery-checked
     edge/update-<profile> a signed SUIT update streamed block-wise
                           through each named fault-injection profile;
                           every row asserts no half-installed image and
                           the clean/lossy profiles must accept

   The gated ratios are cached_handler_x (hard floor {!cached_floor})
   and cached_udp_x, the median over paired, interleaved UDP trials;
   both are compared against the committed bench/baseline.json with
   tolerance 0.5. *)

module Jsonx = Femto_obs.Jsonx
module Measure = Femto_eval.Measure
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Profile = Femto_net.Profile
module Message = Femto_coap.Message
module Server = Femto_coap.Server
module Transport = Femto_coap.Transport
module Coap_client = Femto_coap.Client
module Engine = Femto_core.Engine
module Device = Femto_device.Device
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Flash = Femto_flash.Flash
module Slots = Femto_flash.Slots

(* A cached GET must answer at least this many times faster than the
   uncached handler path (which fires a real femto-container). *)
let cached_floor = 5.0

type row = {
  e_name : string;
  e_ns : float; (* mean ns per operation *)
  e_p50 : float option;
  e_p90 : float option;
  e_p99 : float option;
  e_rps : float option;
  e_accepted : bool option; (* update rows: did the device install it? *)
  e_ok : bool; (* hard-gate flag (delivery complete / update sane) *)
}

let plain_row name ns =
  { e_name = name; e_ns = ns; e_p50 = None; e_p90 = None; e_p99 = None;
    e_rps = None; e_accepted = None; e_ok = true }

(* --- percentiles ------------------------------------------------------ *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let stats_of_samples samples =
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  let mean =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  (mean, percentile sorted 0.50, percentile sorted 0.90, percentile sorted 0.99)

(* --- the handler fixture ---------------------------------------------- *)

let hook_uuid = "ed6e0000-0000-4000-8000-000000000001"

(* A detached server whose /run handler fires a real femto-container —
   the paper's fletcher32 workload over its standard 360 B input —
   through the engine, plus /cached: the same handler behind the
   response cache.  This is the pair both the UDP and the handler-path
   rows time. *)
let make_edge_server ~addr =
  let fixture = Femto_eval.Setup.make_fixture () in
  let _container, trigger = Femto_eval.Setup.fletcher_container fixture in
  let server = Server.create_detached ~addr ~send:(fun ~dst:_ _ -> ()) () in
  let fire ~src:_ _ =
    match trigger () with
    | [ { Engine.result = Ok v; _ } ] ->
        Server.respond
          ~payload:(Printf.sprintf "fletcher32=%Ld" v)
          Message.code_content
    | _ -> Server.respond Message.code_internal_error
  in
  Server.register server ~path:"/run" fire;
  Server.register_cached ~max_age_s:3600 server ~path:"/cached" fire;
  server

(* --- handler-path rows ------------------------------------------------ *)

(* Feed pre-encoded GETs straight into [handle_datagram].  Every request
   carries a fresh (src, mid) pair so the dedupe table never answers for
   the resource — exactly what a stream of distinct clients looks like. *)
let time_handler_path server ~path ~iters ~src_base =
  let requests =
    Array.init iters (fun i ->
        Message.encode
          (Message.make ~token:"tk"
             ~options:(Message.options_of_path path)
             ~code:Message.code_get
             ~message_id:(i land 0xFFFF) ()))
  in
  Server.handle_datagram server ~src:src_base requests.(0);
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    Server.handle_datagram server
      ~src:(src_base + 1 + (i lsr 16))
      requests.(i)
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

(* --- UDP loopback rows ------------------------------------------------ *)

(* Uncached and cached GETs over one socket, in [trials] paired trials:
   each trial times a batch of [batch] GETs of each path back to back,
   in alternating order, and yields one uncached/cached ratio of the
   batch means.  A loopback stall lands in one batch of one trial, and
   the gated ratio is the median over the trials, so one stall cannot
   decide it.  Returns both paths' samples and the per-trial ratios. *)
let time_udp_paired server ~trials ~batch =
  let transport = Transport.create () in
  Transport.spawn transport server;
  let client =
    Transport.Client.create ~ack_timeout_s:1.0 ~port:(Transport.port transport)
      ()
  in
  let one path =
    match Transport.Client.get client ~path with
    | Ok response when fst response.Message.code = 2 -> ()
    | Ok response ->
        failwith
          (Printf.sprintf "udp get %s: %s" path
             (Message.code_to_string response.Message.code))
    | Error `Timeout -> failwith (Printf.sprintf "udp get %s: timeout" path)
  in
  for _ = 1 to 20 do
    one "/run";
    one "/cached"
  done;
  let uncached = Array.make (trials * batch) 0.0 in
  let cached = Array.make (trials * batch) 0.0 in
  let time_batch path samples trial =
    let sum = ref 0.0 in
    for i = 0 to batch - 1 do
      let t0 = Unix.gettimeofday () in
      one path;
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
      samples.((trial * batch) + i) <- ns;
      sum := !sum +. ns
    done;
    !sum /. float_of_int batch
  in
  let ratios =
    Array.init trials (fun trial ->
        let u, c =
          if trial land 1 = 0 then
            let u = time_batch "/run" uncached trial in
            (u, time_batch "/cached" cached trial)
          else
            let c = time_batch "/cached" cached trial in
            (time_batch "/run" uncached trial, c)
        in
        u /. c)
  in
  Transport.Client.close client;
  Transport.stop transport;
  (uncached, cached, ratios)

let udp_row name samples =
  let mean, p50, p90, p99 = stats_of_samples samples in
  { (plain_row name mean) with
    e_p50 = Some p50; e_p90 = Some p90; e_p99 = Some p99;
    e_rps = Some (1e9 /. mean) }

(* --- observe fan-out -------------------------------------------------- *)

(* N observers on the simulated net; one notify = one handler run, one
   encode, N sends.  Returns ns per notify (delivery included: the
   kernel drains after each) and whether every observer saw every
   notification. *)
let fanout_row ~observers ~iters =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let server = Server.create ~network ~addr:1 () in
  Server.register server ~path:"/telemetry" (fun ~src:_ _ ->
      Server.respond ~payload:"t=21.5" Message.code_content);
  let delivered = ref 0 in
  for i = 1 to observers do
    let client = Coap_client.create ~network ~kernel ~addr:(10 + i) in
    ignore
      (Coap_client.observe client ~dst:1 ~path:"/telemetry" (fun m ->
           match Message.observe m with
           | Some seq when seq > 1 -> incr delivered
           | Some _ | None -> ()))
  done;
  ignore (Kernel.run kernel ());
  let notifies = ref 0 in
  let ns =
    Measure.wall_ns ~warmup:2 ~iters ~trials:3 (fun () ->
        let n = Server.notify server ~path:"/telemetry" in
        if n <> observers then failwith "fan-out lost an observer";
        incr notifies;
        ignore (Kernel.run kernel ()))
  in
  let complete = !delivered = !notifies * observers in
  (ns, complete)

(* --- hostile-matrix updates ------------------------------------------- *)

let update_key = Cose.make_key ~key_id:"edge" ~secret:"edge-update-secret"

let identity =
  { Device.vendor_id = "edge-bench"; class_id = "sim"; update_key }

let program_v2 () =
  Bytes.to_string
    (Femto_ebpf.Program.to_bytes
       (Femto_ebpf.Asm.assemble "mov r0, 22\nexit"))

(* One signed block-wise update pushed through [profile]'s fault
   schedule.  Returns (wall ns, accepted, sane): [sane] demands that
   whatever the network did, no half-installed image exists — every
   slot image digest-checks (Slots.scan filters) and an accepted update
   actually runs v2. *)
let hostile_update profile =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel ~profile ~seed:7 () in
  let flash = Flash.create ~page_size:256 ~pages:64 () in
  let device =
    Device.boot ~identity
      ~hooks:[ Device.hook_spec ~uuid:hook_uuid ~name:"edge" ~ctx_size:16 () ]
      ~flash ~slot_count:4 ~network ~addr:1 ()
  in
  let client = Coap_client.create ~network ~kernel ~addr:9 in
  let payload = program_v2 () in
  let envelope =
    Suit.sign
      (Suit.make ~vendor_id:identity.Device.vendor_id
         ~class_id:identity.Device.class_id ~sequence:2L
         [ Suit.component_for ~storage_uuid:hook_uuid payload ])
      update_key
  in
  let outcome = ref None in
  let t0 = Unix.gettimeofday () in
  Coap_client.post_blockwise client ~dst:1 ~path:"/suit/slot" ~payload
    (fun _ ->
      Coap_client.post client ~dst:1 ~path:"/suit/install" ~payload:envelope
        (fun result ->
          outcome :=
            (match result with
            | Ok r -> Some r.Message.code
            | Error `Timeout -> None)));
  ignore (Kernel.run kernel ());
  let ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let accepted = !outcome = Some Message.code_changed in
  let images = Slots.scan (Device.slots device) in
  let images_sane =
    List.for_all
      (fun (_, image) -> String.equal image.Slots.payload payload)
      images
  in
  let runs_v2 =
    match Engine.trigger_by_uuid (Device.engine device) ~uuid:hook_uuid () with
    | Ok [ { Engine.result = Ok 22L; _ } ] -> true
    | Ok [] -> true (* nothing installed: the update never completed *)
    | Ok _ | Error _ -> false
  in
  let sane = images_sane && (not accepted || runs_v2) in
  (ns, accepted, sane)

(* --- JSON ------------------------------------------------------------- *)

let row_json r =
  let opt key = function
    | Some v -> [ (key, Jsonx.Float v) ]
    | None -> []
  in
  Jsonx.Obj
    ([ ("name", Jsonx.String r.e_name); ("ns_per_run", Jsonx.Float r.e_ns) ]
    @ opt "p50_ns" r.e_p50 @ opt "p90_ns" r.e_p90 @ opt "p99_ns" r.e_p99
    @ opt "req_per_s" r.e_rps
    @ (match r.e_accepted with
      | Some b -> [ ("accepted", Jsonx.Bool b) ]
      | None -> [])
    @ [ ("ok", Jsonx.Bool r.e_ok) ])

(* Gated ratios, both higher-is-better: uncached over cached mean ns on
   the handler path (also floored at [cached_floor]) and over UDP.  A run
   that timed paired UDP trials passes their ratios as [udp_pairs], and
   cached_udp_x is then their median. *)
let ratios ?udp_pairs rows =
  let ns name =
    List.find_map
      (fun r -> if r.e_name = "edge/" ^ name then Some r.e_ns else None)
      rows
  in
  let mean_ratio path =
    match (ns (path ^ "-uncached"), ns (path ^ "-cached")) with
    | Some uncached, Some cached -> Some (uncached /. cached)
    | _ -> None
  in
  let udp =
    match udp_pairs with
    | Some pairs -> Some (Measure.median (Array.to_list pairs))
    | None -> mean_ratio "udp-get"
  in
  List.filter_map
    (fun (key, x) -> Option.map (fun x -> (key, x)) x)
    [ ("cached_handler_x", mean_ratio "handler"); ("cached_udp_x", udp) ]

let outcome ?udp_pairs rows =
  let ratios = ratios ?udp_pairs rows in
  {
    Family.rows = List.map row_json rows;
    ratios;
    failures =
      List.concat_map
        (fun r -> Family.fail_if (not r.e_ok) "%s failed its hard gate" r.e_name)
        rows
      @
      match List.assoc_opt "cached_handler_x" ratios with
      | Some x ->
          Family.fail_if (x < cached_floor)
            "cached GET only %.2fx the uncached handler path (floor %.1fx)" x
            cached_floor
      | None -> [ "edge/handler-* rows missing: cached floor unchecked" ];
  }

let run () =
  let udp_trials = 9 and udp_batch = 44 in
  let handler_iters = 4000 and observers = 100 in
  (* handler path: fresh server per resource so the cache stays cold
     for the uncached row whatever the order *)
  let handler_server = make_edge_server ~addr:1 in
  let uncached_ns =
    time_handler_path handler_server ~path:"/run" ~iters:handler_iters
      ~src_base:1_000
  in
  let cached_ns =
    time_handler_path handler_server ~path:"/cached" ~iters:handler_iters
      ~src_base:2_000_000
  in
  let udp_uncached, udp_cached, udp_pairs =
    time_udp_paired (make_edge_server ~addr:2) ~trials:udp_trials
      ~batch:udp_batch
  in
  let fanout_ns, fanout_complete = fanout_row ~observers ~iters:20 in
  let update_rows =
    List.map
      (fun profile ->
        let ns, accepted, sane = hostile_update profile in
        let must_accept = List.mem profile.Profile.p_name [ "clean"; "lossy" ] in
        {
          (plain_row (Printf.sprintf "edge/update-%s" profile.Profile.p_name) ns)
          with
          e_accepted = Some accepted;
          e_ok = sane && ((not must_accept) || accepted);
        })
      Profile.named
  in
  let rows =
    [
      udp_row "edge/udp-get-uncached" udp_uncached;
      udp_row "edge/udp-get-cached" udp_cached;
      plain_row "edge/handler-uncached" uncached_ns;
      plain_row "edge/handler-cached" cached_ns;
      { (plain_row (Printf.sprintf "edge/observe-fanout-%d" observers) fanout_ns)
        with e_ok = fanout_complete };
    ]
    @ update_rows
  in
  let o = outcome ~udp_pairs rows in
  Printf.printf "\nEdge smoke (loopback UDP + simulated hostile matrix)\n%s\n"
    (String.make 58 '-');
  List.iter
    (fun r ->
      Printf.printf "  %-28s %12.0f ns%s%s%s\n" r.e_name r.e_ns
        (match r.e_p99 with
        | Some p -> Printf.sprintf "  p50/p99 %.0f/%.0f" (Option.get r.e_p50) p
        | None -> "")
        (match r.e_rps with
        | Some rps when rps > 1.0 -> Printf.sprintf "  %.0f req/s" rps
        | _ -> "")
        (if r.e_ok then "" else "  NOT OK"))
    rows;
  List.iter (fun (k, v) -> Printf.printf "  %-28s %12.2fx\n" k v) o.ratios;
  Printf.printf "  (cached_udp_x: median of %d paired trials, %.2f-%.2fx)\n"
    udp_trials
    (Array.fold_left min infinity udp_pairs)
    (Array.fold_left max 0.0 udp_pairs);
  o

let family = { Family.name = "edge"; tolerance = 0.5; run }
