(* edge-read: a closed loop of CoAP GETs over loopback UDP.

   One client socket on the main domain keeps [inflight] confirmable GETs
   outstanding against a detached [Server] behind a [Transport] socket,
   served on the same domain whenever the client's socket is empty
   ({!Acceptor}).  The seeded request mix is 50 % /cached (fletcher32
   behind the response cache), 35 % /run/fletcher32 (the same container,
   uncached: compute-bound) and 15 % /run/counter (the thread counter:
   helper- and kv-bound).

   The generator is allocation-light: each slot owns pre-encoded request
   templates whose message id and token are patched in place, the socket
   is connected (no per-datagram address), responses land in one reused
   buffer and are checked in place. *)

module Message = Femto_coap.Message
module Server = Femto_coap.Server
module Transport = Femto_coap.Transport
module Engine = Femto_core.Engine
module Kvstore = Femto_core.Kvstore
module Setup = Femto_eval.Setup
module Fletcher = Femto_workloads.Fletcher
module Apps = Femto_workloads.Apps
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Samples = Timing.Samples

let paths = [| "/cached"; "/run/fletcher32"; "/run/counter" |]
let cached = 0
let counter = 2
let inflight = 4
let warmup_s = 0.1

(* The thread-counter context names thread 2 as the next thread, so the
   container bumps global key THREAD_START_KEY + 2. *)
let counter_key = Int32.add Apps.thread_key_base 2l
let expected_fletcher = string_of_int (Fletcher.checksum Fletcher.input_360)

(* Seeded request mix, cycled by the generator. *)
let mix_length = 1 lsl 16

let make_mix rng =
  Array.init mix_length (fun _ ->
      let r = Random.State.int rng 100 in
      if r < 50 then 0 else if r < 85 then 1 else 2)

(* --- the server under test --------------------------------------------- *)

type fixture = { server : Server.t; setup : Setup.fixture }

let make_server ?trace () =
  let setup = Setup.make_fixture () in
  let _, fire_fletcher = Setup.fletcher_container setup in
  let _, fire_counter = Setup.thread_counter_container setup in
  let global = Engine.global_store setup.Setup.engine in
  let server = Server.create_detached ~addr:1 ~send:(fun ~dst:_ _ -> ()) () in
  let trigger fire (request : Message.t) =
    match trace with
    | None -> fire ()
    | Some buf ->
        let t0 = Timing.now_ns () in
        let reports = fire () in
        Spans.record buf Spans.Trigger ~key:request.Message.message_id ~aux:0 t0
          (Timing.now_ns ());
        reports
  in
  let fletcher ~src:_ request =
    match trigger fire_fletcher request with
    | [ { Engine.result = Ok v; _ } ] ->
        Server.respond ~payload:(Int64.to_string v) Message.code_content
    | _ -> Server.respond Message.code_internal_error
  in
  let counter ~src:_ request =
    match trigger fire_counter request with
    | [ { Engine.result = Ok _; _ } ] ->
        Server.respond
          ~payload:(Int64.to_string (Kvstore.fetch global counter_key))
          Message.code_content
    | _ -> Server.respond Message.code_internal_error
  in
  let span handler =
    match trace with
    | None -> handler
    | Some buf ->
        fun ~src (request : Message.t) ->
          let t0 = Timing.now_ns () in
          let response = handler ~src request in
          Spans.record buf Spans.Handler ~key:request.Message.message_id ~aux:0 t0
            (Timing.now_ns ());
          response
  in
  Server.register_cached ~max_age_s:3600 server ~path:paths.(0) (span fletcher);
  Server.register server ~path:paths.(1) (span fletcher);
  Server.register server ~path:paths.(2) (span counter);
  { server; setup }

(* Fixture, server, bind and attach. *)
let setup ?trace () =
  let fixture = make_server ?trace () in
  let transport = Transport.create () in
  let acceptor = Acceptor.create ?trace transport fixture.server in
  (fixture, transport, acceptor)

(* --- the load generator ------------------------------------------------ *)

type drive = {
  completed : int;
  failed : int;
  retransmissions : int;
  latency : Samples.t;  (** ns, every completed GET in the window *)
  cached_latency : Samples.t;
  uncached_latency : Samples.t;
  window_ns : float;
  blocked_ns : float;  (** client polling an empty socket in the window *)
  minor_words : float;  (** the domain's: generator and server *)
  gc_before : Timing.gc_mark;
  gc_after : Timing.gc_mark;
  obs_before : int * int;  (** vm.runs, vm.insns *)
  obs_after : int * int;
  cache_before : int * int;
  cache_after : int * int;
  evictions : int;
}

let m_runs = Obs.counter "vm.runs"
let m_insns = Obs.counter "vm.insns"
let obs_mark () = (Ometrics.value m_runs, Ometrics.value m_insns)

(* Run the closed loop: [warmup_s] of traffic, then a [seconds] window
   whose completions are counted, then collect the stragglers.  The
   generator polls its socket ({!Wire}) and serves the requests whenever
   it is empty; the time from an empty poll to the next response counts
   as waiting in [bench.client_busy_ratio]. *)
let drive ?(first = 0) ~port ~mix ~seconds ?trace ~server ~acceptor () =
  let wire = Wire.connect ~port ~serve:(fun () -> Acceptor.serve acceptor) in
  Fun.protect ~finally:(fun () -> Wire.close wire) @@ fun () ->
  let templates =
    Array.map
      (fun path ->
        Message.encode
          (Message.make ~msg_type:Message.Confirmable ~token:"\000\000"
             ~options:(Message.options_of_path path) ~code:Message.code_get
             ~message_id:0 ()))
      paths
  in
  let bufs =
    Array.init inflight (fun slot ->
        Array.map
          (fun t ->
            let b = Bytes.copy t in
            Bytes.set_uint8 b 4 slot;
            b)
          templates)
  in
  let rbuf = wire.Wire.rbuf in
  let slot_cls = Array.make inflight 0
  and slot_mid = Array.make inflight 0
  and slot_gen = Array.make inflight 0
  and slot_tries = Array.make inflight 0
  and slot_measured = Array.make inflight false
  and slot_active = Array.make inflight false
  and active = ref 0
  and slot_sent = Array.make inflight 0.0
  and slot_tx = Array.make inflight 0.0 in
  let next = ref first and next_mid = ref 0 and measuring = ref false in
  let completed = ref 0 and failed = ref 0 and retransmissions = ref 0 in
  let last_counter = ref (-1) in
  let latency = Samples.create ~capacity:(1 lsl 18) ()
  and cached_latency = Samples.create ~capacity:(1 lsl 17) ()
  and uncached_latency = Samples.create ~capacity:(1 lsl 17) () in
  let send slot =
    Wire.send wire bufs.(slot).(slot_cls.(slot))
  in
  let issue slot t =
    let cls = mix.(!next land (mix_length - 1)) in
    incr next;
    let mid = !next_mid in
    next_mid := (mid + 1) land 0xFFFF;
    let gen = (slot_gen.(slot) + 1) land 0xFF in
    let b = bufs.(slot).(cls) in
    Bytes.set_uint16_be b 2 mid;
    Bytes.set_uint8 b 5 gen;
    slot_cls.(slot) <- cls;
    slot_mid.(slot) <- mid;
    slot_gen.(slot) <- gen;
    slot_tries.(slot) <- 0;
    slot_measured.(slot) <- !measuring;
    if not slot_active.(slot) then incr active;
    slot_active.(slot) <- true;
    slot_sent.(slot) <- t;
    slot_tx.(slot) <- t;
    send slot
  in
  let stopping = ref false in
  let finish slot t =
    if !stopping then begin
      slot_active.(slot) <- false;
      decr active
    end
    else issue slot t
  in
  let t_window = ref 0.0 and t_end = ref 0.0 in
  let on_response len t =
    if len >= 6 && Wire.token_length rbuf = 2 && Wire.msg_type rbuf = 2 then begin
      let slot = Bytes.get_uint8 rbuf 4 in
      if
        slot < inflight && slot_active.(slot)
        && Bytes.get_uint8 rbuf 5 = slot_gen.(slot)
        && Wire.message_id rbuf = slot_mid.(slot)
      then begin
        let cls = slot_cls.(slot) in
        let ok =
          if Wire.code rbuf <> Message.code_to_int Message.code_content then
            false
          else begin
            let off = Wire.payload_offset rbuf len in
            if off < 0 then Report.wrong "%s: malformed response options" paths.(cls);
            if cls = counter then begin
              let v = Wire.payload_int rbuf off len in
              if v <= !last_counter then
                Report.wrong "/run/counter returned %d after %d" v !last_counter;
              last_counter := v
            end
            else if not (Wire.payload_equals rbuf off len expected_fletcher) then
              Report.wrong "%s returned %S, expected %s" paths.(cls)
                (Bytes.sub_string rbuf off (len - off))
                expected_fletcher;
            true
          end
        in
        if slot_measured.(slot) then begin
          (* loopback loses nothing: a GET that needed a retransmission
             timed out once, so it fails *)
          if ok && slot_tries.(slot) = 0 then begin
            incr completed;
            let ns = t -. slot_sent.(slot) in
            Samples.add latency ns;
            Samples.add (if cls = cached then cached_latency else uncached_latency) ns;
            match trace with
            | Some buf ->
                Spans.record buf Spans.Request ~key:slot_mid.(slot) ~aux:cls
                  slot_sent.(slot) t
            | None -> ()
          end
          else incr failed
        end;
        finish slot t
      end
    end
  in
  let check_timeouts t =
    for slot = 0 to inflight - 1 do
      if slot_active.(slot) then begin
        let limit = Wire.ack_timeout_ns *. Float.of_int (1 lsl slot_tries.(slot)) in
        if t -. slot_tx.(slot) > limit then
          if slot_tries.(slot) < Wire.max_retransmit then begin
            slot_tries.(slot) <- slot_tries.(slot) + 1;
            slot_tx.(slot) <- t;
            incr retransmissions;
            send slot
          end
          else begin
            if slot_measured.(slot) then incr failed;
            finish slot t
          end
      end
    done
  in
  let t0 = Timing.now_ns () in
  t_window := t0 +. (warmup_s *. 1e9);
  t_end := !t_window +. (seconds *. 1e9);
  for slot = 0 to inflight - 1 do
    issue slot t0
  done;
  let blocked = ref 0.0 and idle_since = ref (-1.0) and next_check = ref t0 in
  let phase = ref 0 in
  let words0 = ref 0.0 and gc_before = ref (Timing.gc_mark ()) in
  let obs_before = ref (0, 0) and cache_before = ref (0, 0) and ev_before = ref 0 in
  let result = ref None in
  let give_up = ref infinity in
  while !active > 0 && Timing.now_ns () < !give_up do
    let len = Wire.poll wire in
    if len >= 0 then begin
      let t = Timing.now_ns () in
      if !idle_since >= 0.0 then begin
        if !phase = 1 then blocked := !blocked +. (t -. !idle_since);
        idle_since := -1.0
      end;
      on_response len t
    end
    else begin
      if !idle_since < 0.0 then idle_since := Timing.now_ns ();
      if wire.Wire.serve () = 0 then Domain.cpu_relax ()
    end;
    let t = Timing.now_ns () in
    if !phase = 0 && t >= !t_window then begin
      phase := 1;
      t_window := t;
      t_end := t +. (seconds *. 1e9);
      measuring := true;
      Acceptor.begin_window acceptor;
      gc_before := Timing.gc_mark ();
      obs_before := obs_mark ();
      cache_before := Server.cache_stats server;
      ev_before := Server.dedupe_evictions server;
      words0 := Gc.minor_words ()
    end
    else if !phase = 1 && t >= !t_end then begin
      phase := 2;
      let minor_words = Gc.minor_words () -. !words0 in
      let gc_after = Timing.gc_mark () in
      Acceptor.end_window acceptor;
      measuring := false;
      stopping := true;
      give_up := t +. 2e9;
      (* completions and failures are filled in once the stragglers are in *)
      result :=
        Some
          {
            completed = 0;
            failed = 0;
            retransmissions = !retransmissions;
            latency;
            cached_latency;
            uncached_latency;
            window_ns = t -. !t_window;
            blocked_ns = !blocked;
            minor_words;
            gc_before = !gc_before;
            gc_after;
            obs_before = !obs_before;
            obs_after = obs_mark ();
            cache_before = !cache_before;
            cache_after = Server.cache_stats server;
            evictions = Server.dedupe_evictions server - !ev_before;
          }
    end;
    if t >= !next_check then begin
      check_timeouts t;
      next_check := t +. 10e6
    end
  done;
  (* requests still unanswered after the grace period are failures *)
  Array.iteri
    (fun slot active -> if active && slot_measured.(slot) then incr failed)
    slot_active;
  match !result with
  | Some d -> { d with failed = !failed; completed = !completed }
  | None -> failwith "edge-read: measurement window never closed"

let ops_per_s d = float_of_int d.completed /. (d.window_ns /. 1e9)

let word_bytes = Sys.word_size / 8

let per_layer ~untraced_ops d (a : Acceptor.stats) buf =
  let ops = max 1 d.completed in
  let fops = float_of_int ops in
  let drain_per = Report.ratio a.Acceptor.busy_ns (float_of_int a.Acceptor.datagrams) in
  let handler_ns = Spans.total_ns buf Spans.Handler in
  let hits = fst d.cache_after - fst d.cache_before
  and misses = snd d.cache_after - snd d.cache_before in
  let runs = fst d.obs_after - fst d.obs_before
  and insns = snd d.obs_after - snd d.obs_before in
  let triggers = Spans.durations buf Spans.Trigger in
  let us = Timing.us_of_ns in
  ( [
      ("transport.drain_us", us drain_per, "us");
      ("transport.busy_ratio", Report.ratio a.Acceptor.busy_ns a.Acceptor.wall_ns, "ratio");
      ("transport.minor_words_per_op", a.Acceptor.minor_words /. fops, "words");
      ("bench.client_busy_ratio", 1.0 -. Report.ratio d.blocked_ns d.window_ns, "ratio");
      ( "bench.client_minor_words_per_op",
        (d.minor_words -. a.Acceptor.minor_words) /. fops,
        "words" );
      ( "coap.server_self_us",
        us (Report.ratio (a.Acceptor.busy_ns -. handler_ns) (float_of_int a.Acceptor.datagrams)),
        "us" );
      ("coap.cache_hit_ratio", Report.ratio (float_of_int hits) (float_of_int (hits + misses)), "ratio");
      ("coap.dedupe_evictions_per_kop", float_of_int d.evictions *. 1000. /. fops, "count");
      ("client.retransmissions", float_of_int d.retransmissions, "count");
      ("get_cached.latency_p50_us", us (Samples.median d.cached_latency), "us");
      ("get_cached.latency_p99_us", us (Samples.percentile d.cached_latency 0.99), "us");
      ("get_uncached.latency_p50_us", us (Samples.median d.uncached_latency), "us");
      ("get_uncached.latency_p99_us", us (Samples.percentile d.uncached_latency 0.99), "us");
      ("engine.trigger_p50_us", us (Samples.median triggers), "us");
      ("engine.trigger_p99_us", us (Samples.percentile triggers 0.99), "us");
      ("vm.insns_per_run", Report.ratio (float_of_int insns) (float_of_int runs), "count");
      ("vm.runs_per_op", float_of_int runs /. fops, "count");
      ("bench.unattributed_us", us (Samples.mean d.latency -. drain_per), "us");
      ("bench.trace_overhead", Report.ratio untraced_ops (ops_per_s d), "ratio");
      ( "error_rate",
        Report.ratio (float_of_int d.failed) (float_of_int (d.completed + d.failed)),
        "ratio" );
    ]
    @ Timing.gc_metrics ~ops d.gc_before d.gc_after,
    Samples.count triggers )

let timed_setup ?trace () =
  let t0 = Timing.now_ns () in
  let s = setup ?trace () in
  (s, (Timing.now_ns () -. t0) /. 1e9)

let segment_s = 1.0
let extra_setups = 4

(* Untraced: windowed (see {!Windows}); traced: half the time untraced,
   for [bench.trace_overhead], then one traced window. *)
let run ~seed ~seconds ~trace =
  let mix = make_mix (Random.State.make [| seed; 0xed6e |]) in
  let last = ref None in
  let windows, extras =
    Windows.run
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~segment_s ~extra:extra_setups
      ~extra_setup:(fun () ->
        let (_, _, acceptor), s = timed_setup () in
        ignore (Acceptor.stop acceptor);
        s)
      ~window:(fun i seconds ->
        let (fixture, transport, acceptor), setup_s = timed_setup () in
        let d =
          drive ~first:(i * 7919) ~port:(Transport.port transport) ~mix ~seconds
            ~server:fixture.server ~acceptor ()
        in
        let a = Acceptor.stop acceptor in
        last := Some fixture;
        {
          Windows.setup_s;
          ops_per_s = ops_per_s d;
          latency = d.latency;
          completed = d.completed;
          failed = d.failed;
          retransmissions = d.retransmissions;
          empty_polls = a.Acceptor.empty_polls;
        })
  in
  if not trace then begin
    let fixture = Option.get !last in
    let bytes_per_device =
      float_of_int (Obj.reachable_words (Obj.repr (fixture.server, fixture.setup)) * word_bytes)
    in
    Windows.summarize ~extras ~bytes_per_device windows
  end
  else begin
    let abuf = Spans.create "acceptor" and cbuf = Spans.create "client" in
    let fixture, transport, acceptor = setup ~trace:abuf () in
    let dt =
      drive ~port:(Transport.port transport) ~mix ~seconds:(seconds /. 2.) ~trace:cbuf
        ~server:fixture.server ~acceptor ()
    in
    let astats = Acceptor.stop acceptor in
    let untraced_ops = Timing.trimmed_mean (List.map (fun w -> w.Windows.ops_per_s) windows) in
    let layers, trigger_samples = per_layer ~untraced_ops dt astats abuf in
    ( {
        Report.correct = true;
        attempted = dt.completed + dt.failed;
        failed = dt.failed;
        metrics = Report.metrics layers;
        detail =
          [
            ("latency_samples", string_of_int (Samples.count dt.latency));
            ("cached_samples", string_of_int (Samples.count dt.cached_latency));
            ("uncached_samples", string_of_int (Samples.count dt.uncached_latency));
            ("trigger_samples", string_of_int trigger_samples);
            ("acceptor_empty_polls", string_of_int astats.Acceptor.empty_polls);
          ];
      },
      [ abuf; cbuf ] )
  end
