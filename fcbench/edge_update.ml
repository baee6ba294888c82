(* edge-update: a closed loop of signed updates over loopback UDP, one in
   flight.

   The device is [Device.boot] served through a [Transport] socket, as
   `fc serve` does, on the client's domain ({!Acceptor}).  Each update is
   a Block1 POST /suit/slot of a new ~4 KiB straight-line rBPF program in
   64 B blocks, then a POST /suit/install of a COSE-signed SUIT envelope for the next
   sequence number, then an untimed GET /fire that fires the hook and
   must return the program's constant.  Program constants come from the
   seed, so every install verifies, analyses and compiles a program the
   device has not seen. *)

module Message = Femto_coap.Message
module Server = Femto_coap.Server
module Transport = Femto_coap.Transport
module Block = Femto_coap.Block
module Device = Femto_device.Device
module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Slice = Femto_cbor.Slice
module Crypto = Femto_crypto.Crypto
module Flash = Femto_flash.Flash
module Slots = Femto_flash.Slots
module Program = Femto_ebpf.Program
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Samples = Timing.Samples

let hook_uuid = "fcbe0000-0000-4000-8000-000000000001"
let key = Cose.make_key ~key_id:"fcbench" ~secret:"fcbench-update-key"
let identity = { Device.vendor_id = "fcbench"; class_id = "edge"; update_key = key }
let block_size = 64
let page_size = 256
let pages = 256
let slot_count = 4
let warmup_s = 0.3
let replays = 64
let word_bytes = Sys.word_size / 8

(* --- generated inputs ------------------------------------------------- *)

(* 4 register initialisations, 505 seeded ALU fillers, [lddw r0, C] (two
   slots) and [exit]: 512 slots, 4 KiB.  [C] is patched per update. *)
let program_slots = 512
let lddw_slot = 509

let make_template rng =
  let b = Buffer.create 8192 in
  for r = 2 to 5 do
    Printf.bprintf b "mov r%d, %d\n" r (Random.State.int rng 1000)
  done;
  for i = 0 to 504 do
    Printf.bprintf b "%s r%d, %d\n"
      (if i land 1 = 0 then "add" else "xor")
      (2 + (i land 3))
      (Random.State.int rng 1000)
  done;
  Buffer.add_string b "lddw r0, 0\nexit\n";
  let bytes = Program.to_bytes (Femto_ebpf.Asm.assemble (Buffer.contents b)) in
  assert (Bytes.length bytes = program_slots * 8);
  assert (Bytes.get_uint8 bytes (lddw_slot * 8) = 0x18);
  bytes

let program template constant =
  let b = Bytes.copy template in
  Bytes.set_int32_le b ((lddw_slot * 8) + 4) (Int64.to_int32 constant);
  Bytes.set_int32_le b (((lddw_slot + 1) * 8) + 4)
    (Int64.to_int32 (Int64.shift_right_logical constant 32));
  Bytes.to_string b

let envelope ~sequence payload =
  Suit.sign
    (Suit.make ~vendor_id:identity.Device.vendor_id ~class_id:identity.Device.class_id
       ~sequence [ Suit.component_for ~storage_uuid:hook_uuid payload ])
    key

type update = { number : int; constant : int64; payload : string; envelope : string }

(* The seeded update stream: update n installs sequence n with a fresh
   constant (never equal to the previous one). *)
let updates ~seed =
  let rng = Random.State.make [| seed; 0x5017 |] in
  let template = make_template rng in
  let number = ref 0 and previous = ref 0L in
  fun () ->
    incr number;
    let rec fresh () =
      let c = Int64.of_int (1 + Random.State.int rng 0x3FFF_FFFF) in
      if Int64.equal c !previous then fresh () else c
    in
    let constant = fresh () in
    previous := constant;
    let payload = program template constant in
    {
      number = !number;
      constant;
      payload;
      envelope = envelope ~sequence:(Int64.of_int !number) payload;
    }

(* --- the device under test -------------------------------------------- *)

type rig = {
  device : Device.t;
  acceptor : Acceptor.t;
  wire : Wire.t;
  mutable next_mid : int;
}

let boot ?trace () =
  let kernel = Kernel.create () in
  let network = Network.create ~kernel () in
  let flash = Flash.create ~page_size ~pages () in
  let device =
    Device.boot ~identity
      ~hooks:[ Device.hook_spec ~uuid:hook_uuid ~name:"fcbench" ~ctx_size:16 () ]
      ~flash ~slot_count ~network ~addr:1 ()
  in
  let engine = Device.engine device in
  Server.register (Device.server device) ~path:"/fire" (fun ~src:_ request ->
      let t0 = Timing.now_ns () in
      let reports = Engine.trigger_by_uuid engine ~uuid:hook_uuid () in
      Option.iter
        (fun buf ->
          Spans.record buf Spans.Trigger ~key:request.Message.message_id ~aux:0 t0
            (Timing.now_ns ()))
        trace;
      match reports with
      | Ok [ { Engine.result = Ok v; _ } ] ->
          Server.respond ~payload:(Int64.to_string v) Message.code_content
      | _ -> Server.respond Message.code_internal_error);
  let transport = Transport.create () in
  let acceptor = Acceptor.create ?trace transport (Device.server device) in
  let wire =
    Wire.connect ~port:(Transport.port transport) ~serve:(fun () -> Acceptor.serve acceptor)
  in
  { device; acceptor; wire; next_mid = 0 }

let shutdown rig =
  Wire.close rig.wire;
  Acceptor.stop rig.acceptor

(* The datagrams of one update, encoded before its timer starts: the
   Block1 chunks, the install and the verification GET (token = message
   id). *)
type datagrams = { blocks : Bytes.t array; install : Bytes.t; verify : Bytes.t }

let encode rig ~path ?(options = []) ?(payload = "") code =
  let mid = rig.next_mid in
  rig.next_mid <- (mid + 1) land 0xFFFF;
  let token = String.init 2 (fun i -> Char.chr ((mid lsr (8 * (1 - i))) land 0xFF)) in
  Message.encode
    (Message.make ~msg_type:Message.Confirmable ~token
       ~options:(Message.options_of_path path @ options)
       ~payload ~code ~message_id:mid ())

let datagrams rig u =
  let count = (String.length u.payload + block_size - 1) / block_size in
  let blocks =
    Array.init count (fun num ->
        match Block.slice ~num ~size:block_size u.payload with
        | Some (chunk, more) ->
            encode rig ~path:"/suit/slot"
              ~options:[ Block.to_option ~number:Block.opt_block1 (Block.make ~num ~more ~size:block_size) ]
              ~payload:chunk Message.code_post
        | None -> assert false)
  in
  let install = encode rig ~path:"/suit/install" ~payload:u.envelope Message.code_post in
  { blocks; install; verify = encode rig ~path:"/fire" Message.code_get }

(* Upload, install, verify.  Returns the start, upload-done and
   install-done times, or [None] for a timed-out or refused update; a
   wrong verification result is a wrong output. *)
let apply rig u =
  let d = datagrams rig u in
  let w = rig.wire in
  let answered code len = len >= 4 && Wire.code w.Wire.rbuf = Message.code_to_int code in
  let last = Array.length d.blocks - 1 in
  let rec upload i =
    i > last
    || answered
         (if i = last then Message.code_changed else Message.code_continue)
         (Wire.exchange w d.blocks.(i))
       && upload (i + 1)
  in
  let t0 = Timing.now_ns () in
  if not (upload 0) then None
  else begin
    let t1 = Timing.now_ns () in
    if not (answered Message.code_changed (Wire.exchange w d.install)) then None
    else begin
      let t2 = Timing.now_ns () in
      let len = Wire.exchange w d.verify in
      if not (answered Message.code_content len) then None
      else begin
        let off = Wire.payload_offset w.Wire.rbuf len in
        let expected = Int64.to_string u.constant in
        if off < 0 || not (Wire.payload_equals w.Wire.rbuf off len expected) then
          Report.wrong "update %d: hook returned %S, installed constant %s" u.number
            (Bytes.sub_string w.Wire.rbuf (max 0 off) (len - max 0 off))
            expected;
        Some (t0, t1, t2)
      end
    end
  end

(* --- the closed loop --------------------------------------------------- *)

let m_runs = Obs.counter "vm.runs"
let m_insns = Obs.counter "vm.insns"
let h_process = Obs.histogram "suit.process_ns"
let h_compile = Obs.histogram "vm.compile_ns"

type mark = {
  gc : Timing.gc_mark;
  runs : int;
  insns : int;
  process : int * float;
  compile : int * float;
  evictions : int;
  retransmissions : int;
  idle_ns : float;
  minor_words : float;  (** the domain's: generator and server *)
}

let mark rig =
  {
    gc = Timing.gc_mark ();
    runs = Ometrics.value m_runs;
    insns = Ometrics.value m_insns;
    process = (Ometrics.count h_process, Ometrics.sum h_process);
    compile = (Ometrics.count h_compile, Ometrics.sum h_compile);
    evictions = Server.dedupe_evictions (Device.server rig.device);
    retransmissions = rig.wire.Wire.retransmissions;
    idle_ns = rig.wire.Wire.idle_ns;
    minor_words = Gc.minor_words ();
  }

type drive = {
  completed : int;
  failed : int;
  latency : Samples.t;  (** first block -> install 2.04, ns *)
  upload : Samples.t;
  install : Samples.t;
  window_ns : float;
  before : mark;
  after : mark;
  recent : update array;  (** the last [replays] updates, for the replays *)
}

let drive ~next ~seconds ?trace rig =
  let latency = Samples.create () and upload = Samples.create ()
  and install = Samples.create () in
  let recent = Array.make replays (next ()) in
  let completed = ref 0 and failed = ref 0 and kept = ref 0 in
  let t_warm = Timing.now_ns () +. (warmup_s *. 1e9) in
  while Timing.now_ns () < t_warm do
    ignore (apply rig (next ()))
  done;
  Acceptor.begin_window rig.acceptor;
  let before = mark rig in
  let t_window = Timing.now_ns () in
  let t_end = t_window +. (seconds *. 1e9) in
  let t = ref t_window in
  while !t < t_end do
    let u = next () in
    let retransmitted = rig.wire.Wire.retransmissions in
    (match apply rig u with
    (* loopback loses nothing: an update that needed a retransmission
       timed out once, so it fails *)
    | Some (t0, t1, t2) when rig.wire.Wire.retransmissions = retransmitted ->
        incr completed;
        Samples.add latency (t2 -. t0);
        Samples.add upload (t1 -. t0);
        Samples.add install (t2 -. t1);
        recent.(!kept mod replays) <- u;
        incr kept;
        Option.iter
          (fun buf ->
            Spans.record buf Spans.Upload ~key:u.number ~aux:0 t0 t1;
            Spans.record buf Spans.Install ~key:u.number ~aux:0 t1 t2)
          trace
    | Some _ | None -> incr failed);
    t := Timing.now_ns ()
  done;
  let after = mark rig in
  Acceptor.end_window rig.acceptor;
  {
    completed = !completed;
    failed = !failed;
    latency;
    upload;
    install;
    window_ns = !t -. t_window;
    before;
    after;
    recent = Array.sub recent 0 (min !kept replays);
  }

let ops_per_s d = float_of_int d.completed /. (d.window_ns /. 1e9)

(* --- replays: the install's public calls on the identical bytes -------- *)

let time f =
  let t0 = Timing.now_ns () in
  f ();
  Timing.now_ns () -. t0

let check what = function Ok _ -> () | Error _ -> failwith (what ^ " replay failed")

(* Median ns of each replayed step over the recorded updates. *)
let replay recent =
  let cose = Samples.create () and decode = Samples.create () and sha = Samples.create ()
  and flash = Samples.create () and attach = Samples.create () in
  let slots = Slots.create ~flash:(Flash.create ~page_size ~pages ()) ~count:slot_count in
  let engine = Engine.create () in
  ignore (Engine.register_hook engine ~uuid:hook_uuid ~name:"fcbench" ~ctx_size:16 ());
  let container =
    Container.create ~name:"replay" ~tenant:(Engine.add_tenant engine "replay")
      ~contract:(Contract.require Contract.[ Kv_local; Kv_tenant; Kv_global; Time; Sensors ])
      (Program.of_bytes (Bytes.of_string recent.(0).payload))
  in
  check "attach" (Engine.attach engine ~hook_uuid container);
  Array.iter
    (fun u ->
      let payload_slice = ref None in
      Samples.add cose
        (time (fun () ->
             match Cose.verify_slice key (Slice.of_string u.envelope) with
             | Ok s -> payload_slice := Some s
             | Error _ -> failwith "cose replay failed"));
      let s = Option.get !payload_slice in
      Samples.add decode (time (fun () -> check "suit" (Suit.decode_slice s)));
      let digest = ref "" in
      Samples.add sha (time (fun () -> digest := Crypto.sha256 u.payload));
      Samples.add flash
        (time (fun () ->
             match Slots.begin_stream slots ~slot:(Slots.victim_slot slots) with
             | Error _ -> failwith "flash replay failed"
             | Ok stream ->
                 let n = String.length u.payload in
                 let rec write off =
                   if off < n then begin
                     check "flash" (Slots.stream_write stream
                       (String.sub u.payload off (min block_size (n - off))));
                     write (off + block_size)
                   end
                 in
                 write 0;
                 check "flash"
                   (Slots.finish_stream stream ~sequence:(Int64.of_int u.number) ~hook_uuid
                      ~digest:!digest)));
      Samples.add attach
        (time (fun () ->
             check "attach"
               (Engine.update_program engine container
                  (Program.of_bytes (Bytes.of_string u.payload))))))
    recent;
  let m = Samples.median in
  (m cose, m decode, m sha, m flash, m attach)

(* --- metrics ------------------------------------------------------------ *)

let hist_mean_us (c0, s0) (c1, s1) =
  if c1 > c0 then (s1 -. s0) /. float_of_int (c1 - c0) /. 1e3 else 0.0

let per_layer ~untraced_ops d (a : Acceptor.stats) buf =
  let ops = max 1 d.completed in
  let fops = float_of_int ops in
  let us = Timing.us_of_ns in
  let cose, decode, sha, flash, attach = replay d.recent in
  let upload = Samples.median d.upload and install = Samples.median d.install in
  let blocks = (program_slots * 8 + block_size - 1) / block_size in
  let runs = d.after.runs - d.before.runs and insns = d.after.insns - d.before.insns in
  let triggers = Spans.durations buf Spans.Trigger in
  [
    ("transport.drain_us", us (Report.ratio a.Acceptor.busy_ns (float_of_int a.Acceptor.datagrams)), "us");
    ("transport.busy_ratio", Report.ratio a.Acceptor.busy_ns a.Acceptor.wall_ns, "ratio");
    ("transport.minor_words_per_op", a.Acceptor.minor_words /. fops, "words");
    ( "bench.client_busy_ratio",
      1.0 -. Report.ratio (d.after.idle_ns -. d.before.idle_ns) d.window_ns,
      "ratio" );
    ( "bench.client_minor_words_per_op",
      (d.after.minor_words -. d.before.minor_words -. a.Acceptor.minor_words) /. fops,
      "words" );
    ( "coap.dedupe_evictions_per_kop",
      float_of_int (d.after.evictions - d.before.evictions) *. 1000. /. fops,
      "count" );
    ( "client.retransmissions",
      float_of_int (d.after.retransmissions - d.before.retransmissions),
      "count" );
    ("coap.block_rtt_us", us upload /. float_of_int blocks, "us");
    ("update.upload_us", us upload, "us");
    ("update.install_us", us install, "us");
    ("cose.verify_us", us cose, "us");
    ("suit.decode_us", us decode, "us");
    ("crypto.sha256_us", us sha, "us");
    ("flash.stream_install_us", us flash, "us");
    ("engine.attach_us", us attach, "us");
    ("update.install_unattributed_us", us (install -. cose -. decode -. attach), "us");
    ("suit.process_us", hist_mean_us d.before.process d.after.process, "us");
    ("vm.compile_us", hist_mean_us d.before.compile d.after.compile, "us");
    ("engine.trigger_p50_us", us (Samples.median triggers), "us");
    ("engine.trigger_p99_us", us (Samples.percentile triggers 0.99), "us");
    ("vm.insns_per_run", Report.ratio (float_of_int insns) (float_of_int runs), "count");
    ("vm.runs_per_op", float_of_int runs /. fops, "count");
    ("bench.unattributed_us", us (Samples.mean d.latency -. (a.Acceptor.busy_ns /. fops)), "us");
    ("bench.trace_overhead", Report.ratio untraced_ops (ops_per_s d), "ratio");
    ( "error_rate",
      Report.ratio (float_of_int d.failed) (float_of_int (d.completed + d.failed)),
      "ratio" );
  ]
  @ Timing.gc_metrics ~ops d.before.gc d.after.gc

(* Boot plus the first install, verified. *)
let setup ~next ?trace () =
  let t0 = Timing.now_ns () in
  let rig = boot ?trace () in
  match apply rig (next ()) with
  | Some _ -> (rig, (Timing.now_ns () -. t0) /. 1e9)
  | None -> failwith "edge-update: the first install failed"

let segment_s = 3.0
let extra_setups = 2

(* The first updates of a process install several times slower than the
   rest while the heap grows; they run, untimed, before anything else. *)
let process_warmup_s = 1.0

(* Untraced: windowed (see {!Windows}); traced: half the time untraced,
   for [bench.trace_overhead], then one traced window. *)
let run ~seed ~seconds ~trace =
  let next = updates ~seed in
  (let rig, _ = setup ~next () in
   ignore (drive ~next ~seconds:process_warmup_s rig);
   ignore (shutdown rig));
  let last = ref None in
  let windows, extras =
    Windows.run
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~segment_s ~extra:extra_setups
      ~extra_setup:(fun () ->
        let rig, s = setup ~next () in
        ignore (shutdown rig);
        s)
      ~window:(fun _ seconds ->
        let rig, setup_s = setup ~next () in
        let d = drive ~next ~seconds rig in
        let a = shutdown rig in
        last := Some rig;
        {
          Windows.setup_s;
          ops_per_s = ops_per_s d;
          latency = d.latency;
          completed = d.completed;
          failed = d.failed;
          retransmissions = d.after.retransmissions - d.before.retransmissions;
          empty_polls = a.Acceptor.empty_polls;
        })
  in
  if not trace then begin
    let rig = Option.get !last in
    let bytes_per_device = float_of_int (Obj.reachable_words (Obj.repr rig.device) * word_bytes) in
    Windows.summarize ~extras ~bytes_per_device windows
  end
  else begin
    let abuf = Spans.create "acceptor" and cbuf = Spans.create "client" in
    let rig, _ = setup ~next ~trace:abuf () in
    let dt = drive ~next ~seconds:(seconds /. 2.) ~trace:cbuf rig in
    let astats = shutdown rig in
    let untraced_ops = Timing.trimmed_mean (List.map (fun w -> w.Windows.ops_per_s) windows) in
    ( {
        Report.correct = true;
        attempted = dt.completed + dt.failed;
        failed = dt.failed;
        metrics = Report.metrics (per_layer ~untraced_ops dt astats abuf);
        detail =
          [
            ("latency_samples", string_of_int (Samples.count dt.latency));
            ("replay_samples", string_of_int (Array.length dt.recent));
            ("trigger_samples", string_of_int (Samples.count (Spans.durations abuf Spans.Trigger)));
            ("acceptor_empty_polls", string_of_int astats.Acceptor.empty_polls);
          ];
      },
      [ abuf; cbuf ] )
  end
