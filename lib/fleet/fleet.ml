(* Sharded fleet simulator (see fleet.mli for the model).

   Determinism contract, in one place:

   - Devices are partitioned into [shards] by [id mod shards]; the shard
     count is part of the scenario, the domain count is not.  Shard s is
     executed by domain [s mod domains], so any domain count yields the
     same per-shard instruction stream.
   - Between barriers a shard touches only its own state: kernel, clock,
     network (with its own RNG), image cache, devices.  The only
     cross-shard channel is the outbox, filled by the shard's network
     gateway during its epoch and drained by the owner domain at the
     barrier — in shard order, FIFO within a shard.
   - The mutex/condvar barrier gives the owner a happens-before edge
     over every worker write (and vice versa for the next epoch), so the
     owner may read shard state and inject next-epoch traffic without
     further locking.
   - Global Obs metrics are disabled while workers run (shared mutable
     histograms are lossy under concurrent update); shards keep plain
     local counters that the owner merges afterwards.  The one remaining
     process-global table, the image digest cache, is mutex-guarded in
     image.ml. *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Syscall = Femto_core.Syscall
module Hook = Femto_core.Hook
module Tenant = Femto_core.Tenant
module Kvstore = Femto_core.Kvstore
module Image = Femto_core.Image
module Kernel = Femto_rtos.Kernel
module Clock = Femto_rtos.Clock
module Mailbox = Femto_rtos.Mailbox
module Network = Femto_net.Network
module Message = Femto_coap.Message
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Program = Femto_ebpf.Program
module Asm = Femto_ebpf.Asm
module Crypto = Femto_crypto.Crypto
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics

(* Merged by the owner domain after a campaign; never touched by
   workers. *)
let m_devices = Obs.gauge "fleet.devices"
let m_updates_ok = Obs.counter "fleet.updates_accepted"
let m_updates_rejected = Obs.counter "fleet.updates_rejected"
let m_telemetry = Obs.counter "fleet.telemetry_fires"
let m_cross_shard = Obs.counter "fleet.cross_shard_datagrams"
let m_epochs = Obs.counter "fleet.epochs"

type config = {
  devices : int;
  shards : int;
  domains : int;
  seed : int;
  epoch_us : int;
  telemetry_us : int;
  wave : int;
  loss_permille : int;
  latency_us : int;
  delta_quota : int option;
  max_epochs : int;
}

let default_config =
  {
    devices = 10_000;
    shards = 16;
    domains = 1;
    seed = 42;
    epoch_us = 5_000;
    telemetry_us = 50_000;
    wave = 0;
    loss_permille = 0;
    latency_us = 300;
    delta_quota = None;
    max_epochs = 100_000;
  }

(* --- firmware --- *)

let hook_uuid = "fleet-app"
let server_addr = 0

(* v1: bump the telemetry counter at local[1]. *)
let firmware_v1_source =
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

(* v2: same counter, plus a version marker at local[9] — the witness the
   campaign checks for ("is the new firmware actually running?"). *)
let firmware_v2_source =
  {|
    mov r1, 9
    mov r2, 2
    call bpf_store_local
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

let firmware_contract = Contract.require [ Contract.Kv_local ]
let assemble src = Asm.assemble ~helpers:Syscall.resolve_name src

(* --- per-device / per-shard state --- *)

type device = {
  id : int;
  addr : int; (* radio address: id + 1 (0 is the campaign server) *)
  engine : Engine.t;
  clock : Clock.t;
  hook : Hook.t;
  tenant : Tenant.t;
  suit : Suit.device;
  inbox : bytes Mailbox.t; (* non-SUIT datagrams (device-to-device) *)
  mutable container : Container.t;
  mutable telemetry_fires : int;
  mutable updates_ok : int;
  mutable updates_rejected : int;
  mutable events : int; (* events processed, all kinds *)
  mutable event_hash : int; (* rolling (kind, time) order fingerprint *)
}

type shard_stats = {
  mutable s_telemetry : int;
  mutable s_updates_ok : int;
  mutable s_updates_rejected : int;
  mutable s_timer_events : int;
  mutable s_spawns : int;
}

type shard = {
  s_index : int;
  kernel : Kernel.t; (* the shard's wheel *)
  net : Network.t;
  images : (string, Image.t) Hashtbl.t; (* shared per shard *)
  programs : (string, Program.t) Hashtbl.t; (* payload digest → decoded *)
  mutable members : device array; (* filled after boot (devices need
                                     their shard to boot) *)
  outbox : (int * int * bytes) Queue.t; (* (src, dst, datagram) *)
  quota : int option; (* per-device CoW delta quota *)
  stats : shard_stats;
}

type server = {
  key : Cose.key;
  envelope : string; (* signed v2 manifest *)
  firmware : string; (* v2 program bytes *)
  push_template : bytes;
      (* the encoded push with message id 0: every device gets a copy
         with its id patched in (the id is the only per-device byte) *)
  v2_sequence : int64;
  mutable next_push : int; (* next device id to address *)
  acked : bool array; (* first ack seen, by device id *)
  pushed_epoch : int array; (* epoch of the last push, -1 = never *)
  mutable retry_cursor : int;
  mutable acks_done : int; (* devices with a first ack, any code *)
  mutable acks_ok : int;
  mutable acks_rejected : int;
}

type pool = {
  pm : Mutex.t;
  go : Condition.t;
  finished : Condition.t;
  mutable until : int64;
  mutable generation : int;
  mutable remaining : int;
  mutable stop : bool;
}

type t = {
  config : config;
  cfg_wave : int;
  shards : shard array;
  mutable devices : device array;
      (* by id; device i lives in shard i mod shards *)
  server : server;
  program_v1 : Program.t;
  mutable epoch : int;
  mutable cross_shard : int; (* datagrams exchanged at barriers *)
  mutable pool : pool option;
  mutable workers : unit Domain.t array;
}

(* --- event fingerprinting --- *)

let ev_telemetry = 1
let ev_update = 2
let ev_datagram = 3

let record_event dev kind time =
  dev.events <- dev.events + 1;
  dev.event_hash <-
    (((dev.event_hash * 1_000_003) + kind) lxor Int64.to_int time)
    land max_int

(* --- push frame: [len(envelope)][envelope][firmware] --- *)

let frame ~envelope ~firmware =
  let b = Buffer.create (4 + String.length envelope + String.length firmware) in
  Buffer.add_int32_be b (Int32.of_int (String.length envelope));
  Buffer.add_string b envelope;
  Buffer.add_string b firmware;
  Buffer.contents b

let unframe payload =
  if String.length payload < 4 then None
  else
    let n = Int32.to_int (String.get_int32_be payload 0) in
    if n < 0 || String.length payload < 4 + n then None
    else
      Some
        ( String.sub payload 4 n,
          String.sub payload (4 + n) (String.length payload - 4 - n) )

(* The campaign's confirmable POST /suit carrying the framed update. *)
let make_push ~envelope ~firmware ~message_id =
  Message.make ~msg_type:Message.Confirmable
    ~options:(Message.options_of_path "suit")
    ~payload:(frame ~envelope ~firmware) ~code:Message.code_post ~message_id ()

(* --- firmware install (the Suit.device install callback) --- *)

let program_for shard payload =
  let digest = Crypto.to_hex (Crypto.sha256 payload) in
  match Hashtbl.find_opt shard.programs digest with
  | Some p -> Ok p
  | None -> (
      match Program.of_bytes (Bytes.of_string payload) with
      | p ->
          Hashtbl.replace shard.programs digest p;
          Ok p
      | exception _ -> Error "undecodable firmware payload")

let spawn_firmware shard dev program =
  let container =
    Container.create ~name:(Container.name dev.container) ~tenant:dev.tenant
      ~contract:firmware_contract program
  in
  match
    Engine.spawn dev.engine ~hook_uuid ?delta_quota:shard.quota container
  with
  | Ok _ ->
      shard.stats.s_spawns <- shard.stats.s_spawns + 1;
      dev.container <- container;
      Ok ()
  | Error e -> Error (Engine.attach_error_to_string e)

(* Swap to the new firmware; on a failed spawn the old program is
   respawned (an image-cache hit), so a device is never left without a
   running container — no half-installed state.  A successful swap
   resets the container-local CoW delta (fresh view over the new
   image's baseline); tenant/global stores persist. *)
let install_firmware shard dev payload =
  match program_for shard payload with
  | Error _ as e -> e
  | Ok program -> (
      let old_program = Container.program dev.container in
      Engine.detach dev.engine dev.container;
      match spawn_firmware shard dev program with
      | Ok () -> Ok ()
      | Error _ as e ->
          (match spawn_firmware shard dev old_program with
          | Ok () -> ()
          | Error _ -> () (* unreachable: the old image is cached *));
          e)

(* --- device-side traffic --- *)

let send_ack shard dev (msg : Message.t) ~ok =
  let ack =
    Message.make ~msg_type:Message.Acknowledgement ~token:msg.Message.token
      ~payload:(if ok then "ok" else "rej")
      ~code:(if ok then Message.code_changed else Message.code_bad_request)
      ~message_id:msg.Message.message_id ()
  in
  Network.send shard.net ~src:dev.addr ~dst:server_addr (Message.encode ack)

let handle_update shard dev (msg : Message.t) =
  let ok =
    match unframe msg.Message.payload with
    | None -> false
    | Some (envelope, firmware) -> (
        match
          Suit.process dev.suit ~envelope ~payloads:[ (hook_uuid, firmware) ]
        with
        | Ok _ -> true
        | Error _ -> false)
  in
  if ok then begin
    dev.updates_ok <- dev.updates_ok + 1;
    shard.stats.s_updates_ok <- shard.stats.s_updates_ok + 1
  end
  else begin
    dev.updates_rejected <- dev.updates_rejected + 1;
    shard.stats.s_updates_rejected <- shard.stats.s_updates_rejected + 1
  end;
  send_ack shard dev msg ~ok

let handle_datagram shard dev ~src:_ data =
  record_event dev ev_datagram (Kernel.now shard.kernel);
  Clock.advance_to dev.clock (Kernel.now shard.kernel);
  match Message.decode data with
  | exception Message.Parse_error _ -> ignore (Mailbox.send dev.inbox data)
  | msg ->
      if msg.Message.code = Message.code_post
         && Message.path_string msg = "/suit"
      then begin
        record_event dev ev_update (Kernel.now shard.kernel);
        handle_update shard dev msg
      end
      else ignore (Mailbox.send dev.inbox data)

let fire_telemetry shard dev =
  record_event dev ev_telemetry (Kernel.now shard.kernel);
  Clock.advance_to dev.clock (Kernel.now shard.kernel);
  ignore (Engine.fire dev.engine dev.hook);
  dev.telemetry_fires <- dev.telemetry_fires + 1;
  shard.stats.s_telemetry <- shard.stats.s_telemetry + 1

(* --- boot --- *)

let boot_device shard ~program_v1 ~key ~telemetry_us ~id =
  let clock = Clock.create () in
  let engine = Engine.create ~clock ~images:shard.images () in
  let hook =
    Engine.register_hook engine ~uuid:hook_uuid ~name:"fleet" ~ctx_size:8 ()
  in
  let tenant = Engine.add_tenant engine "t" in
  (* the SUIT install callback needs the device record, which holds the
     SUIT processor: tie the knot through a forward ref *)
  let dev_ref = ref None in
  let suit =
    Suit.create_device ~key
      ~install:(fun ~sequence:_ ~storage_uuid:_ payload ->
        match !dev_ref with
        | Some dev -> install_firmware shard dev payload
        | None -> Error "device not booted")
      ~known_storage:(fun uuid -> String.equal uuid hook_uuid)
      ()
  in
  let container =
    Container.create
      ~name:(Printf.sprintf "d%d" id)
      ~tenant ~contract:firmware_contract program_v1
  in
  let dev =
    {
      id;
      addr = id + 1;
      engine;
      clock;
      hook;
      tenant;
      suit;
      inbox = Mailbox.create ~capacity:8 ();
      container;
      telemetry_fires = 0;
      updates_ok = 0;
      updates_rejected = 0;
      events = 0;
      event_hash = 0;
    }
  in
  dev_ref := Some dev;
  (match Engine.spawn engine ~hook_uuid ?delta_quota:shard.quota container with
  | Ok _ -> shard.stats.s_spawns <- shard.stats.s_spawns + 1
  | Error e -> failwith ("fleet boot: " ^ Engine.attach_error_to_string e));
  let node = Network.add_node shard.net ~addr:dev.addr in
  Network.set_receiver node (fun ~src data -> handle_datagram shard dev ~src data);
  if telemetry_us > 0 then begin
    (* stagger first fires across the period so a shard's wheel is not a
       single thundering herd at t = telemetry_us *)
    let offset_us = telemetry_us * ((id mod 16) + 1) / 16 in
    Kernel.after_us shard.kernel ~us:offset_us (fun _k ->
        fire_telemetry shard dev;
        Kernel.every_us shard.kernel ~us:telemetry_us (fun _k ->
            fire_telemetry shard dev;
            true))
  end;
  dev

let create (config : config) =
  let devices = max 1 config.devices in
  let shards_n = max 1 (min config.shards devices) in
  let domains = max 1 (min config.domains shards_n) in
  let config = { config with devices; shards = shards_n; domains } in
  let program_v1 = assemble firmware_v1_source in
  let program_v2 = assemble firmware_v2_source in
  let firmware = Bytes.to_string (Program.to_bytes program_v2) in
  let key =
    Cose.make_key ~key_id:"fleet-campaign"
      ~secret:("fleet-secret-" ^ string_of_int config.seed)
  in
  let v2_sequence = 2L in
  let manifest =
    Suit.make ~sequence:v2_sequence
      [ Suit.component_for ~storage_uuid:hook_uuid firmware ]
  in
  let envelope = Suit.sign manifest key in
  let server =
    {
      key;
      envelope;
      firmware;
      push_template =
        Message.encode (make_push ~envelope ~firmware ~message_id:0);
      v2_sequence;
      next_push = 0;
      acked = Array.make devices false;
      pushed_epoch = Array.make devices (-1);
      retry_cursor = 0;
      acks_done = 0;
      acks_ok = 0;
      acks_rejected = 0;
    }
  in
  let shards =
    Array.init shards_n (fun s ->
        let kernel = Kernel.create () in
        let net =
          Network.create ~kernel ~loss_permille:config.loss_permille
            ~latency_us:config.latency_us
            ~seed:(config.seed + s)
            ()
        in
        let shard =
          {
            s_index = s;
            kernel;
            net;
            images = Hashtbl.create 4;
            programs = Hashtbl.create 4;
            members = [||];
            outbox = Queue.create ();
            quota = config.delta_quota;
            stats =
              {
                s_telemetry = 0;
                s_updates_ok = 0;
                s_updates_rejected = 0;
                s_timer_events = 0;
                s_spawns = 0;
              };
          }
        in
        Network.set_gateway net (fun ~src ~dst payload ->
            Queue.add (src, dst, payload) shard.outbox);
        shard)
  in
  let all =
    Array.init devices (fun id ->
        boot_device
          shards.(id mod shards_n)
          ~program_v1 ~key ~telemetry_us:config.telemetry_us ~id)
  in
  let buckets = Array.make shards_n [] in
  for id = devices - 1 downto 0 do
    buckets.(id mod shards_n) <- all.(id) :: buckets.(id mod shards_n)
  done;
  Array.iteri (fun s shard -> shard.members <- Array.of_list buckets.(s)) shards;
  if Obs.enabled () then Ometrics.set m_devices (float_of_int devices);
  {
    config;
    cfg_wave = (if config.wave > 0 then config.wave else max 1 (devices / 100));
    shards;
    devices = all;
    server;
    program_v1;
    epoch = 0;
    cross_shard = 0;
    pool = None;
    workers = [||];
  }

(* --- epochs, barriers, domain pool --- *)

let epoch_cycles t =
  Int64.of_int
    (Clock.cycles_of_us (Kernel.clock t.shards.(0).kernel) t.config.epoch_us)

let run_shard_epoch shard ~until =
  let fired = Kernel.run_timers_until shard.kernel ~until in
  shard.stats.s_timer_events <- shard.stats.s_timer_events + fired

(* Worker w (1-based) runs shards with s mod domains = w; the owner
   domain takes residue 0.  The generation counter is the barrier: the
   owner bumps it under the mutex to start an epoch, workers count
   [remaining] down when their shards are done. *)
let worker_loop t pool w =
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.pm;
    while (not pool.stop) && pool.generation = !my_gen do
      Condition.wait pool.go pool.pm
    done;
    if pool.stop then begin
      running := false;
      Mutex.unlock pool.pm
    end
    else begin
      my_gen := pool.generation;
      let until = pool.until in
      Mutex.unlock pool.pm;
      let domains = t.config.domains in
      Array.iter
        (fun shard ->
          if shard.s_index mod domains = w then run_shard_epoch shard ~until)
        t.shards;
      Mutex.lock pool.pm;
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.signal pool.finished;
      Mutex.unlock pool.pm
    end
  done

let start_pool t =
  if t.config.domains > 1 && t.pool = None then begin
    let pool =
      {
        pm = Mutex.create ();
        go = Condition.create ();
        finished = Condition.create ();
        until = 0L;
        generation = 0;
        remaining = 0;
        stop = false;
      }
    in
    t.pool <- Some pool;
    t.workers <-
      Array.init
        (t.config.domains - 1)
        (fun i -> Domain.spawn (fun () -> worker_loop t pool (i + 1)))
  end

let stop_pool t =
  match t.pool with
  | None -> ()
  | Some pool ->
      Mutex.lock pool.pm;
      pool.stop <- true;
      Condition.broadcast pool.go;
      Mutex.unlock pool.pm;
      Array.iter Domain.join t.workers;
      t.workers <- [||];
      t.pool <- None

let run_epoch_compute t ~until =
  match t.pool with
  | None -> Array.iter (fun shard -> run_shard_epoch shard ~until) t.shards
  | Some pool ->
      Mutex.lock pool.pm;
      pool.until <- until;
      pool.generation <- pool.generation + 1;
      pool.remaining <- Array.length t.workers;
      Condition.broadcast pool.go;
      Mutex.unlock pool.pm;
      let domains = t.config.domains in
      Array.iter
        (fun shard ->
          if shard.s_index mod domains = 0 then run_shard_epoch shard ~until)
        t.shards;
      Mutex.lock pool.pm;
      while pool.remaining > 0 do
        Condition.wait pool.finished pool.pm
      done;
      Mutex.unlock pool.pm

(* Owner-only, between epochs: drain every shard's outbox in shard
   order (FIFO within a shard).  Acks to the campaign server are
   absorbed here; device-to-device datagrams are re-sent on the
   destination shard's network, whose clock equals the source's at a
   barrier, so delivery scheduling is deterministic. *)
let record_ack t ~src ~payload =
  let s = t.server in
  let id = src - 1 in
  if id >= 0 && id < Array.length t.devices && not s.acked.(id) then
    match Message.decode payload with
    | exception Message.Parse_error _ -> ()
    | msg ->
        if msg.Message.msg_type = Message.Acknowledgement then begin
          s.acked.(id) <- true;
          s.acks_done <- s.acks_done + 1;
          if msg.Message.code = Message.code_changed then
            s.acks_ok <- s.acks_ok + 1
          else s.acks_rejected <- s.acks_rejected + 1
        end

let barrier_exchange t =
  let n = Array.length t.devices in
  Array.iter
    (fun shard ->
      while not (Queue.is_empty shard.outbox) do
        let src, dst, payload = Queue.pop shard.outbox in
        t.cross_shard <- t.cross_shard + 1;
        if dst = server_addr then record_ack t ~src ~payload
        else if dst >= 1 && dst <= n then
          let dst_shard = t.shards.((dst - 1) mod t.config.shards) in
          Network.send dst_shard.net ~src ~dst payload
        (* anything else is addressed into the void: drop, like a radio *)
      done)
    t.shards

(* --- campaign server --- *)

let push_message t ~message_id =
  make_push ~envelope:t.server.envelope ~firmware:t.server.firmware ~message_id

(* The CoAP header's message id sits at bytes 2-3, big endian. *)
let push_datagram t ~id =
  let datagram = Bytes.copy t.server.push_template in
  Bytes.set_uint16_be datagram 2 (id land 0xffff);
  datagram

let push_to t dev =
  let shard = t.shards.(dev.id mod t.config.shards) in
  t.server.pushed_epoch.(dev.id) <- t.epoch;
  Network.send shard.net ~src:server_addr ~dst:dev.addr
    (push_datagram t ~id:dev.id)

(* An ack normally lands two barriers after its push (frame latency ≪
   epoch); wait well past that before re-pushing so lossless runs never
   see a duplicate manifest. *)
let retry_after_epochs = 8

let push_wave t =
  let s = t.server in
  let n = Array.length t.devices in
  let budget = ref t.cfg_wave in
  while !budget > 0 && s.next_push < n do
    push_to t t.devices.(s.next_push);
    s.next_push <- s.next_push + 1;
    decr budget
  done;
  if !budget > 0 && s.next_push >= n && s.acks_done < n then begin
    let scanned = ref 0 in
    while !budget > 0 && !scanned < n do
      let id = s.retry_cursor in
      s.retry_cursor <- (s.retry_cursor + 1) mod n;
      incr scanned;
      if
        (not s.acked.(id))
        && s.pushed_epoch.(id) >= 0
        && t.epoch - s.pushed_epoch.(id) >= retry_after_epochs
      then begin
        push_to t t.devices.(id);
        decr budget
      end
    done
  end

(* --- driving --- *)

let run_one_epoch t ~push =
  t.epoch <- t.epoch + 1;
  let until = Int64.mul (Int64.of_int t.epoch) (epoch_cycles t) in
  run_epoch_compute t ~until;
  barrier_exchange t;
  if push then push_wave t

let run_epochs t n =
  for _ = 1 to n do
    run_one_epoch t ~push:false
  done

let send_datagram t ~src_device ~dst_device payload =
  let shard = t.shards.(src_device mod t.config.shards) in
  Network.send shard.net ~src:(src_device + 1) ~dst:(dst_device + 1) payload

let device_inbox t id = Mailbox.drain t.devices.(id).inbox

(* --- reporting --- *)

type report = {
  r_devices : int;
  r_shards : int;
  r_domains : int;
  r_epochs : int;
  r_virtual_ms : float;
  r_wall_ns : float;
  r_updates_ok : int;
  r_updates_rejected : int;
  r_telemetry_fires : int;
  r_cross_shard : int;
  r_timer_events : int;
  r_images_built : int;
  r_image_hits : int;
  r_incomplete : int;
  r_half_installed : int;
}

let sum_stats t f = Array.fold_left (fun acc s -> acc + f s.stats) 0 t.shards

let completion_counts t =
  let v2 = Bytes.of_string t.server.firmware in
  let incomplete = ref 0 and half = ref 0 in
  Array.iter
    (fun dev ->
      let seq_ok = Int64.compare dev.suit.Suit.sequence t.server.v2_sequence >= 0 in
      let fw_ok = Bytes.equal (Program.to_bytes (Container.program dev.container)) v2 in
      if not (seq_ok && fw_ok) then incr incomplete;
      if seq_ok <> fw_ok then incr half)
    t.devices;
  (!incomplete, !half)

let build_report t ~epochs ~wall_ns =
  let images_built =
    Array.fold_left (fun acc s -> acc + Hashtbl.length s.images) 0 t.shards
  in
  let spawns = sum_stats t (fun s -> s.s_spawns) in
  let incomplete, half_installed = completion_counts t in
  {
    r_devices = Array.length t.devices;
    r_shards = t.config.shards;
    r_domains = t.config.domains;
    r_epochs = epochs;
    r_virtual_ms = float_of_int (t.epoch * t.config.epoch_us) /. 1000.;
    r_wall_ns = wall_ns;
    r_updates_ok = sum_stats t (fun s -> s.s_updates_ok);
    r_updates_rejected = sum_stats t (fun s -> s.s_updates_rejected);
    r_telemetry_fires = sum_stats t (fun s -> s.s_telemetry);
    r_cross_shard = t.cross_shard;
    r_timer_events = sum_stats t (fun s -> s.s_timer_events);
    r_images_built = images_built;
    r_image_hits = spawns - images_built;
    r_incomplete = incomplete;
    r_half_installed = half_installed;
  }

let merge_metrics t report =
  if Obs.enabled () then begin
    Ometrics.set m_devices (float_of_int report.r_devices);
    Ometrics.add m_updates_ok report.r_updates_ok;
    Ometrics.add m_updates_rejected report.r_updates_rejected;
    Ometrics.add m_telemetry report.r_telemetry_fires;
    Ometrics.add m_cross_shard report.r_cross_shard;
    Ometrics.add m_epochs report.r_epochs
  end;
  ignore t

let run_campaign t =
  let n = Array.length t.devices in
  let obs_was = Obs.enabled () in
  Obs.set_enabled false;
  let t0 = Obs.now_ns () in
  let epoch0 = t.epoch in
  start_pool t;
  while
    (t.server.next_push < n || t.server.acks_done < n)
    && t.epoch - epoch0 < t.config.max_epochs
  do
    run_one_epoch t ~push:true
  done;
  (* drain one extra telemetry period so every device's new firmware
     provably fires before we inspect final state *)
  let drain =
    if t.config.telemetry_us = 0 then 0
    else ((t.config.telemetry_us + t.config.epoch_us - 1) / t.config.epoch_us) + 1
  in
  for _ = 1 to drain do
    run_one_epoch t ~push:false
  done;
  stop_pool t;
  let wall_ns = Obs.now_ns () -. t0 in
  Obs.set_enabled obs_was;
  let report = build_report t ~epochs:(t.epoch - epoch0) ~wall_ns in
  merge_metrics t report;
  report

(* --- determinism witness --- *)

let device_states t =
  let kv_string store =
    Kvstore.bindings store
    |> List.map (fun (k, v) -> Printf.sprintf "%ld=%Ld" k v)
    |> String.concat ","
  in
  Array.map
    (fun dev ->
      Printf.sprintf "d%d ev=%d h=%x seq=%Ld tele=%d ok=%d rej=%d local=[%s] tenant=[%s]"
        dev.id dev.events dev.event_hash dev.suit.Suit.sequence
        dev.telemetry_fires dev.updates_ok dev.updates_rejected
        (kv_string (Container.local_store dev.container))
        (kv_string (Tenant.store dev.tenant)))
    t.devices

let fingerprint t =
  let b = Buffer.create 4096 in
  Array.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    (device_states t);
  Crypto.to_hex (Crypto.sha256 (Buffer.contents b))

let resident_words t = Obj.reachable_words (Obj.repr t.shards)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>devices %d  shards %d  domains %d@,\
     epochs %d  virtual %.1f ms  wall %.1f ms@,\
     updates ok %d  rejected %d  telemetry %d@,\
     cross-shard %d  timer events %d@,\
     images built %d  image hits %d@,\
     incomplete %d  half-installed %d@]"
    r.r_devices r.r_shards r.r_domains r.r_epochs r.r_virtual_ms
    (r.r_wall_ns /. 1e6) r.r_updates_ok r.r_updates_rejected
    r.r_telemetry_fires r.r_cross_shard r.r_timer_events r.r_images_built
    r.r_image_hits r.r_incomplete r.r_half_installed
