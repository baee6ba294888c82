(* The system-call surface exposed to containers.

   Every interaction between a container and the OS goes through these
   helpers, reached with the eBPF [call] instruction (paper §7, "Simple
   Containerization").  A table is built per granted capability set:
   only helpers whose capability the contract granted are registered, so
   an ungranted call faults as [Unknown_helper] at run time (and is
   already flagged by the pre-flight verifier, which checks call targets
   against the table).  A helper finds the container it serves, and its
   engine's facilities, through the host bound to the instance's memory map
   ([Host]), so one table serves every container of an image.

   Helper IDs are a stable ABI, grouped by capability:
     0x01-0x0f  debug/time      0x10-0x1f  key-value stores
     0x20-0x2f  sensors/memory  0x30-0x3f  CoAP (registered by femto_coap) *)

module Helper = Femto_vm.Helper
module Mem = Femto_vm.Mem

let id_trace = 0x01
let id_now_ms = 0x02
let id_ticks = 0x03
let id_store_local = 0x10
let id_fetch_local = 0x11
let id_store_tenant = 0x12
let id_fetch_tenant = 0x13
let id_store_global = 0x14
let id_fetch_global = 0x15
let id_saul_read = 0x20
let id_memcpy = 0x21

(* CoAP helper IDs: part of the stable ABI here; implementations are
   installed by femto_coap through [add_helper_installer]. *)
let id_gcoap_resp_init = 0x30
let id_coap_add_format = 0x31
let id_coap_opt_finish = 0x32
let id_fmt_s16_dfp = 0x33
let id_coap_set_payload_len = 0x34

(* Full name -> id table for the assembler ([Asm.assemble ~helpers]). *)
let standard_names =
  [
    ("bpf_trace", id_trace);
    ("bpf_now_ms", id_now_ms);
    ("bpf_ticks", id_ticks);
    ("bpf_store_local", id_store_local);
    ("bpf_fetch_local", id_fetch_local);
    ("bpf_store_tenant", id_store_tenant);
    ("bpf_fetch_tenant", id_fetch_tenant);
    ("bpf_store_global", id_store_global);
    ("bpf_fetch_global", id_fetch_global);
    ("bpf_saul_read", id_saul_read);
    ("bpf_memcpy", id_memcpy);
    ("bpf_gcoap_resp_init", id_gcoap_resp_init);
    ("bpf_coap_add_format", id_coap_add_format);
    ("bpf_coap_opt_finish", id_coap_opt_finish);
    ("bpf_fmt_s16_dfp", id_fmt_s16_dfp);
    ("bpf_coap_set_payload_len", id_coap_set_payload_len);
  ]

let resolve_name name = List.assoc_opt name standard_names

(* What a running container's helpers reach of its engine: the cycle
   clock read as time, the global store, the sensors and the trace log.
   It reaches no hook and no container, so the engine's footprint walk
   can leave it out of what the containers own. *)
type facilities = {
  clock : Femto_rtos.Clock.t;
      (* the engine's charge clock: the kernel's clock, or a device
         clock (a fleet device owns a clock but no kernel — its shard's
         kernel drives the wheel) *)
  clock_is_time : bool; (* [clock] is the time source *)
  global_store : Kvstore.t;
  mutable fallback_ms : int64; (* time source when [clock] is not *)
  mutable sensors : (int * (unit -> (int64, string) result)) list;
  mutable trace_log : int64 list; (* newest first; bpf_trace output *)
}

(* The binding a running instance's helpers reach through the memory
   map they receive: its container and its engine's facilities.  Helper
   tables hold no store and no engine state, so one table — and one
   cached image — serves containers on any number of engines. *)
type Femto_vm.Mem.host +=
  | Host of { container : Container.t; facilities : facilities }

let unbound () = Helper.fail "no container bound to this instance"

let now_ms f =
  if f.clock_is_time then
    Int64.of_float
      (Femto_rtos.Clock.ms_of_cycles f.clock (Femto_rtos.Clock.now f.clock))
  else f.fallback_ms

let ticks f =
  if f.clock_is_time then Femto_rtos.Clock.now f.clock
  else Int64.mul f.fallback_ms 64_000L

let read_sensor f id =
  match List.assoc_opt id f.sensors with
  | Some read -> read ()
  | None -> Error (Printf.sprintf "no sensor %d" id)

let local_scope (c : Container.t) (_ : facilities) = c.Container.local_store

let tenant_scope (c : Container.t) (_ : facilities) =
  Tenant.store c.Container.tenant

let global_scope (_ : Container.t) f = f.global_store

let key_of args_value = Int64.to_int32 (Int64.logand args_value 0xFFFF_FFFFL)

let register_kv helpers ~scope ~store_id ~fetch_id ~suffix =
  Helper.register helpers ~id:store_id ~cost_cycles:80 ~arity:2
    ~name:("bpf_store_" ^ suffix)
    (fun mem rf ->
      match Mem.host mem with
      | Host { container; facilities } -> (
          match
            Kvstore.store (scope container facilities)
              (key_of (Helper.arg rf 1))
              (Helper.arg rf 2)
          with
          | Ok () -> Helper.return rf 0L
          | Error (`Store_full name) ->
              Helper.fail (Printf.sprintf "store %s full" name))
      | _ -> unbound ());
  Helper.register helpers ~id:fetch_id ~cost_cycles:80 ~arity:2
    ~name:("bpf_fetch_" ^ suffix)
    (fun mem rf ->
      match Mem.host mem with
      | Host { container; facilities } -> (
          let value =
            Kvstore.fetch (scope container facilities)
              (key_of (Helper.arg rf 1))
          in
          match Mem.store mem ~addr:(Helper.arg rf 2) ~size:8 value with
          | Ok () -> Helper.return rf 0L
          | Error () -> Helper.fail "fetch destination outside allow-list")
      | _ -> unbound ())

(* Build the helper table for the granted capabilities.  [extra] lets
   integration layers (e.g. CoAP) install capability-gated helpers
   without femto_core depending on them. *)
let build ?(extra = []) granted =
  let helpers = Helper.create () in
  let has cap = List.mem cap granted in
  (* always available: pure memory move within the allow-list *)
  Helper.register helpers ~id:id_memcpy ~cost_cycles:30 ~arity:3
    ~name:"bpf_memcpy"
    (fun mem rf ->
      let dst = Helper.arg rf 1 in
      let len = Int64.to_int (Helper.arg rf 3) in
      if len < 0 || len > 1024 then Helper.fail "memcpy length out of range";
      match Mem.load_bytes mem ~addr:(Helper.arg rf 2) ~len with
      | Error () -> Helper.fail "memcpy source outside allow-list"
      | Ok data -> (
          match Mem.store_bytes mem ~addr:dst data with
          | Ok () -> Helper.return rf dst
          | Error () -> Helper.fail "memcpy destination outside allow-list"));
  if has Contract.Debug then
    Helper.register helpers ~id:id_trace ~cost_cycles:40 ~arity:1
      ~name:"bpf_trace"
      (fun mem rf ->
        match Mem.host mem with
        | Host { facilities = f; _ } ->
            f.trace_log <- Helper.arg rf 1 :: f.trace_log;
            Helper.return rf 0L
        | _ -> unbound ());
  if has Contract.Time then begin
    Helper.register helpers ~id:id_now_ms ~cost_cycles:25 ~arity:0
      ~name:"bpf_now_ms"
      (fun mem rf ->
        match Mem.host mem with
        | Host { facilities; _ } -> Helper.return rf (now_ms facilities)
        | _ -> unbound ());
    Helper.register helpers ~id:id_ticks ~cost_cycles:20 ~arity:0
      ~name:"bpf_ticks"
      (fun mem rf ->
        match Mem.host mem with
        | Host { facilities; _ } -> Helper.return rf (ticks facilities)
        | _ -> unbound ())
  end;
  if has Contract.Kv_local then
    register_kv helpers ~scope:local_scope ~store_id:id_store_local
      ~fetch_id:id_fetch_local ~suffix:"local";
  if has Contract.Kv_tenant then
    register_kv helpers ~scope:tenant_scope ~store_id:id_store_tenant
      ~fetch_id:id_fetch_tenant ~suffix:"tenant";
  if has Contract.Kv_global then
    register_kv helpers ~scope:global_scope ~store_id:id_store_global
      ~fetch_id:id_fetch_global ~suffix:"global";
  if has Contract.Sensors then
    Helper.register helpers ~id:id_saul_read ~cost_cycles:500 ~arity:2
      ~name:"bpf_saul_read"
      (fun mem rf ->
        match Mem.host mem with
        | Host { facilities; _ } -> (
            match read_sensor facilities (Int64.to_int (Helper.arg rf 1)) with
            | Error message -> Helper.fail message
            | Ok value -> (
                match Mem.store mem ~addr:(Helper.arg rf 2) ~size:8 value with
                | Ok () -> Helper.return rf 0L
                | Error () -> Helper.fail "sensor destination outside allow-list"))
        | _ -> unbound ());
  List.iter
    (fun (cap, install) -> if has cap then install helpers)
    extra;
  helpers
