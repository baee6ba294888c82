(* Tests for the Femto-Container hosting engine: key-value stores,
   contracts, attach/trigger, tenant isolation, fault isolation, hot
   updates, and the paper's §8 example applications end to end. *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Hook = Femto_core.Hook
module Contract = Femto_core.Contract
module Kvstore = Femto_core.Kvstore
module Syscall = Femto_core.Syscall
module Apps = Femto_workloads.Apps
module Fletcher = Femto_workloads.Fletcher
module Kernel = Femto_rtos.Kernel
module Fault = Femto_vm.Fault
module Platform = Femto_platform.Platform

let assemble source = Femto_ebpf.Asm.assemble ~helpers:Syscall.resolve_name source

(* --- kvstore --- *)

let test_kvstore_fetch_default_zero () =
  let store = Kvstore.create "t" in
  Alcotest.(check int64) "missing is zero" 0L (Kvstore.fetch store 7l)

let test_kvstore_store_fetch () =
  let store = Kvstore.create "t" in
  (match Kvstore.store store 7l 42L with Ok () -> () | Error _ -> Alcotest.fail "full");
  Alcotest.(check int64) "fetch" 42L (Kvstore.fetch store 7l)

let test_kvstore_bounded () =
  let store = Kvstore.create ~max_entries:2 "tiny" in
  ignore (Kvstore.store store 1l 1L);
  ignore (Kvstore.store store 2l 2L);
  (match Kvstore.store store 3l 3L with
  | Error (`Store_full "tiny") -> ()
  | Ok () | Error _ -> Alcotest.fail "expected full");
  (* overwriting an existing key still works when full *)
  match Kvstore.store store 1l 10L with
  | Ok () -> Alcotest.(check int64) "overwrite" 10L (Kvstore.fetch store 1l)
  | Error _ -> Alcotest.fail "overwrite rejected"

(* --- kvstore: model-based properties ---

   Random op sequences run on a store and on a [Map] model of what the
   store means: a plain table, or a CoW view observably equal to an
   eager copy of its frozen parent (plus the delta quota).  The model
   also tracks the CoW delta, since [delta_size] and [ram_bytes] bill
   it. *)

module Kmap = Map.Make (Int32)

type kv_op =
  | Kv_store of int32 * int64
  | Kv_fetch of int32
  | Kv_mem of int32
  | Kv_remove of int32
  | Kv_clear

let kv_op_to_string = function
  | Kv_store (k, v) -> Printf.sprintf "store %ld %Ld" k v
  | Kv_fetch k -> Printf.sprintf "fetch %ld" k
  | Kv_mem k -> Printf.sprintf "mem %ld" k
  | Kv_remove k -> Printf.sprintf "remove %ld" k
  | Kv_clear -> "clear"

(* Few distinct keys, so ops collide; the extremes of int32 included. *)
let kv_key_gen =
  QCheck.Gen.oneofl
    [ Int32.min_int; -70000l; -2l; -1l; 0l; 1l; 2l; 9l; 70000l; Int32.max_int ]

let kv_value_gen =
  QCheck.Gen.(
    oneof
      [ map Int64.of_int (int_range (-1000) 1000);
        oneofl [ Int64.min_int; Int64.max_int; -1L ] ])

let kv_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k v -> Kv_store (k, v)) kv_key_gen kv_value_gen);
        (3, map (fun k -> Kv_fetch k) kv_key_gen);
        (2, map (fun k -> Kv_mem k) kv_key_gen);
        (3, map (fun k -> Kv_remove k) kv_key_gen);
        (1, return Kv_clear) ])

type kv_model = {
  max_entries : int;
  quota : int; (* CoW delta quota; max_int when unset *)
  parent : int64 Kmap.t; (* frozen CoW parent; empty for Direct *)
  cow : bool;
  mutable cleared : bool;
  mutable logical : int64 Kmap.t;
  mutable delta : int64 option Kmap.t; (* None = tombstone *)
}

let kv_model ?(cow = false) ?(quota = max_int) ?(parent = Kmap.empty)
    max_entries =
  { max_entries; quota; parent; cow; cleared = false; logical = parent;
    delta = Kmap.empty }

let model_store m k v =
  if (not (Kmap.mem k m.logical)) && Kmap.cardinal m.logical >= m.max_entries
  then false
  else if
    m.cow && (not (Kmap.mem k m.delta)) && Kmap.cardinal m.delta >= m.quota
  then false
  else begin
    m.logical <- Kmap.add k v m.logical;
    if m.cow then m.delta <- Kmap.add k (Some v) m.delta;
    true
  end

let model_remove m k =
  m.logical <- Kmap.remove k m.logical;
  if m.cow then
    m.delta <-
      (if m.cleared || not (Kmap.mem k m.parent) then Kmap.remove k m.delta
       else Kmap.add k None m.delta)

let model_clear m =
  m.logical <- Kmap.empty;
  m.delta <- Kmap.empty;
  if m.cow then m.cleared <- true

(* Entries the store owns: the CoW delta (tombstones included), or the
   whole table. *)
let model_own m =
  if m.cow then Kmap.cardinal m.delta else Kmap.cardinal m.logical

(* The store's whole observable state equals the model's. *)
let kv_agrees store m =
  Kvstore.bindings store = Kmap.bindings m.logical
  && Kvstore.length store = Kmap.cardinal m.logical
  && Kvstore.delta_size store = model_own m
  && Kvstore.is_cow store = m.cow

(* Run one op on [store] and on its model [m]; [true] when every result
   agrees.  A full store reports its own name. *)
let kv_step store m = function
  | Kv_store (k, v) ->
      let expected = model_store m k v in
      (match Kvstore.store store k v with
       | Ok () -> expected
       | Error (`Store_full name) ->
           (not expected) && String.equal name (Kvstore.name store))
  | Kv_fetch k ->
      Kvstore.fetch store k
      = Option.value ~default:0L (Kmap.find_opt k m.logical)
  | Kv_mem k -> Kvstore.mem store k = Kmap.mem k m.logical
  | Kv_remove k ->
      Kvstore.remove store k;
      model_remove m k;
      true
  | Kv_clear ->
      Kvstore.clear store;
      model_clear m;
      true

let kv_ops_arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "max_entries %d: %s" cap
        (String.concat "; " (List.map kv_op_to_string ops)))
    QCheck.Gen.(
      pair (int_range 0 5) (list_size (int_range 0 60) kv_op_gen))

(* The device-RAM model behind the paper's tables: key (4) + value (8) +
   bookkeeping (8) per owned entry, over a fixed header. *)
let ram_formula m = (if m.cow then 40 else 24) + (20 * model_own m)

let prop_kv_direct_model =
  QCheck.Test.make ~name:"kvstore: Direct = Map model" ~count:500
    kv_ops_arb (fun (cap, ops) ->
      let store = Kvstore.create ~max_entries:cap "direct" in
      let m = kv_model cap in
      List.for_all
        (fun op ->
          kv_step store m op && kv_agrees store m
          && Kvstore.ram_bytes store = ram_formula m)
        ops)

let prop_kv_cow_model =
  QCheck.Test.make ~name:"kvstore: CoW view = eager copy (Map model)" ~count:500
    QCheck.(
      pair
        (make
           Gen.(
             triple
               (list_size (int_range 0 5) (pair kv_key_gen kv_value_gen))
               (opt (int_range 0 3))
               (opt (int_range 0 6))))
        kv_ops_arb)
    (fun ((seed, quota, view_max), (cap, ops)) ->
      let parent = Kvstore.create ~max_entries:(cap + 3) "base" in
      List.iter (fun (k, v) -> ignore (Kvstore.store parent k v)) seed;
      let frozen = Kvstore.bindings parent in
      let view =
        Kvstore.cow ?max_entries:view_max ?delta_quota:quota ~parent "view"
      in
      let m =
        kv_model ~cow:true ?quota
          ~parent:(Kmap.of_seq (List.to_seq frozen))
          (Option.value view_max ~default:(cap + 3))
      in
      List.for_all
        (fun op ->
          kv_step view m op && kv_agrees view m
          && Kvstore.ram_bytes view = ram_formula m)
        ops
      && Kvstore.bindings parent = frozen
      && match Kvstore.parent view with Some p -> p == parent | None -> false)

(* --- contracts --- *)

let test_contract_grant_is_intersection () =
  let policy = Contract.offer [ Contract.Kv_local; Contract.Time ] in
  let contract = Contract.require [ Contract.Kv_local; Contract.Kv_global ] in
  Alcotest.(check (list string)) "granted" [ "kv-local" ]
    (List.map Contract.capability_name (Contract.grant policy contract));
  Alcotest.(check (list string)) "denied" [ "kv-global" ]
    (List.map Contract.capability_name (Contract.denied policy contract))

(* --- engine basics --- *)

let make_engine ?kernel ?platform () = Engine.create ?kernel ?platform ()

let simple_container ?(name = "c") ?(tenant_id = "acme") ?runtime engine source
    ~contract =
  let tenant = Engine.add_tenant engine tenant_id in
  Container.create ~name ~tenant ~contract ?runtime (assemble source)

let test_attach_and_trigger () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"hook-1" ~name:"test" ~ctx_size:16 () in
  let container =
    simple_container engine "mov r0, 7\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"hook-1" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let reports = Engine.trigger engine hook () in
  match reports with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "r0" 7L v
  | _ -> Alcotest.fail "expected one successful report"

(* The array-backed slot storage must keep arrival order — the list
   append it replaced was order-preserving, and trigger reports as well
   as per-tenant accounting rely on it — and stay ordered across a
   detach from the middle. *)
let test_attach_preserves_order () =
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"ho" ~name:"order" ~ctx_size:8 ()
  in
  let containers =
    List.init 17 (fun i ->
        let c =
          simple_container ~name:(Printf.sprintf "c%02d" i) engine
            (Printf.sprintf "mov r0, %d\nexit" i)
            ~contract:(Contract.require [])
        in
        (match Engine.attach engine ~hook_uuid:"ho" c with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
        c)
  in
  Alcotest.(check int) "count" 17 (Hook.attached_count hook);
  Alcotest.(check (list string)) "attach order"
    (List.map Container.name containers)
    (List.map Container.name (Hook.attached hook));
  let reports = Engine.trigger engine hook () in
  let results =
    List.map
      (fun r ->
        match r.Engine.result with Ok v -> Int64.to_int v | Error _ -> -1)
      reports
  in
  Alcotest.(check (list int)) "report order follows attach order"
    (List.init 17 Fun.id) results;
  (* detaching from the middle compacts without reordering survivors *)
  Engine.detach engine (List.nth containers 5);
  Alcotest.(check int) "one fewer" 16 (Hook.attached_count hook);
  Alcotest.(check (list string)) "stable after removal"
    (List.filteri (fun i _ -> i <> 5) (List.map Container.name containers))
    (List.map Container.name (Hook.attached hook))

let test_attach_rejects_bad_program () =
  let engine = make_engine () in
  let _hook = Engine.register_hook engine ~uuid:"hook-1" ~name:"test" ~ctx_size:16 () in
  let container =
    simple_container engine "mov r10, 1\nexit" ~contract:(Contract.require [])
  in
  match Engine.attach engine ~hook_uuid:"hook-1" container with
  | Error (Engine.Verification_failed (Fault.Readonly_register _)) -> ()
  | Ok _ -> Alcotest.fail "verifier let a r10 write through"
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e)

let test_attach_unknown_hook () =
  let engine = make_engine () in
  let container =
    simple_container engine "mov r0, 0\nexit" ~contract:(Contract.require [])
  in
  match Engine.attach engine ~hook_uuid:"nope" container with
  | Error (Engine.No_such_hook "nope") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected No_such_hook"

let test_double_attach_rejected () =
  let engine = make_engine () in
  let _h1 = Engine.register_hook engine ~uuid:"h1" ~name:"a" ~ctx_size:8 () in
  let _h2 = Engine.register_hook engine ~uuid:"h2" ~name:"b" ~ctx_size:8 () in
  let container =
    simple_container engine "mov r0, 0\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h1" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.attach engine ~hook_uuid:"h2" container with
  | Error (Engine.Already_attached "h1") -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Already_attached"

let test_context_passed_to_container () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"ctx" ~ctx_size:16 () in
  let container =
    simple_container engine "ldxdw r0, [r1+8]\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let ctx = Bytes.create 16 in
  Bytes.set_int64_le ctx 8 1234L;
  match Engine.trigger engine hook ~ctx () with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "ctx value" 1234L v
  | _ -> Alcotest.fail "expected one report"

let test_readonly_context_protected () =
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"h" ~name:"firewall" ~ctx_size:16
      ~ctx_perm:Femto_vm.Region.Read_only ()
  in
  let container =
    simple_container engine "stdw [r1], 666\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Error (Fault.Memory_access { write = true; _ }); _ } ] ->
      Alcotest.(check int) "fault counted" 1 (Container.faults container)
  | _ -> Alcotest.fail "expected write fault on read-only context"

let test_fault_isolation_between_containers () =
  (* A faulting container must not prevent its neighbour on the same hook
     from running, nor corrupt its result. *)
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"shared" ~ctx_size:8 () in
  let bad =
    simple_container ~name:"bad" engine "mov r1, 0\nldxdw r0, [r1]\nexit"
      ~contract:(Contract.require [])
  in
  let good =
    simple_container ~name:"good" engine "mov r0, 5\nexit"
      ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" bad with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (match Engine.attach engine ~hook_uuid:"h" good with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Error _; container = c1; _ };
      { Engine.result = Ok v; container = c2; _ } ] ->
      Alcotest.(check string) "bad first" "bad" (Container.name c1);
      Alcotest.(check string) "good second" "good" (Container.name c2);
      Alcotest.(check int64) "good result" 5L v
  | _ -> Alcotest.fail "expected fault+success"

let test_capability_gating () =
  (* A container that was not granted kv-global faults on the call; the
     verifier already rejects it at attach time (unknown helper). *)
  let engine = make_engine () in
  let _hook =
    Engine.register_hook engine ~uuid:"h" ~name:"restricted" ~ctx_size:8
      ~policy:(Contract.offer [ Contract.Kv_local ]) ()
  in
  let source = "mov r1, 1\nmov r2, 2\ncall bpf_store_global\nexit" in
  let container =
    simple_container engine source
      ~contract:(Contract.require [ Contract.Kv_global ])
  in
  match Engine.attach engine ~hook_uuid:"h" container with
  | Error (Engine.Verification_failed (Fault.Unknown_helper { id; _ })) ->
      Alcotest.(check int) "helper id" Syscall.id_store_global id
  | Ok _ -> Alcotest.fail "ungranted helper accepted"
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e)

let test_kv_helpers_roundtrip () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"kv" ~ctx_size:8 () in
  let source =
    {|
      mov r1, 42
      mov r2, 1000
      call bpf_store_local
      mov r1, 42
      mov r2, r10
      sub r2, 8
      call bpf_fetch_local
      ldxdw r0, [r10-8]
      exit
    |}
  in
  let container =
    simple_container engine source ~contract:(Contract.require [ Contract.Kv_local ])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "roundtrip" 1000L v
  | _ -> Alcotest.fail "expected success"

let test_tenant_isolation () =
  (* Two tenants store under the same key in their tenant stores; the
     values must not leak across. *)
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"multi" ~ctx_size:8 () in
  let writer tenant_id value =
    let source = Printf.sprintf "mov r1, 5\nmov r2, %d\ncall bpf_store_tenant\nexit" value in
    simple_container ~name:(tenant_id ^ "-writer") ~tenant_id engine source
      ~contract:(Contract.require [ Contract.Kv_tenant ])
  in
  let reader tenant_id =
    let source =
      "mov r1, 5\nmov r2, r10\nsub r2, 8\ncall bpf_fetch_tenant\nldxdw r0, [r10-8]\nexit"
    in
    simple_container ~name:(tenant_id ^ "-reader") ~tenant_id engine source
      ~contract:(Contract.require [ Contract.Kv_tenant ])
  in
  let attach c =
    match Engine.attach engine ~hook_uuid:"h" c with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Engine.attach_error_to_string e)
  in
  let wa = writer "alpha" 111 and wb = writer "beta" 222 in
  let ra = reader "alpha" and rb = reader "beta" in
  List.iter attach [ wa; wb; ra; rb ];
  match Engine.trigger engine hook () with
  | [ _; _; { Engine.result = Ok va; _ }; { Engine.result = Ok vb; _ } ] ->
      Alcotest.(check int64) "alpha sees alpha" 111L va;
      Alcotest.(check int64) "beta sees beta" 222L vb
  | _ -> Alcotest.fail "expected four reports"

let test_hot_update () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"upd" ~ctx_size:8 () in
  let container =
    simple_container engine "mov r0, 1\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (match Engine.trigger engine hook () with
  | [ { Engine.result = Ok 1L; _ } ] -> ()
  | _ -> Alcotest.fail "v1 wrong");
  (* a broken update is rejected and v1 keeps running *)
  (match Engine.update_program engine container (assemble "ja +2\nexit") with
  | Error (Engine.Verification_failed _) -> ()
  | Ok () -> Alcotest.fail "broken update accepted"
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (match Engine.trigger engine hook () with
  | [ { Engine.result = Ok 1L; _ } ] -> ()
  | _ -> Alcotest.fail "v1 not preserved after failed update");
  (* a good update takes effect *)
  (match Engine.update_program engine container (assemble "mov r0, 2\nexit") with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Ok 2L; _ } ] -> ()
  | _ -> Alcotest.fail "v2 not active"

let test_detach () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"d" ~ctx_size:8 () in
  let container =
    simple_container engine "mov r0, 1\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  Engine.detach engine container;
  Alcotest.(check int) "no attachments" 0 (List.length (Hook.attached hook));
  Alcotest.(check bool) "no reports" true (Engine.trigger engine hook () = [])

let test_certfc_runtime_variant () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"cert" ~ctx_size:8 () in
  let container =
    simple_container ~runtime:Platform.Certfc engine "mov r0, 9\nexit"
      ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Ok 9L; vm_cycles; _ } ] ->
      Alcotest.(check bool) "cycles charged" true (vm_cycles > 0)
  | _ -> Alcotest.fail "certfc container failed"

(* --- the paper's §8 examples end to end --- *)

let test_thread_counter_app () =
  let kernel = Kernel.create () in
  let engine = make_engine ~kernel () in
  let hook =
    Engine.register_hook engine ~uuid:"sched-hook" ~name:"sched" ~ctx_size:16 ()
  in
  let tenant = Engine.add_tenant engine "os-maintainer" in
  let container =
    Container.create ~name:"thread-counter" ~tenant
      ~contract:(Contract.require [ Contract.Kv_global ])
      (Apps.thread_counter ())
  in
  (match Engine.attach engine ~hook_uuid:"sched-hook" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (* wire the hook into the kernel's context switches *)
  Kernel.add_switch_hook kernel (fun ~prev ~next ->
      let ctx = Bytes.create 16 in
      Bytes.set_int64_le ctx 0 (Int64.of_int prev);
      Bytes.set_int64_le ctx 8 (Int64.of_int next);
      ignore (Engine.trigger engine hook ~ctx ()));
  let make_thread name quanta =
    let remaining = ref quanta in
    Kernel.spawn kernel ~name (fun _ ->
        decr remaining;
        if !remaining > 0 then Kernel.Yield else Kernel.Finish)
  in
  let t1 = make_thread "t1" 3 in
  let t2 = make_thread "t2" 2 in
  ignore (Kernel.run kernel ());
  let store = Engine.global_store engine in
  let count tid = Kvstore.fetch store (Int32.add Apps.thread_key_base (Int32.of_int tid)) in
  Alcotest.(check int64) "t1 activations" 3L (count t1.Kernel.tid);
  Alcotest.(check int64) "t2 activations" 2L (count t2.Kernel.tid);
  Alcotest.(check int) "no faults" 0 (Container.faults container)

let test_sensor_process_app () =
  let engine = make_engine () in
  let readings = ref [ 100L; 200L; 300L ] in
  Engine.register_sensor engine ~id:1 (fun () ->
      match !readings with
      | [] -> Ok 0L
      | v :: rest ->
          readings := rest;
          Ok v);
  let hook = Engine.register_hook engine ~uuid:"timer-hook" ~name:"timer" ~ctx_size:8 () in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"sensor" ~tenant
      ~contract:
        (Contract.require
           [ Contract.Sensors; Contract.Kv_local; Contract.Kv_tenant ])
      (Apps.sensor_process ())
  in
  (match Engine.attach engine ~hook_uuid:"timer-hook" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let run () =
    match Engine.trigger engine hook () with
    | [ { Engine.result = Ok v; _ } ] -> v
    | [ { Engine.result = Error f; _ } ] -> Alcotest.failf "fault: %s" (Fault.to_string f)
    | _ -> Alcotest.fail "expected one report"
  in
  Alcotest.(check int64) "first sample seeds" 100L (run ());
  Alcotest.(check int64) "ema 2" 125L (run ());
  (* (3*125 + 300) / 4 = 168 *)
  Alcotest.(check int64) "ema 3" 168L (run ());
  (* published for the other container of the tenant *)
  Alcotest.(check int64) "published" 168L
    (Kvstore.fetch (Femto_core.Tenant.store tenant) Apps.sensor_value_key)

let test_fletcher_in_container_matches_native () =
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"bench" ~name:"bench" ~ctx_size:16 ()
  in
  let tenant = Engine.add_tenant engine "bench" in
  let container =
    Container.create ~name:"fletcher" ~tenant ~contract:(Contract.require [])
      (Fletcher.ebpf_program ())
  in
  let data = Fletcher.input_360 in
  let data_region =
    Femto_vm.Region.make ~name:"data" ~vaddr:Fletcher.data_vaddr
      ~perm:Femto_vm.Region.Read_only (Bytes.copy data)
  in
  (match
     Engine.attach engine ~hook_uuid:"bench" ~extra_regions:[ data_region ]
       container
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let ctx = Bytes.create 16 in
  Bytes.set_int64_le ctx 0 Fletcher.data_vaddr;
  Bytes.set_int64_le ctx 8 (Int64.of_int (Bytes.length data / 2));
  match Engine.trigger engine hook ~ctx () with
  | [ { Engine.result = Ok v; _ } ] ->
      Alcotest.(check int64) "matches native"
        (Int64.of_int (Fletcher.checksum data))
        v
  | _ -> Alcotest.fail "fletcher container failed"

let prop_fletcher_equivalence =
  QCheck.Test.make ~name:"fletcher32 eBPF = native on random input" ~count:50
    QCheck.(make Gen.(map Bytes.of_string (string_size ~gen:char (int_range 0 512))))
    (fun data ->
      let data = Bytes.sub data 0 (Bytes.length data - Bytes.length data mod 2) in
      let helpers = Femto_vm.Helper.create () in
      let regions = Fletcher.regions ~ctx_vaddr:0x2000_0000L data in
      match
        Femto_vm.Vm.load ~helpers ~regions (Fletcher.ebpf_program ())
      with
      | Error _ -> false
      | Ok vm -> (
          match Femto_vm.Vm.run vm ~args:[| 0x2000_0000L |] with
          | Ok v -> Int64.equal v (Int64.of_int (Fletcher.checksum data))
          | Error _ -> false))

let test_stats_app_matches_native () =
  let engine = make_engine () in
  let samples = ref [] in
  Engine.register_sensor engine ~id:1 (fun () ->
      match !samples with
      | [] -> Ok 0L
      | v :: rest ->
          samples := rest;
          Ok v);
  let hook = Engine.register_hook engine ~uuid:"stats" ~name:"stats" ~ctx_size:8 () in
  let tenant = Engine.add_tenant engine "acme" in
  let container =
    Container.create ~name:"stats" ~tenant
      ~contract:
        (Contract.require [ Contract.Sensors; Contract.Kv_local; Contract.Kv_tenant ])
      (Apps.stats ())
  in
  (match Engine.attach engine ~hook_uuid:"stats" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let inputs = [ 100L; 7L; 220L; 7L; 150L; 3L; 999L ] in
  samples := inputs;
  let reference = Apps.stats_init () in
  List.iter
    (fun sample ->
      let expected_mean = Apps.stats_feed reference sample in
      match Engine.trigger engine hook () with
      | [ { Engine.result = Ok mean; _ } ] ->
          Alcotest.(check int64) "running mean" expected_mean mean
      | [ { Engine.result = Error f; _ } ] ->
          Alcotest.failf "fault: %s" (Fault.to_string f)
      | _ -> Alcotest.fail "expected one report")
    inputs;
  let local = Container.local_store container in
  Alcotest.(check int64) "count" reference.Apps.count
    (Kvstore.fetch local Apps.stats_count_key);
  Alcotest.(check int64) "sum" reference.Apps.sum
    (Kvstore.fetch local Apps.stats_sum_key);
  Alcotest.(check int64) "sumsq" reference.Apps.sumsq
    (Kvstore.fetch local Apps.stats_sumsq_key);
  Alcotest.(check int64) "min" reference.Apps.min
    (Kvstore.fetch local Apps.stats_min_key);
  Alcotest.(check int64) "max" reference.Apps.max
    (Kvstore.fetch local Apps.stats_max_key);
  Alcotest.(check int64) "published mean"
    (Int64.unsigned_div reference.Apps.sum reference.Apps.count)
    (Kvstore.fetch (Femto_core.Tenant.store tenant) Apps.stats_mean_key)

let prop_stats_app_equivalence =
  QCheck.Test.make ~name:"stats app = native on random samples" ~count:40
    QCheck.(make Gen.(list_size (int_range 1 30) (map Int64.of_int (int_range 0 100000))))
    (fun inputs ->
      let engine = make_engine () in
      let queue = ref inputs in
      Engine.register_sensor engine ~id:1 (fun () ->
          match !queue with
          | [] -> Ok 0L
          | v :: rest ->
              queue := rest;
              Ok v);
      let hook = Engine.register_hook engine ~uuid:"s" ~name:"s" ~ctx_size:8 () in
      let tenant = Engine.add_tenant engine "t" in
      let container =
        Container.create ~name:"stats" ~tenant
          ~contract:
            (Contract.require
               [ Contract.Sensors; Contract.Kv_local; Contract.Kv_tenant ])
          (Apps.stats ())
      in
      (match Engine.attach engine ~hook_uuid:"s" container with
      | Ok _ -> ()
      | Error _ -> QCheck.Test.fail_report "attach failed");
      let reference = Apps.stats_init () in
      List.for_all
        (fun sample ->
          let expected = Apps.stats_feed reference sample in
          match Engine.trigger engine hook () with
          | [ { Engine.result = Ok mean; _ } ] -> Int64.equal mean expected
          | _ -> false)
        inputs
      && Int64.equal reference.Apps.min
           (Kvstore.fetch (Container.local_store container) Apps.stats_min_key)
      && Int64.equal reference.Apps.max
           (Kvstore.fetch (Container.local_store container) Apps.stats_max_key))

let test_per_tenant_hook_policies () =
  (* the paper's §11 limitation — one privilege set per hook — lifted:
     two tenants attach to the SAME hook with different grants *)
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"shared" ~name:"shared" ~ctx_size:8
      ~policy:(Contract.offer [ Contract.Kv_local ]) ()
  in
  (* the trusted tenant additionally gets the global store *)
  Hook.set_tenant_policy hook ~tenant_id:"trusted"
    (Contract.offer [ Contract.Kv_local; Contract.Kv_global ]);
  let source = "mov r1, 9\nmov r2, 5\ncall bpf_store_global\nmov r0, 0\nexit" in
  let trusted =
    simple_container ~name:"trusted" ~tenant_id:"trusted" engine source
      ~contract:(Contract.require [ Contract.Kv_global ])
  in
  let untrusted =
    simple_container ~name:"untrusted" ~tenant_id:"untrusted" engine source
      ~contract:(Contract.require [ Contract.Kv_global ])
  in
  (* same bytecode, same hook: the trusted tenant attaches... *)
  (match Engine.attach engine ~hook_uuid:"shared" trusted with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (* ...the untrusted tenant is rejected at pre-flight (ungranted helper) *)
  (match Engine.attach engine ~hook_uuid:"shared" untrusted with
  | Error (Engine.Verification_failed (Fault.Unknown_helper _)) -> ()
  | Ok _ -> Alcotest.fail "untrusted tenant got kv-global on the shared hook"
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (* and the trusted one actually reaches the global store *)
  (match Engine.trigger engine hook () with
  | [ { Engine.result = Ok _; _ } ] -> ()
  | _ -> Alcotest.fail "trusted container failed");
  Alcotest.(check int64) "written" 5L
    (Kvstore.fetch (Engine.global_store engine) 9l)

let test_multiple_hooks_independent () =
  (* containers on different hooks never see each other's triggers, and a
     single engine dispatches them independently *)
  let engine = make_engine () in
  let hook_a = Engine.register_hook engine ~uuid:"a" ~name:"a" ~ctx_size:8 () in
  let hook_b = Engine.register_hook engine ~uuid:"b" ~name:"b" ~ctx_size:8 () in
  let ca = simple_container ~name:"ca" engine "mov r0, 1\nexit" ~contract:(Contract.require []) in
  let cb = simple_container ~name:"cb" engine "mov r0, 2\nexit" ~contract:(Contract.require []) in
  (match Engine.attach engine ~hook_uuid:"a" ca with
  | Ok _ -> () | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  (match Engine.attach engine ~hook_uuid:"b" cb with
  | Ok _ -> () | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  ignore (Engine.trigger engine hook_a ());
  ignore (Engine.trigger engine hook_a ());
  ignore (Engine.trigger engine hook_b ());
  Alcotest.(check int) "ca ran twice" 2 (Container.executions ca);
  Alcotest.(check int) "cb ran once" 1 (Container.executions cb);
  Alcotest.(check int) "hook a count" 2 (Hook.triggers hook_a);
  Alcotest.(check int) "hook b count" 1 (Hook.triggers hook_b)

let test_certfc_ram_slightly_larger () =
  (* Table 3's CertFC row: the pure engine retains its machine state, so
     per-instance RAM is a little higher than the optimized engine's.
     The comparison is between interpreters, so load on the decoded tier
     — the IR tier trades RAM (block table) for dispatch speed. *)
  let helpers = Femto_vm.Helper.create () in
  let program = assemble "mov r0, 0\nexit" in
  let fc =
    match Femto_vm.Vm.load ~helpers ~regions:[] program with
    | Ok vm -> Femto_vm.Vm.ram_bytes vm
    | Error _ -> Alcotest.fail "fc load"
  in
  let cert =
    match Femto_certfc.Certfc.load ~helpers ~regions:[] program with
    | Ok vm -> Femto_certfc.Interp.ram_bytes vm
    | Error _ -> Alcotest.fail "cert load"
  in
  Alcotest.(check bool) "certfc > fc" true (cert > fc);
  Alcotest.(check bool) "within ~200 B" true (cert - fc < 200);
  (* both dominated by the 512 B stack *)
  Alcotest.(check bool) "fc >= stack" true (fc >= 512)

let test_trace_helper () =
  let engine = make_engine () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"dbg" ~ctx_size:8 () in
  let container =
    simple_container engine "mov r1, 77\ncall bpf_trace\nexit"
      ~contract:(Contract.require [ Contract.Debug ])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  ignore (Engine.trigger engine hook ());
  Alcotest.(check (list int64)) "trace log" [ 77L ] (Engine.trace_log engine)

let test_trigger_charges_kernel_clock () =
  let kernel = Kernel.create () in
  let engine = make_engine ~kernel () in
  let hook = Engine.register_hook engine ~uuid:"h" ~name:"cost" ~ctx_size:8 () in
  let container =
    simple_container engine "mov r0, 0\nexit" ~contract:(Contract.require [])
  in
  (match Engine.attach engine ~hook_uuid:"h" container with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e));
  let before = Kernel.now kernel in
  ignore (Engine.trigger engine hook ());
  let spent = Int64.sub (Kernel.now kernel) before in
  (* empty-hook dispatch + engine setup + two instructions *)
  Alcotest.(check bool) "cycles > hook dispatch" true
    (Int64.compare spent (Int64.of_int (Engine.platform engine).Platform.empty_hook_cycles) > 0)

let suite =
  [
    Alcotest.test_case "kvstore default zero" `Quick test_kvstore_fetch_default_zero;
    Alcotest.test_case "kvstore roundtrip" `Quick test_kvstore_store_fetch;
    Alcotest.test_case "kvstore bounded" `Quick test_kvstore_bounded;
    QCheck_alcotest.to_alcotest prop_kv_direct_model;
    QCheck_alcotest.to_alcotest prop_kv_cow_model;
    Alcotest.test_case "contract intersection" `Quick test_contract_grant_is_intersection;
    Alcotest.test_case "attach and trigger" `Quick test_attach_and_trigger;
    Alcotest.test_case "attach preserves order" `Quick
      test_attach_preserves_order;
    Alcotest.test_case "attach rejects bad program" `Quick test_attach_rejects_bad_program;
    Alcotest.test_case "attach unknown hook" `Quick test_attach_unknown_hook;
    Alcotest.test_case "double attach rejected" `Quick test_double_attach_rejected;
    Alcotest.test_case "context passed" `Quick test_context_passed_to_container;
    Alcotest.test_case "read-only context" `Quick test_readonly_context_protected;
    Alcotest.test_case "fault isolation" `Quick test_fault_isolation_between_containers;
    Alcotest.test_case "capability gating" `Quick test_capability_gating;
    Alcotest.test_case "kv helpers roundtrip" `Quick test_kv_helpers_roundtrip;
    Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
    Alcotest.test_case "hot update" `Quick test_hot_update;
    Alcotest.test_case "detach" `Quick test_detach;
    Alcotest.test_case "certfc runtime" `Quick test_certfc_runtime_variant;
    Alcotest.test_case "thread counter app" `Quick test_thread_counter_app;
    Alcotest.test_case "sensor process app" `Quick test_sensor_process_app;
    Alcotest.test_case "fletcher in container" `Quick test_fletcher_in_container_matches_native;
    Alcotest.test_case "stats app" `Quick test_stats_app_matches_native;
    QCheck_alcotest.to_alcotest prop_stats_app_equivalence;
    Alcotest.test_case "per-tenant hook policies" `Quick test_per_tenant_hook_policies;
    Alcotest.test_case "multiple hooks" `Quick test_multiple_hooks_independent;
    Alcotest.test_case "certfc ram accounting" `Quick test_certfc_ram_slightly_larger;
    Alcotest.test_case "trace helper" `Quick test_trace_helper;
    Alcotest.test_case "trigger charges clock" `Quick test_trigger_charges_kernel_clock;
    QCheck_alcotest.to_alcotest prop_fletcher_equivalence;
  ]

let () = Alcotest.run "femto_core" [ ("core", suite) ]
