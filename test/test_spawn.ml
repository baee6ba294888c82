(* Tests for the container image / instance split: the engine's spawn
   path (content-addressed image cache), copy-on-write local stores,
   per-instance inline-cache isolation, and the footprint gauges.

   The load-bearing properties:
   - a second spawn of the same (program, runtime, capabilities) does
     NO verification, analysis or compilation — asserted via the
     analysis.* counters and the vm.compile_ns histogram;
   - a spawned instance is observably identical to a fresh full attach
     (result, faults, stats, final kv contents) — QCheck-pinned;
   - a CoW kv view is observably an eager copy of its parent —
     QCheck-pinned against a direct-copy oracle. *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Hook = Femto_core.Hook
module Contract = Femto_core.Contract
module Kvstore = Femto_core.Kvstore
module Image = Femto_core.Image
module Syscall = Femto_core.Syscall
module Obs = Femto_obs.Obs
module Metrics = Femto_obs.Metrics
module Fault = Femto_vm.Fault
module Interp = Femto_vm.Interp
module Vm = Femto_vm.Vm
module Insn = Femto_ebpf.Insn
module Opcode = Femto_ebpf.Opcode
module Program = Femto_ebpf.Program

let assemble source =
  Femto_ebpf.Asm.assemble ~helpers:Syscall.resolve_name source

let make_engine ?config () = Engine.create ?config ()

let container ?(name = "c") ?(tenant_id = "acme") ?runtime engine program
    ~contract =
  let tenant = Engine.add_tenant engine tenant_id in
  Container.create ~name ~tenant ~contract ?runtime program

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Engine.attach_error_to_string e)

(* --- kvstore: CoW semantics --- *)

let test_cow_reads_fall_through () =
  let parent = Kvstore.create "base" in
  ignore (Kvstore.store parent 1l 10L);
  ignore (Kvstore.store parent 2l 20L);
  let view = Kvstore.cow ~parent "view" in
  Alcotest.(check int64) "inherited" 10L (Kvstore.fetch view 1l);
  Alcotest.(check int) "logical length" 2 (Kvstore.length view);
  Alcotest.(check int) "no delta yet" 0 (Kvstore.delta_size view);
  ignore (Kvstore.store view 1l 11L);
  Alcotest.(check int64) "shadowed" 11L (Kvstore.fetch view 1l);
  Alcotest.(check int64) "parent untouched" 10L (Kvstore.fetch parent 1l);
  Alcotest.(check int) "one delta entry" 1 (Kvstore.delta_size view)

let test_cow_overwrite_at_capacity () =
  (* Logical capacity counts the view's contents, so overwriting an
     inherited key succeeds at capacity while inserting fails — exactly
     what an eager copy would do. *)
  let parent = Kvstore.create ~max_entries:2 "base" in
  ignore (Kvstore.store parent 1l 10L);
  ignore (Kvstore.store parent 2l 20L);
  let view = Kvstore.cow ~parent "view" in
  (match Kvstore.store view 1l 99L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "overwrite of inherited key rejected at capacity");
  (match Kvstore.store view 3l 30L with
  | Error (`Store_full "view") -> ()
  | Ok () -> Alcotest.fail "insert at capacity accepted"
  | Error (`Store_full n) -> Alcotest.fail ("wrong store reported: " ^ n));
  (* deleting then inserting frees logical room *)
  Kvstore.remove view 2l;
  match Kvstore.store view 3l 30L with
  | Ok () -> Alcotest.(check int64) "inserted" 30L (Kvstore.fetch view 3l)
  | Error _ -> Alcotest.fail "insert after remove rejected"

let test_cow_delta_quota () =
  let parent = Kvstore.create "base" in
  ignore (Kvstore.store parent 1l 10L);
  let view = Kvstore.cow ~delta_quota:1 ~parent "view" in
  (match Kvstore.store view 5l 50L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first delta write rejected");
  (match Kvstore.store view 6l 60L with
  | Error (`Store_full _) -> ()
  | Ok () -> Alcotest.fail "delta quota not enforced");
  (* rewriting the already-materialized key stays fine *)
  (match Kvstore.store view 5l 51L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rewrite of delta key rejected");
  (* deletion is infallible even at quota *)
  Kvstore.remove view 1l;
  Alcotest.(check int64) "tombstoned" 0L (Kvstore.fetch view 1l)

let test_cow_clear_hides_parent () =
  let parent = Kvstore.create "base" in
  ignore (Kvstore.store parent 1l 10L);
  let view = Kvstore.cow ~parent "view" in
  Kvstore.clear view;
  Alcotest.(check int64) "cleared" 0L (Kvstore.fetch view 1l);
  Alcotest.(check int) "empty" 0 (Kvstore.length view);
  Alcotest.(check int64) "parent intact" 10L (Kvstore.fetch parent 1l);
  ignore (Kvstore.store view 2l 2L);
  Alcotest.(check (list (pair int32 int64)))
    "only own writes" [ (2l, 2L) ] (Kvstore.bindings view)

(* QCheck: a CoW view over a frozen parent is observably identical to an
   eager copy of the parent (same results for every op, same final
   bindings), whatever the op interleaving. *)
let prop_cow_equals_eager_copy =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (5, map2 (fun k v -> `Store (Int32.of_int k, Int64.of_int v))
                (int_range 0 9) (int_range 0 1000));
          (2, map (fun k -> `Remove (Int32.of_int k)) (int_range 0 9));
          (3, map (fun k -> `Fetch (Int32.of_int k)) (int_range 0 9));
          (1, return `Clear);
        ])
  in
  let gen =
    Gen.(
      pair
        (list_size (int_range 0 4)
           (pair (int_range 0 9) (int_range 0 1000)))
        (list_size (int_range 0 40) op))
  in
  Test.make ~name:"CoW view = eager copy (op-for-op)" ~count:500 (make gen)
    (fun (seed, ops) ->
      let parent = Kvstore.create ~max_entries:6 "base" in
      List.iter
        (fun (k, v) ->
          ignore (Kvstore.store parent (Int32.of_int k) (Int64.of_int v)))
        seed;
      let view = Kvstore.cow ~parent "view" in
      let oracle = Kvstore.create ~max_entries:6 "oracle" in
      List.iter (fun (k, v) -> ignore (Kvstore.store oracle k v))
        (Kvstore.bindings parent);
      List.for_all
        (fun op ->
          match op with
          | `Store (k, v) -> (
              match (Kvstore.store view k v, Kvstore.store oracle k v) with
              | Ok (), Ok () -> true
              | Error _, Error _ -> true
              | _ -> false)
          | `Remove k ->
              Kvstore.remove view k;
              Kvstore.remove oracle k;
              true
          | `Fetch k -> Kvstore.fetch view k = Kvstore.fetch oracle k
          | `Clear ->
              Kvstore.clear view;
              Kvstore.clear oracle;
              true)
        ops
      && Kvstore.bindings view = Kvstore.bindings oracle
      && Kvstore.length view = Kvstore.length oracle)

(* --- engine: image cache --- *)

let kv_increment_source =
  (* local[7] <- local[7] + 1; r0 = new value *)
  {|
    mov r1, 7
    mov r2, r10
    sub r2, 8
    call bpf_fetch_local
    ldxdw r3, [r10-8]
    add r3, 1
    mov r1, 7
    mov r2, r3
    stxdw [r10-16], r3
    call bpf_store_local
    ldxdw r0, [r10-16]
    exit
  |}

let test_second_spawn_does_no_work () =
  Obs.reset ();
  Obs.set_enabled true;
  let engine = make_engine () in
  let _hook =
    Engine.register_hook engine ~uuid:"h" ~name:"spawn" ~ctx_size:16 ()
  in
  let program = assemble kv_increment_source in
  let contract = Contract.require [ Contract.Kv_local ] in
  let c1 = container ~name:"c1" engine program ~contract in
  let c2 = container ~name:"c2" engine program ~contract in
  let accepted = Obs.counter "analysis.accepted" in
  let compile_ns = Obs.histogram "vm.compile_ns" in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c1));
  let analyses = Metrics.value accepted in
  let compiles = Metrics.count compile_ns in
  Alcotest.(check bool) "first spawn analyzed" true (analyses > 0);
  Alcotest.(check bool) "first spawn compiled" true (compiles > 0);
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c2));
  (* the whole point: a cache hit re-runs NOTHING expensive *)
  Alcotest.(check int) "no second analysis" analyses (Metrics.value accepted);
  Alcotest.(check int) "no second compile" compiles (Metrics.count compile_ns);
  Alcotest.(check int) "one image" 1 (Engine.images_cached engine);
  Alcotest.(check int) "hits" 1 (Metrics.value (Obs.counter "engine.image_hits"));
  Alcotest.(check int) "misses" 1
    (Metrics.value (Obs.counter "engine.image_misses"));
  Alcotest.(check int) "spawns" 2
    (Metrics.value (Obs.counter "engine.spawns"));
  Alcotest.(check int) "image records both" 2 (Engine.image_spawns engine);
  Obs.reset ();
  Obs.set_enabled false

let test_different_caps_different_image () =
  (* the helper table is part of the artifact: same program with a
     different granted capability set must NOT share an image *)
  let engine = make_engine () in
  let _h = Engine.register_hook engine ~uuid:"h" ~name:"caps" ~ctx_size:8 () in
  let program = assemble "mov r0, 1\nexit" in
  let c1 = container ~name:"c1" engine program ~contract:(Contract.require []) in
  let c2 =
    container ~name:"c2" engine program
      ~contract:(Contract.require [ Contract.Kv_local ])
  in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c1));
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c2));
  Alcotest.(check int) "two images" 2 (Engine.images_cached engine)

let test_spawned_instances_isolated_kv () =
  (* Two instances of one image accumulate privately: interleaved runs
     (one hook trigger runs both, in order) must not leak writes through
     the shared image's helper table. *)
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"h" ~name:"iso" ~ctx_size:16 ()
  in
  let program = assemble kv_increment_source in
  let contract = Contract.require [ Contract.Kv_local ] in
  let c1 = container ~name:"c1" engine program ~contract in
  let c2 = container ~name:"c2" engine program ~contract in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c1));
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c2));
  for _ = 1 to 3 do
    ignore (Engine.trigger engine hook ())
  done;
  Alcotest.(check int64) "c1 count" 3L
    (Kvstore.fetch (Container.local_store c1) 7l);
  Alcotest.(check int64) "c2 count" 3L
    (Kvstore.fetch (Container.local_store c2) 7l);
  (* two extra runs for c1 only, via the warm fire path on its own hook *)
  Engine.detach engine c2;
  let _ = Engine.fire engine hook in
  let _ = Engine.fire engine hook in
  Alcotest.(check int64) "c1 advanced" 5L
    (Kvstore.fetch (Container.local_store c1) 7l);
  Alcotest.(check int64) "c2 frozen" 3L
    (Kvstore.fetch (Container.local_store c2) 7l);
  (* the image's frozen baseline never saw any write *)
  match Engine.find_image engine (Kvstore.name (Container.local_store c1)) with
  | Some _ -> Alcotest.fail "kv name is not an image key"
  | None ->
      List.iter
        (fun img ->
          Alcotest.(check int) "baseline untouched" 0
            (Kvstore.length (Image.baseline img)))
        (Engine.cached_images engine)

let tenant_increment_source =
  {|
    mov r1, 5
    mov r2, r10
    sub r2, 8
    call bpf_fetch_tenant
    ldxdw r3, [r10-8]
    add r3, 1
    mov r1, 5
    mov r2, r3
    call bpf_store_tenant
    mov r0, r3
    exit
  |}

let test_tenant_isolation_across_spawned_instances () =
  (* One shared image, instances in two tenants, interleaved on one
     hook: each run's helpers reach its own container's tenant through
     the instance's host binding, so writes land in the running
     instance's tenant — never the neighbour's. *)
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"h" ~name:"tenants" ~ctx_size:16 ()
  in
  let program = assemble tenant_increment_source in
  let contract = Contract.require [ Contract.Kv_tenant ] in
  let a = container ~name:"a" ~tenant_id:"alpha" engine program ~contract in
  let b = container ~name:"b" ~tenant_id:"beta" engine program ~contract in
  let a2 = container ~name:"a2" ~tenant_id:"alpha" engine program ~contract in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" a));
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" b));
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" a2));
  Alcotest.(check int) "one shared image" 1 (Engine.images_cached engine);
  for _ = 1 to 4 do
    ignore (Engine.trigger engine hook ())
  done;
  let tenant_count id =
    Kvstore.fetch
      (Femto_core.Tenant.store (Engine.add_tenant engine id))
      5l
  in
  (* alpha has two instances incrementing its store, beta one *)
  Alcotest.(check int64) "alpha" 8L (tenant_count "alpha");
  Alcotest.(check int64) "beta" 4L (tenant_count "beta")

let test_spawn_delta_quota_enforced () =
  (* with a zero delta quota the instance cannot materialize any private
     kv entry: the store helper fails and the run faults *)
  let engine = make_engine () in
  let hook =
    Engine.register_hook engine ~uuid:"h" ~name:"quota" ~ctx_size:16 ()
  in
  let program =
    assemble "mov r1, 1\nmov r2, 2\ncall bpf_store_local\nmov r0, 0\nexit"
  in
  let contract = Contract.require [ Contract.Kv_local ] in
  let c = container engine program ~contract in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" ~delta_quota:0 c));
  match Engine.trigger engine hook () with
  | [ { Engine.result = Error (Fault.Helper_error _); _ } ] -> ()
  | [ { Engine.result = Ok _; _ } ] ->
      Alcotest.fail "write accepted despite zero delta quota"
  | _ -> Alcotest.fail "expected one faulting report"

(* --- per-instance inline caches (the shared-cache regression) --- *)

let test_region_caches_are_per_instance () =
  (* Two hooks, two ctx regions at the same virtual address with
     different bytes; the second spawn shares the compiled artifact.
     If the IR tier's region inline caches lived in the shared code
     (one slot per site, filled at first run), instance 2 would read
     instance 1's region — same vaddr, so the cache guard alone cannot
     tell them apart.  Private per-instance slots must keep the reads
     apart. *)
  let engine = make_engine () in
  let h1 = Engine.register_hook engine ~uuid:"h1" ~name:"r1" ~ctx_size:8 () in
  let h2 = Engine.register_hook engine ~uuid:"h2" ~name:"r2" ~ctx_size:8 () in
  let program = assemble "ldxdw r0, [r1+0]\nexit" in
  let contract = Contract.require [] in
  let c1 = container ~name:"c1" engine program ~contract in
  let c2 = container ~name:"c2" engine program ~contract in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h1" c1));
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h2" c2));
  Alcotest.(check int) "shared image" 1 (Engine.images_cached engine);
  let ctx v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    b
  in
  (* warm c1's caches first, then run c2 against different backing bytes *)
  (match Engine.trigger engine h1 ~ctx:(ctx 0x1111L) () with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "c1" 0x1111L v
  | _ -> Alcotest.fail "c1 failed");
  (match Engine.trigger engine h2 ~ctx:(ctx 0x2222L) () with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "c2" 0x2222L v
  | _ -> Alcotest.fail "c2 failed");
  (* and back: c1 must still see its own region *)
  match Engine.trigger engine h1 ~ctx:(ctx 0x3333L) () with
  | [ { Engine.result = Ok v; _ } ] -> Alcotest.(check int64) "c1 again" 0x3333L v
  | _ -> Alcotest.fail "c1 rerun failed"

(* --- footprint gauges --- *)

(* [engine.instance_words] bills what the containers own, not the engine
   they run on (its kernel, sensors, stores and hooks): the first spawn
   costs about what each further spawn adds. *)
let test_instance_words_per_spawn () =
  let kernel = Femto_rtos.Kernel.create () in
  let engine = Engine.create ~kernel () in
  Engine.register_sensor engine ~id:1 (fun () -> Ok 0L);
  let _h = Engine.register_hook engine ~uuid:"h" ~name:"g" ~ctx_size:8 () in
  let program = assemble kv_increment_source in
  let contract = Contract.require [ Contract.Kv_local ] in
  let spawn i =
    let c = container ~name:(Printf.sprintf "c%d" i) engine program ~contract in
    ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c))
  in
  spawn 0;
  let _, one = Engine.update_footprint_gauges engine in
  let n = 64 in
  for i = 1 to n do
    spawn i
  done;
  let _, all = Engine.update_footprint_gauges engine in
  let per_spawn = (all - one) / n in
  Printf.printf "instance words: first spawn %d, each further spawn %d\n" one
    per_spawn;
  Alcotest.(check bool)
    (Printf.sprintf "first spawn %d words <= 1.5 x %d" one per_spawn)
    true
    (2 * one <= 3 * per_spawn)


let test_footprint_gauges () =
  Obs.reset ();
  Obs.set_enabled true;
  let engine = make_engine () in
  let _h = Engine.register_hook engine ~uuid:"h" ~name:"g" ~ctx_size:8 () in
  let program = assemble kv_increment_source in
  let contract = Contract.require [ Contract.Kv_local ] in
  for i = 1 to 8 do
    let c = container ~name:(Printf.sprintf "c%d" i) engine program ~contract in
    ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c))
  done;
  let image_words, instance_words = Engine.update_footprint_gauges engine in
  Alcotest.(check bool) "image words positive" true (image_words > 0);
  Alcotest.(check bool) "instance words positive" true (instance_words > 0);
  Alcotest.(check (float 0.0)) "vm.image_words gauge"
    (float_of_int image_words)
    (Metrics.gauge_value (Obs.gauge "vm.image_words"));
  Alcotest.(check (float 0.0)) "engine.instance_words gauge"
    (float_of_int instance_words)
    (Metrics.gauge_value (Obs.gauge "engine.instance_words"));
  (* a 4 KiB straight-line update program (4 register initialisations,
     505 ALU fillers, lddw, exit): its image keeps no per-pc analysis
     arrays; with the analyzer's outcome attached it was 1 866 words *)
  let engine = make_engine () in
  let _h = Engine.register_hook engine ~uuid:"h" ~name:"g" ~ctx_size:8 () in
  let b = Buffer.create 8192 in
  for r = 2 to 5 do
    Printf.bprintf b "mov r%d, %d\n" r (r * 101)
  done;
  for i = 0 to 504 do
    Printf.bprintf b "%s r%d, %d\n"
      (if i land 1 = 0 then "add" else "xor")
      (2 + (i land 3))
      (i * 37 mod 1000)
  done;
  Buffer.add_string b "lddw r0, 0x12345678\nexit\n";
  let program = assemble (Buffer.contents b) in
  Alcotest.(check int) "512 slots" 512 (Program.length program);
  ignore
    (ok_or_fail
       (Engine.spawn engine ~hook_uuid:"h"
          (container engine program ~contract:(Contract.require []))));
  let image_words, _ = Engine.update_footprint_gauges engine in
  Alcotest.(check bool)
    (Printf.sprintf "512-slot image words %d < 1 866" image_words)
    true (image_words < 1_866);
  Obs.reset ();
  Obs.set_enabled false

(* --- QCheck: spawn = fresh full attach --- *)

(* Random verification-friendly programs (ALU, stack, control flow,
   divisions and backward jumps for fault coverage) plus a randomized
   kv-op suffix, so the equivalence also covers helper effects on the
   CoW store. *)
let gen_program_with_kv =
  let open QCheck.Gen in
  let reg = int_range 0 5 in
  let alu_imm =
    map3
      (fun op dst imm ->
        Insn.make (Opcode.alu64 op Opcode.Src_imm) ~dst ~imm:(Int32.of_int imm))
      (oneofl Opcode.[ Add; Sub; Mul; Div; Mod; Or; And; Xor; Mov; Lsh; Rsh ])
      reg (int_range (-3) 1000)
  in
  let alu_reg =
    map3
      (fun op dst src -> Insn.make (Opcode.alu64 op Opcode.Src_reg) ~dst ~src)
      (oneofl Opcode.[ Add; Sub; Mul; Div; Or; And; Xor; Mov ])
      reg reg
  in
  let stack_store =
    map2
      (fun src slot ->
        Insn.make (Opcode.stx Opcode.DW) ~dst:10 ~src ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let stack_load =
    map2
      (fun dst slot ->
        Insn.make (Opcode.ldx Opcode.DW) ~dst ~src:10 ~offset:(-8 * (slot + 1)))
      reg (int_range 0 7)
  in
  let forward_jump =
    map3
      (fun cond dst off ->
        Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:5l)
      (oneofl Opcode.[ Jeq; Jne; Jgt; Jlt; Jsge ])
      reg (int_range 0 3)
  in
  let backward_jump =
    map3
      (fun cond dst off ->
        Insn.make (Opcode.jmp cond Opcode.Src_imm) ~dst ~offset:off ~imm:3l)
      (oneofl Opcode.[ Jne; Jgt; Jlt ])
      reg (int_range (-4) (-1))
  in
  let body =
    list_size (int_range 2 30)
      (frequency
         [
           (5, alu_imm); (4, alu_reg); (3, stack_store); (3, stack_load);
           (2, forward_jump); (1, backward_jump);
         ])
  in
  let kv_op =
    map2
      (fun key value ->
        [
          Insn.make (Opcode.alu64 Opcode.Mov Opcode.Src_imm) ~dst:1
            ~imm:(Int32.of_int key);
          Insn.make (Opcode.alu64 Opcode.Mov Opcode.Src_imm) ~dst:2
            ~imm:(Int32.of_int value);
          Insn.make Opcode.call ~imm:(Int32.of_int Syscall.id_store_local);
        ])
      (int_range 0 5) (int_range 0 100)
  in
  let kv_suffix = map List.concat (list_size (int_range 0 4) kv_op) in
  map2
    (fun insns suffix ->
      Program.of_insns (insns @ suffix @ [ Insn.make Opcode.exit' ]))
    body kv_suffix

let exact_outcome result c =
  let r =
    match result with
    | Ok v -> Printf.sprintf "ok:%Ld" v
    | Error f -> "fault:" ^ Fault.to_string f
  in
  let stats =
    match Container.instance c with
    | Some (Container.Fc_instance vm) ->
        let s = Vm.stats vm in
        Printf.sprintf "insns=%d branches=%d helpers=%d cycles=%d"
          s.Interp.insns_executed s.Interp.branches_taken s.Interp.helper_calls
          s.Interp.cycles
    | _ -> "no-fc-instance"
  in
  let kv =
    Container.local_store c |> Kvstore.bindings
    |> List.map (fun (k, v) -> Printf.sprintf "%ld=%Ld" k v)
    |> String.concat ","
  in
  Printf.sprintf "%s %s kv[%s]" r stats kv

(* tight budgets so generated loops fault fast on every path *)
let qcheck_config =
  { Femto_vm.Config.default with Femto_vm.Config.max_branches = 256 }

let prop_spawn_equals_attach =
  QCheck.Test.make ~name:"cached spawn = fresh full attach (exact)" ~count:150
    (QCheck.make gen_program_with_kv) (fun program ->
      let contract = Contract.require [ Contract.Kv_local ] in
      let run_via kind =
        let engine = make_engine ~config:qcheck_config () in
        let hook =
          Engine.register_hook engine ~uuid:"h" ~name:"q" ~ctx_size:16 ()
        in
        let attach_one name =
          let c = container ~name engine program ~contract in
          let r =
            match kind with
            | `Attach -> Engine.attach engine ~hook_uuid:"h" c
            | `Spawn -> Engine.spawn engine ~hook_uuid:"h" c
          in
          (c, r)
        in
        (* for the spawn side, a warm-up instance populates the cache so
           the instance under test comes from a HIT; rejected programs
           must be rejected identically on both paths *)
        match kind with
        | `Attach -> (
            match attach_one "probe" with
            | _, Error e -> "rejected:" ^ Engine.attach_error_to_string e
            | probe, Ok _ -> (
                match Engine.trigger engine hook () with
                | [ { Engine.result; _ } ] -> exact_outcome result probe
                | _ -> "bad-report"))
        | `Spawn -> (
            match attach_one "warm" with
            | _, Error e -> "rejected:" ^ Engine.attach_error_to_string e
            | warm, Ok _ -> (
                Engine.detach engine warm;
                match attach_one "probe" with
                | _, Error e ->
                    "hit-rejected:" ^ Engine.attach_error_to_string e
                | probe, Ok _ -> (
                    match Engine.trigger engine hook () with
                    | [ { Engine.result; _ } ] -> exact_outcome result probe
                    | _ -> "bad-report")))
      in
      String.equal (run_via `Attach) (run_via `Spawn))

(* --- QCheck: many instances of one image, interleaved --- *)

(* Bumps a counter in each scope and returns the local one. *)
let kv_counters_source =
  {|
    mov r1, 7
    mov r2, r10
    sub r2, 8
    call bpf_fetch_local
    ldxdw r6, [r10-8]
    add r6, 1
    mov r1, 7
    mov r2, r6
    call bpf_store_local
    mov r1, 5
    mov r2, r10
    sub r2, 16
    call bpf_fetch_tenant
    ldxdw r7, [r10-16]
    add r7, 1
    mov r1, 5
    mov r2, r7
    call bpf_store_tenant
    mov r1, 3
    mov r2, r10
    sub r2, 24
    call bpf_fetch_global
    ldxdw r8, [r10-24]
    add r8, r6
    mov r1, 3
    mov r2, r8
    call bpf_store_global
    mov r0, r6
    exit
  |}

(* n containers of one program, each on its own hook and spread over two
   tenants, fired in [schedule] order: every run must bind the helpers
   to its own container's stores, whether the containers were attached
   (a helper table each) or spawned (one image, one table). *)
let prop_interleaved_spawn_equals_attach =
  QCheck.Test.make ~name:"interleaved instances of one image = attach (kv)"
    ~count:100
    QCheck.(
      pair (int_range 2 8) (list_of_size Gen.(int_range 0 60) (int_range 0 7)))
    (fun (n, schedule) ->
      let program = assemble kv_counters_source in
      let contract =
        Contract.require
          [ Contract.Kv_local; Contract.Kv_tenant; Contract.Kv_global ]
      in
      let run_via kind =
        let engine = make_engine () in
        let hooks =
          Array.init n (fun i ->
              Engine.register_hook engine ~uuid:(Printf.sprintf "h%d" i)
                ~name:"q" ~ctx_size:8 ())
        in
        let containers =
          Array.init n (fun i ->
              let c =
                container ~name:(Printf.sprintf "c%d" i)
                  ~tenant_id:(if i land 1 = 0 then "even" else "odd")
                  engine program ~contract
              in
              let hook_uuid = Printf.sprintf "h%d" i in
              ignore
                (ok_or_fail
                   (match kind with
                   | `Attach -> Engine.attach engine ~hook_uuid c
                   | `Spawn -> Engine.spawn engine ~hook_uuid c));
              c)
        in
        let results =
          List.map
            (fun i ->
              let i = i mod n in
              match Engine.trigger engine hooks.(i) () with
              | [ { Engine.result = Ok v; _ } ] -> Int64.to_string v
              | _ -> "fault")
            schedule
        in
        let kv store =
          Kvstore.bindings store
          |> List.map (fun (k, v) -> Printf.sprintf "%ld=%Ld" k v)
          |> String.concat ","
        in
        String.concat " "
          (results
          @ Array.to_list
              (Array.map (fun c -> kv (Container.local_store c)) containers)
          @ List.map
              (fun t -> kv (Femto_core.Tenant.store t))
              (Engine.tenants engine)
          @ [ kv (Engine.global_store engine) ])
      in
      String.equal (run_via `Attach) (run_via `Spawn))

(* --- image keys across domains --- *)

let test_equal_programs_share_key_across_domains () =
  (* each domain decodes its own copy of one program, as fleet shards
     do; the per-domain digest cache must still give every copy the
     same key, and a shared image table one image *)
  let source = Program.to_string (assemble kv_increment_source) in
  let contract = Contract.require [ Contract.Kv_local ] in
  let images = Hashtbl.create 4 in
  let spawn_copy name =
    let program = Program.of_string (Bytes.to_string (Bytes.of_string source)) in
    let engine = Engine.create ~images () in
    let _hook = Engine.register_hook engine ~uuid:"h" ~name:"k" ~ctx_size:8 () in
    let c = container ~name engine program ~contract in
    ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"h" c));
    Image.key_of ~runtime:Femto_platform.Platform.Fc
      ~granted:[ Contract.Kv_local ] program
  in
  let on_domain name = Domain.join (Domain.spawn (fun () -> spawn_copy name)) in
  let k0 = spawn_copy "main" in
  let k1 = on_domain "d1" in
  let k2 = on_domain "d2" in
  Alcotest.(check string) "domain 1 key" k0 k1;
  Alcotest.(check string) "domain 2 key" k0 k2;
  Alcotest.(check int) "one image" 1 (Hashtbl.length images);
  Alcotest.(check string) "key is the content digest"
    (Femto_crypto.Crypto.to_hex (Femto_crypto.Crypto.sha256 source))
    (List.hd (String.split_on_char ':' k0));
  (* two domains keying their own copies at once agree too *)
  let keys () =
    let program = Program.of_string (Bytes.to_string (Bytes.of_string source)) in
    List.init 200 (fun _ ->
        Image.key_of ~runtime:Femto_platform.Platform.Fc ~granted:[] program)
  in
  let a = Domain.spawn keys and b = Domain.spawn keys in
  let ka = Domain.join a and kb = Domain.join b in
  Alcotest.(check bool) "concurrent keys agree" true
    (List.for_all (String.equal (List.hd ka)) (ka @ kb))


(* --- the private blocks of one spawned fleet device --- *)

(* A block set by physical identity: [Hashtbl.hash] only picks the
   bucket, so blocks with equal contents stay distinct. *)
module Blocks = Hashtbl.Make (struct
  type t = Obj.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Add to [seen] every heap block reachable from [root] that is neither
   in [seen] nor in [stop], without descending into [stop] blocks.  A
   closure's fields before its environment are code pointers. *)
let walk ~stop ~seen root =
  let todo = Stack.create () in
  Stack.push (Obj.repr root) todo;
  while not (Stack.is_empty todo) do
    let v = Stack.pop todo in
    if Obj.is_block v && (not (Blocks.mem seen v)) && not (Blocks.mem stop v)
    then begin
      Blocks.replace seen v ();
      let tag = Obj.tag v in
      let first =
        if tag = Obj.closure_tag then
          (Obj.obj (Obj.field v 1) : int) land ((1 lsl 55) - 1)
        else if tag < Obj.no_scan_tag && tag <> Obj.infix_tag then 0
        else Obj.size v
      in
      for i = first to Obj.size v - 1 do
        Stack.push (Obj.field v i) todo
      done
    end
  done

(* The fleet's v1 firmware: bump the telemetry counter at local[1]. *)
let fleet_v1_source =
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

let fleet_contract = Contract.require [ Contract.Kv_local ]

(* One device as a fleet shard boots it: its own engine over its own
   clock and the shard's image table, one hook, one tenant, the
   firmware spawned, and one telemetry fire. *)
let boot_fleet_device ~images ~program id =
  let clock = Femto_rtos.Clock.create () in
  let engine = Engine.create ~clock ~images () in
  let hook =
    Engine.register_hook engine ~uuid:"fleet-app" ~name:"fleet" ~ctx_size:8 ()
  in
  let tenant = Engine.add_tenant engine "t" in
  let c =
    Container.create ~name:(Printf.sprintf "d%d" id) ~tenant
      ~contract:fleet_contract program
  in
  ignore (ok_or_fail (Engine.spawn engine ~hook_uuid:"fleet-app" c));
  Alcotest.(check int) "fire ok" 0 (Engine.fire engine hook);
  (engine, hook, c)

let test_device_private_blocks () =
  let images = Hashtbl.create 4 in
  let program = assemble fleet_v1_source in
  (* the first device builds the image; the next two are cache hits *)
  let _ = boot_fleet_device ~images ~program 0 in
  let e1, h1, c1 = boot_fleet_device ~images ~program 1 in
  let e2, h2, c2 = boot_fleet_device ~images ~program 2 in
  let shared = Blocks.create 4096 and none = Blocks.create 1 in
  walk ~stop:none ~seen:shared e2;
  walk ~stop:none ~seen:shared h2;
  walk ~stop:none ~seen:shared c2;
  let own = Blocks.create 64 in
  walk ~stop:shared ~seen:own e1;
  walk ~stop:shared ~seen:own h1;
  walk ~stop:shared ~seen:own c1;
  let blocks = Blocks.length own in
  let words = Blocks.fold (fun v () acc -> acc + Obj.size v + 1) own 0 in
  Printf.printf "private blocks per spawned device: %d (%d words)\n" blocks
    words;
  (* engine and its facilities, clock, global and tenant stores,
     tenant, hook with its context region and slots, container, its CoW
     store and buffer, the VM instance record and allow-list, the host
     binding, list cells and names: 22 *)
  Alcotest.(check bool)
    (Printf.sprintf "%d private blocks <= 22" blocks)
    true (blocks <= 22)

let () =
  Alcotest.run "spawn"
    [
      ( "cow-kvstore",
        [
          Alcotest.test_case "reads fall through" `Quick
            test_cow_reads_fall_through;
          Alcotest.test_case "overwrite at capacity" `Quick
            test_cow_overwrite_at_capacity;
          Alcotest.test_case "delta quota" `Quick test_cow_delta_quota;
          Alcotest.test_case "clear hides parent" `Quick
            test_cow_clear_hides_parent;
          QCheck_alcotest.to_alcotest prop_cow_equals_eager_copy;
        ] );
      ( "image-cache",
        [
          Alcotest.test_case "second spawn does no work" `Quick
            test_second_spawn_does_no_work;
          Alcotest.test_case "capability set keys the image" `Quick
            test_different_caps_different_image;
          Alcotest.test_case "instances isolated (local kv)" `Quick
            test_spawned_instances_isolated_kv;
          Alcotest.test_case "tenant isolation across instances" `Quick
            test_tenant_isolation_across_spawned_instances;
          Alcotest.test_case "delta quota enforced in helpers" `Quick
            test_spawn_delta_quota_enforced;
          Alcotest.test_case "region caches are per-instance" `Quick
            test_region_caches_are_per_instance;
          Alcotest.test_case "footprint gauges" `Quick test_footprint_gauges;
          Alcotest.test_case "instance words per spawn" `Quick
            test_instance_words_per_spawn;
          Alcotest.test_case "device private blocks" `Quick
            test_device_private_blocks;
          Alcotest.test_case "equal programs share a key across domains"
            `Quick test_equal_programs_share_key_across_domains;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_spawn_equals_attach;
          QCheck_alcotest.to_alcotest prop_interleaved_spawn_equals_attach;
        ] );
    ]
