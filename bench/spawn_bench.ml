(* spawn/* bench family: the container image / instance split (PR 8).

   Three engine-level workloads, each measured twice:

     legacy_ns_per_run   full attach — verify + analyze + compile,
                         per container (the pre-image cold start)
     ns_per_run          spawn from the cached image — fresh private
                         state bound to the shared immutable artifact

   plus the memory-footprint side: marginal bytes per resident instance
   (measured with [Obj.reachable_words] over the container list, so
   shared structure — image, program, helper closures — is excluded
   automatically) for image spawns at 1/100/10k residents vs independent
   full attaches.

   A fourth row, spawn/fire_cold, fires 20 000 spawned kv-counter
   instances once each in creation order and reports ns per fire; it is
   not gated.

   Every spawned instance is checked against the attached instance's
   result before timing starts, so a semantics break can never be
   reported as a speedup.  As a smoke family it has two hard floors:
   spawn must be >= 10x faster than full attach on the dispatch
   workloads, and a spawned resident must cost <= 10% of a fully
   attached one.

   The ratio gated against the committed baseline is not attach/spawn:
   full attach is mostly the install compile, so a faster compile read
   as a spawn regression.  Each workload's gated ratio divides its
   pre-flight verification ([Verifier.verify], which spawn skips and
   the compile does not touch) by a cached spawn, as the median of
   paired, interleaved trials. *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Syscall = Femto_core.Syscall
module Dagsum = Femto_workloads.Dagsum
module Loop_sum = Femto_workloads.Loop_sum
module Fletcher = Femto_workloads.Fletcher
module Jsonx = Femto_obs.Jsonx
module Measure = Femto_eval.Measure

let data = Fletcher.input_360
let hook_uuid = "spawn-bench"

(* local[7] <- local[7] + 1; r0 = new value — the kv workload exercises
   the CoW store and the helpers' host binding on every run *)
let kv_counter_source =
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

type workload = {
  w_name : string;
  program : Femto_ebpf.Program.t;
  contract : Contract.t;
  extra_regions : unit -> Femto_vm.Region.t list;
  run_args : int64 array;
  expect : int64;
}

let workloads () =
  [
    {
      w_name = "dagsum";
      program = Dagsum.ebpf_program ();
      contract = Contract.require [];
      extra_regions = (fun () -> Dagsum.regions data);
      run_args = [| Dagsum.data_vaddr |];
      expect = Dagsum.reference data;
    };
    {
      w_name = "loop_sum";
      program = Loop_sum.ebpf_program ();
      contract = Contract.require [];
      extra_regions = (fun () -> Loop_sum.regions data);
      run_args = [| Loop_sum.data_vaddr |];
      expect = Loop_sum.reference data;
    };
    {
      w_name = "kvcounter";
      program =
        Femto_ebpf.Asm.assemble ~helpers:Syscall.resolve_name
          kv_counter_source;
      contract = Contract.require [ Femto_core.Contract.Kv_local ];
      extra_regions = (fun () -> []);
      run_args = [||];
      (* first run on a fresh (CoW) local store: 0 + 1 *)
      expect = 1L;
    };
  ]

let fresh_engine () =
  let engine = Engine.create () in
  let _hook =
    Engine.register_hook engine ~uuid:hook_uuid ~name:"spawn-bench"
      ~ctx_size:16 ()
  in
  engine

let make_container engine w i =
  let tenant = Engine.add_tenant engine "bench" in
  Container.create
    ~name:(Printf.sprintf "%s-%d" w.w_name i)
    ~tenant ~contract:w.contract w.program

let ok_or_attach = function
  | Ok h -> h
  | Error e -> failwith (Engine.attach_error_to_string e)

let check_result w c =
  match Container.run_instance c ~args:w.run_args with
  | Ok v when Int64.equal v w.expect -> ()
  | Ok v ->
      failwith
        (Printf.sprintf "spawn/%s: got %Ld, reference says %Ld" w.w_name v
           w.expect)
  | Error fault ->
      failwith ("spawn/" ^ w.w_name ^ ": " ^ Femto_vm.Fault.to_string fault)

(* --- latency: full attach vs cached spawn --- *)

type row = {
  name : string;
  attach_ns : float;
  spawn_ns : float;
  verify_x : float; (* verify / spawn, median of paired trials *)
  image_hits : int; (* warm spawns during this measurement *)
  image_misses : int; (* cold image builds (should be 1 per workload) *)
}

let speedup r = r.attach_ns /. r.spawn_ns

let pair_trials = 9

(* Verification over a cached spawn of [c]: [pair_trials] trials, each a
   batch of verifies then a batch of spawns, so both sides of a pair see
   the same host speed; the median ratio. *)
let verify_x engine w c ~extra_regions =
  let helpers = Syscall.build (Contract.required w.contract) in
  let config = Femto_vm.Config.default in
  let verify () =
    match Femto_vm.Verifier.verify ~helpers config w.program with
    | Ok _ -> ()
    | Error f -> failwith ("spawn/" ^ w.w_name ^ ": " ^ Femto_vm.Fault.to_string f)
  in
  let spawn () =
    ignore (ok_or_attach (Engine.spawn engine ~hook_uuid ~extra_regions c));
    Engine.detach engine c
  in
  ignore (Measure.batch_ns 20 verify);
  ignore (Measure.batch_ns 20 spawn);
  let samples =
    Measure.interleaved ~trials:pair_trials
      [|
        (fun () -> Measure.batch_ns 100 verify);
        (fun () -> Measure.batch_ns 500 spawn);
      |]
  in
  Measure.median_ratio samples.(0) samples.(1)

let measure_workload w =
  let engine = fresh_engine () in
  let extra_regions = w.extra_regions () in
  (* correctness first: the attached and the image-spawned instance must
     agree with the native reference *)
  let probe = make_container engine w 0 in
  ignore (ok_or_attach (Engine.attach engine ~hook_uuid ~extra_regions probe));
  check_result w probe;
  Engine.detach engine probe;
  let warm = make_container engine w 1 in
  ignore (ok_or_attach (Engine.spawn engine ~hook_uuid ~extra_regions warm));
  check_result w warm;
  Engine.detach engine warm;
  let spawned = make_container engine w 2 in
  (* this one is a cache hit — the configuration under test *)
  ignore (ok_or_attach (Engine.spawn engine ~hook_uuid ~extra_regions spawned));
  check_result w spawned;
  Engine.detach engine spawned;
  let c = make_container engine w 3 in
  let attach_ns =
    Measure.wall_ns ~warmup:2 ~iters:20 ~trials:3 (fun () ->
        ignore (ok_or_attach (Engine.attach engine ~hook_uuid ~extra_regions c));
        Engine.detach engine c)
  in
  let spawn_ns =
    Measure.wall_ns ~warmup:20 ~iters:500 ~trials:3 (fun () ->
        ignore (ok_or_attach (Engine.spawn engine ~hook_uuid ~extra_regions c));
        Engine.detach engine c)
  in
  let verify_x = verify_x engine w c ~extra_regions in
  (* hit/miss bookkeeping straight off the engine's image cache: every
     spawn above either built an image (miss) or reused one (hit) *)
  let image_misses = Engine.images_cached engine in
  let image_hits = Engine.image_spawns engine - image_misses in
  { name = w.w_name; attach_ns; spawn_ns; verify_x; image_hits; image_misses }

(* --- footprint: marginal bytes per resident --- *)

(* Build [n] resident containers via [how] on a fresh engine and return
   the reachable words of the container list.  Shared structure (the
   image, the program, helper closures, the engine's stores) is counted
   once per walk, so the marginal words between two scales is the true
   per-instance cost. *)
let resident_words ~how w n =
  let engine = fresh_engine () in
  let extra_regions = w.extra_regions () in
  let containers =
    List.init n (fun i ->
        let c = make_container engine w i in
        (match how with
        | `Attach ->
            ignore (ok_or_attach (Engine.attach engine ~hook_uuid ~extra_regions c))
        | `Spawn ->
            ignore (ok_or_attach (Engine.spawn engine ~hook_uuid ~extra_regions c)));
        c)
  in
  Obj.reachable_words (Obj.repr containers)

let word_bytes = Sys.word_size / 8

let marginal_bytes ~how w ~n1 ~n2 =
  let w1 = resident_words ~how w n1 in
  let w2 = resident_words ~how w n2 in
  float_of_int ((w2 - w1) * word_bytes) /. float_of_int (n2 - n1)

type footprint = {
  spawn_1_100 : float; (* bytes/instance, spawns, 1 -> 100 *)
  spawn_100_10k : float; (* bytes/instance, spawns, 100 -> 10k *)
  attach_1_100 : float; (* bytes/instance, full attaches, 1 -> 100 *)
  fraction : float; (* spawn @10k scale / attach *)
}

let measure_footprint w =
  let spawn_1_100 = marginal_bytes ~how:`Spawn w ~n1:1 ~n2:100 in
  let spawn_100_10k = marginal_bytes ~how:`Spawn w ~n1:100 ~n2:10_000 in
  let attach_1_100 = marginal_bytes ~how:`Attach w ~n1:1 ~n2:100 in
  { spawn_1_100; spawn_100_10k; attach_1_100;
    fraction = spawn_100_10k /. attach_1_100 }

(* --- fire_cold: one fire each across a fleet-sized heap --- *)

let fire_cold_instances = 20_000

(* Fire [fire_cold_instances] spawned kv-counter instances once each, in
   creation order, each on its own engine and hook over its own clock as
   fleet devices are, after respawning each once (as an update campaign
   does); ns per fire.  What it measures is how many cache misses the
   private state one fire walks costs, so it is reported, not gated. *)
let measure_fire_cold w =
  let images = Hashtbl.create 4 in
  let spawn engine i =
    let c = make_container engine w i in
    ignore (ok_or_attach (Engine.spawn engine ~hook_uuid c));
    c
  in
  let devices =
    Array.init fire_cold_instances (fun i ->
        let engine =
          Engine.create ~clock:(Femto_rtos.Clock.create ()) ~images ()
        in
        let hook =
          Engine.register_hook engine ~uuid:hook_uuid ~name:"fire-cold"
            ~ctx_size:8 ()
        in
        (engine, hook, spawn engine i))
  in
  let devices =
    Array.mapi
      (fun i (engine, hook, c) ->
        Engine.detach engine c;
        (engine, hook, spawn engine i))
      devices
  in
  let t0 = Measure.now_ns () in
  let faults =
    Array.fold_left
      (fun acc (engine, hook, _) -> acc + Engine.fire engine hook)
      0 devices
  in
  let ns = (Measure.now_ns () -. t0) /. float_of_int fire_cold_instances in
  Array.iter
    (fun (_, _, c) ->
      if
        faults > 0
        || not
             (Int64.equal w.expect
                (Femto_core.Kvstore.fetch (Container.local_store c) 7l))
      then failwith "spawn/fire_cold: a fire did not count once")
    devices;
  ns

(* --- the smoke family --- *)

(* ISSUE 8 acceptance floors; measured numbers land far above/below
   them — see the spawn section of bench/baseline.json for the committed
   record.  The 10x floor applies to the dispatch workloads: kvcounter's
   full attach is already only a few microseconds (nothing to verify, no
   loops to analyze), so the fixed ~0.7 us spawn cost cannot sit 10x
   under it — its ratio is reported and baseline-gated, but not
   floor-gated. *)
let speedup_floor = 10.0
let fraction_ceiling = 0.10
let floor_gated = [ "dagsum"; "loop_sum" ]

(* the footprint workload: dagsum is the artifact-heavy dispatch
   workload — full attach builds a large compiled closure graph per
   resident, exactly the structure image sharing is meant to eliminate *)
let footprint_workload ws = List.find (fun w -> w.w_name = "dagsum") ws

(* Gated ratios, all higher-is-better: each workload's verify/spawn
   ratio, and the footprint as attach bytes over spawn bytes — the
   reciprocal of [fraction], so [1/now >= 0.6 * 1/was] holds exactly
   when [now <= was / 0.6]. *)
let inv_fraction_key = "inv_footprint_fraction"

let outcome ~fire_cold_ns rows fp =
  {
    Family.rows =
      List.map
        (fun r ->
          Jsonx.Obj
            [
              ("name", Jsonx.String ("spawn/" ^ r.name));
              ("legacy_ns_per_run", Jsonx.Float r.attach_ns);
              ("ns_per_run", Jsonx.Float r.spawn_ns);
              ("verify_x", Jsonx.Float r.verify_x);
              ("image_hits", Jsonx.Int r.image_hits);
              ("image_misses", Jsonx.Int r.image_misses);
            ])
        rows
      @ [
          Jsonx.Obj
            [
              ("name", Jsonx.String "spawn/footprint");
              ("spawn_bytes_per_instance_1_100", Jsonx.Float fp.spawn_1_100);
              ("spawn_bytes_per_instance_100_10k", Jsonx.Float fp.spawn_100_10k);
              ("attach_bytes_per_instance_1_100", Jsonx.Float fp.attach_1_100);
              ("footprint_fraction", Jsonx.Float fp.fraction);
            ];
        ]
      @ [
          Jsonx.Obj
            [
              ("name", Jsonx.String "spawn/fire_cold");
              ("instances", Jsonx.Int fire_cold_instances);
              ("ns_per_run", Jsonx.Float fire_cold_ns);
            ];
        ];
    ratios =
      List.map (fun r -> (r.name, r.verify_x)) rows
      @ [ (inv_fraction_key, 1.0 /. fp.fraction) ];
    failures =
      List.concat_map
        (fun r ->
          Family.fail_if
            (List.mem r.name floor_gated && speedup r < speedup_floor)
            "spawn/%s speedup %.2fx below floor %.2fx" r.name (speedup r)
            speedup_floor)
        rows
      @ Family.fail_if (fp.fraction > fraction_ceiling)
          "spawn footprint fraction %.4f above ceiling %.2f (spawn %.0f \
           B/inst vs attach %.0f B/inst)"
          fp.fraction fraction_ceiling fp.spawn_100_10k fp.attach_1_100;
  }

let run () =
  let ws = workloads () in
  let rows = List.map measure_workload ws in
  let fp = measure_footprint (footprint_workload ws) in
  let fire_cold_ns =
    measure_fire_cold (List.find (fun w -> w.w_name = "kvcounter") ws)
  in
  Printf.printf "\nSpawn smoke (wall-clock ns/run, best of 3)\n%s\n"
    (String.make 42 '-');
  List.iter
    (fun r ->
      Printf.printf
        "  spawn/%-12s attach %12.0f   spawn %12.0f   %7.1fx   verify/spawn %5.2fx\n"
        r.name r.attach_ns r.spawn_ns (speedup r) r.verify_x)
    rows;
  Printf.printf
    "  bytes/instance: spawn %.0f (1->100)  %.0f (100->10k)   attach %.0f \
     (1->100)   fraction %.4f\n"
    fp.spawn_1_100 fp.spawn_100_10k fp.attach_1_100 fp.fraction;
  Printf.printf
    "  fire_cold: %.0f ns/fire over %d spawned kv-counter instances \
     (reported, not gated)\n"
    fire_cold_ns fire_cold_instances;
  outcome ~fire_cold_ns rows fp

let family = { Family.name = "spawn"; tolerance = 0.6; run }
