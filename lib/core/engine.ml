(* The Femto-Container hosting engine.

   Owns the hooks, tenants and device-global key-value store; attaches
   containers to hooks (building their capability-gated helper tables and
   verifying their bytecode — the cold-start step), and dispatches hook
   triggers to every attached container with full fault isolation: a
   faulting container is reported and counted, the OS and its neighbours
   carry on (paper §5, §7). *)

module Fault = Femto_vm.Fault
module Region = Femto_vm.Region
module Helper = Femto_vm.Helper
module Platform = Femto_platform.Platform
module Kernel = Femto_rtos.Kernel
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

(* Engine-level metrics: hook dispatch counts and latency (Table 4's
   subject), and container faults as seen by the isolation boundary. *)
let m_hook_fires = Obs.counter "engine.hook_fires"
let m_container_runs = Obs.counter "engine.container_runs"
let m_container_faults = Obs.counter "engine.container_faults"
let m_attaches = Obs.counter "engine.attaches"
let m_attach_rejected = Obs.counter "engine.attach_rejected"
let m_hook_ns = Obs.histogram "engine.hook_ns"
let m_pool_hits = Obs.counter "engine.pool_hits"
let m_pool_resets = Obs.counter "engine.pool_resets"

(* Image-cache metrics: the spawn path's subject.  A hit spawns without
   verification, analysis or compilation; a miss pays the full cold
   attach once and caches the artifact. *)
let m_image_hits = Obs.counter "engine.image_hits"
let m_image_misses = Obs.counter "engine.image_misses"
let m_spawns = Obs.counter "engine.spawns"
let g_image_words = Obs.gauge "vm.image_words"
let g_instance_words = Obs.gauge "engine.instance_words"

type t = {
  platform : Platform.t;
  kernel : Kernel.t option;
  clock : Femto_rtos.Clock.t option;
      (* kernel-less cycle clock: a fleet device owns a clock but no
         kernel (its shard's kernel drives the wheel); VM cycle costs
         are charged here and the time helpers read it *)
  global_store : Kvstore.t;
  (* tenants, hooks and sensors are short lists in registration order: a
     fleet device has one tenant, one hook and no sensor, and a hash
     table would cost it more than its entries *)
  mutable tenants : Tenant.t list;
  mutable hooks : Hook.t list;
  images : (string, Image.t) Hashtbl.t; (* content-hash → container image *)
  sensors : (int * (unit -> (int64, string) result)) list ref;
  mutable extra_helpers : (Contract.capability * (Helper.t -> unit)) list;
  (* refs, not mutable fields: the facility closures handed to helper
     tables must not capture the engine record itself, or every cached
     image would transitively reach every attached container and the
     footprint accounting (shared image vs private instance) would
     collapse into one blob *)
  trace_log : int64 list ref; (* newest first; bpf_trace output *)
  fallback_ms : int64 ref; (* time source when no kernel is attached *)
  config : Femto_vm.Config.t;
  mutable dyn_cache : Syscall.dyn option;
      (* the engine's time/sensor/trace closures, built once: every
         spawn on this engine binds the same dyn record *)
}

(* [images] shares an image cache across engines: the fleet passes one
   table per shard so a thousand devices on the same firmware build one
   image.  Callers sharing a table must dispatch all its engines from a
   single domain (see the binding comment in image.ml). *)
let create ?(platform = Platform.cortex_m4) ?kernel ?clock ?images
    ?(config = Femto_vm.Config.default) () =
  {
    platform;
    kernel;
    clock;
    global_store = Kvstore.create "global";
    tenants = [];
    hooks = [];
    images = (match images with Some t -> t | None -> Hashtbl.create 8);
    sensors = ref [];
    extra_helpers = [];
    trace_log = ref [];
    fallback_ms = ref 0L;
    config;
    dyn_cache = None;
  }

let platform t = t.platform
let kernel t = t.kernel
let device_clock t = t.clock
let global_store t = t.global_store
let trace_log t = List.rev !(t.trace_log)

(* --- tenants --- *)

let rec find_tenant id = function
  | [] -> None
  | tenant :: rest ->
      if String.equal (Tenant.id tenant) id then Some tenant
      else find_tenant id rest

let add_tenant t id =
  match find_tenant id t.tenants with
  | Some tenant -> tenant
  | None ->
      let tenant = Tenant.create id in
      t.tenants <- t.tenants @ [ tenant ];
      tenant

let tenants t = t.tenants

(* --- hooks --- *)

let rec find_hook_in uuid = function
  | [] -> None
  | hook :: rest ->
      if String.equal (Hook.uuid hook) uuid then Some hook
      else find_hook_in uuid rest

let find_hook t uuid = find_hook_in uuid t.hooks

let register_hook t ~uuid ~name ~ctx_size ?ctx_perm ?policy () =
  if find_hook t uuid <> None then
    invalid_arg (Printf.sprintf "hook %s already registered" uuid);
  let hook = Hook.create ~uuid ~name ~ctx_size ?ctx_perm ?policy () in
  t.hooks <- t.hooks @ [ hook ];
  hook

let hooks t = t.hooks

(* --- facilities --- *)

let register_sensor t ~id read =
  t.sensors := (id, read) :: List.remove_assoc id !(t.sensors)

let add_helper_installer t capability install =
  t.extra_helpers <- t.extra_helpers @ [ (capability, install) ]

let advance_fallback_ms t ms = t.fallback_ms := Int64.add !(t.fallback_ms) ms

(* The engine's dynamic facilities (time, sensors, trace), built once
   and shared by every helper table and image binding on this engine.
   The closures capture only what they need — never [t] itself (see the
   [trace_log]/[fallback_ms] comment on the engine record). *)
let dyn_for t =
  match t.dyn_cache with
  | Some dyn -> dyn
  | None ->
      let kernel = t.kernel in
      let clock = t.clock in
      let fallback_ms = t.fallback_ms in
      let sensors = t.sensors in
      let trace_log = t.trace_log in
      let dyn =
        {
          Syscall.d_now_ms =
            (fun () ->
              match (kernel, clock) with
              | Some kernel, _ ->
                  Int64.of_float (Femto_rtos.Kernel.now_us kernel /. 1000.0)
              | None, Some clock ->
                  Int64.of_float
                    (Femto_rtos.Clock.ms_of_cycles clock
                       (Femto_rtos.Clock.now clock))
              | None, None -> !fallback_ms);
          d_ticks =
            (fun () ->
              match (kernel, clock) with
              | Some kernel, _ -> Femto_rtos.Kernel.now kernel
              | None, Some clock -> Femto_rtos.Clock.now clock
              | None, None -> Int64.mul !fallback_ms 64_000L);
          d_read_sensor =
            (fun id ->
              match List.assoc_opt id !sensors with
              | Some read -> read ()
              | None -> Error (Printf.sprintf "no sensor %d" id));
          d_trace = (fun v -> trace_log := v :: !trace_log);
        }
      in
      t.dyn_cache <- Some dyn;
      dyn

let facilities_for t container =
  let dyn = dyn_for t in
  {
    Syscall.local_store = Container.local_store container;
    tenant_store = Tenant.store (Container.tenant container);
    global_store = t.global_store;
    now_ms = dyn.Syscall.d_now_ms;
    ticks = dyn.Syscall.d_ticks;
    read_sensor = dyn.Syscall.d_read_sensor;
    trace = dyn.Syscall.d_trace;
  }

(* Helper table for [container] at [hook]: contract ∩ the policy applying
   to the container's tenant (per-tenant overrides support different
   privilege sets on one hook — the §11 extension). *)
let helpers_for t hook container =
  let policy =
    Hook.policy_for hook
      ~tenant_id:(Tenant.id (Container.tenant container))
  in
  let granted = Contract.grant policy container.Container.contract in
  Syscall.build ~extra:t.extra_helpers ~granted (facilities_for t container)

(* --- attach / detach (install & update path) --- *)

type attach_error =
  | Verification_failed of Fault.t
  | Already_attached of string
  | No_such_hook of string

let attach_error_to_string = function
  | Verification_failed fault ->
      Printf.sprintf "pre-flight verification failed: %s" (Fault.to_string fault)
  | Already_attached uuid -> Printf.sprintf "already attached to hook %s" uuid
  | No_such_hook uuid -> Printf.sprintf "no hook %s" uuid

(* Instantiate a container's program for its runtime.  The Fc runtime
   loads through the static analyzer onto the IR tier (superblock IR
   compiled one closure per block), so fast-path-eligible programs get
   their proofs; acceptance is unchanged (analysis diagnostics never
   reject — only structural verifier faults do).  Rbpf stays on the
   plain checked loader so the two engines remain comparable in the
   benchmarks. *)
let load_instance t ~cycle_cost ~helpers ~regions runtime program =
  match runtime with
  | Platform.Fc -> (
      match
        Femto_analysis.Analysis.load ~config:t.config ~cycle_cost ~helpers
          ~regions program
      with
      | Ok vm -> Ok (Container.Fc_instance vm)
      | Error fault -> Error fault)
  | Platform.Rbpf -> (
      (* Rbpf models the paper's switch-dispatch baseline: pin it to the
         decoded tier so the two engines stay comparable in benchmarks. *)
      match
        Femto_vm.Vm.load ~config:t.config ~cycle_cost ~helpers ~regions
          program
      with
      | Ok vm -> Ok (Container.Fc_instance vm)
      | Error fault -> Error fault)
  | Platform.Certfc -> (
      match
        Femto_certfc.Certfc.load ~config:t.config ~cycle_cost ~helpers ~regions
          program
      with
      | Ok vm -> Ok (Container.Certfc_instance vm)
      | Error fault -> Error fault)

(* [attach] is the paper's install step: build the helper table, run the
   pre-flight checker, and only then instantiate the VM.  Extra regions
   (e.g. a shared packet buffer) may be granted by the launchpad. *)
let attach t ~hook_uuid ?(extra_regions = []) container =
  match find_hook t hook_uuid with
  | None -> Error (No_such_hook hook_uuid)
  | Some hook -> (
      match container.Container.attached_to with
      | Some uuid -> Error (Already_attached uuid)
      | None -> (
          let helpers = helpers_for t hook container in
          let regions = Hook.ctx_region hook :: extra_regions in
          let cycle_cost =
            Platform.cycle_cost t.platform container.Container.runtime
          in
          let program = Container.program container in
          let load =
            load_instance t ~cycle_cost ~helpers ~regions
              container.Container.runtime program
          in
          match load with
          | Error fault ->
              if Obs.enabled () then Ometrics.incr m_attach_rejected;
              Error (Verification_failed fault)
          | Ok instance ->
              if Obs.enabled () then Ometrics.incr m_attaches;
              container.Container.instance <- Some instance;
              container.Container.attached_to <- Some hook_uuid;
              Hook.append_attached hook container;
              Ok hook))

let detach t container =
  match container.Container.attached_to with
  | None -> ()
  | Some uuid ->
      (match find_hook t uuid with
      | Some hook -> Hook.remove_attached hook container
      | None -> ());
      container.Container.attached_to <- None;
      container.Container.instance <- None;
      Container.set_prepare_run container ignore

(* Hot update: replace the program of an attached container.  The new
   program goes through pre-flight verification first; on failure the old
   program keeps running (the paper's safe-update requirement). *)
let update_program t container program =
  match container.Container.attached_to with
  | None -> Error (No_such_hook "(not attached)")
  | Some hook_uuid -> (
      match find_hook t hook_uuid with
      | None -> Error (No_such_hook hook_uuid)
      | Some hook -> (
          let helpers = helpers_for t hook container in
          let regions = [ Hook.ctx_region hook ] in
          let cycle_cost =
            Platform.cycle_cost t.platform container.Container.runtime
          in
          let load =
            load_instance t ~cycle_cost ~helpers ~regions
              container.Container.runtime program
          in
          match load with
          | Error fault -> Error (Verification_failed fault)
          | Ok instance ->
              container.Container.program <- program;
              container.Container.instance <- Some instance;
              (* the fresh instance's helper table captures the current
                 stores directly; any image forward-binding is stale *)
              Container.set_prepare_run container ignore;
              Ok ()))

(* --- image spawn path --- *)

let granted_for hook container =
  let policy =
    Hook.policy_for hook ~tenant_id:(Tenant.id (Container.tenant container))
  in
  Contract.grant policy container.Container.contract

(* Cold path of [spawn]: one full verify → analyze → compile, with the
   helper table compiled against retargetable forward stores so every
   later instance can re-bind it to its own stores.  The template VM
   built here becomes the image's first instance. *)
let build_image t ~key ~hook ~extra_regions ~granted container =
  let program = Container.program container in
  let runtime = container.Container.runtime in
  let baseline = container.Container.local_store in
  let local_fwd =
    Kvstore.forward ~target:baseline ("fwd:" ^ Kvstore.name baseline)
  in
  let tenant_store = Tenant.store (Container.tenant container) in
  let tenant_fwd =
    Kvstore.forward ~target:tenant_store ("fwd:" ^ Kvstore.name tenant_store)
  in
  let global_fwd = Kvstore.forward ~target:t.global_store "fwd:global" in
  let dyn = ref (dyn_for t) in
  (* everything engine-side goes through an indirection ([Forward]
     stores, the [dyn] cell), so [Image.bind] can re-point the whole
     helper table at another instance — even one on another engine *)
  let facilities =
    Syscall.facilities_via dyn ~local_store:local_fwd ~tenant_store:tenant_fwd
      ~global_store:global_fwd
  in
  let helpers = Syscall.build ~extra:t.extra_helpers ~granted facilities in
  let regions = Hook.ctx_region hook :: extra_regions in
  let cycle_cost = Platform.cycle_cost t.platform runtime in
  let make vm outcome =
    Image.create ~key ~runtime ~vm_image:(Femto_vm.Vm.image_of vm) ~outcome
      ~baseline ~local_fwd ~tenant_fwd ~global_fwd ~dyn
  in
  match runtime with
  | Platform.Fc -> (
      match
        Femto_analysis.Analysis.load_outcome ~config:t.config ~cycle_cost
          ~helpers ~regions program
      with
      | Ok (vm, outcome) -> Ok (make vm (Some outcome), vm)
      | Error fault -> Error fault)
  | Platform.Rbpf -> (
      match
        Femto_vm.Vm.load ~config:t.config ~cycle_cost ~helpers ~regions
          program
      with
      | Ok vm -> Ok (make vm None, vm)
      | Error fault -> Error fault)
  | Platform.Certfc ->
      (* [spawn] falls back to [attach] before reaching here *)
      assert false

(* Bind a spawned VM into [container]: private CoW view over the image's
   frozen kv baseline, and a [prepare_run] hook that re-points the
   image's forward stores at this instance before each execution. *)
let adopt_instance t ~hook ~hook_uuid ?delta_quota img vm container =
  (* the view keeps the name of the store it replaces ("local:<name>",
     given at [Container.create]), so a respawn formats no string *)
  let local =
    Kvstore.cow ?delta_quota ~parent:(Image.baseline img)
      (Kvstore.name (Container.local_store container))
  in
  Container.set_local_store container local;
  let tenant_store = Tenant.store (Container.tenant container) in
  let global_store = t.global_store in
  let dyn = dyn_for t in
  Container.set_prepare_run container (fun () ->
      Image.bind img ~local ~tenant:tenant_store ~global:global_store ~dyn);
  container.Container.instance <- Some (Container.Fc_instance vm);
  container.Container.attached_to <- Some hook_uuid;
  Hook.append_attached hook container;
  Image.record_spawn img;
  if Obs.enabled () then begin
    Ometrics.incr m_attaches;
    Ometrics.incr m_spawns
  end

(* [spawn] is [attach] through the image cache: the first container with
   a given (program, runtime, granted capabilities) pays the cold
   verify → analyze → compile; every later one re-binds the cached
   immutable artifact to fresh private state — no verification, no
   analysis, no decode, no compilation.  [delta_quota] caps the
   instance's private kv delta (its per-tenant write budget).  The
   certified runtime has no shareable artifact and falls back to a full
   [attach]. *)
let spawn t ~hook_uuid ?(extra_regions = []) ?delta_quota container =
  match find_hook t hook_uuid with
  | None -> Error (No_such_hook hook_uuid)
  | Some hook -> (
      match container.Container.attached_to with
      | Some uuid -> Error (Already_attached uuid)
      | None -> (
          match container.Container.runtime with
          | Platform.Certfc -> attach t ~hook_uuid ~extra_regions container
          | Platform.Fc | Platform.Rbpf -> (
              let granted = granted_for hook container in
              let key =
                Image.key_of ~runtime:container.Container.runtime ~granted
                  (Container.program container)
              in
              match Hashtbl.find_opt t.images key with
              | Some img ->
                  if Obs.enabled () then Ometrics.incr m_image_hits;
                  let regions = Hook.ctx_region hook :: extra_regions in
                  let vm = Femto_vm.Vm.spawn ~regions (Image.vm_image img) in
                  adopt_instance t ~hook ~hook_uuid ?delta_quota img vm
                    container;
                  Ok hook
              | None -> (
                  if Obs.enabled () then Ometrics.incr m_image_misses;
                  match build_image t ~key ~hook ~extra_regions ~granted container with
                  | Error fault ->
                      if Obs.enabled () then Ometrics.incr m_attach_rejected;
                      Error (Verification_failed fault)
                  | Ok (img, vm) ->
                      Hashtbl.replace t.images key img;
                      adopt_instance t ~hook ~hook_uuid ?delta_quota img vm
                        container;
                      Ok hook))))

let images_cached t = Hashtbl.length t.images
let find_image t key = Hashtbl.find_opt t.images key

let cached_images t =
  Hashtbl.fold (fun _ img acc -> img :: acc) t.images []

let image_spawns t =
  Hashtbl.fold (fun _ img acc -> acc + Image.spawns img) t.images 0

(* Refresh the [vm.image_words] / [engine.instance_words] gauges with
   one reachable-words walk each (explicit, not per-spawn: walking the
   heap on every spawn would dwarf the spawn itself at fleet scale).
   The instance gauge is the incremental cost of everything attached on
   top of the shared images: walk(instances ∪ images) − walk(images). *)
let update_footprint_gauges t =
  let images = cached_images t in
  let image_words = Obj.reachable_words (Obj.repr images) in
  let containers = List.concat_map Hook.attached t.hooks in
  let total_words = Obj.reachable_words (Obj.repr (containers, images)) in
  Ometrics.set g_image_words (float_of_int image_words);
  Ometrics.set g_instance_words (float_of_int (total_words - image_words));
  (image_words, total_words - image_words)

(* --- trigger path --- *)

type exec_report = {
  container : Container.t;
  result : (int64, Fault.t) result;
  vm_cycles : int;
}

(* Fire a hook: every attached container runs, each in its own sandbox,
   r1 = context pointer.  Cycle costs (dispatch + setup + interpreted
   instructions) are charged to the RTOS clock when one is attached. *)
let trigger t hook ?ctx () =
  let t0 = if Obs.enabled () then Obs.now_ns () else 0.0 in
  (match ctx with Some bytes -> Hook.set_ctx hook bytes | None -> ());
  hook.Hook.triggers <- hook.Hook.triggers + 1;
  let charge cycles =
    match (t.kernel, t.clock) with
    | Some kernel, _ -> Femto_rtos.Clock.advance (Kernel.clock kernel) cycles
    | None, Some clock -> Femto_rtos.Clock.advance clock cycles
    | None, None -> ()
  in
  charge t.platform.Platform.empty_hook_cycles;
  let reports =
    List.map
      (fun container ->
        charge
          (Platform.hook_setup_cycles t.platform container.Container.runtime);
        let result =
          Container.run_instance container ~args:[| Hook.ctx_vaddr |]
        in
        container.Container.executions <- container.Container.executions + 1;
        (match result with
        | Ok _ -> ()
        | Error _ -> container.Container.faults <- container.Container.faults + 1);
        container.Container.last_result <- Some result;
        let vm_cycles = Container.last_run_cycles container in
        charge vm_cycles;
        { container; result; vm_cycles })
      (Hook.attached hook)
  in
  if Obs.enabled () then begin
    let faults =
      List.fold_left
        (fun acc r -> match r.result with Error _ -> acc + 1 | Ok _ -> acc)
        0 reports
    in
    Ometrics.incr m_hook_fires;
    Ometrics.add m_container_runs (List.length reports);
    Ometrics.add m_container_faults faults;
    Ometrics.observe m_hook_ns (Obs.now_ns () -. t0);
    Obs.event (fun () ->
        Otrace.Hook_fired
          {
            uuid = hook.Hook.uuid;
            name = hook.Hook.name;
            containers = List.length reports;
            faults;
          })
  end;
  reports

let trigger_by_uuid t ~uuid ?ctx () =
  match find_hook t uuid with
  | None -> Error (No_such_hook uuid)
  | Some hook -> Ok (trigger t hook ?ctx ())

(* --- warm-pool fire path --- *)

(* Pre-allocated argv for [fire]: every container receives the same
   context pointer in r1, and the array's contents never change. *)
let fire_args = [| Hook.ctx_vaddr |]

let[@inline] charge_cycles t cycles =
  match (t.kernel, t.clock) with
  | Some kernel, _ -> Femto_rtos.Clock.advance (Kernel.clock kernel) cycles
  | None, Some clock -> Femto_rtos.Clock.advance clock cycles
  | None, None -> ()

let fire_container t container =
  container.Container.prepare_run ();
  charge_cycles t
    (Platform.hook_setup_cycles t.platform container.Container.runtime);
  let ok =
    match container.Container.instance with
    | Some (Container.Fc_instance vm) -> (
        match Femto_vm.Vm.compiled vm with
        | Some cc ->
            if Obs.enabled () then begin
              Ometrics.incr m_pool_hits;
              if Femto_vm.Compile.runs cc > 0 then Ometrics.incr m_pool_resets
            end;
            let ok = Femto_vm.Compile.fire cc ~args:fire_args in
            container.Container.total_vm_cycles <-
              container.Container.total_vm_cycles
              + (Femto_vm.Vm.stats vm).Femto_vm.Interp.cycles;
            ok
        | None -> (
            match Container.run_instance container ~args:fire_args with
            | Ok _ -> true
            | Error _ -> false))
    | _ -> (
        match Container.run_instance container ~args:fire_args with
        | Ok _ -> true
        | Error _ -> false)
  in
  container.Container.executions <- container.Container.executions + 1;
  if not ok then container.Container.faults <- container.Container.faults + 1;
  charge_cycles t (Container.last_run_cycles container);
  ok

let rec fire_loop t hook n i faults =
  if i >= n then faults
  else
    match Hook.attached_get hook i with
    | None -> fire_loop t hook n (i + 1) faults
    | Some container ->
        let ok = fire_container t container in
        fire_loop t hook n (i + 1) (if ok then faults else faults + 1)

(* [fire] is [trigger] minus the report list: the steady-state dispatch
   path for a warmed pool.  Every attached container runs on its warm
   instance (compiled instances reset via the dirty high-water mark);
   no reports or [last_result] are built and only counters — plain
   mutable stores — are updated, so with no kernel clock attached a
   fire over allocation-free compiled programs performs zero minor-heap
   allocation.  Returns the number of faulting containers. *)
let fire t hook =
  hook.Hook.triggers <- hook.Hook.triggers + 1;
  charge_cycles t t.platform.Platform.empty_hook_cycles;
  let n = Hook.attached_count hook in
  let faults = fire_loop t hook n 0 0 in
  if Obs.enabled () then begin
    Ometrics.incr m_hook_fires;
    Ometrics.add m_container_runs n;
    if faults > 0 then Ometrics.add m_container_faults faults
  end;
  faults
