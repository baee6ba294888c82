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
  charge : Femto_rtos.Clock.t;
      (* VM cycle costs are charged here: the kernel's clock, the
         device clock of a kernel-less engine, or the engine's own
         clock, which nothing reads *)
  kernel : Kernel.t option;
  facilities : Syscall.facilities; (* what the helpers reach *)
  (* tenants and hooks are short lists in registration order: a fleet
     device has one tenant and one hook, and a hash table would cost it
     more than its entries *)
  mutable tenants : Tenant.t list;
  mutable hooks : Hook.t list;
  images : (string, Image.t) Hashtbl.t; (* content-hash → container image *)
  mutable extra_helpers : (Contract.capability * (Helper.t -> unit)) list;
  config : Femto_vm.Config.t;
}

(* [images] shares an image cache across engines: the fleet passes one
   table per shard so a thousand devices on the same firmware build one
   image.  The table itself is unsynchronized, so callers sharing one
   must not spawn from two domains at once. *)
let create ?(platform = Platform.cortex_m4) ?kernel ?clock ?images
    ?(config = Femto_vm.Config.default) () =
  let charge =
    match (kernel, clock) with
    | Some kernel, _ -> Kernel.clock kernel
    | None, Some clock -> clock
    | None, None -> Femto_rtos.Clock.create ()
  in
  {
    platform;
    charge;
    kernel;
    facilities =
      {
        Syscall.clock = charge;
        clock_is_time = kernel <> None || clock <> None;
        global_store = Kvstore.create "global";
        fallback_ms = 0L;
        sensors = [];
        trace_log = [];
      };
    tenants = [];
    hooks = [];
    images = (match images with Some t -> t | None -> Hashtbl.create 8);
    extra_helpers = [];
    config;
  }

let platform t = t.platform
let kernel t = t.kernel
let device_clock t =
  if t.kernel = None && t.facilities.clock_is_time then Some t.charge else None

let global_store t = t.facilities.global_store
let trace_log t = List.rev t.facilities.trace_log

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
  t.facilities.sensors <-
    (id, read) :: List.remove_assoc id t.facilities.sensors

let add_helper_installer t capability install =
  t.extra_helpers <- t.extra_helpers @ [ (capability, install) ]

let advance_fallback_ms t ms =
  t.facilities.fallback_ms <- Int64.add t.facilities.fallback_ms ms

(* What [container]'s helpers reach: the container and this engine's
   facilities. *)
let host t container =
  Syscall.Host { container; facilities = t.facilities }

(* Capabilities granted to [container] at [hook]: contract ∩ the policy
   applying to the container's tenant (per-tenant overrides support
   different privilege sets on one hook — the §11 extension). *)
let granted_for hook container =
  let policy =
    Hook.policy_for hook ~tenant_id:(Tenant.id (Container.tenant container))
  in
  Contract.grant policy container.Container.contract

let helpers_for t hook container =
  Syscall.build ~extra:t.extra_helpers (granted_for hook container)

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
      match Container.attached_to container with
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
              Container.set_instance container ~host:(host t container)
                (Some instance);
              Container.set_attached_to container (Some hook_uuid);
              Hook.append_attached hook container;
              Ok hook))

let detach t container =
  match Container.attached_to container with
  | None -> ()
  | Some uuid ->
      (match find_hook t uuid with
      | Some hook -> Hook.remove_attached hook container
      | None -> ());
      Container.set_attached_to container None;
      Container.set_instance container ~host:Femto_vm.Mem.Unbound None

(* Hot update: replace the program of an attached container.  The new
   program goes through pre-flight verification first; on failure the old
   program keeps running (the paper's safe-update requirement). *)
let update_program t container program =
  match Container.attached_to container with
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
              Container.set_instance container ~host:(host t container)
                (Some instance);
              Ok ()))

(* --- image spawn path --- *)

(* Cold path of [spawn]: one full verify → analyze → compile.  The
   helper table holds no store (helpers reach the running container
   through its host binding), so every later instance shares it as is.
   The template VM built here becomes the image's first instance. *)
let build_image t ~key ~hook ~extra_regions ~granted container =
  let program = Container.program container in
  let runtime = container.Container.runtime in
  let helpers = Syscall.build ~extra:t.extra_helpers granted in
  let regions = Hook.ctx_region hook :: extra_regions in
  let cycle_cost = Platform.cycle_cost t.platform runtime in
  let loaded =
    match runtime with
    | Platform.Fc ->
        Femto_analysis.Analysis.load ~config:t.config ~cycle_cost ~helpers
          ~regions program
    | Platform.Rbpf ->
        Femto_vm.Vm.load ~config:t.config ~cycle_cost ~helpers ~regions program
    | Platform.Certfc ->
        (* [spawn] falls back to [attach] before reaching here *)
        assert false
  in
  Result.map
    (fun vm ->
      ( Image.create ~key ~runtime ~vm_image:(Femto_vm.Vm.image_of vm)
          ~baseline:container.Container.local_store,
        vm ))
    loaded

(* Bind a spawned VM into [container]: private CoW view over the image's
   frozen kv baseline, and the host binding its helpers reach. *)
let adopt_instance t ~hook ~hook_uuid ?delta_quota img vm container =
  (* the view keeps the name of the store it replaces ("local:<name>",
     given at [Container.create]), so a respawn formats no string *)
  Container.set_local_store container
    (Kvstore.cow ?delta_quota ~parent:(Image.baseline img)
       (Kvstore.name (Container.local_store container)));
  Container.set_instance container ~host:(host t container)
    (Some (Container.Fc_instance vm));
  Container.set_attached_to container (Some hook_uuid);
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
      match Container.attached_to container with
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
   one reachable-words walk each (explicit, not per spawn: walking the
   heap on every spawn would dwarf the spawn itself at fleet scale).
   The instance gauge is the incremental cost of everything attached on
   top of what the containers share — the images, the engine's
   facilities (which every container reaches through its host binding),
   its tenants and its hooks' context regions:
   walk(containers ∪ shared) − walk(shared). *)
let update_footprint_gauges t =
  let images = cached_images t in
  let image_words = Obj.reachable_words (Obj.repr images) in
  let shared =
    (images, t.facilities, t.tenants, List.map Hook.ctx_region t.hooks)
  in
  let shared_words = Obj.reachable_words (Obj.repr shared) in
  let containers = List.concat_map Hook.attached t.hooks in
  let total_words = Obj.reachable_words (Obj.repr (containers, shared)) in
  let instance_words = total_words - shared_words in
  Ometrics.set g_image_words (float_of_int image_words);
  Ometrics.set g_instance_words (float_of_int instance_words);
  (image_words, instance_words)

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
  let charge cycles = Femto_rtos.Clock.advance t.charge cycles in
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

let fire_container t container =
  Femto_rtos.Clock.advance t.charge
    (Platform.hook_setup_cycles t.platform container.Container.runtime);
  let vm = container.Container.vm in
  let ok =
    if vm != Container.no_vm then begin
      if Obs.enabled () && Femto_vm.Vm.tier vm = Femto_vm.Vm.Ir then begin
        Ometrics.incr m_pool_hits;
        if Femto_vm.Vm.runs vm > 0 then Ometrics.incr m_pool_resets
      end;
      let ok = Femto_vm.Vm.fire ~args:fire_args vm in
      container.Container.total_vm_cycles <-
        container.Container.total_vm_cycles + Femto_vm.Vm.cycles vm;
      ok
    end
    else
      match Container.run_instance container ~args:fire_args with
      | Ok _ -> true
      | Error _ -> false
  in
  container.Container.executions <- container.Container.executions + 1;
  if not ok then container.Container.faults <- container.Container.faults + 1;
  Femto_rtos.Clock.advance t.charge (Container.last_run_cycles container);
  ok

let rec fire_loop t hook n i faults =
  if i >= n then faults
  else
    let ok = fire_container t (Hook.attached_get hook i) in
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
  Femto_rtos.Clock.advance t.charge t.platform.Platform.empty_hook_cycles;
  let n = Hook.attached_count hook in
  let faults = fire_loop t hook n 0 0 in
  if Obs.enabled () then begin
    Ometrics.incr m_hook_fires;
    Ometrics.add m_container_runs n;
    if faults > 0 then Ometrics.add m_container_faults faults
  end;
  faults
