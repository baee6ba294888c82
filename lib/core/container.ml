(* A Femto-Container: a verified program plus its sandbox state.

   A container belongs to a tenant, declares a contract, and — once
   attached to a hook — owns a VM instance (optimized or CertFC), its
   private key-value store and its execution statistics.  Its helpers
   reach the container through the host bound to the instance's memory
   map ([Syscall.Host]).  All state is
   local to the instance (paper §10.3), which is what makes running many
   containers side by side cheap. *)

open Femto_ebpf
module Fault = Femto_vm.Fault

type instance =
  | Fc_instance of Femto_vm.Vm.t
  | Certfc_instance of Femto_certfc.Certfc.t

type t = {
  name : string;
  tenant : Tenant.t;
  mutable program : Program.t;
  contract : Contract.t;
  runtime : Femto_platform.Platform.engine;
  mutable local_store : Kvstore.t;
      (* mutable: an image-spawned instance swaps in a copy-on-write
         view over the image's frozen baseline *)
  mutable hook_uuid : string; (* [detached] when not attached *)
  (* the instance, unboxed for the dispatch path: an fc instance in
     [vm] ([no_vm] when there is none), a CertFC one in [certfc] *)
  mutable vm : Femto_vm.Vm.t;
  mutable certfc : Femto_certfc.Certfc.t option;
  mutable executions : int;
  mutable faults : int;
  mutable total_vm_cycles : int;
  mutable last_result : (int64, Fault.t) result option;
}

(* The [hook_uuid] of a container attached to no hook (compared by
   identity, so it names no hook). *)
let detached = "(detached)"

(* The [vm] of a container with no fc instance: never run. *)
let no_vm = Femto_vm.Mem.create ~stack:Femto_vm.Frame.unlent []

let create ~name ~tenant ~contract
    ?(runtime = Femto_platform.Platform.Fc) program =
  {
    name;
    tenant;
    program;
    contract;
    runtime;
    local_store = Kvstore.create ("local:" ^ name);
    hook_uuid = detached;
    vm = no_vm;
    certfc = None;
    executions = 0;
    faults = 0;
    total_vm_cycles = 0;
    last_result = None;
  }

(* Fills the free slots of a hook's container array. *)
let none =
  create ~name:"" ~tenant:(Tenant.create "") ~contract:(Contract.require [])
    (Program.of_insns [])

let name t = t.name
let tenant t = t.tenant
let program t = t.program
let bytecode_size t = Program.byte_size t.program
let attached_to t = if t.hook_uuid == detached then None else Some t.hook_uuid
let set_attached_to t uuid = t.hook_uuid <- Option.value uuid ~default:detached
let executions t = t.executions
let faults t = t.faults
let total_vm_cycles t = t.total_vm_cycles
let last_result t = t.last_result
let local_store t = t.local_store
let set_local_store t store = t.local_store <- store

let instance t =
  if t.vm != no_vm then Some (Fc_instance t.vm)
  else Option.map (fun vm -> Certfc_instance vm) t.certfc

(* Install [instance] (or none), with [host] bound for its helpers. *)
let set_instance t ~host instance =
  t.vm <- no_vm;
  t.certfc <- None;
  match instance with
  | Some (Fc_instance vm) ->
      Femto_vm.Vm.set_host vm host;
      t.vm <- vm
  | Some (Certfc_instance vm) ->
      Femto_vm.Mem.set_host (Femto_certfc.Certfc.mem vm) host;
      t.certfc <- Some vm
  | None -> ()

let certfc_cycles vm =
  match Femto_certfc.Certfc.last_state vm with
  | Some state -> state.Femto_certfc.Interp.cycles
  | None -> 0

let run_instance ?(args = [||]) t =
  if t.vm != no_vm then begin
    let result = Femto_vm.Vm.run t.vm ~args in
    t.total_vm_cycles <- t.total_vm_cycles + Femto_vm.Vm.cycles t.vm;
    result
  end
  else
    match t.certfc with
    | Some vm ->
        let result = Femto_certfc.Certfc.run vm ~args in
        t.total_vm_cycles <- t.total_vm_cycles + certfc_cycles vm;
        result
    | None ->
        Error (Fault.Helper_error { pc = 0; id = 0; message = "not attached" })

(* Cycles of the most recent execution only. *)
let last_run_cycles t =
  if t.vm != no_vm then Femto_vm.Vm.cycles t.vm
  else match t.certfc with Some vm -> certfc_cycles vm | None -> 0
