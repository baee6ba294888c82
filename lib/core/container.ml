(* A Femto-Container: a verified program plus its sandbox state.

   A container belongs to a tenant, declares a contract, and — once
   attached to a hook — owns a VM instance (optimized or CertFC), its
   private key-value store and its execution statistics.  All state is
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
  mutable attached_to : string option; (* hook uuid *)
  mutable instance : instance option;
  mutable executions : int;
  mutable faults : int;
  mutable total_vm_cycles : int;
  mutable last_result : (int64, Fault.t) result option;
  mutable prepare_run : unit -> unit;
      (* runs before each execution; image-spawned instances use it to
         re-point the image's forward kv stores at their own stores
         (the engine is single-threaded, so rebind-per-run is safe) *)
}

let create ~name ~tenant ~contract
    ?(runtime = Femto_platform.Platform.Fc) program =
  {
    name;
    tenant;
    program;
    contract;
    runtime;
    local_store = Kvstore.create ("local:" ^ name);
    attached_to = None;
    instance = None;
    executions = 0;
    faults = 0;
    total_vm_cycles = 0;
    last_result = None;
    prepare_run = ignore;
  }

let name t = t.name
let tenant t = t.tenant
let program t = t.program
let bytecode_size t = Program.byte_size t.program
let attached_to t = t.attached_to
let executions t = t.executions
let faults t = t.faults
let total_vm_cycles t = t.total_vm_cycles
let last_result t = t.last_result
let local_store t = t.local_store
let set_local_store t store = t.local_store <- store
let set_prepare_run t f = t.prepare_run <- f

let run_instance ?(args = [||]) t =
  t.prepare_run ();
  match t.instance with
  | None -> Error (Fault.Helper_error { pc = 0; id = 0; message = "not attached" })
  | Some (Fc_instance vm) ->
      let result = Femto_vm.Vm.run vm ~args in
      t.total_vm_cycles <-
        t.total_vm_cycles + (Femto_vm.Vm.stats vm).Femto_vm.Interp.cycles;
      result
  | Some (Certfc_instance vm) ->
      let result = Femto_certfc.Certfc.run vm ~args in
      (match Femto_certfc.Certfc.last_state vm with
      | Some state ->
          t.total_vm_cycles <-
            t.total_vm_cycles + state.Femto_certfc.Interp.cycles
      | None -> ());
      result

(* Cycles of the most recent execution only. *)
let last_run_cycles t =
  match t.instance with
  | None -> 0
  | Some (Fc_instance vm) -> (Femto_vm.Vm.stats vm).Femto_vm.Interp.cycles
  | Some (Certfc_instance vm) -> (
      match Femto_certfc.Certfc.last_state vm with
      | Some state -> state.Femto_certfc.Interp.cycles
      | None -> 0)
