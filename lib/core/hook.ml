(* Hooks — the pre-provisioned launch pads of the paper (§7, Listing 1).

   A hook is compiled into the firmware at a fixed spot (scheduler switch,
   timer expiry, packet reception...).  It owns a context buffer that the
   firmware fills before triggering, exposed to every attached container as
   a memory region at a fixed virtual address with the hook's permission
   (e.g. read-only for a firewall-style packet inspector).  Containers are
   addressed to hooks by UUID — the same identifier SUIT manifests use as
   storage location. *)

module Region = Femto_vm.Region

(* Virtual address at which every container sees its hook context. *)
let ctx_vaddr = 0x2000_0000L

type t = {
  uuid : string;
  name : string;
  ctx_size : int;
  ctx_data : bytes; (* shared backing: the launchpad's context struct *)
  ctx_region : Region.t; (* over [ctx_data]; shared by every attach *)
  policy : Contract.policy;
  (* §11 "dynamic privilege levels": the paper's design has one fixed
     privilege set per hook and needs a second hook when two tenants
     differ; per-tenant overrides lift that limitation *)
  mutable tenant_policies : (string * Contract.policy) list;
  (* Attached containers in attach order, array-backed so attach is
     amortized O(1) (the list-append version rebuilt the list per
     attach) and the fire path can iterate without allocating.  Slots
     [0, attached_n) hold [Some c]; the tail is [None]. *)
  mutable slots : Container.t option array;
  mutable attached_n : int;
  mutable triggers : int;
}

let create ~uuid ~name ~ctx_size ?(ctx_perm = Region.Read_only)
    ?(policy = Contract.offer_all) () =
  let ctx_data = Bytes.make ctx_size '\000' in
  {
    uuid;
    name;
    ctx_size;
    ctx_data;
    ctx_region =
      Region.make ~name:("ctx:" ^ name) ~vaddr:ctx_vaddr ~perm:ctx_perm
        ctx_data;
    policy;
    tenant_policies = [];
    slots = [||];
    attached_n = 0;
    triggers = 0;
  }

let uuid t = t.uuid
let name t = t.name
let policy t = t.policy

(* [set_tenant_policy] narrows (or widens, within the engine's limits)
   what one tenant may be granted at this hook. *)
let set_tenant_policy t ~tenant_id policy =
  t.tenant_policies <-
    (tenant_id, policy) :: List.remove_assoc tenant_id t.tenant_policies

(* The policy applying to [tenant_id]: its override, else the hook's. *)
let policy_for t ~tenant_id =
  match List.assoc_opt tenant_id t.tenant_policies with
  | Some policy -> policy
  | None -> t.policy
(* Attach-order list view (compat for shell/tests); the engine's hot
   path uses [attached_count]/[attached_get] to avoid building it. *)
let attached t =
  List.init t.attached_n (fun i ->
      match t.slots.(i) with Some c -> c | None -> assert false)

let attached_count t = t.attached_n
let attached_get t i = t.slots.(i)

let append_attached t container =
  let cap = Array.length t.slots in
  if t.attached_n = cap then begin
    let grown = Array.make (max 4 (2 * cap)) None in
    Array.blit t.slots 0 grown 0 cap;
    t.slots <- grown
  end;
  t.slots.(t.attached_n) <- Some container;
  t.attached_n <- t.attached_n + 1

let remove_attached t container =
  let n = t.attached_n in
  let j = ref 0 in
  for i = 0 to n - 1 do
    match t.slots.(i) with
    | Some c when c == container -> ()
    | slot ->
        t.slots.(!j) <- slot;
        incr j
  done;
  Array.fill t.slots !j (n - !j) None;
  t.attached_n <- !j

let triggers t = t.triggers
let ctx_data t = t.ctx_data

(* The context region handed to an attaching container: same backing bytes
   for all containers on the hook, permission set by the launchpad. *)
let ctx_region t = t.ctx_region

let set_ctx t ctx =
  let len = Bytes.length ctx in
  if len > t.ctx_size then invalid_arg "Hook.set_ctx: context too large";
  Bytes.fill t.ctx_data 0 t.ctx_size '\000';
  Bytes.blit ctx 0 t.ctx_data 0 len
