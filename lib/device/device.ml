(* A complete Femto-Container device: the composition an actual firmware
   would ship.

   Boot wires together the hosting engine (hooks from a static firmware
   table), the SUIT update processor, persistent container slots on the
   flash simulator, and the CoAP endpoints for over-the-network management:

     POST /suit/slot     upload a payload (block-wise capable)
     POST /suit/install  submit a signed manifest; verified payloads are
                         written to a flash slot and attached to their hook
     GET  /.well-known/core   resource discovery
     GET  /fc/containers      list running containers and their stats

   Rebooting (a new [boot] over the same flash) re-attaches every valid
   slot image — updates survive power cycles, as the paper's §5 flow
   requires. *)

module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Contract = Femto_core.Contract
module Kernel = Femto_rtos.Kernel
module Network = Femto_net.Network
module Server = Femto_coap.Server
module Message = Femto_coap.Message
module Suit = Femto_suit.Suit
module Cose = Femto_cose.Cose
module Slots = Femto_flash.Slots
module Flash = Femto_flash.Flash
module Crypto = Femto_crypto.Crypto

(* The static firmware hook table: what launchpads this device build
   provides (paper Listing 1 — hooks are compiled in). *)
type hook_spec = {
  uuid : string;
  name : string;
  ctx_size : int;
  ctx_perm : Femto_vm.Region.perm;
  policy : Contract.policy;
}

let hook_spec ?(ctx_perm = Femto_vm.Region.Read_only)
    ?(policy = Contract.offer_all) ~uuid ~name ~ctx_size () =
  { uuid; name; ctx_size; ctx_perm; policy }

type identity = {
  vendor_id : string;
  class_id : string;
  update_key : Cose.key;
}

type t = {
  kernel : Kernel.t;
  engine : Engine.t;
  slots : Slots.t;
  suit : Suit.device;
  server : Server.t;
  identity : identity;
  tenant : Femto_core.Tenant.t; (* owner of network-installed containers *)
  mutable installed : (string * Container.t) list; (* hook uuid -> container *)
  mutable pending_payload : string;
  (* streaming-upload state: the payload digest/size computed while
     Block1 chunks arrived, and the flash stream the chunks were
     programmed into (finalized at install time) *)
  mutable pending_digest : Suit.digest_hint option;
  mutable pending_stream : Slots.stream option;
  mutable boots : int64;
}

let kernel t = t.kernel
let suit_processor t = t.suit
let suit_sequence t = t.suit.Suit.sequence
let suit_accepted t = t.suit.Suit.accepted
let suit_rejected t = t.suit.Suit.rejected
let engine t = t.engine
let slots t = t.slots
let server t = t.server
let containers t = List.map snd t.installed

(* Attach a restored or freshly-installed image to its hook. *)
let attach_image t ~hook_uuid payload =
  match Femto_ebpf.Program.of_bytes (Bytes.of_string payload) with
  | exception Femto_ebpf.Program.Truncated m -> Error m
  | program -> (
      match List.assoc_opt hook_uuid t.installed with
      | Some existing ->
          (* hot update of the container already on this hook *)
          Result.map_error Engine.attach_error_to_string
            (Engine.update_program t.engine existing program)
      | None -> (
          let container =
            Container.create
              ~name:(Printf.sprintf "net-%s" (String.sub hook_uuid 0 8))
              ~tenant:t.tenant
              ~contract:
                (Contract.require
                   Contract.[ Kv_local; Kv_tenant; Kv_global; Time; Sensors ])
              program
          in
          match Engine.attach t.engine ~hook_uuid container with
          | Ok _ ->
              t.installed <- (hook_uuid, container) :: t.installed;
              Ok ()
          | Error e -> Error (Engine.attach_error_to_string e)))

(* The SUIT install callback: verify-then-persist-then-attach.  The slot
   header is written only after the engine's pre-flight verification
   passed, so a slot never holds a program the device would refuse to
   run.

   When the payload streamed in over Block1, its bytes are already
   programmed into a flash slot ([pending_stream]); install then only
   writes the header (the commit point) — no second pass over the
   payload.  Otherwise it falls back to a whole-slot [Slots.store]. *)
let install_image t ~sequence ~storage_uuid payload =
  match attach_image t ~hook_uuid:storage_uuid payload with
  | Error m -> Error m
  | Ok () -> (
      let stale_slots () =
        (* drop older images of this hook so stale versions never linger;
           headers suffice, so a tampered old image is swept as well *)
        List.filter_map
          (fun (slot, (h : Slots.header)) ->
            if
              String.equal h.owner storage_uuid
              && Int64.compare h.seq sequence < 0
            then Some slot
            else None)
          (Slots.headers t.slots)
      in
      let digest =
        match t.pending_digest with
        | Some hint when hint.Suit.bytes = String.length payload ->
            Some hint.Suit.streamed
        | Some _ | None -> None
      in
      match t.pending_stream with
      | Some stream when Slots.stream_written stream = String.length payload -> (
          t.pending_stream <- None;
          let digest =
            match digest with Some d -> d | None -> Crypto.sha256 payload
          in
          match Slots.finish_stream stream ~sequence ~hook_uuid:storage_uuid ~digest with
          | Ok () ->
              List.iter (fun slot -> ignore (Slots.erase t.slots ~slot)) (stale_slots ());
              Ok ()
          | Error e -> Error (Slots.error_to_string e))
      | Some _ | None -> (
          (* overwrite the slot already holding this hook's image, else
             the usual victim slot *)
          let slot =
            match
              List.find_opt
                (fun (_, (h : Slots.header)) ->
                  String.equal h.owner storage_uuid)
                (Slots.headers t.slots)
            with
            | Some (slot, _) -> slot
            | None -> Slots.victim_slot t.slots
          in
          match
            Slots.store ?digest t.slots ~slot
              { Slots.sequence; hook_uuid = storage_uuid; payload }
          with
          | Ok () -> Ok ()
          | Error e -> Error (Slots.error_to_string e)))

let containers_report t =
  String.concat "\n"
    (List.map
       (fun (uuid, container) ->
         Printf.sprintf "%s %s runs=%d faults=%d bytes=%d" uuid
           (Container.name container)
           (Container.executions container)
           (Container.faults container)
           (Container.bytecode_size container))
       t.installed)

let register_management_endpoints t =
  (* streaming upload: each Block1 chunk is programmed straight into the
     victim flash slot while an incremental SHA-256 runs in the CoAP
     layer; by the time the last block is acknowledged the payload is on
     flash (headerless, so not yet committed) and its digest is known *)
  Server.register_upload t.server ~path:"/suit/slot"
    {
      Server.start =
        (fun () ->
          t.pending_digest <- None;
          let slot = Slots.victim_slot t.slots in
          match Slots.begin_stream t.slots ~slot with
          | Ok stream -> t.pending_stream <- Some stream
          | Error e -> failwith (Slots.error_to_string e));
      chunk =
        (fun data ->
          match t.pending_stream with
          | None -> ()
          | Some stream -> (
              match Slots.stream_write stream data with
              | Ok () -> ()
              | Error e -> failwith (Slots.error_to_string e)));
      finish =
        (fun ~src:_ ~digest ~size request ->
          t.pending_payload <- request.Message.payload;
          t.pending_digest <- Some { Suit.streamed = digest; bytes = size };
          Server.respond Message.code_changed);
      abort =
        (fun () ->
          t.pending_stream <- None;
          t.pending_digest <- None);
    };
  Server.register t.server ~path:"/suit/install" (fun ~src:_ request ->
      let hints =
        match t.pending_digest with
        | None -> None
        | Some hint ->
            Some
              (List.map
                 (fun hook -> (Femto_core.Hook.uuid hook, hint))
                 (Engine.hooks t.engine))
      in
      match
        Suit.process ?digests:hints t.suit ~envelope:request.Message.payload
          ~payloads:
            (List.map
               (fun hook -> (Femto_core.Hook.uuid hook, t.pending_payload))
               (Engine.hooks t.engine))
      with
      | Ok _manifest -> Server.respond Message.code_changed
      | Error e ->
          Server.respond
            ~payload:(Suit.error_to_string e)
            Message.code_unauthorized);
  Server.register t.server ~path:"/.well-known/core" (fun ~src:_ _ ->
      Server.respond
        ~payload:
          "</suit/slot>;rt=\"suit.slot\",</suit/install>;rt=\"suit.install\",\
           </fc/containers>;rt=\"fc.list\""
        Message.code_content);
  Server.register t.server ~path:"/fc/containers" (fun ~src:_ _ ->
      Server.respond ~payload:(containers_report t) Message.code_content)

(* [boot] brings a device up: engine + hooks, SUIT processor, management
   endpoints, then re-attach every valid image found on the flash. *)
let boot ?(platform = Femto_platform.Platform.cortex_m4) ~identity ~hooks
    ~flash ~slot_count ~network ~addr () =
  let kernel = Network.kernel network in
  let engine = Engine.create ~platform ~kernel () in
  List.iter
    (fun spec ->
      ignore
        (Engine.register_hook engine ~uuid:spec.uuid ~name:spec.name
           ~ctx_size:spec.ctx_size ~ctx_perm:spec.ctx_perm ~policy:spec.policy
           ()))
    hooks;
  let slots = Slots.create ~flash ~count:slot_count in
  let server = Server.create ~network ~addr () in
  let tenant = Engine.add_tenant engine "network-tenant" in
  let t_ref = ref None in
  let suit =
    Suit.create_device ~vendor_id:identity.vendor_id
      ~class_id:identity.class_id ~key:identity.update_key
      ~install:(fun ~sequence ~storage_uuid payload ->
        match !t_ref with
        | Some t -> install_image t ~sequence ~storage_uuid payload
        | None -> Error "device not booted")
      ~known_storage:(fun uuid -> Engine.find_hook engine uuid <> None)
      ()
  in
  let t =
    {
      kernel;
      engine;
      slots;
      suit;
      server;
      identity;
      tenant;
      installed = [];
      pending_payload = "";
      pending_digest = None;
      pending_stream = None;
      boots = 0L;
    }
  in
  t_ref := Some t;
  register_management_endpoints t;
  (* restore persisted containers: one image per hook (the highest
     sequence number wins), and the SUIT rollback counter resumes from the
     newest install *)
  let newest_per_hook = Hashtbl.create 4 in
  List.iter
    (fun (_, image) ->
      match Hashtbl.find_opt newest_per_hook image.Slots.hook_uuid with
      | Some existing
        when Int64.compare existing.Slots.sequence image.Slots.sequence >= 0 ->
          ()
      | Some _ | None ->
          Hashtbl.replace newest_per_hook image.Slots.hook_uuid image)
    (Slots.scan slots);
  Hashtbl.iter
    (fun _ image ->
      match attach_image t ~hook_uuid:image.Slots.hook_uuid image.Slots.payload with
      | Ok () ->
          if Int64.compare image.Slots.sequence t.suit.Suit.sequence > 0 then
            t.suit.Suit.sequence <- image.Slots.sequence
      | Error _ -> () (* a corrupt/unattachable image is skipped, not fatal *))
    newest_per_hook;
  t
