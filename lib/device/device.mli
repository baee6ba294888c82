(** A complete Femto-Container device: the composition an actual firmware
    would ship.

    [boot] wires together the hosting engine (hooks from a static
    firmware table), the SUIT update processor, persistent container
    slots on the flash simulator, and the CoAP management endpoints:

    - [POST /suit/slot] — upload a payload (block-wise capable);
    - [POST /suit/install] — submit a signed manifest; verified payloads
      are written to a flash slot and attached to their hook;
    - [GET /.well-known/core] — resource discovery;
    - [GET /fc/containers] — list running containers and their stats.

    Re-booting over the same flash re-attaches every valid slot image —
    updates survive power cycles, as the paper's §5 flow requires. *)

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

(** One entry of the static firmware hook table (paper Listing 1 — hooks
    are compiled in). *)
type hook_spec = {
  uuid : string;
  name : string;
  ctx_size : int;
  ctx_perm : Femto_vm.Region.perm;
  policy : Contract.policy;
}

val hook_spec :
  ?ctx_perm:Femto_vm.Region.perm ->
  ?policy:Contract.policy ->
  uuid:string ->
  name:string ->
  ctx_size:int ->
  unit ->
  hook_spec

type identity = {
  vendor_id : string;
  class_id : string;
  update_key : Cose.key;
}

type t

val kernel : t -> Kernel.t
val engine : t -> Engine.t
val slots : t -> Slots.t
val server : t -> Server.t
val containers : t -> Container.t list

val suit_processor : t -> Suit.device
val suit_sequence : t -> int64
val suit_accepted : t -> int
val suit_rejected : t -> int

val containers_report : t -> string
(** The `/fc/containers` listing. *)

val pending_upload : t -> string * Suit.digest_hint option
(** The Block1 payload held in RAM for the next [/suit/install], with the
    digest streamed while it arrived.  A successful install releases both
    ([("", None)]); a refused one keeps them, so a corrected manifest
    installs without a re-upload. *)

val boot :
  ?platform:Femto_platform.Platform.t ->
  identity:identity ->
  hooks:hook_spec list ->
  flash:Flash.t ->
  slot_count:int ->
  network:Network.t ->
  addr:int ->
  unit ->
  t
(** Bring a device up: engine + hooks, SUIT processor, management
    endpoints; then re-attach the newest valid image per hook found on
    the flash, resuming the SUIT rollback counter from the newest
    install. *)
