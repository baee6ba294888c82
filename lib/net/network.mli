(** Simulated low-power wireless network.

    Stands in for the paper's IEEE 802.15.4 radio + 6LoWPAN stack:
    datagrams are fragmented into 127-byte frames, each frame
    independently suffers deterministic pseudo-random loss and a
    propagation delay, and receivers reassemble.  Delivery is driven by
    the RTOS simulator's timer queue, so networking and computation share
    one virtual clock. *)

type node = {
  addr : int;
  reassembler : Frag.reassembler;
  mutable on_datagram : src:int -> bytes -> unit;
}

type stats = {
  mutable frames_sent : int;
  mutable frames_dropped : int;
  mutable frames_duplicated : int;
  mutable frames_reordered : int;
  mutable datagrams_sent : int;
  mutable datagrams_delivered : int;
  mutable datagrams_gatewayed : int;
}

type t

val create :
  kernel:Femto_rtos.Kernel.t ->
  ?profile:Profile.t ->
  ?seed:int ->
  unit ->
  t
(** [profile] selects the fault-injection model (default
    {!Profile.clean}).  [seed] makes the whole fault schedule
    reproducible. *)

val stats : t -> stats
val profile : t -> Profile.t
val kernel : t -> Femto_rtos.Kernel.t

val add_node : t -> addr:int -> node
(** Raises [Invalid_argument] when the address is taken. *)

val set_receiver : node -> (src:int -> bytes -> unit) -> unit
(** Handler for complete (reassembled) datagrams. *)

val remove_node : t -> addr:int -> unit
(** Power-off/reboot: the node leaves the network so a fresh boot can
    re-register the address. *)

val send : t -> src:int -> dst:int -> bytes -> unit
(** Fragment and schedule delivery on the virtual clock; frames may be
    lost per the configured probability.  Datagrams addressed to a node
    not on this network go to the gateway (whole, unfragmented) when one
    is set, and are silently radiated into the void otherwise. *)

val set_gateway : t -> (src:int -> dst:int -> bytes -> unit) -> unit
(** Border router for off-link destinations: [send] hands the gateway the
    whole datagram — one hand-off instead of per-frame radio events, so a
    fleet can batch cross-shard traffic at epoch barriers.  The off-link
    hop's loss/latency model is the gateway's business. *)
