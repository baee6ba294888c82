(* Simulated low-power wireless network.

   Stands in for the paper's IEEE 802.15.4 radio + 6LoWPAN stack (see
   DESIGN.md): datagrams are fragmented into 127-byte frames, each frame
   independently suffers deterministic pseudo-random loss and a propagation
   delay, and receivers reassemble.  Delivery is driven by the RTOS
   simulator's timer queue, so networking and computation share one
   virtual clock. *)

module Kernel = Femto_rtos.Kernel
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics

(* Radio-level metrics across all simulated networks. *)
let m_datagrams_sent = Obs.counter "net.datagrams_sent"
let m_datagrams_delivered = Obs.counter "net.datagrams_delivered"
let m_frames_sent = Obs.counter "net.frames_sent"
let m_frames_dropped = Obs.counter "net.frames_dropped"
let m_datagrams_gatewayed = Obs.counter "net.datagrams_gatewayed"
let m_frames_duplicated = Obs.counter "net.frames_duplicated"
let m_frames_reordered = Obs.counter "net.frames_reordered"

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

type t = {
  kernel : Kernel.t;
  nodes : (int, node) Hashtbl.t;
  profile : Profile.t; (* per-frame loss/dup/reorder/latency model *)
  rng : Random.State.t;
  mutable next_tag : int;
  mutable gateway : (src:int -> dst:int -> bytes -> unit) option;
      (* border router: datagrams addressed to nodes not on this network
         are handed over whole — one hand-off per datagram instead of
         per-frame radio events, which is what makes cross-shard fleet
         traffic batchable at epoch barriers *)
  stats : stats;
}

let create ~kernel ?(profile = Profile.clean) ?(seed = 42) () =
  {
    kernel;
    nodes = Hashtbl.create 4;
    profile;
    rng = Random.State.make [| seed |];
    next_tag = 1;
    gateway = None;
    stats =
      {
        frames_sent = 0;
        frames_dropped = 0;
        frames_duplicated = 0;
        frames_reordered = 0;
        datagrams_sent = 0;
        datagrams_delivered = 0;
        datagrams_gatewayed = 0;
      };
  }

let stats t = t.stats
let profile t = t.profile
let kernel t = t.kernel
let set_gateway t handler = t.gateway <- Some handler

let add_node t ~addr =
  if Hashtbl.mem t.nodes addr then
    invalid_arg (Printf.sprintf "node %d already exists" addr);
  let node =
    { addr; reassembler = Frag.create_reassembler (); on_datagram = (fun ~src:_ _ -> ()) }
  in
  Hashtbl.replace t.nodes addr node;
  node

let set_receiver node handler = node.on_datagram <- handler

(* Used when a simulated device powers off/reboots: its radio leaves the
   network so a fresh boot can re-register the address. *)
let remove_node t ~addr = Hashtbl.remove t.nodes addr

let deliver_frame t ~src ~dst frame =
  match Hashtbl.find_opt t.nodes dst with
  | None -> ()
  | Some node -> (
      match Frag.accept node.reassembler ~src frame with
      | Some datagram ->
          t.stats.datagrams_delivered <- t.stats.datagrams_delivered + 1;
          if Obs.enabled () then Ometrics.incr m_datagrams_delivered;
          node.on_datagram ~src datagram
      | None -> ())

(* [send t ~src ~dst payload] fragments and schedules frame deliveries on
   the virtual clock; each frame is independently lost with the configured
   probability.  When [dst] is not a local node and a gateway is set, the
   whole datagram is handed to the gateway instead — no fragmentation, no
   radio events (the off-link hop is modelled by whatever the gateway
   does with it; the fleet enqueues it for the next epoch barrier). *)
let send_local t ~src ~dst payload =
  let tag = t.next_tag in
  t.next_tag <- (t.next_tag + 1) land 0xFFFF;
  let frames = Frag.fragment ~tag payload in
  let p = t.profile in
  let nframes = List.length frames in
  let draw permille = permille > 0 && Random.State.int t.rng 1000 < permille in
  let jitter () =
    if p.Profile.p_jitter_us > 0 then
      Random.State.int t.rng (p.Profile.p_jitter_us + 1)
    else 0
  in
  List.iteri
    (fun i frame ->
      t.stats.frames_sent <- t.stats.frames_sent + 1;
      if Obs.enabled () then Ometrics.incr m_frames_sent;
      if draw p.Profile.p_loss_permille then begin
        t.stats.frames_dropped <- t.stats.frames_dropped + 1;
        if Obs.enabled () then Ometrics.incr m_frames_dropped
      end
      else begin
        (* frames serialize on the radio: stagger them by index, then
           add the profile's jitter; a reorder draw holds the frame back
           past every in-order successor of its own datagram *)
        let us = (p.Profile.p_latency_us * (i + 1)) + jitter () in
        let us =
          if draw p.Profile.p_reorder_permille then begin
            t.stats.frames_reordered <- t.stats.frames_reordered + 1;
            if Obs.enabled () then Ometrics.incr m_frames_reordered;
            us + (p.Profile.p_latency_us * (nframes + 1)) + jitter () + 1
          end
          else us
        in
        Kernel.after_us t.kernel ~us (fun _ -> deliver_frame t ~src ~dst frame);
        if draw p.Profile.p_dup_permille then begin
          t.stats.frames_duplicated <- t.stats.frames_duplicated + 1;
          if Obs.enabled () then Ometrics.incr m_frames_duplicated;
          let us = us + p.Profile.p_latency_us + jitter () + 1 in
          Kernel.after_us t.kernel ~us (fun _ -> deliver_frame t ~src ~dst frame)
        end
      end)
    frames

let send t ~src ~dst payload =
  t.stats.datagrams_sent <- t.stats.datagrams_sent + 1;
  if Obs.enabled () then Ometrics.incr m_datagrams_sent;
  match t.gateway with
  | Some gateway when not (Hashtbl.mem t.nodes dst) ->
      t.stats.datagrams_gatewayed <- t.stats.datagrams_gatewayed + 1;
      if Obs.enabled () then Ometrics.incr m_datagrams_gatewayed;
      gateway ~src ~dst payload
  | Some _ | None -> send_local t ~src ~dst payload
