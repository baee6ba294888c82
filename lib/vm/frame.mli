(** Run frames: the per-run state of a VM execution, lent by the domain.

    The stack and the register file are dead between runs (every run
    entry zeroes them), so no instance owns them.  Each domain keeps a
    stack of frames, one per nesting depth: {!acquire} lends a run the
    lowest free frame, {!release} gives it back.  A run that starts
    while another is live on the same domain (a helper running a second
    container) gets the next frame, so the outer run's stack and
    registers stay intact. *)

type slot = ..
(** Per-frame state a tier keeps with the frame (the IR tier's run
    context). *)

type t = {
  depth : int;  (** index in its domain's frame stack *)
  stack : bytes;
  region : Region.t;  (** the stack as an allow-list entry ("stack") *)
  rf : bytes;
      (** the register file: r0..r10, 8 bytes each, read and written
          unboxed by both tiers and by helpers *)
  mutable dirty_lo : int;
      (** stack bytes outside [\[dirty_lo, dirty_hi)] are zero *)
  mutable dirty_hi : int;
  mutable slot : slot option;
}

val acquire : Config.t -> t
(** Lend the calling domain's lowest free frame, laid out for
    [config]'s stack.  Allocates only the first time a depth is reached
    or when the stack layout differs from the frame's previous user. *)

val release : t -> unit
(** Give [fr] back (with every frame lent after it).  Must run on the
    domain that lent it, on every exit path of the run. *)

val last : Config.t -> t
(** The frame the next run on this domain at the current depth would
    borrow: after a run returns, the one it ran on, holding its stack
    and registers until the next run takes it. *)

val unlent : Region.t
(** The empty region that stands in the stack slot of a memory map no
    run is using. *)

val ram_bytes : Config.t -> int
(** A frame's stack plus one register file, in the paper's per-instance
    RAM sense (Table 3): what every run borrows. *)

val heap_bytes : Config.t -> int
(** Host heap bytes of one frame laid out for [config], as built: stack,
    region, register file, record.  Table 1 adds it to an rBPF
    instance's deep size. *)
