(** One VM instance: its memory map and the rest of its private state.

    Every load/store computed by the VM — including register-computed
    addresses — resolves against the instance's region list; an access
    no region permits aborts execution (Figure 4 of the paper).

    The record is the whole private state of an instance (paper §10.3):
    the stack slot and allow-list, the statistics of its last run, the
    compiled tier's region inline caches, the binding its embedder gives
    the helpers, and one pointer to the shared image it runs.  Helpers
    receive it, so they reach the running instance's host through it. *)

type shared = ..
(** The immutable image an instance runs, shared by every instance of
    it ([Vm] adds its image). *)

type shared += No_image

type host = ..
(** What the embedder binds to an instance for its helpers (the hosting
    engine adds its container binding). *)

type host += Unbound

type t = {
  shared : shared;
  mutable host : host;
  mutable stack : Region.t;
      (** scanned first; {!Frame.unlent} between runs, the lent frame's
          stack during one *)
  mutable regions : Region.t array;  (** the allow-list, in scan order *)
  snapshot : Region.t array;
      (** the allow-list array at creation: regions appended later scan
          after every region in it *)
  rcache : Region.t array;
      (** per-site region inline caches of the compiled tier; an empty
          slot holds a region that contains no address *)
  cache_ok : bool;
      (** the snapshot and the stack are pairwise disjoint, so the
          inline caches are sound *)
  mutable insns_executed : int;  (** statistics of the last run *)
  mutable branches_taken : int;
  mutable helper_calls : int;
  mutable cycles : int;  (** accumulated platform cycle-model cost *)
  mutable runs : int;  (** compiled-tier runs *)
}

val create :
  ?shared:shared ->
  ?cache_sites:int ->
  ?cache_ok:bool ->
  stack:Region.t ->
  Region.t list ->
  t
(** A map that scans [stack] first, then the regions in list order, with
    zeroed statistics, no host and [cache_sites] empty inline caches. *)

val regions : t -> Region.t list
(** The stack region, then the allow-list. *)

val stack : t -> Region.t

val set_stack : t -> Region.t -> unit
(** Swap the stack slot: the VM lends each run its stack this way. *)

val with_stack : t -> Region.t -> t
(** A copy of the map with another stack slot, sharing the allow-list
    array. *)

val host : t -> host
val set_host : t -> host -> unit

val add_region : t -> Region.t -> unit

val find : t -> addr:int64 -> size:int -> write:bool -> Region.t option
(** First region permitting the access: the stack, then the allow-list
    in order. *)

val load : t -> addr:int64 -> size:int -> (int64, unit) result
(** Checked little-endian load of 1, 2, 4 or 8 bytes, zero-extended as
    eBPF LDX requires.  [Error ()] when no region allows the read. *)

val store : t -> addr:int64 -> size:int -> int64 -> (unit, unit) result
(** Checked little-endian store (value truncated to [size]). *)

val load_bytes : t -> addr:int64 -> len:int -> (bytes, unit) result
(** Helper-facing bulk read obeying the same allow-list. *)

val store_bytes : t -> addr:int64 -> bytes -> (unit, unit) result
(** Helper-facing bulk write obeying the same allow-list. *)
