(** Runtime memory-access checks against a container's allow-list.

    Every load/store computed by the VM — including register-computed
    addresses — resolves against the region list; an access no region
    permits aborts execution (Figure 4 of the paper). *)

type t

val create : stack:Region.t -> Region.t list -> t
(** A map that scans [stack] first, then the regions in list order. *)

val regions : t -> Region.t list
(** The stack region, then the allow-list. *)

val stack : t -> Region.t

val set_stack : t -> Region.t -> unit
(** Swap the stack slot: the VM lends each run its stack this way. *)

val with_stack : t -> Region.t -> t
(** A copy of the map with another stack slot, sharing the allow-list
    array. *)

val raw_regions : t -> Region.t array
(** The live allow-list array without the stack slot, and without
    copying — the compiled tier's region inline caches snapshot it to
    reason about scan order, so a cache never holds a lent stack.
    [add_region] replaces the array (append), so a cached array identity
    also witnesses that no region has been added since. *)

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
