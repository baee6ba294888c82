(** Key-value store — the persistence primitive Femto-Containers get in
    lieu of a file system (paper §7).

    Values survive between invocations of a container.  Three scopes are
    assembled by the hosting engine: local (one container), tenant (one
    tenant's containers), global (the whole device).

    Besides the classic bounded table ({!create}), a second
    representation backs the container image/instance split: {!cow}
    builds a copy-on-write view over a frozen parent (reads fall
    through, the first write materializes a private delta entry, and
    teardown is O(delta)).  Either is one record plus one entry buffer,
    allocated on the first write. *)

type t

exception Full of string

val create : ?max_entries:int -> string -> t
(** [create name] makes an empty, bounded store ([max_entries] defaults
    to 64 — device RAM is finite). *)

val cow : ?max_entries:int -> ?delta_quota:int -> parent:t -> string -> t
(** [cow ~parent name] is a copy-on-write view over [parent], observably
    an eager copy of it: same logical contents, same capacity semantics
    (overwrite-at-capacity succeeds, insert-at-capacity fails against
    [max_entries], default the parent's).  [delta_quota], when given,
    additionally caps private delta entries — the per-tenant write
    budget for instances spawned from a shared image (tombstones are
    exempt: deletion never fails).  The parent must not be mutated while
    the view is live. *)

val name : t -> string

val length : t -> int
(** Logical entry count (for a CoW view: as seen through the view). *)

val fetch : t -> int32 -> int64
(** Missing keys read as zero (as in the paper's thread-counter
    example). *)

val mem : t -> int32 -> bool

val store : t -> int32 -> int64 -> (unit, [ `Store_full of string ]) result
(** Inserting a new key into a full store fails; overwriting an existing
    key (including one inherited from a CoW parent) always succeeds. *)

val remove : t -> int32 -> unit
val clear : t -> unit

val bindings : t -> (int32 * int64) list
(** Sorted by key; for a CoW view, the merged logical contents. *)

val is_cow : t -> bool

val delta_size : t -> int
(** Privately-owned entries: delta size for a CoW view (tombstones
    included), table size otherwise. *)

val parent : t -> t option
(** The CoW parent, when [is_cow]. *)

val ram_bytes : t -> int
(** Approximate RAM cost for the footprint experiments; a CoW view is
    billed only for its delta. *)
