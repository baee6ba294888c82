(* Key-value store: the persistence primitive Femto-Containers get in lieu
   of a file system (paper §7).  Values survive between invocations of a
   container.  Three scopes exist, assembled by the hosting engine:
   - local:  private to one container;
   - tenant: shared by the containers of one tenant;
   - global: shared by every container on the device.

   Two representations share one record:
   - a plain bounded table (the classic store);
   - a copy-on-write view over a frozen parent — reads fall through to
     the parent, the first write materializes a private delta entry,
     deletes of parent keys become tombstones, and teardown cost is
     O(delta).  This is what makes image-spawned container instances
     cheap: thousands of residents share one baseline table.

   The entries a store owns (a table, or a view's delta) live in one
   flat buffer inside the record: entry i is 16 bytes, its key slot at
   byte 16i and its value at 16i + 8, little endian, sorted by key.  A
   fleet device holds a few entries per store and thousands of devices
   share a heap, so a store pays for no hash-table skeleton and no
   second array: it starts on the shared empty buffer and allocates on
   its first write.  Each key slot holds [(key lsl 1) lor tombstone];
   the shift keeps signed key order, so the slots sort by key and
   [bindings] needs no sort. *)

type t = {
  name : string;
  max_entries : int; (* bounded: RAM on the device is finite *)
  mutable buf : Bytes.t; (* entries [0, len), 16 bytes each *)
  mutable len : int;
  parent : t; (* a view's frozen parent; [table] for a plain table *)
  delta_quota : int;
      (* per-view cap on private delta entries (per-tenant write quota);
         [max_int] bounds only by [max_entries] *)
  mutable cleared : bool; (* a view-level clear hides the whole parent *)
  mutable logical_len : int; (* a view's length as seen through it *)
}

exception Full of string

(* The parent of every plain table: itself, so the field needs no
   option box. *)
let rec table =
  {
    name = "";
    max_entries = 0;
    buf = Bytes.empty;
    len = 0;
    parent = table;
    delta_quota = max_int;
    cleared = false;
    logical_len = 0;
  }

let[@inline] is_cow t = t.parent != table

let create ?(max_entries = 64) name =
  { table with name; max_entries; parent = table }

let name t = t.name

(* --- the flat map --- *)

let tombstone_bit = 1
let[@inline] slot_at buf i = Int64.to_int (Bytes.get_int64_le buf (i lsl 4))
let[@inline] slot_key slot = slot asr 1

(* Index of [k] among the first [len] sorted slots, or [-(insertion
   point) - 1] when absent.  Top-level with explicit arguments, so a
   lookup allocates no closure. *)
let rec search buf k lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let m = slot_key (slot_at buf mid) in
    if m = k then mid else if m < k then search buf k (mid + 1) hi
    else search buf k lo mid

let[@inline] find t key = search t.buf (Int32.to_int key) 0 t.len
let[@inline] value_at t i = Bytes.get_int64_le t.buf ((i lsl 4) + 8)
let[@inline] is_tombstone t i = slot_at t.buf i land tombstone_bit <> 0
let[@inline] key_at t i = Int32.of_int (slot_key (slot_at t.buf i))

let set_at t i key ~tombstone value =
  Bytes.set_int64_le t.buf (i lsl 4)
    (Int64.of_int
       ((Int32.to_int key lsl 1) lor if tombstone then tombstone_bit else 0));
  Bytes.set_int64_le t.buf ((i lsl 4) + 8) value

(* Insert at index [i] (an insertion point from [search]), growing the
   buffer by doubling from two entries. *)
let insert_at t i key ~tombstone value =
  let n = t.len in
  if n lsl 4 = Bytes.length t.buf then begin
    let buf = Bytes.create (max 2 (2 * n) lsl 4) in
    Bytes.blit t.buf 0 buf 0 (n lsl 4);
    t.buf <- buf
  end;
  Bytes.blit t.buf (i lsl 4) t.buf ((i + 1) lsl 4) ((n - i) lsl 4);
  t.len <- n + 1;
  set_at t i key ~tombstone value

let delete_at t i =
  let n = t.len - 1 in
  Bytes.blit t.buf ((i + 1) lsl 4) t.buf (i lsl 4) ((n - i) lsl 4);
  t.len <- n

(* Write [key] at its slot, or insert it at the insertion point [i]. *)
let put t i key ~tombstone value =
  if i >= 0 then set_at t i key ~tombstone value
  else insert_at t (-i - 1) key ~tombstone value

let reset t =
  t.buf <- Bytes.empty;
  t.len <- 0

(* --- the store interface --- *)

let length t = if is_cow t then t.logical_len else t.len

(* [cow] views must only be created over parents that are not mutated
   for the lifetime of the view (the engine freezes image baselines):
   the cached logical length relies on it. *)
let cow ?max_entries ?(delta_quota = max_int) ~parent vname =
  let max_entries =
    match max_entries with Some m -> m | None -> parent.max_entries
  in
  {
    name = vname;
    max_entries;
    buf = Bytes.empty;
    len = 0;
    parent;
    delta_quota;
    cleared = false;
    logical_len = length parent;
  }

(* Missing keys read as zero, as in the paper's thread-counter example
   (first fetch of a fresh key yields a zero counter). *)
let rec fetch t key =
  let i = find t key in
  if i >= 0 then if is_tombstone t i then 0L else value_at t i
  else if t.cleared || not (is_cow t) then 0L
  else fetch t.parent key

let rec mem t key = visible t (find t key) key

(* Whether a store shows [key], given its own index [i] from [find]. *)
and visible t i key =
  if i >= 0 then not (is_tombstone t i)
  else is_cow t && (not t.cleared) && mem t.parent key

(* Capacity is counted on *logical* entries, so a CoW view behaves
   exactly like an eager copy of its parent: overwriting an existing key
   (own or inherited) always succeeds even at capacity; inserting a
   fresh key at capacity fails.  [delta_quota] additionally bounds the
   private delta — the per-tenant write budget. *)
let store t key value =
  let i = find t key in
  if not (is_cow t) then
    if i < 0 && t.len >= t.max_entries then Error (`Store_full t.name)
    else begin
      put t i key ~tombstone:false value;
      Ok ()
    end
  else
    let fresh = not (visible t i key) in
    if fresh && t.logical_len >= t.max_entries then Error (`Store_full t.name)
    else if i < 0 && t.len >= t.delta_quota then Error (`Store_full t.name)
    else begin
      put t i key ~tombstone:false value;
      if fresh then t.logical_len <- t.logical_len + 1;
      Ok ()
    end

let remove t key =
  let i = find t key in
  if not (is_cow t) then (if i >= 0 then delete_at t i)
  else begin
    if visible t i key then t.logical_len <- t.logical_len - 1;
    if t.cleared || not (mem t.parent key) then begin
      if i >= 0 then delete_at t i
    end
    else
      (* the parent still holds the key: shadow it.  Tombstones are
         exempt from [delta_quota] — deletion must not fail. *)
      put t i key ~tombstone:true 0L
  end

let clear t =
  reset t;
  if is_cow t then begin
    t.cleared <- true;
    t.logical_len <- 0
  end

(* Merge two key-sorted lists; the delta wins, a tombstone drops. *)
let rec merge inherited delta =
  match (inherited, delta) with
  | rest, [] -> rest
  | [], _ ->
      List.filter_map (fun (k, e) -> Option.map (fun v -> (k, v)) e) delta
  | ((pk, _) as p) :: ps, (dk, e) :: ds ->
      let c = Int32.compare pk dk in
      if c < 0 then p :: merge ps delta
      else
        let rest = merge (if c = 0 then ps else inherited) ds in
        match e with Some v -> (dk, v) :: rest | None -> rest

let rec bindings t =
  if not (is_cow t) then List.init t.len (fun i -> (key_at t i, value_at t i))
  else
    let delta =
      List.init t.len (fun i ->
          (key_at t i, if is_tombstone t i then None else Some (value_at t i)))
    in
    merge (if t.cleared then [] else bindings t.parent) delta

(* Introspection for the engine, bench and tests. *)

let delta_size t = t.len
let parent t = if is_cow t then Some t.parent else None

(* Approximate RAM cost in bytes, for the memory-footprint experiments:
   key (4) + value (8) + per-entry bookkeeping (8).  A CoW view pays
   only for its delta — shared parents are billed to their owners.
   This models the device's RAM, not the host representation above. *)
let ram_bytes t = (if is_cow t then 40 else 24) + (t.len * 20)
