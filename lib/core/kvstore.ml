(* Key-value store: the persistence primitive Femto-Containers get in lieu
   of a file system (paper §7).  Values survive between invocations of a
   container.  Three scopes exist, assembled by the hosting engine:
   - local:  private to one container;
   - tenant: shared by the containers of one tenant;
   - global: shared by every container on the device.

   Three representations share one interface:
   - [Direct]:  a plain bounded table (the classic store);
   - [Cow]:     a copy-on-write view over a frozen parent — reads fall
     through to the parent, the first write materializes a private delta
     entry, deletes of parent keys become tombstones, and teardown cost
     is O(delta).  This is what makes image-spawned container instances
     cheap: thousands of residents share one baseline table;
   - [Forward]: a retargetable indirection, letting helper tables that
     were compiled once against a shared image be re-bound to the
     running instance's stores before each dispatch.

   The entries a store owns (a [Direct] table, or a [Cow] delta) live in
   one flat map inside the record: a sorted [int array] of keys and the
   values unboxed in a [Bytes], 8 little-endian bytes per entry.  A fleet
   device holds a few entries per store and thousands of devices share a
   heap, so a store pays for no hash-table skeleton: it starts on shared
   empty arrays and allocates on its first write.  Each key slot holds
   [(key lsl 1) lor tombstone]; the shift keeps signed key order, so the
   slots sort by key and [bindings] needs no sort. *)

type t = {
  name : string;
  max_entries : int; (* bounded: RAM on the device is finite *)
  mutable keys : int array; (* sorted slots in [0, len) *)
  mutable vals : Bytes.t; (* value of slot i at byte 8i *)
  mutable len : int;
  impl : impl;
}

and impl =
  | Direct
  | Cow of {
      parent : t; (* must be frozen while this view is live *)
      delta_quota : int;
          (* per-view cap on private delta entries (per-tenant write
             quota); [max_int] bounds only by [max_entries] *)
      mutable cleared : bool; (* a view-level clear hides the whole parent *)
      mutable logical_len : int; (* parent length at creation, maintained *)
    }
  | Forward of { mutable target : t }

exception Full of string

let make name max_entries impl =
  { name; max_entries; keys = [||]; vals = Bytes.empty; len = 0; impl }

let create ?(max_entries = 64) name = make name max_entries Direct

let name t = t.name

(* --- the flat map --- *)

let tombstone_bit = 1
let[@inline] slot_key slot = slot asr 1

(* Index of [k] among the first [len] sorted slots, or [-(insertion
   point) - 1] when absent.  Top-level with explicit arguments, so a
   lookup allocates no closure. *)
let rec search keys k lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let m = slot_key (Array.unsafe_get keys mid) in
    if m = k then mid else if m < k then search keys k (mid + 1) hi
    else search keys k lo mid

let[@inline] find t key = search t.keys (Int32.to_int key) 0 t.len
let[@inline] value_at t i = Bytes.get_int64_le t.vals (i lsl 3)
let[@inline] is_tombstone t i = t.keys.(i) land tombstone_bit <> 0

let set_at t i key ~tombstone value =
  t.keys.(i) <-
    (Int32.to_int key lsl 1) lor if tombstone then tombstone_bit else 0;
  Bytes.set_int64_le t.vals (i lsl 3) value

(* Insert at index [i] (an insertion point from [search]), growing the
   arrays by doubling from two entries. *)
let insert_at t i key ~tombstone value =
  let n = t.len in
  if n = Array.length t.keys then begin
    let cap = max 2 (2 * n) in
    let keys = Array.make cap 0 in
    let vals = Bytes.create (cap lsl 3) in
    Array.blit t.keys 0 keys 0 n;
    Bytes.blit t.vals 0 vals 0 (n lsl 3);
    t.keys <- keys;
    t.vals <- vals
  end;
  Array.blit t.keys i t.keys (i + 1) (n - i);
  Bytes.blit t.vals (i lsl 3) t.vals ((i + 1) lsl 3) ((n - i) lsl 3);
  t.len <- n + 1;
  set_at t i key ~tombstone value

let delete_at t i =
  let n = t.len - 1 in
  Array.blit t.keys (i + 1) t.keys i (n - i);
  Bytes.blit t.vals ((i + 1) lsl 3) t.vals (i lsl 3) ((n - i) lsl 3);
  t.len <- n

(* Write [key] at its slot, or insert it at the insertion point [i]. *)
let put t i key ~tombstone value =
  if i >= 0 then set_at t i key ~tombstone value
  else insert_at t (-i - 1) key ~tombstone value

let reset t =
  t.keys <- [||];
  t.vals <- Bytes.empty;
  t.len <- 0

(* --- the store interface --- *)

let rec length t =
  match t.impl with
  | Direct -> t.len
  | Cow c -> c.logical_len
  | Forward f -> length f.target

(* [cow] views must only be created over parents that are not mutated
   for the lifetime of the view (the engine freezes image baselines):
   the cached logical length relies on it. *)
let cow ?max_entries ?(delta_quota = max_int) ~parent vname =
  let max_entries =
    match max_entries with Some m -> m | None -> parent.max_entries
  in
  make vname max_entries
    (Cow { parent; delta_quota; cleared = false; logical_len = length parent })

let forward ~target fname = make fname 0 (Forward { target })

let retarget t target =
  match t.impl with
  | Forward f -> f.target <- target
  | Direct | Cow _ -> invalid_arg "Kvstore.retarget: not a forward store"

(* Missing keys read as zero, as in the paper's thread-counter example
   (first fetch of a fresh key yields a zero counter). *)
let rec fetch t key =
  match t.impl with
  | Direct ->
      let i = find t key in
      if i >= 0 then value_at t i else 0L
  | Cow c ->
      let i = find t key in
      if i >= 0 then if is_tombstone t i then 0L else value_at t i
      else if c.cleared then 0L
      else fetch c.parent key
  | Forward f -> fetch f.target key

let rec mem t key =
  match t.impl with
  | Direct -> find t key >= 0
  | Cow c -> visible t (find t key) ~cleared:c.cleared c.parent key
  | Forward f -> mem f.target key

(* Whether a view shows [key], given its delta index [i] from [find]. *)
and visible t i ~cleared parent key =
  if i >= 0 then not (is_tombstone t i) else (not cleared) && mem parent key

(* Capacity is counted on *logical* entries, so a CoW view behaves
   exactly like an eager copy of its parent: overwriting an existing key
   (own or inherited) always succeeds even at capacity; inserting a
   fresh key at capacity fails.  [delta_quota] additionally bounds the
   private delta — the per-tenant write budget. *)
let rec store t key value =
  match t.impl with
  | Direct ->
      let i = find t key in
      if i < 0 && t.len >= t.max_entries then Error (`Store_full t.name)
      else begin
        put t i key ~tombstone:false value;
        Ok ()
      end
  | Cow c ->
      let i = find t key in
      let fresh = not (visible t i ~cleared:c.cleared c.parent key) in
      if fresh && c.logical_len >= t.max_entries then Error (`Store_full t.name)
      else if i < 0 && t.len >= c.delta_quota then Error (`Store_full t.name)
      else begin
        put t i key ~tombstone:false value;
        if fresh then c.logical_len <- c.logical_len + 1;
        Ok ()
      end
  | Forward f -> store f.target key value

let rec remove t key =
  match t.impl with
  | Direct ->
      let i = find t key in
      if i >= 0 then delete_at t i
  | Cow c ->
      let i = find t key in
      if visible t i ~cleared:c.cleared c.parent key then
        c.logical_len <- c.logical_len - 1;
      if c.cleared || not (mem c.parent key) then begin
        if i >= 0 then delete_at t i
      end
      else
        (* the parent still holds the key: shadow it.  Tombstones are
           exempt from [delta_quota] — deletion must not fail. *)
        put t i key ~tombstone:true 0L
  | Forward f -> remove f.target key

let rec clear t =
  match t.impl with
  | Direct -> reset t
  | Cow c ->
      reset t;
      c.cleared <- true;
      c.logical_len <- 0
  | Forward f -> clear f.target

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
  match t.impl with
  | Direct ->
      List.init t.len (fun i ->
          (Int32.of_int (slot_key t.keys.(i)), value_at t i))
  | Cow c ->
      let delta =
        List.init t.len (fun i ->
            ( Int32.of_int (slot_key t.keys.(i)),
              if is_tombstone t i then None else Some (value_at t i) ))
      in
      merge (if c.cleared then [] else bindings c.parent) delta
  | Forward f -> bindings f.target

(* Introspection for the engine, bench and tests. *)

let is_cow t = match t.impl with Cow _ -> true | Direct | Forward _ -> false

let rec delta_size t =
  match t.impl with
  | Direct | Cow _ -> t.len
  | Forward f -> delta_size f.target

let parent t =
  match t.impl with Cow c -> Some c.parent | Direct | Forward _ -> None

(* Approximate RAM cost in bytes, for the memory-footprint experiments:
   key (4) + value (8) + per-entry bookkeeping (8).  A CoW view pays
   only for its delta, and a forward only for the indirection — shared
   parents/targets are billed to their owners.  This models the device's
   RAM, not the host representation above. *)
let ram_bytes t =
  match t.impl with
  | Direct -> 24 + (t.len * 20)
  | Cow _ -> 40 + (t.len * 20)
  | Forward _ -> 16
