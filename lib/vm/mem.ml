(* One VM instance: its memory map and the rest of its private state.

   Every load/store computed by the VM resolves its (possibly
   register-computed) address against the allow-list; an access that no
   region permits aborts execution — Figure 4 of the paper. *)

type shared = ..
type shared += No_image
type host = ..
type host += Unbound

(* The stack comes first in every scan.  Its slot is mutable because
   the VM lends each run a stack from the domain's frames (see [Frame]);
   [regions] is the instance's own allow-list.  The rest is what else an
   instance owns, kept in this one record so a run reaches all of it in
   one load. *)
type t = {
  shared : shared;
  mutable host : host;
  mutable stack : Region.t;
  mutable regions : Region.t array;
  snapshot : Region.t array;
  rcache : Region.t array;
  cache_ok : bool;
  mutable insns_executed : int;
  mutable branches_taken : int;
  mutable helper_calls : int;
  mutable cycles : int;
  mutable runs : int;
}

(* An empty inline-cache slot: a region that contains no address. *)
let uncached = Region.make ~name:"" ~vaddr:0L ~perm:Region.Read_only Bytes.empty

let create ?(shared = No_image) ?(cache_sites = 0) ?(cache_ok = false) ~stack
    regions =
  let regions = Array.of_list regions in
  {
    shared;
    host = Unbound;
    stack;
    regions;
    snapshot = regions;
    rcache = Array.make cache_sites uncached;
    cache_ok;
    insns_executed = 0;
    branches_taken = 0;
    helper_calls = 0;
    cycles = 0;
    runs = 0;
  }

let regions t = t.stack :: Array.to_list t.regions
let stack t = t.stack
let set_stack t region = t.stack <- region
let with_stack t stack = { t with stack }
let host t = t.host
let set_host t host = t.host <- host
let add_region t region = t.regions <- Array.append t.regions [| region |]

let permits region ~addr ~size ~write =
  (if write then Region.writable region.Region.perm
   else Region.readable region.Region.perm)
  && Region.contains region addr size

let find t ~addr ~size ~write =
  if permits t.stack ~addr ~size ~write then Some t.stack
  else
    let n = Array.length t.regions in
    let rec scan i =
      if i >= n then None
      else
        let region = t.regions.(i) in
        if permits region ~addr ~size ~write then Some region
        else scan (i + 1)
    in
    scan 0

(* Loads zero-extend to 64 bits, as eBPF LDX does. *)
let load_raw data off size =
  match size with
  | 1 -> Int64.of_int (Bytes.get_uint8 data off)
  | 2 -> Int64.of_int (Bytes.get_uint16_le data off)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le data off)) 0xFFFF_FFFFL
  | 8 -> Bytes.get_int64_le data off
  | _ -> invalid_arg "Mem.load_raw: size"

let store_raw data off size value =
  match size with
  | 1 -> Bytes.set_uint8 data off (Int64.to_int (Int64.logand value 0xFFL))
  | 2 -> Bytes.set_uint16_le data off (Int64.to_int (Int64.logand value 0xFFFFL))
  | 4 -> Bytes.set_int32_le data off (Int64.to_int32 value)
  | 8 -> Bytes.set_int64_le data off value
  | _ -> invalid_arg "Mem.store_raw: size"

let load t ~addr ~size =
  match find t ~addr ~size ~write:false with
  | Some region -> Ok (load_raw region.Region.data (Region.offset_of region addr) size)
  | None -> Error ()

let store t ~addr ~size value =
  match find t ~addr ~size ~write:true with
  | Some region ->
      store_raw region.Region.data (Region.offset_of region addr) size value;
      Ok ()
  | None -> Error ()

(* Helper-facing accessors: helpers receive guest pointers as int64 and must
   obey the same allow-list as VM instructions. *)

let load_bytes t ~addr ~len =
  if len = 0 then Ok Bytes.empty
  else
    match find t ~addr ~size:len ~write:false with
    | Some region ->
        Ok (Bytes.sub region.Region.data (Region.offset_of region addr) len)
    | None -> Error ()

let store_bytes t ~addr src =
  let len = Bytes.length src in
  if len = 0 then Ok ()
  else
    match find t ~addr ~size:len ~write:true with
    | Some region ->
        Bytes.blit src 0 region.Region.data (Region.offset_of region addr) len;
        Ok ()
    | None -> Error ()
