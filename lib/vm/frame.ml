(* Run frames: the state one VM run mutates and nothing outlives.

   The paper's rBPF VM has eleven registers and a 512 B stack, and both
   are dead between runs: every run entry zeroes them.  So no instance
   owns them.  Each domain keeps a stack of frames, one per nesting
   depth, and lends the lowest free one to a run for exactly the run's
   length: a run that starts while another is live on the same domain
   (a helper running a second container) takes the next frame, and
   every exit path gives its frame back.  The frame is looked up at run
   entry, never at instantiation, because an instance created on one
   domain may run on another. *)

type slot = ..

type t = {
  depth : int; (* index in its domain's frame stack *)
  stack : bytes;
  region : Region.t; (* the stack as an allow-list entry *)
  rf : bytes; (* the register file: 11 registers x 8 bytes, unboxed *)
  mutable dirty_lo : int; (* stack bytes [dirty_lo, dirty_hi) may be nonzero *)
  mutable dirty_hi : int;
  mutable slot : slot option; (* what a tier keeps with the frame *)
}

(* [live] frames, from depth 0 up, are lent to runs in progress. *)
type pool = { mutable frames : t array; mutable live : int }

let make depth (config : Config.t) =
  let stack = Bytes.make config.Config.stack_size '\000' in
  {
    depth;
    stack;
    region =
      Region.make ~name:"stack" ~vaddr:config.Config.stack_vaddr
        ~perm:Region.Read_write stack;
    rf = Bytes.make 88 '\000';
    dirty_lo = max_int;
    dirty_hi = 0;
    slot = None;
  }

let key = Domain.DLS.new_key (fun () -> { frames = [||]; live = 0 })

(* The frame at [depth], built on first use and rebuilt when [config]
   lays the stack out differently from the frame's last user. *)
let at pool depth (config : Config.t) =
  if depth = Array.length pool.frames then
    pool.frames <- Array.append pool.frames [| make depth config |];
  let fr = pool.frames.(depth) in
  if
    Bytes.length fr.stack = config.Config.stack_size
    && Int64.equal fr.region.Region.vaddr config.Config.stack_vaddr
  then fr
  else begin
    let fr = make depth config in
    pool.frames.(depth) <- fr;
    fr
  end

let acquire config =
  let pool = Domain.DLS.get key in
  let fr = at pool pool.live config in
  pool.live <- pool.live + 1;
  fr

(* Frames are lent and given back in LIFO order, so giving [fr] back
   frees it and everything above it. *)
let release fr = (Domain.DLS.get key).live <- fr.depth

let last config =
  let pool = Domain.DLS.get key in
  at pool pool.live config

let unlent =
  Region.make ~name:"stack" ~vaddr:0L ~perm:Region.Read_write Bytes.empty

(* Paper Table 3 sense: the stack and the register file. *)
let ram_bytes (config : Config.t) = config.Config.stack_size + (11 * 8)

let heap_bytes config =
  Obj.reachable_words (Obj.repr (make 0 config)) * (Sys.word_size / 8)
