(* Container image: the immutable, shareable product of one cold attach.

   One image captures everything the expensive load path produces —
   verified bytecode, the superblock IR and the compiled closure
   artifact, built with the analyzer's proofs (all inside
   [Femto_vm.Vm.image]) — plus the
   frozen local-store baseline and the forward kv indirections its
   helper table was compiled against.
   Instances spawned from it privately own only their stack window, the
   interpreter run state and a copy-on-write kv delta; everything else
   is shared by reference, which is what makes spawning thousands of
   residents nearly free.

   Images are keyed by content hash (program bytes + runtime + the
   sorted capability names actually granted at the hook), so two
   containers with the same program but different privilege sets get
   distinct images — the helper table is part of the artifact. *)

type t = {
  key : string; (* hex sha-256; the image-cache key *)
  runtime : Femto_platform.Platform.engine;
  vm_image : Femto_vm.Vm.image;
  baseline : Kvstore.t;
      (* frozen snapshot of the local store at image build; every
         spawned instance's CoW local store reads through it *)
  local_fwd : Kvstore.t;
  tenant_fwd : Kvstore.t;
  global_fwd : Kvstore.t;
      (* the forward stores the image's helper table was compiled
         against: re-pointed at the running instance's stores before
         each dispatch.  A fleet shares one image across many engines
         (one per device), so the global store forwards too.  Binding is
         per-dispatch and unsynchronized: an image must be dispatched
         from one domain at a time.  Fleet shards own disjoint image
         caches and each shard runs on one domain per epoch, so an image
         may move between domains only across an epoch barrier, which
         orders the two domains' dispatches. *)
  dyn : Syscall.dyn ref;
      (* the engine-side time/sensor/trace closures, re-pointed with the
         stores — the helper table dereferences the ref on each call *)
  mutable spawns : int; (* instances spawned from this image *)
}

(* Program digests are memoized by physical identity: spawning reuses
   the same [Program.t] value, and hashing kilobytes of bytecode on
   every spawn would dwarf the spawn itself.  The ephemeron keeps the
   cache from pinning dead programs; distinct-but-equal program values
   merely hash twice to the same digest. *)
module Digest_cache = Ephemeron.K1.Make (struct
  type t = Femto_ebpf.Program.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let digests = Digest_cache.create 16

(* The ephemeron table is process-global while fleet shards spawn from
   worker domains concurrently, so its structural mutation is locked.
   The lock is outside the MRU fast path: a warm spawn never takes it. *)
let digests_mutex = Mutex.create ()

(* One-entry MRU in front of the ephemeron: [Digest_cache.find_opt]
   pays a structural [Hashtbl.hash] walk over the program on every
   lookup, while the common case — spawning many instances of one
   program — needs only a pointer compare.  Cross-domain races on the
   ref are benign: a single atomic pointer read/write of an immutable
   pair, worst case a wasted recompute. *)
let last_digest : (Femto_ebpf.Program.t * string) option ref = ref None

let program_digest program =
  match !last_digest with
  | Some (p, d) when p == program -> d
  | _ ->
      let d =
        Mutex.protect digests_mutex (fun () ->
            match Digest_cache.find_opt digests program with
            | Some d -> d
            | None ->
                let d =
                  Femto_crypto.Crypto.to_hex
                    (Femto_crypto.Crypto.sha256
                       (Femto_ebpf.Program.to_string program))
                in
                Digest_cache.replace digests program d;
                d)
      in
      last_digest := Some (program, d);
      d

(* Deterministic cache key: program content hash, runtime, and the
   granted capability names (sorted — grant order is a policy detail).
   The short runtime/capability components ride along in the clear; only
   the bytecode needs hashing. *)
let key_of ~runtime ~granted program =
  let caps =
    List.sort String.compare (List.map Contract.capability_name granted)
  in
  String.concat ":"
    (program_digest program
    :: Femto_platform.Platform.engine_name runtime
    :: caps)

let create ~key ~runtime ~vm_image ~baseline ~local_fwd ~tenant_fwd
    ~global_fwd ~dyn =
  {
    key;
    runtime;
    vm_image;
    baseline;
    local_fwd;
    tenant_fwd;
    global_fwd;
    dyn;
    spawns = 0;
  }

let key t = t.key
let runtime t = t.runtime
let vm_image t = t.vm_image
let baseline t = t.baseline
let spawns t = t.spawns
let record_spawn t = t.spawns <- t.spawns + 1

(* Re-point the image's forward kv stores and dynamic facilities at one
   instance (and its engine).  Called from the instance's [prepare_run]
   hook before each execution; four pointer writes. *)
let bind t ~local ~tenant ~global ~dyn =
  Kvstore.retarget t.local_fwd local;
  Kvstore.retarget t.tenant_fwd tenant;
  Kvstore.retarget t.global_fwd global;
  t.dyn := dyn

let proven t = Femto_vm.Vm.image_proven t.vm_image
let tier t = Femto_vm.Vm.image_tier t.vm_image
