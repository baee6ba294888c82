(* Container image: the immutable, shareable product of one cold attach.

   One image captures everything the expensive load path produces —
   verified bytecode, the superblock IR and the compiled closure
   artifact, built with the analyzer's proofs (all inside
   [Femto_vm.Vm.image]) — plus the frozen local-store baseline.
   Instances spawned from it privately own only their VM instance record
   and a copy-on-write kv delta; everything else is shared by reference,
   which is what makes spawning thousands of residents nearly free.  The
   helper table holds no store: helpers reach the running container's
   stores through the host bound to its instance ([Syscall.Host]), so an
   image is not tied to an engine, and its instances may run on any
   domain.

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
  mutable spawns : int; (* instances spawned from this image *)
}

(* Program digests, memoized per domain.  Spawning reuses one program
   value, and hashing kilobytes of bytecode on every spawn would dwarf
   the spawn itself, so a one-entry MRU compared by physical identity
   answers the common case.  Behind it, a table keyed by content: equal
   programs decoded separately (one per fleet shard) share one entry,
   so a lookup walks no chain of equal copies, and the ephemeron keeps
   the table from pinning dead programs.  Both live in [Domain.DLS], so
   domains spawning at once neither lock nor evict each other's MRU. *)
module Digest_cache = Ephemeron.K1.Make (struct
  type t = Femto_ebpf.Program.t

  let equal a b =
    String.equal (Femto_ebpf.Program.to_string a)
      (Femto_ebpf.Program.to_string b)

  let hash = Hashtbl.hash
end)

type digests = {
  mutable last : Femto_ebpf.Program.t;
  mutable last_digest : string;
  table : string Digest_cache.t;
}

let hash_program program =
  Femto_crypto.Crypto.to_hex
    (Femto_crypto.Crypto.sha256 (Femto_ebpf.Program.to_string program))

let digests =
  Domain.DLS.new_key (fun () ->
      let empty = Femto_ebpf.Program.of_insns [] in
      {
        last = empty;
        last_digest = hash_program empty;
        table = Digest_cache.create 8;
      })

let program_digest program =
  let c = Domain.DLS.get digests in
  if c.last == program then c.last_digest
  else begin
    let d =
      match Digest_cache.find_opt c.table program with
      | Some d -> d
      | None ->
          let d = hash_program program in
          Digest_cache.replace c.table program d;
          d
    in
    c.last <- program;
    c.last_digest <- d;
    d
  end

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

let create ~key ~runtime ~vm_image ~baseline =
  { key; runtime; vm_image; baseline; spawns = 0 }

let key t = t.key
let runtime t = t.runtime
let vm_image t = t.vm_image
let baseline t = t.baseline
let spawns t = t.spawns
let record_spawn t = t.spawns <- t.spawns + 1
let proven t = Femto_vm.Vm.image_proven t.vm_image
let tier t = Femto_vm.Vm.image_tier t.vm_image
