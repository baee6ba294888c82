(* Facade for the Femto-Container virtual machine.

   Typical use:

     let helpers = Vm.Helper.create () in
     let program = Femto_ebpf.Asm.assemble source in
     match Vm.load ~helpers ~regions program with
     | Error fault -> ...
     | Ok vm -> Vm.run vm ~args:[| ctx_ptr |]

   An instance carries one of two execution tiers, fixed by its loader:

   - Decoded: the defensive interpreter loop over the wire slots ([load]).
   - Ir:      the superblock tier — one specialized closure per
              optimized IR block ([Femto_analysis.Ir]/[Passes] lift and
              rewrite the program; [Compile.compile_ir] emits it).
              Granted only by [Femto_analysis.Analysis.load], which owns
              the IR and the proofs.

   Whatever the tier, isolation semantics, fault identity and statistics
   are bit-identical; the differential test suite pins this. *)

module Fault = Fault
module Region = Region
module Mem = Mem
module Helper = Helper
module Config = Config
module Verifier = Verifier
module Interp = Interp
module Compile = Compile
module Ir = Ir
module Frame = Frame
module Obs = Femto_obs.Obs
module Otrace = Femto_obs.Trace

type tier = Decoded | Ir

let tier_name = function Decoded -> "decoded" | Ir -> "ir"

(* Everything needed to spawn further instances without redoing verify /
   analyze / compile: the decoded tier's shared descriptor and the
   compiled artifact.  Immutable and shared by every instance spawned
   from the image; each instance points at it through [self]. *)
type image = {
  interp : Interp.t;
  code : Compile.code option;
  proven : int; (* analyzer-proven accesses engaged by the instances *)
  verified : bool; (* false for [load_unverified]: not a spawn template *)
  self : Mem.shared; (* [Image] of this record, allocated once *)
}

type Mem.shared += Image of image

(* An instance is its one private record: stack slot, allow-list,
   statistics, inline caches and the pointer to its image. *)
type t = Mem.t

let image_of_inst (t : t) =
  match t.Mem.shared with
  | Image img -> img
  | _ -> invalid_arg "Vm: not a VM instance"

let tier_of_image img = match img.code with Some _ -> Ir | None -> Decoded
let tier t = tier_of_image (image_of_inst t)

let make_image ~verified ~proven interp code =
  let rec img = { interp; code; proven; verified; self = Image img } in
  img

(* A fresh instance of [img] over [regions] (plus the stack slot every
   run fills with the stack it borrows).  [spawn] is the cheap path: no
   verification, no analysis, no decode (the program is read in place),
   no compilation (the closure graph is shared).  The instance privately
   owns one record — stats, memory region table and inline cache slots
   — plus its allow-list array; its stack and register file are lent
   per run by the domain. *)
let instantiate img regions =
  let config = Interp.config img.interp in
  let cache_sites =
    match img.code with Some c -> Compile.cache_sites c | None -> 0
  in
  Mem.create ~shared:img.self ~cache_sites
    ~cache_ok:(cache_sites > 0 && Compile.regions_disjoint config regions)
    ~stack:Frame.unlent regions

let spawn ?(regions = []) img =
  Obs.event (fun () ->
      Otrace.Tier_selected
        { tier = tier_name (tier_of_image img); proven = img.proven });
  instantiate img regions

(* Shared constructor: the caller certifies [program] already passed
   pre-flight verification.  An [ir] selects the IR tier; [proofs] (the
   analyzer's per-pc facts, granted only to DAGs inside both budgets)
   compile its budget guard out.  Every verified instance doubles as a
   spawn template: its image is just the shared artifacts built here. *)
let make_verified ?(config = Config.default) ?cycle_cost ~proofs ~ir ~helpers
    ~regions program =
  let interp = Interp.create ~config ?cycle_cost ~helpers program in
  let code =
    Option.map
      (fun ir ->
        let mode =
          match proofs with Some _ -> Compile.Proven | None -> Compile.Checked
        in
        Compile.compile_ir ~mode ~ir interp)
      ir
  in
  let proven = match code with Some c -> Compile.elided c | None -> 0 in
  spawn ~regions (make_image ~verified:true ~proven interp code)

(* [load] verifies then instantiates; a program that fails pre-flight
   checks is never instantiated. *)
let load ?config ?cycle_cost ~helpers ~regions program =
  let checked = Option.value config ~default:Config.default in
  match Verifier.verify ~helpers checked program with
  | Error fault -> Error fault
  | Ok (_ : Verifier.ok) ->
      Ok
        (make_verified ?config ?cycle_cost ~proofs:None ~ir:None ~helpers
           ~regions program)

let load_analyzed ?config ?cycle_cost ?proofs ?ir ~helpers ~regions program =
  make_verified ?config ?cycle_cost ~proofs ~ir ~helpers ~regions program

(* [load_unverified] skips pre-flight checks; used by tests and benchmarks
   to demonstrate that the interpreter's defensive checks still hold.
   Always decoded: the compiled tier assumes verifier invariants. *)
let load_unverified ?config ?cycle_cost ~helpers ~regions program =
  let interp = Interp.create ?config ?cycle_cost ~helpers program in
  instantiate (make_image ~verified:false ~proven:0 interp None) regions

let run ?(args = [||]) t =
  let img = image_of_inst t in
  match img.code with
  | Some c -> Compile.run_on ~args c t
  | None -> Interp.run ~args img.interp t

(* The engine's warm dispatch: the compiled tier's allocation-free
   [fire_on], or a decoded run. *)
let fire ~args t =
  let img = image_of_inst t in
  match img.code with
  | Some c -> Compile.fire_on ~args c t
  | None -> Result.is_ok (Interp.run ~args img.interp t)

let stats t = Interp.stats t
let cycles (t : t) = t.Mem.cycles
let runs (t : t) = t.Mem.runs
let set_host = Mem.set_host

let compiled t =
  match (image_of_inst t).code with
  | Some code -> Some { Compile.code; instance = t }
  | None -> None

let interp t = (image_of_inst t).interp
let proven_count t = (image_of_inst t).proven

(* An instance owns no stack or registers: a run borrows them from its
   domain's frames, and they hold that run's values until the next run
   on the domain takes the frame. *)
let frame t = Frame.last (Interp.config (interp t))

let mem t = Mem.with_stack t (frame t).Frame.region

(* A copy of the frame's one register file, whichever tier ran. *)
let registers t =
  let rf = (frame t).Frame.rf in
  Array.init 11 (fun i -> Bytes.get_int64_ne rf (i lsl 3))

let ram_bytes t =
  let img = image_of_inst t in
  Interp.ram_bytes img.interp t
  + (match img.code with Some c -> Compile.ram_bytes c | None -> 0)

(* ------------------------------------------------------------------ *)
(* Image / instance split.                                            *)

let image_of t =
  let img = image_of_inst t in
  if img.verified then img
  else invalid_arg "Vm.image_of: instance was loaded unverified"

let image_tier = tier_of_image
let image_program img = Interp.program img.interp
let image_proven img = img.proven

