(* Facade for the Femto-Container virtual machine.

   Typical use:

     let helpers = Vm.Helper.create () in
     let program = Femto_ebpf.Asm.assemble source in
     match Vm.load ~helpers ~regions program with
     | Error fault -> ...
     | Ok vm -> Vm.run vm ~args:[| ctx_ptr |]

   An instance carries one of two execution tiers, fixed by its loader:

   - Decoded: the pre-decoded defensive interpreter loop ([load]).
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
module Obs = Femto_obs.Obs
module Otrace = Femto_obs.Trace

type tier = Decoded | Ir

let tier_name = function Decoded -> "decoded" | Ir -> "ir"

(* Everything needed to spawn further instances without redoing verify /
   analyze / compile: the program, its shared pre-decoded view and the
   compiled artifact.  All fields are immutable and shared by every
   instance spawned from the image. *)
type image = {
  i_program : Femto_ebpf.Program.t;
  i_kinds : Femto_ebpf.Insn.kind array;
  i_config : Config.t;
  i_cycle_cost : (Femto_ebpf.Insn.kind -> int) option;
  i_helpers : Helper.t;
  i_code : Compile.code option;
  i_proven : int;
}

and t = {
  interp : Interp.t;
  compiled : Compile.t option;
  proven : int; (* analyzer-proven accesses engaged by this instance *)
  mutable image : image option;
      (* filled for verified instances; the spawn template *)
}

let tier t = match t.compiled with Some _ -> Ir | None -> Decoded

let emit_tier t =
  Obs.event (fun () ->
      Otrace.Tier_selected { tier = tier_name (tier t); proven = t.proven })

let create_interp ?kinds ~config ~cycle_cost ~helpers ~regions program =
  match cycle_cost with
  | Some cycle_cost ->
      Interp.create ~config ~cycle_cost ?kinds ~helpers ~regions program
  | None -> Interp.create ~config ?kinds ~helpers ~regions program

(* Shared constructor: the caller certifies [program] already passed
   pre-flight verification.  An [ir] selects the IR tier; [proofs] (the
   analyzer's per-pc facts, granted only to DAGs inside both budgets)
   compile its budget guard out. *)
let make_verified ~config ~cycle_cost ~proofs ~ir ~helpers ~regions program =
  let interp = create_interp ~config ~cycle_cost ~helpers ~regions program in
  let compiled =
    Option.map
      (fun ir ->
        let mode =
          match proofs with Some _ -> Compile.Proven | None -> Compile.Checked
        in
        Compile.compile_ir ~mode ~ir interp)
      ir
  in
  let proven =
    match compiled with Some c -> Compile.elided_count c | None -> 0
  in
  (* Every verified instance doubles as a spawn template: the image is
     just shared references to what was computed above, so capturing it
     is free. *)
  let image =
    {
      i_program = program;
      i_kinds = Interp.kinds interp;
      i_config = config;
      i_cycle_cost = cycle_cost;
      i_helpers = helpers;
      i_code = Option.map Compile.shared compiled;
      i_proven = proven;
    }
  in
  let t = { interp; compiled; proven; image = Some image } in
  emit_tier t;
  t

(* [load] verifies then pre-decodes; a program that fails pre-flight
   checks is never instantiated. *)
let load ?(config = Config.default) ?cycle_cost ~helpers ~regions program =
  match Verifier.verify ~helpers config program with
  | Error fault -> Error fault
  | Ok (_ : Verifier.ok) ->
      Ok
        (make_verified ~config ~cycle_cost ~proofs:None ~ir:None ~helpers
           ~regions program)

let load_analyzed ?(config = Config.default) ?cycle_cost ?proofs ?ir ~helpers
    ~regions program =
  make_verified ~config ~cycle_cost ~proofs ~ir ~helpers ~regions program

(* [load_unverified] skips pre-flight checks; used by tests and benchmarks
   to demonstrate that the interpreter's defensive checks still hold.
   Always decoded: the compiled tier assumes verifier invariants. *)
let load_unverified ?(config = Config.default) ?cycle_cost ~helpers ~regions
    program =
  let interp = create_interp ~config ~cycle_cost ~helpers ~regions program in
  { interp; compiled = None; proven = 0; image = None }

let run ?(args = [||]) t =
  match t.compiled with
  | Some c -> Compile.run ~args c
  | None -> Interp.run ~args t.interp

let stats t = Interp.stats t.interp
let mem t = Interp.mem t.interp
let compiled t = t.compiled
let interp t = t.interp
let proven_count t = t.proven

(* The register file of whichever tier executes; for the compiled tier
   the interpreter's array doubles as the snapshot buffer. *)
let registers t =
  match t.compiled with
  | Some c ->
      let regs = Interp.registers t.interp in
      Compile.copy_registers c regs;
      regs
  | None -> Interp.registers t.interp

let ram_bytes t =
  Interp.ram_bytes t.interp
  + (match t.compiled with Some c -> Compile.ram_bytes c | None -> 0)

(* ------------------------------------------------------------------ *)
(* Image / instance split.                                            *)

let image_of t =
  match t.image with
  | Some img -> img
  | None -> invalid_arg "Vm.image_of: instance was loaded unverified"

let image_tier img = match img.i_code with Some _ -> Ir | None -> Decoded
let image_program img = img.i_program
let image_proven img = img.i_proven

(* [spawn] is the cheap path: no verification, no analysis, no decode
   (the kinds array is shared), no compilation (the closure graph is
   shared via [Compile.instantiate]).  The instance privately owns its
   stack buffer, register file, stats, memory-region table and inline
   cache slots — nothing else. *)
let spawn ?(regions = []) img =
  let interp =
    create_interp ~kinds:img.i_kinds ~config:img.i_config
      ~cycle_cost:img.i_cycle_cost ~helpers:img.i_helpers ~regions
      img.i_program
  in
  let compiled =
    Option.map (fun code -> Compile.instantiate code interp) img.i_code
  in
  let t = { interp; compiled; proven = img.i_proven; image = Some img } in
  emit_tier t;
  t
