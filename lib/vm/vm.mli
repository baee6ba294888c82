(** Facade for the Femto-Container virtual machine.

    {[
      let helpers = Vm.Helper.create () in
      let program = Femto_ebpf.Asm.assemble source in
      match Vm.load ~helpers ~regions program with
      | Error fault -> ...
      | Ok vm -> Vm.run vm ~args:[| ctx_ptr |]
    ]}

    An instance carries one of two execution tiers, fixed by its loader:
    {!load} yields the decoded defensive interpreter, and
    {!Femto_analysis.Analysis.load} yields the superblock IR tier (one
    specialized closure per optimized IR block).  Results, fault identity
    and statistics are bit-identical across tiers. *)

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

type tier = Decoded | Ir

val tier_name : tier -> string

type t = Mem.t
(** An instance: one private record ({!Mem.t}) holding its stack slot,
    allow-list, statistics and inline caches, and pointing at the shared
    image it runs. *)

val load :
  ?config:Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  helpers:Helper.t ->
  regions:Region.t list ->
  Femto_ebpf.Program.t ->
  (t, Fault.t) result
(** Verify then instantiate on the decoded tier; a program that fails
    pre-flight checks is never instantiated.  [cycle_cost] plugs a
    platform cycle model in. *)

val load_analyzed :
  ?config:Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  ?proofs:bool array ->
  ?ir:Ir.program ->
  helpers:Helper.t ->
  regions:Region.t list ->
  Femto_ebpf.Program.t ->
  t
(** For {!Femto_analysis.Analysis.load}: instantiate an already-verified
    program.  The instance runs on the IR tier exactly when [ir] (the
    lifted-and-optimized program) is given, else on the decoded tier.
    [proofs] (the analyzer's per-pc facts, granted only to DAGs inside
    both budgets) compile the IR tier's budget guard out. *)

val load_unverified :
  ?config:Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  helpers:Helper.t ->
  regions:Region.t list ->
  Femto_ebpf.Program.t ->
  t
(** Skip pre-flight checks (tests/benchmarks only): always decoded, the
    interpreter's defensive checks still contain any fault. *)

val run : ?args:int64 array -> t -> (int64, Fault.t) result
(** Execute from slot 0 with r1..r5 preloaded from [args]; returns r0. *)

val fire : args:int64 array -> t -> bool
(** [run] without a result value: the compiled tier's allocation-free
    {!Compile.fire_on}, or a decoded run.  [false] when the run
    faulted. *)

val stats : t -> Interp.stats
(** A copy of the statistics of the instance's last run. *)

val cycles : t -> int
(** Cycle-model cost of the instance's last run. *)

val runs : t -> int
(** Compiled-tier runs of the instance. *)

val set_host : t -> Mem.host -> unit
(** Bind what the instance's helpers reach through the memory map they
    receive. *)

val mem : t -> Mem.t
(** The instance's memory map, its stack slot showing the stack of the
    calling domain's current {!Frame}: after a run, that run's stack,
    until the next run on the domain. *)

val registers : t -> int64 array
(** A fresh copy of the register file of the calling domain's current
    {!Frame}, whichever tier ran: after a run,
    that run's, until the next run on the domain.  An instance owns no
    stack or register file; every run borrows them. *)

val tier : t -> tier
val compiled : t -> Compile.t option
val interp : t -> Interp.t

val proven_count : t -> int
(** Memory checks the IR tier elided against analyzer proofs. *)

val ram_bytes : t -> int
(** Per-instance RAM (paper Table 3 sense): the borrowed frame's stack
    and register file, stats and region table, plus the compiled tier's
    block table when present. *)

(** {2 Image / instance split}

    A verified instance doubles as a spawn template: {!image_of} returns
    the whole immutable graph it points at — program and compiled
    closure artifact — and {!spawn} makes a fresh private record (stats,
    memory map, inline-cache slots) over it without re-verifying,
    re-analyzing or re-compiling anything. *)

type image

val image_of : t -> image
(** The spawn template behind a verified instance (shared: calling this
    twice, or on a spawned sibling, returns the same image).
    @raise Invalid_argument on a {!load_unverified} instance. *)

val spawn : ?regions:Region.t list -> image -> t
(** Instantiate the image over a fresh memory map ([regions], plus the
    stack slot every run fills with the stack it borrows): one record
    and its allow-list array.  Allocates no stack and no register file:
    a run borrows both from the frame stack of the domain it runs on
    ({!Frame}), so a spawned instance may run on any domain. *)

val image_tier : image -> tier
val image_program : image -> Femto_ebpf.Program.t
val image_proven : image -> int
