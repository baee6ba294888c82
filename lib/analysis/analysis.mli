(** Abstract-interpretation pass over verified bytecode.

    Runs after {!Femto_vm.Verifier.verify} and answers questions the
    shape-only verifier cannot: does any path read an uninitialized
    register, is any stack access statically out of the 512 B frame, is
    arithmetic ever used to manufacture a pointer, and does the program
    provably terminate after a single pass (no reachable cycle)?

    Registers are tracked through a small lattice
    [Uninit | Scalar | Stack_ptr of interval | Ctx_ptr | Any] with a
    worklist fixpoint; intervals are widened along back edges so loops
    converge.  The pass is advisory for loading (a program with
    diagnostics still runs fully checked) and mandatory only for
    [fc analyze] / CI, but its proofs pay a dividend: on the IR tier,
    DAG-classified programs run with no budget guard, and proven stack
    accesses skip the allow-list. *)

type severity = Error | Warning | Info

val severity_name : severity -> string

type diag = {
  severity : severity;
  pc : int;
  reg : int option;  (** register the diagnostic is about, when any *)
  kind : string;  (** stable machine-readable discriminator *)
  message : string;
}

type termination = Dag | Has_loops

type outcome = {
  diags : diag list;  (** ascending by pc; one uninit-read per register *)
  termination : termination;
  fastpath : bool array option;
      (** [Some proofs] iff the program is fast-path eligible;
          [proofs.(pc)] is true when the stack access at [pc] is proven
          in-bounds on every path *)
  mem_facts : Femto_vm.Ir.mem_fact option array;
      (** per-pc region typing + shifted interval of each memory access
          (from the stabilized fixpoint states); feeds {!Ir.lift} *)
  insns : int;
  blocks : int;
  reachable_blocks : int;
  unreachable : int list;  (** executable pcs no path reaches *)
}

val analyze :
  ?helpers:Femto_vm.Helper.t ->
  Femto_vm.Config.t ->
  Femto_ebpf.Program.t ->
  (outcome, Femto_vm.Fault.t) result
(** Verify then abstractly interpret.  [Error] is a structural fault from
    the pre-flight verifier; an accepted-shape program always yields
    [Ok], with semantic problems reported as [Error]-severity diags.
    Updates the [analysis.*] observability counters and emits an
    [Analysis_done] trace event. *)

val accepted : outcome -> bool
(** True iff no [Error]-severity diagnostic was reported. *)

val errors : outcome -> int

val warnings : outcome -> int

val load :
  ?config:Femto_vm.Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  ?passes:Passes.config ->
  helpers:Femto_vm.Helper.t ->
  regions:Femto_vm.Region.t list ->
  Femto_ebpf.Program.t ->
  (Femto_vm.Vm.t, Femto_vm.Fault.t) result
(** Analysis-aware replacement for {!Femto_vm.Vm.load}: same acceptance
    (only structural faults reject), but the instance runs on the IR
    tier — the program is lifted to superblocks, the pass pipeline runs
    ([passes] selects stages; default all), and one closure is compiled
    per optimized block.  Fast-path-eligible programs hand over their
    per-pc proofs, which compile the budget guard out; programs with
    analysis diagnostics still load and run fully checked. *)

val load_outcome :
  ?config:Femto_vm.Config.t ->
  ?cycle_cost:(Femto_ebpf.Insn.kind -> int) ->
  ?passes:Passes.config ->
  helpers:Femto_vm.Helper.t ->
  regions:Femto_vm.Region.t list ->
  Femto_ebpf.Program.t ->
  (Femto_vm.Vm.t * outcome, Femto_vm.Fault.t) result
(** Like {!load}, additionally returning the analysis {!outcome} so the
    caller can attach the proofs/diagnostics to a container image and
    spawn further instances without re-running the analyzer. *)

val fault_diag : Femto_vm.Fault.t -> diag
(** Render a structural verifier fault as an [Error] diagnostic. *)

val diag_to_json : diag -> Femto_obs.Jsonx.t

val report_to_json :
  (outcome, Femto_vm.Fault.t) result -> Femto_obs.Jsonx.t
(** The [femto-analysis/1] JSON document emitted by [fc analyze]. *)
