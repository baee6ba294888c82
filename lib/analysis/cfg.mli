(** Control-flow graph over eBPF bytecode.

    Basic blocks are maximal straight-line runs of slots; lddw pairs are
    kept inside the block of their head (the tail slot is never a leader
    and never a jump target in verified code).  The graph is built from
    the typed instruction view alone, so it can be constructed for any
    program, but edge targets are only meaningful after
    {!Femto_vm.Verifier.verify} has accepted the program. *)

type block = {
  id : int;
  first : int;  (** pc of the first slot in the block *)
  last : int;  (** pc of the last slot (inclusive; may be an lddw tail) *)
  succs : int list;  (** successor block ids, deduplicated *)
  back_succs : int list;
      (** the successors reached through a back edge, found by a DFS
          from block 0 (a subset of [succs]; empty in every block iff
          the reachable subgraph is a DAG) *)
}

type t = {
  program : Femto_ebpf.Program.t;
  blocks : block array;
  block_of_pc : int array;  (** pc -> owning block id *)
  is_tail : bool array;  (** pc is the second slot of an lddw pair *)
  reachable : bool array;  (** per block, from block 0 *)
}

val build : Femto_ebpf.Program.t -> t

val has_loops : t -> bool
(** True iff a cycle is reachable from the entry block. *)

val unreachable_pcs : t -> int list
(** Executable pcs (lddw tails excluded) in blocks no path reaches,
    ascending. *)
