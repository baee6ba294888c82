(* Helper-heavy workload: dominated by the VM <-> host call boundary.

   Registers one trivial helper and calls it [calls] times in an
   unrolled straight line, threading a running total through a proven
   [r10-8] spill between calls.  Per-instruction arithmetic is nearly
   free by construction, so what the dispatch tiers race on is call
   marshalling: argument reads, helper resolution (per call site in the
   interpreter, once at compile time in the IR tier), r0
   write-back, and the post-call stack re-dirtying. *)

let calls = 32
let helper_id = 0x60
let helper_name = "bench_accum"
let helper_cost_cycles = 10

(* acc' = acc + increment; the whole program computes Σ 1..calls. *)
let install helpers =
  Femto_vm.Helper.register helpers ~id:helper_id ~name:helper_name
    ~cost_cycles:helper_cost_cycles ~arity:2 (fun _mem rf ->
      Femto_vm.Helper.(return rf (Int64.add (arg rf 1) (arg rf 2))))

(* Fresh registry with only the bench helper: the workload is
   self-contained for VM-level benchmarks and tests. *)
let helpers () =
  let h = Femto_vm.Helper.create () in
  install h;
  h

let reference = Int64.of_int (calls * (calls + 1) / 2)

let ebpf_source =
  let b = Buffer.create (calls * 160) in
  Buffer.add_string b "      ; unrolled helper-call ladder\n";
  Buffer.add_string b "      mov r6, 0            ; acc\n";
  for i = 0 to calls - 1 do
    Buffer.add_string b "      mov r1, r6\n";
    Buffer.add_string b (Printf.sprintf "      mov r2, %d\n" (i + 1));
    Buffer.add_string b (Printf.sprintf "      call %d\n" helper_id);
    (* spill/reload through the stack: provably in-bounds at [r10-8] *)
    Buffer.add_string b "      stxdw [r10-8], r0\n";
    Buffer.add_string b "      ldxdw r6, [r10-8]\n"
  done;
  Buffer.add_string b "      mov r0, r6\n";
  Buffer.add_string b "      exit\n";
  Buffer.contents b

let ebpf_program () = Femto_ebpf.Asm.assemble ebpf_source
