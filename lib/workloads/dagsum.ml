(* Fully unrolled checksum: the analyzer's fast-path showcase workload.

   Same flavour of computation as {!Fletcher} (sum of 16-bit words plus a
   sum of running prefixes) but with the word loop unrolled at assembly
   time, so the control-flow graph is a straight line: no back edges, a
   [Dag] termination classification, and every stack access at a constant
   r10-relative offset the abstract interpreter can prove in-bounds.
   Each round-trip through [r10-8] is deliberate — it gives the analyzer
   stack accesses to prove and the IR tier direct accesses to win on,
   mimicking register spills a compiler would emit. *)

let words = 64

(* Native reference: sum1 = Σ word_i, sum2 = Σ prefix sums; the result is
   the low 32 bits of sum2. *)
let reference data =
  let n = min words (Bytes.length data / 2) in
  let sum1 = ref 0L and sum2 = ref 0L in
  for i = 0 to n - 1 do
    sum1 := Int64.add !sum1 (Int64.of_int (Bytes.get_uint16_le data (2 * i)));
    sum2 := Int64.add !sum2 !sum1
  done;
  Int64.logand !sum2 0xFFFF_FFFFL

(* The unrolled eBPF source: r1 points straight at the data words. *)
let ebpf_source =
  let b = Buffer.create (words * 160) in
  Buffer.add_string b "      ; unrolled dag checksum over 16-bit words\n";
  Buffer.add_string b "      mov r5, 0            ; sum1\n";
  Buffer.add_string b "      mov r6, 0            ; sum2\n";
  for i = 0 to words - 1 do
    Buffer.add_string b (Printf.sprintf "      ldxh r4, [r1+%d]\n" (2 * i));
    Buffer.add_string b "      add r5, r4\n";
    (* spill/reload through the stack: provably in-bounds at [r10-8] *)
    Buffer.add_string b "      stxdw [r10-8], r5\n";
    Buffer.add_string b "      ldxdw r7, [r10-8]\n";
    Buffer.add_string b "      add r6, r7\n"
  done;
  Buffer.add_string b "      mov32 r0, r6\n";
  Buffer.add_string b "      exit\n";
  Buffer.contents b

let ebpf_program () = Femto_ebpf.Asm.assemble ebpf_source

let data_vaddr = 0x3100_0000L

(* One read-only region holding the raw words; pass [data_vaddr] in r1. *)
let regions data =
  [
    Femto_vm.Region.make ~name:"dagsum-data" ~vaddr:data_vaddr
      ~perm:Femto_vm.Region.Read_only (Bytes.copy data);
  ]
