(* Loop-based running checksum: the branchy counterpart of {!Dagsum}.

   Computes the same function — sum of 16-bit words plus a sum of running
   prefixes, low 32 bits — but through a genuine back edge, so the
   analyzer classifies it [Has_loops] and the IR tier keeps its budget
   guard.  What remains is dispatch cost itself: five of the six
   loop-body instructions are ALU ops feeding a compare-and-branch, which
   makes this the reference workload for superblock dispatch. *)

let words = 64

(* Native reference: sum1 = Σ word_i, sum2 = Σ prefix sums; the result is
   the low 32 bits of sum2 (identical to {!Dagsum.reference}, which is
   deliberate — the two workloads cross-check each other). *)
let reference data =
  let n = min words (Bytes.length data / 2) in
  let sum1 = ref 0L and sum2 = ref 0L in
  for i = 0 to n - 1 do
    sum1 := Int64.add !sum1 (Int64.of_int (Bytes.get_uint16_le data (2 * i)));
    sum2 := Int64.add !sum2 !sum1
  done;
  Int64.logand !sum2 0xFFFF_FFFFL

let ebpf_source =
  Printf.sprintf
    {|
      ; looped checksum over %d 16-bit words; r1 = data pointer
      mov   r2, r1            ; cursor
      mov   r3, %d            ; remaining words
      mov   r4, 0             ; sum1
      mov   r5, 0             ; sum2
    word_loop:
      ldxh  r6, [r2]
      add   r4, r6
      add   r5, r4
      add   r2, 2
      sub   r3, 1
      jne   r3, 0, word_loop
      mov32 r0, r5
      exit
  |}
    words words

let ebpf_program () = Femto_ebpf.Asm.assemble ebpf_source

let data_vaddr = 0x3200_0000L

(* One read-only region holding the raw words; pass [data_vaddr] in r1. *)
let regions data =
  [
    Femto_vm.Region.make ~name:"loopsum-data" ~vaddr:data_vaddr
      ~perm:Femto_vm.Region.Read_only (Bytes.copy data);
  ]
