(* Cross-runtime corpus harness: the shared vocabulary of the three-layer
   benchmark corpus (EXPERIMENTS.md "Corpus").

   A [workload] is one computation with a single native [expected] result
   and one [impl] per (runtime, tier) pair able to express it: the rBPF
   VM across its execution tiers, the wasm_mini interpreters, and the
   MiniScript profiles (tree eval, stack bytecode, and the to_ebpf
   compiler).  Every impl builds a fresh [instance] whose [run] thunk
   returns the workload result as an int64, so the corpus driver can
   assert result equivalence across all runtimes *before* any timing —
   a diverging program can never be silently benchmarked. *)

type instance = { run : unit -> int64; dispose : unit -> unit }
type impl = { runtime : string; tier : string; mk : unit -> instance }

type workload = {
  wname : string;  (** e.g. "l1/fib" — layer prefix is part of the name *)
  layer : string;  (** "l1" | "l2" | "l3" *)
  expected : int64;  (** native reference result every impl must match *)
  impls : impl list;
      (** head = the reference runtime the baseline ratios divide by *)
}

let instance run = { run; dispose = (fun () -> ()) }

(* Corpus VM budget: identical semantics to the default configuration but
   with a branch budget sized for the corpus loop kernels (the default
   N_b = 8192 is tuned for short hook programs, not 500-frame explicit
   recursion stacks). *)
let corpus_config =
  { Femto_vm.Config.default with Femto_vm.Config.max_branches = 1 lsl 20 }

let fault_fail fault = failwith (Femto_vm.Fault.to_string fault)

(* --- rBPF: one impl per execution tier ------------------------------ *)

(* The decoded row loads through the plain verifier, the IR row through
   the analyzer, which lifts, optimizes and hands over its proofs. *)
let rbpf_impls ?(helpers = fun () -> Femto_vm.Helper.create ()) ~program
    ~regions ~args () =
  let tier_impl tier load =
    {
      runtime = "rbpf";
      tier;
      mk =
        (fun () ->
          match
            load ~config:corpus_config ~helpers:(helpers ())
              ~regions:(regions ()) (program ())
          with
          | Error fault -> fault_fail fault
          | Ok vm ->
              instance (fun () ->
                  match Femto_vm.Vm.run vm ~args with
                  | Ok v -> v
                  | Error fault -> fault_fail fault));
    }
  in
  [
    tier_impl "decoded" (fun ~config ~helpers ~regions program ->
        Femto_vm.Vm.load ~config ~helpers ~regions program);
    tier_impl "ir" (fun ~config ~helpers ~regions program ->
        Femto_analysis.Analysis.load ~config ~helpers ~regions program);
  ]

(* --- wasm_mini: typed reference interpreter + flattened fast path --- *)

(* Instances get an effectively unlimited fuel budget: the corpus driver
   re-runs one instance many times while timing, and the default budget
   is per-instance, not per-call. *)
let wasm_fuel = max_int / 2

(* Fast is untyped: every value is a raw int64, i32s zero-extended. *)
let wasm_raw = function
  | Femto_wasm_mini.Ast.V_i32 v -> Int64.logand (Int64.of_int32 v) 0xFFFF_FFFFL
  | Femto_wasm_mini.Ast.V_i64 v -> v

(* [args] are typed wasm values so i32-parameter modules work under the
   typed reference interpreter; the fast path gets their raw images. *)
let wasm_impls ~modul ~entry ?(input = Bytes.create 0) ~args () =
  [
    {
      runtime = "wasm";
      tier = "interp";
      mk =
        (fun () ->
          let inst = Femto_wasm_mini.Interp.instantiate ~fuel:wasm_fuel modul in
          Femto_wasm_mini.Interp.load_memory inst ~offset:0 input;
          instance (fun () ->
              match Femto_wasm_mini.Interp.call inst ~name:entry args with
              | Ok (Some (Femto_wasm_mini.Ast.V_i64 v)) -> v
              | Ok (Some (Femto_wasm_mini.Ast.V_i32 v)) ->
                  Int64.logand (Int64.of_int32 v) 0xFFFF_FFFFL
              | Ok None -> failwith "wasm interp: no result"
              | Error trap ->
                  failwith (Femto_wasm_mini.Interp.trap_to_string trap)));
    };
    {
      runtime = "wasm";
      tier = "fast";
      mk =
        (fun () ->
          let inst = Femto_wasm_mini.Fast.of_module ~fuel:wasm_fuel modul in
          Femto_wasm_mini.Fast.load_memory inst ~offset:0 input;
          let raw = List.map wasm_raw args in
          instance (fun () ->
              match Femto_wasm_mini.Fast.call inst ~name:entry raw with
              | Ok (Some v) -> v
              | Ok None -> failwith "wasm fast: no result"
              | Error trap ->
                  failwith (Femto_wasm_mini.Interp.trap_to_string trap)));
    };
  ]

(* --- MiniScript: tree eval, stack bytecode, and the eBPF backend ---- *)

let script_result = function
  | Ok (Femto_script.Value.Int v) -> v
  | Ok v -> failwith ("script: non-int result " ^ Femto_script.Value.to_string v)
  | Error m -> failwith ("script: " ^ m)

let script_impls ~source ~entry ~args () =
  [
    {
      runtime = "script";
      tier = "tree";
      mk =
        (fun () ->
          let t = Femto_script.Eval_tree.load source in
          let args = args () in
          instance (fun () ->
              script_result (Femto_script.Eval_tree.call t entry args)));
    };
    {
      runtime = "script";
      tier = "stack";
      mk =
        (fun () ->
          let t = Femto_script.Stack_vm.load source in
          let args = args () in
          instance (fun () ->
              script_result (Femto_script.Stack_vm.call t entry args)));
    };
  ]

(* The raw-memory flavour of the same kernel, compiled to eBPF and run on
   the IR tier — the paper's "write high level, run at rBPF cost"
   pathway.  [regions]/[args] use the same layout as the rBPF impls. *)
let to_ebpf_impl ~source ~entry ~regions ~args () =
  {
    runtime = "script";
    tier = "to-ebpf";
    mk =
      (fun () ->
        let program = Femto_script.To_ebpf.compile_function source entry in
        match
          Femto_analysis.Analysis.load ~config:corpus_config
            ~helpers:(Femto_vm.Helper.create ()) ~regions:(regions ()) program
        with
        | Error fault -> fault_fail fault
        | Ok vm ->
            instance (fun () ->
                match Femto_vm.Vm.run vm ~args with
                | Ok v -> v
                | Error fault -> fault_fail fault));
  }

(* --- deterministic input synthesis ---------------------------------- *)

(* Keyed byte generator: cheap, stable across runs and platforms, and
   different per workload so no two kernels share their input. *)
let synth_byte ~seed i =
  ((seed * 2654435761) + (i * 40503) + (i lsr 3) + ((i * i) lsr 7)) land 0xff

let synth_bytes ~seed n = Bytes.init n (fun i -> Char.chr (synth_byte ~seed i))
