(* Memory-footprint accounting for the Table 1 / Table 3 / Figure 2 /
   Figure 7 experiments.

   Two kinds of numbers, clearly separated (and labelled in the output and
   in EXPERIMENTS.md):

   - MEASURED: per-instance RAM, taken on the host as the deep reachable
     heap size of the actual runtime instance objects
     ([Measure.reachable_bytes]) plus explicitly-sized buffers.  These are
     host-OCaml proxies for the C structs of the paper, but they are real
     measurements of this implementation, and their *relative* ordering
     (WASM page >> script heap >> rBPF stack) is structural, not tuned.

   - MODELLED: flash/ROM sizes of the C firmware builds, which cannot be
     produced from OCaml.  The ROM model decomposes each runtime into the
     components its architecture requires and assigns each component a
     Thumb-2 byte cost, calibrated against the builds reported in the
     paper (Table 1/3) — the calibration anchors are quoted next to each
     constant.  Figure 2/7 derive from these plus per-ISA code-density
     factors. *)

(* --- ROM model (modelled) --- *)

type rom_component = { component : string; bytes : int }

type rom_estimate = { total : int; components : rom_component list }

let rom_total components =
  { total = List.fold_left (fun acc c -> acc + c.bytes) 0 components; components }

(* rBPF: a dispatch loop + pre-flight checker + hosting glue.
   Calibration anchor: 4.4 KiB ROM (paper Table 1). *)
let rbpf_rom =
  rom_total
    [
      { component = "interpreter dispatch + handlers"; bytes = 2600 };
      { component = "pre-flight verifier"; bytes = 900 };
      { component = "loading/hosting glue"; bytes = 900 };
    ]

(* Femto-Containers: rBPF plus hooks, key-value store, contracts.
   Calibration anchor: 2992 B engine ROM (paper Table 3, engine only). *)
let femto_container_rom =
  rom_total
    [
      { component = "interpreter dispatch + handlers"; bytes = 1700 };
      { component = "pre-flight verifier"; bytes = 500 };
      { component = "hooks + kv-store + contracts"; bytes = 800 };
    ]

(* CertFC: extracted code is more compact (fewer hand-unrolled paths).
   Calibration anchor: 1378 B (paper Table 3, 55 % smaller). *)
let certfc_rom =
  rom_total
    [
      { component = "extracted interpreter"; bytes = 1000 };
      { component = "extracted checker"; bytes = 400 };
    ]

(* WASM3-class runtime: decoder, validator, interpreter core, traps.
   Calibration anchor: 64 KiB (paper Table 1). *)
let wasm_rom =
  rom_total
    [
      { component = "binary decoder"; bytes = 12_000 };
      { component = "validator"; bytes = 8_000 };
      { component = "interpreter core (op handlers)"; bytes = 36_000 };
      { component = "runtime/trap machinery"; bytes = 9_000 };
    ]

(* MicroPython-class runtime: lexer, parser, compiler, VM, object model,
   GC, stdlib.  Calibration anchor: 101 KiB (paper Table 1). *)
let micropython_rom =
  rom_total
    [
      { component = "lexer + parser"; bytes = 18_000 };
      { component = "bytecode compiler"; bytes = 16_000 };
      { component = "bytecode VM"; bytes = 20_000 };
      { component = "object model + GC heap"; bytes = 27_000 };
      { component = "builtin library"; bytes = 22_000 };
    ]

(* RIOT.js/JerryScript-class runtime: parser, tree/IR walker, object model
   with prototypes, GC.  Calibration anchor: 121 KiB (paper Table 1). *)
let riotjs_rom =
  rom_total
    [
      { component = "parser"; bytes = 26_000 };
      { component = "evaluator"; bytes = 30_000 };
      { component = "object model (prototypes, properties)"; bytes = 38_000 };
      { component = "GC + runtime library"; bytes = 29_000 };
    ]

(* Host OS without any VM: RIOT with 6LoWPAN + CoAP + SUIT OTA.
   Calibration anchor: 52.5 KiB ROM / 16.3 KiB RAM (paper Table 1) with
   53 kB quoted in Figure 2. *)
let host_os_rom =
  rom_total
    [
      { component = "RIOT kernel + drivers"; bytes = 20_000 };
      { component = "6LoWPAN + UDP stack"; bytes = 16_000 };
      { component = "CoAP + SUIT OTA"; bytes = 17_700 };
    ]

let host_os_ram_bytes = 16_700

(* Figure 7: scale an engine ROM estimate by the platform's code
   density. *)
let rom_on_platform (platform : Femto_platform.Platform.t) rom =
  int_of_float
    (Float.round (float_of_int rom.total *. platform.Femto_platform.Platform.code_density))

(* --- RAM (measured on host; see header) --- *)

(* The paper's per-instance RAM for a Femto-Container: VM stack (512 B) +
   housekeeping + region table = 624 B.  We measure our instance the same
   way: deep size of the live VM instance object, plus [lent] — the bytes
   of run state it borrows per run and so does not reach (an rBPF
   instance's stack and registers live in its domain's run frames). *)
let instance_ram_bytes ?(lent = 0) instance =
  Measure.reachable_bytes instance + lent
