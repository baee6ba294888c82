(* Tests for the MiniScript -> eBPF compiler: compiled programs must pass
   the pre-flight verifier and compute the same results as the MiniScript
   interpreters (differential testing), while inheriting all the sandbox
   guarantees. *)

module To_ebpf = Femto_script.To_ebpf
module Stack_vm = Femto_script.Stack_vm
module Value = Femto_script.Value
module Vm = Femto_vm.Vm
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Helper = Femto_vm.Helper

let no_helpers = Helper.create ()

(* Compile [name] from [source], verify, run with int64 args. *)
let run_compiled ?(helpers = no_helpers) source name args =
  let program =
    To_ebpf.compile_function ~helpers:(Helper.asm_resolver helpers) source name
  in
  match Vm.load ~helpers ~regions:[] program with
  | Error fault -> Error (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm ~args:(Array.of_list args) with
      | Ok v -> Ok v
      | Error fault -> Error (Fault.to_string fault))

(* Run the same function in the bytecode interpreter for comparison. *)
let run_interpreted source name args =
  let t = Stack_vm.load source in
  match Stack_vm.call t name (List.map (fun v -> Value.Int v) args) with
  | Ok (Value.Int v) -> Ok v
  | Ok (Value.Bool b) -> Ok (if b then 1L else 0L)
  | Ok _ -> Error "non-int result"
  | Error m -> Error m

let check_both source name args expected =
  (match run_interpreted source name args with
  | Ok v -> Alcotest.(check int64) "interpreter" expected v
  | Error m -> Alcotest.failf "interpreter: %s" m);
  match run_compiled source name args with
  | Ok v -> Alcotest.(check int64) "compiled eBPF" expected v
  | Error m -> Alcotest.failf "compiled: %s" m

let test_arithmetic () =
  check_both "fn f(x, y) { return (x + y) * 3 - x % y; }" "f" [ 10L; 7L ] 48L

let test_comparisons_and_logic () =
  let source =
    "fn f(x, y) { return (x < y && y <= 100) || x == 42; }"
  in
  check_both source "f" [ 1L; 2L ] 1L;
  check_both source "f" [ 42L; 1L ] 1L;
  check_both source "f" [ 5L; 2L ] 0L

let test_if_else () =
  let source =
    "fn f(x) { if (x > 10) { return 1; } else { if (x > 5) { return 2; } } return 3; }"
  in
  check_both source "f" [ 20L ] 1L;
  check_both source "f" [ 7L ] 2L;
  check_both source "f" [ 1L ] 3L

let test_while_loop () =
  let source =
    "fn f(n) { let acc = 0; let i = 1; while (i <= n) { acc = acc + i; i = i + 1; } return acc; }"
  in
  check_both source "f" [ 100L ] 5050L

let test_for_break_continue () =
  let source =
    {|
      fn f(n) {
        let acc = 0;
        for (let i = 0; i < n; i = i + 1) {
          if (i % 2 == 0) { continue; }
          if (i > 10) { break; }
          acc = acc + i;
        }
        return acc;
      }
    |}
  in
  check_both source "f" [ 100L ] 25L

let test_gcd () =
  let source =
    "fn gcd(a, b) { while (b != 0) { let t = b; b = a % b; a = t; } return a; }"
  in
  check_both source "gcd" [ 252L; 105L ] 21L

let test_collatz_steps () =
  let source =
    {|
      fn steps(n) {
        let count = 0;
        while (n != 1) {
          if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
          count = count + 1;
        }
        return count;
      }
    |}
  in
  check_both source "steps" [ 27L ] 111L

let test_builtin_min_max_abs () =
  let source = "fn f(a, b) { return min(a, b) * 100 + max(a, b) + abs(a - b); }" in
  check_both source "f" [ 3L; 9L ] 315L

let test_shifts_and_bits () =
  let source = "fn f(x) { return ((x << 4) | 3) ^ (x >> 1) & 255; }" in
  check_both source "f" [ 77L ] (run_interpreted "fn f(x) { return ((x << 4) | 3) ^ (x >> 1) & 255; }" "f" [ 77L ] |> Result.get_ok)

let test_helper_calls_compiled () =
  let helpers = Helper.create () in
  Helper.register helpers ~id:7 ~name:"bpf_double" (fun _mem rf ->
      Helper.return rf (Int64.mul (Helper.arg rf 1) 2L));
  Helper.register helpers ~id:8 ~name:"bpf_add3" (fun _mem rf ->
      Helper.(return rf (Int64.add (arg rf 1) (Int64.add (arg rf 2) (arg rf 3)))));
  let source =
    "fn f(x) { let d = bpf_double(x); return bpf_add3(d, x, 1) ; }"
  in
  match run_compiled ~helpers source "f" [ 10L ] with
  | Ok v -> Alcotest.(check int64) "helpers from script" 31L v
  | Error m -> Alcotest.failf "compiled: %s" m

let test_verifier_accepts_output () =
  let source =
    "fn f(n) { let acc = 0; for (let i = 0; i < n; i = i + 1) { acc = acc + i * i; } return acc; }"
  in
  let program = To_ebpf.compile_function source "f" in
  match Femto_vm.Verifier.verify Config.default program with
  | Ok _ -> ()
  | Error fault -> Alcotest.failf "verifier rejected: %s" (Fault.to_string fault)

let test_infinite_loop_contained () =
  let program = To_ebpf.compile_function "fn f(x) { while (true) { x = x + 1; } return x; }" "f" in
  let config = { Config.default with Config.max_branches = 50 } in
  match Vm.load ~config ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm with
      | Error (Fault.Branch_budget_exhausted _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "runaway script not contained")

let test_memory_builtins () =
  (* scripts read the hook context through load*; writes go through
     store64 — both obey the allow-list *)
  let ctx = Bytes.create 16 in
  Bytes.set_int64_le ctx 0 500L;
  Bytes.set_int64_le ctx 8 0L;
  let region =
    Femto_vm.Region.make ~name:"ctx" ~vaddr:0x2000_0000L
      ~perm:Femto_vm.Region.Read_write ctx
  in
  let source =
    "fn f(ctx) { let v = load64(ctx); store64(ctx + 8, v * 2); return load64(ctx + 8); }"
  in
  let program = To_ebpf.compile_function source "f" in
  (match Vm.load ~helpers:no_helpers ~regions:[ region ] program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm ~args:[| 0x2000_0000L |] with
      | Ok v -> Alcotest.(check int64) "doubled" 1000L v
      | Error fault -> Alcotest.failf "run: %s" (Fault.to_string fault)));
  Alcotest.(check int64) "written through" 1000L (Bytes.get_int64_le ctx 8)

let test_memory_builtins_respect_allowlist () =
  (* a compiled script cannot escape the sandbox any more than hand
     written bytecode can *)
  let source = "fn f(ctx) { return load64(ctx + 4096); }" in
  let program = To_ebpf.compile_function source "f" in
  match Vm.load ~helpers:no_helpers ~regions:[] program with
  | Error fault -> Alcotest.failf "load: %s" (Fault.to_string fault)
  | Ok vm -> (
      match Vm.run vm ~args:[| 0x2000_0000L |] with
      | Error (Fault.Memory_access _) -> ()
      | Ok _ | Error _ -> Alcotest.fail "out-of-sandbox load not contained")

let test_unsupported_constructs_rejected () =
  let cases =
    [
      "fn f(x) { let a = [1, 2]; return a[0]; }";
      "fn f(x) { return \"hello\"; }";
      "fn g(x) { return x; } fn f(x) { return g(x); }";
      "fn f(x) { let m = map(); return 0; }";
    ]
  in
  List.iter
    (fun source ->
      match To_ebpf.compile_function source "f" with
      | exception To_ebpf.Unsupported _ -> ()
      | _ -> Alcotest.failf "compiled unsupported: %s" source)
    cases

let test_deep_expression_rejected_not_corrupted () =
  (* an expression deep enough to overflow the 512 B stack must be a
     compile error, not silent corruption *)
  let rec nest n = if n = 0 then "x" else "(" ^ nest (n - 1) ^ " + 1)" in
  let source = Printf.sprintf "fn f(x) { return %s; }" (nest 100) in
  match To_ebpf.compile_function source "f" with
  | exception To_ebpf.Unsupported _ -> ()
  | program -> (
      (* shallow enough to fit is fine too — then it must verify and run *)
      match Vm.load ~helpers:no_helpers ~regions:[] program with
      | Ok vm -> (
          match Vm.run vm ~args:[| 1L |] with
          | Ok v -> Alcotest.(check int64) "value" 101L v
          | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f))
      | Error f -> Alcotest.failf "verify: %s" (Fault.to_string f))

(* Differential fuzzing: random integer expressions evaluate identically
   in the interpreter and in compiled eBPF.  Division/modulo are omitted
   (eBPF is unsigned, MiniScript signed) and operands kept non-negative. *)
let gen_expr_source =
  let open QCheck.Gen in
  (* integer-typed expressions only: the eBPF target is untyped (bools are
     0/1 words), so ill-typed sources would diverge from the checked
     interpreter by design *)
  let rec arith depth =
    if depth = 0 then
      frequency
        [ (3, map (fun v -> string_of_int v) (int_range 0 1000));
          (2, return "x"); (2, return "y") ]
    else
      frequency
        [
          (1, arith 0);
          ( 5,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
              (arith (depth - 1)) (arith (depth - 1)) );
          ( 1,
            map3
              (fun f a b -> Printf.sprintf "%s(%s, %s)" f a b)
              (oneofl [ "min"; "max" ])
              (arith (depth - 1)) (arith (depth - 1)) );
          (1, map (fun a -> Printf.sprintf "abs(%s)" a) (arith (depth - 1)));
        ]
  in
  let top =
    frequency
      [
        (3, arith 4);
        ( 1,
          map3
            (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
            (oneofl [ "<"; "<="; "=="; "!="; ">"; ">=" ])
            (arith 3) (arith 3) );
      ]
  in
  QCheck.Gen.(top >>= fun body ->
    pair (int_range 0 100) (int_range 0 100) >>= fun (x, y) ->
    return (Printf.sprintf "fn f(x, y) { return %s; }" body, Int64.of_int x, Int64.of_int y))

let prop_compiled_equals_interpreted =
  QCheck.Test.make ~name:"compiled eBPF = interpreter on random expressions"
    ~count:300 (QCheck.make gen_expr_source) (fun (source, x, y) ->
      match (run_interpreted source "f" [ x; y ], run_compiled source "f" [ x; y ]) with
      | Ok a, Ok b -> Int64.equal a b
      | Error _, Error _ -> true
      | _ -> false)

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons/logic" `Quick test_comparisons_and_logic;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "while" `Quick test_while_loop;
    Alcotest.test_case "for/break/continue" `Quick test_for_break_continue;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "collatz" `Quick test_collatz_steps;
    Alcotest.test_case "min/max/abs" `Quick test_builtin_min_max_abs;
    Alcotest.test_case "shifts/bits" `Quick test_shifts_and_bits;
    Alcotest.test_case "helper calls" `Quick test_helper_calls_compiled;
    Alcotest.test_case "verifier accepts output" `Quick test_verifier_accepts_output;
    Alcotest.test_case "runaway contained" `Quick test_infinite_loop_contained;
    Alcotest.test_case "memory builtins" `Quick test_memory_builtins;
    Alcotest.test_case "memory builtins allow-list" `Quick
      test_memory_builtins_respect_allowlist;
    Alcotest.test_case "unsupported rejected" `Quick test_unsupported_constructs_rejected;
    Alcotest.test_case "deep expression" `Quick test_deep_expression_rejected_not_corrupted;
    QCheck_alcotest.to_alcotest prop_compiled_equals_interpreted;
  ]

let () = Alcotest.run "femto_to_ebpf" [ ("to-ebpf", suite) ]
