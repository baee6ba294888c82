(* MiniScript -> eBPF compiler.

   The paper points out that any language with an eBPF backend can target
   Femto-Containers (§8: "any other target language supported by LLVM
   could be used ... such as C++ and Rust").  This module is that story
   for MiniScript: compile the integer fragment of the language to eBPF
   bytecode that passes the pre-flight verifier and runs in the sandbox,
   so containers can be *written* at high level and *executed* at rBPF
   cost.

   Supported: integer arithmetic and comparisons (eBPF semantics: 64-bit
   wraparound, unsigned division), booleans as 0/1, let/assign, if/else,
   while/for/break/continue, return, calls to [bpf_*] helpers (up to five
   arguments), and the inline builtins [min]/[max]/[abs].  Strings,
   arrays, maps and user-function calls have no eBPF representation and
   are reported as compile errors.

   Layout: locals and expression temporaries live on the VM stack below
   r10 (slot i at [r10 - 8*(i+1)]); expression results materialize in r0
   with r1 as the secondary operand register. *)

open Ast

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun m -> raise (Unsupported m)) fmt

module E = Femto_ebpf
module I = E.Insn
module Op = E.Opcode

(* --- emitter with label patching (same pattern as the wasm flattener) --- *)

(* The program is emitted straight into its 8-byte wire slots. *)
type emitter = {
  mutable code : bytes;
  mutable len : int; (* slots emitted *)
  mutable max_slot : int; (* high-water mark of stack slots used *)
}

let emit e insn =
  if (e.len + 1) * I.size_bytes > Bytes.length e.code then begin
    let code = Bytes.create (max 256 (2 * Bytes.length e.code)) in
    Bytes.blit e.code 0 code 0 (e.len * I.size_bytes);
    e.code <- code
  end;
  I.encode_into e.code (e.len * I.size_bytes) insn;
  e.len <- e.len + 1

let here e = e.len

(* Emit a jump with a to-be-patched target; returns its index. *)
let emit_jump e opcode ~dst ~src ~imm =
  let at = e.len in
  emit e (I.make opcode ~dst ~src ~imm);
  at

let patch e at target =
  let offset = target - at - 1 in
  if offset < -0x8000 || offset > 0x7fff then
    unsupported "jump of %d slots exceeds the 16-bit branch offset" offset;
  Bytes.set_int16_le e.code ((at * I.size_bytes) + 2) offset

let slot_offset slot = -8 * (slot + 1)

let touch_slot e slot =
  if slot >= e.max_slot then e.max_slot <- slot + 1;
  if slot_offset slot < -512 then
    unsupported "expression/locals exceed the 512 B VM stack"

let store_slot e ~src slot =
  touch_slot e slot;
  emit e (I.make (Op.stx Op.DW) ~dst:10 ~src ~offset:(slot_offset slot))

let load_slot e ~dst slot =
  emit e (I.make (Op.ldx Op.DW) ~dst ~src:10 ~offset:(slot_offset slot))

let mov_imm e ~dst v =
  if Int64.compare v (-2147483648L) >= 0 && Int64.compare v 2147483647L <= 0
  then emit e (I.make (Op.alu64 Op.Mov Op.Src_imm) ~dst ~imm:(Int64.to_int32 v))
  else begin
    let head, tail = I.lddw_pair dst v in
    emit e head;
    emit e tail
  end

(* --- compilation environment --- *)

type env = {
  e : emitter;
  slots : (string, int) Hashtbl.t; (* variable -> stack slot *)
  mutable next_slot : int;
  helpers : string -> int option;
  (* innermost loop: (continue sites to patch or target, break sites) *)
  mutable loops : loop list;
}

and loop = {
  mutable break_sites : int list;
  mutable continue_sites : int list;
  continue_target : int option; (* Some pc for while; None until known (for) *)
}

let slot_of env name =
  match Hashtbl.find_opt env.slots name with
  | Some slot -> slot
  | None -> unsupported "unbound variable %s" name

let declare env name =
  match Hashtbl.find_opt env.slots name with
  | Some slot -> slot
  | None ->
      let slot = env.next_slot in
      env.next_slot <- env.next_slot + 1;
      touch_slot env.e slot;
      Hashtbl.replace env.slots name slot;
      slot

let binop_opcode = function
  | Add -> Some (Op.alu64 Op.Add Op.Src_reg)
  | Sub -> Some (Op.alu64 Op.Sub Op.Src_reg)
  | Mul -> Some (Op.alu64 Op.Mul Op.Src_reg)
  | Div -> Some (Op.alu64 Op.Div Op.Src_reg) (* eBPF: unsigned *)
  | Mod -> Some (Op.alu64 Op.Mod Op.Src_reg)
  | Band -> Some (Op.alu64 Op.And Op.Src_reg)
  | Bor -> Some (Op.alu64 Op.Or Op.Src_reg)
  | Bxor -> Some (Op.alu64 Op.Xor Op.Src_reg)
  | Shl -> Some (Op.alu64 Op.Lsh Op.Src_reg)
  | Shr -> Some (Op.alu64 Op.Rsh Op.Src_reg)
  | Eq | Ne | Lt | Le | Gt | Ge | And_also | Or_else -> None

let compare_opcode = function
  | Eq -> Some (Op.jmp Op.Jeq Op.Src_reg)
  | Ne -> Some (Op.jmp Op.Jne Op.Src_reg)
  | Lt -> Some (Op.jmp Op.Jslt Op.Src_reg)
  | Le -> Some (Op.jmp Op.Jsle Op.Src_reg)
  | Gt -> Some (Op.jmp Op.Jsgt Op.Src_reg)
  | Ge -> Some (Op.jmp Op.Jsge Op.Src_reg)
  | _ -> None

(* Compile [expr] into r0.  [depth] counts live expression temporaries
   stacked above the locals. *)
let rec compile_expr env ~depth expr =
  let e = env.e in
  match expr with
  | Int v -> mov_imm e ~dst:0 v
  | Bool b -> mov_imm e ~dst:0 (if b then 1L else 0L)
  | Nil -> mov_imm e ~dst:0 0L
  | Str _ -> unsupported "strings have no eBPF representation"
  | Array_lit _ -> unsupported "arrays have no eBPF representation"
  | Index _ -> unsupported "indexing has no eBPF representation"
  | Var name -> load_slot e ~dst:0 (slot_of env name)
  | Unary (Neg, inner) ->
      compile_expr env ~depth inner;
      emit e (I.make (Op.alu64 Op.Neg Op.Src_imm) ~dst:0)
  | Unary (Not, inner) ->
      compile_expr env ~depth inner;
      (* r0 <- (r0 == 0) *)
      let j = emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      mov_imm e ~dst:0 0L;
      let skip = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
      patch e j (here e);
      mov_imm e ~dst:0 1L;
      patch e skip (here e)
  | Binary (And_also, a, b) ->
      compile_expr env ~depth a;
      let short = emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      compile_expr env ~depth b;
      (* normalize to 0/1 *)
      let j = emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      mov_imm e ~dst:0 1L;
      let skip = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
      patch e j (here e);
      patch e short (here e);
      mov_imm e ~dst:0 0L;
      patch e skip (here e)
  | Binary (Or_else, a, b) ->
      compile_expr env ~depth a;
      let short = emit_jump e (Op.jmp Op.Jne Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      compile_expr env ~depth b;
      let j = emit_jump e (Op.jmp Op.Jne Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      mov_imm e ~dst:0 0L;
      let skip = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
      patch e j (here e);
      patch e short (here e);
      mov_imm e ~dst:0 1L;
      patch e skip (here e)
  | Binary (op, a, b) -> (
      let tmp = env.next_slot + depth in
      compile_expr env ~depth a;
      store_slot e ~src:0 tmp;
      compile_expr env ~depth:(depth + 1) b;
      (* r1 <- rhs, r0 <- lhs *)
      emit e (I.make (Op.alu64 Op.Mov Op.Src_reg) ~dst:1 ~src:0);
      load_slot e ~dst:0 tmp;
      match binop_opcode op with
      | Some opcode -> emit e (I.make opcode ~dst:0 ~src:1)
      | None -> (
          match compare_opcode op with
          | Some jump_opcode ->
              let j = emit_jump e jump_opcode ~dst:0 ~src:1 ~imm:0l in
              mov_imm e ~dst:0 0L;
              let skip = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
              patch e j (here e);
              mov_imm e ~dst:0 1L;
              patch e skip (here e)
          | None -> unsupported "operator not representable"))
  | Call (("load8" | "load16" | "load32" | "load64") as width, [ addr ]) ->
      (* raw memory read through the container's allow-list — how scripts
         reach the hook context *)
      compile_expr env ~depth addr;
      let size =
        match width with
        | "load8" -> Op.B
        | "load16" -> Op.H
        | "load32" -> Op.W
        | _ -> Op.DW
      in
      emit e (I.make (Op.ldx size) ~dst:0 ~src:0)
  | Call ("store64", [ addr; value ]) ->
      let tmp = env.next_slot + depth in
      compile_expr env ~depth addr;
      store_slot e ~src:0 tmp;
      compile_expr env ~depth:(depth + 1) value;
      load_slot e ~dst:1 tmp;
      emit e (I.make (Op.stx Op.DW) ~dst:1 ~src:0);
      mov_imm e ~dst:0 0L
  | Call ("min", [ a; b ]) -> compile_minmax env ~depth (Op.jmp Op.Jsle Op.Src_reg) a b
  | Call ("max", [ a; b ]) -> compile_minmax env ~depth (Op.jmp Op.Jsge Op.Src_reg) a b
  | Call ("abs", [ a ]) ->
      compile_expr env ~depth a;
      let skip = emit_jump e (Op.jmp Op.Jsge Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      emit e (I.make (Op.alu64 Op.Neg Op.Src_imm) ~dst:0);
      patch e skip (here e)
  | Call (name, args) -> (
      match env.helpers name with
      | None -> unsupported "unknown function %s (user functions cannot be compiled)" name
      | Some id ->
          if List.length args > 5 then unsupported "%s: helpers take at most 5 arguments" name;
          (* evaluate arguments into temporaries, then load r1..r5 *)
          List.iteri
            (fun i arg ->
              compile_expr env ~depth:(depth + i) arg;
              store_slot e ~src:0 (env.next_slot + depth + i))
            args;
          List.iteri
            (fun i _ -> load_slot e ~dst:(i + 1) (env.next_slot + depth + i))
            args;
          emit e (I.make Op.call ~imm:(Int32.of_int id)))

and compile_minmax env ~depth keep_jump a b =
  let e = env.e in
  let tmp = env.next_slot + depth in
  compile_expr env ~depth a;
  store_slot e ~src:0 tmp;
  compile_expr env ~depth:(depth + 1) b;
  emit e (I.make (Op.alu64 Op.Mov Op.Src_reg) ~dst:1 ~src:0);
  load_slot e ~dst:0 tmp;
  (* keep r0 when [r0 keep_jump r1], else take r1 *)
  let keep = emit_jump e keep_jump ~dst:0 ~src:1 ~imm:0l in
  emit e (I.make (Op.alu64 Op.Mov Op.Src_reg) ~dst:0 ~src:1);
  patch e keep (here e)

let rec compile_stmt env stmt =
  let e = env.e in
  match stmt with
  | Let (name, expr) ->
      compile_expr env ~depth:0 expr;
      store_slot e ~src:0 (declare env name)
  | Assign (name, expr) ->
      compile_expr env ~depth:0 expr;
      store_slot e ~src:0 (slot_of env name)
  | Assign_index _ -> unsupported "indexed assignment has no eBPF representation"
  | If (cond, then_, else_) ->
      compile_expr env ~depth:0 cond;
      let to_else = emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      List.iter (compile_stmt env) then_;
      if else_ = [] then patch e to_else (here e)
      else begin
        let to_end = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
        patch e to_else (here e);
        List.iter (compile_stmt env) else_;
        patch e to_end (here e)
      end
  | While (cond, body) ->
      let top = here e in
      compile_expr env ~depth:0 cond;
      let exit_jump = emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l in
      let loop = { break_sites = []; continue_sites = []; continue_target = Some top } in
      env.loops <- loop :: env.loops;
      List.iter (compile_stmt env) body;
      env.loops <- List.tl env.loops;
      let back = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
      patch e back top;
      patch e exit_jump (here e);
      List.iter (fun at -> patch e at (here e)) loop.break_sites
  | For (init, cond, step, body) ->
      (match init with Some s -> compile_stmt env s | None -> ());
      let top = here e in
      let exit_jump =
        match cond with
        | Some c ->
            compile_expr env ~depth:0 c;
            Some (emit_jump e (Op.jmp Op.Jeq Op.Src_imm) ~dst:0 ~src:0 ~imm:0l)
        | None -> None
      in
      let loop = { break_sites = []; continue_sites = []; continue_target = None } in
      env.loops <- loop :: env.loops;
      List.iter (compile_stmt env) body;
      env.loops <- List.tl env.loops;
      let step_at = here e in
      List.iter (fun at -> patch e at step_at) loop.continue_sites;
      (match step with Some s -> compile_stmt env s | None -> ());
      let back = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
      patch e back top;
      (match exit_jump with Some at -> patch e at (here e) | None -> ());
      List.iter (fun at -> patch e at (here e)) loop.break_sites
  | Break -> (
      match env.loops with
      | loop :: _ ->
          loop.break_sites <- emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l :: loop.break_sites
      | [] -> unsupported "break outside a loop")
  | Continue -> (
      match env.loops with
      | loop :: _ -> (
          match loop.continue_target with
          | Some top ->
              let j = emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l in
              patch e j top
          | None ->
              loop.continue_sites <-
                emit_jump e Op.ja ~dst:0 ~src:0 ~imm:0l :: loop.continue_sites)
      | [] -> unsupported "continue outside a loop")
  | Return None ->
      mov_imm e ~dst:0 0L;
      emit e (I.make Op.exit')
  | Return (Some expr) ->
      compile_expr env ~depth:0 expr;
      emit e (I.make Op.exit')
  | Expr_stmt expr -> compile_expr env ~depth:0 expr

let no_helpers (_ : string) : int option = None

(* [compile_function ?helpers source name] compiles function [name] from
   [source] to an eBPF program; up to five parameters arrive in r1..r5. *)
let compile_function ?(helpers = no_helpers) source name =
  let program = Parser.parse source in
  let func =
    match List.find_opt (fun f -> f.name = name) program.funcs with
    | Some f -> f
    | None -> unsupported "no function %s in source" name
  in
  if List.length func.params > 5 then
    unsupported "%s: at most 5 parameters map onto r1..r5" name;
  let env =
    {
      e = { code = Bytes.empty; len = 0; max_slot = 0 };
      slots = Hashtbl.create 8;
      next_slot = 0;
      helpers;
      loops = [];
    }
  in
  (* prologue: spill the argument registers into parameter slots *)
  List.iteri
    (fun i param -> store_slot env.e ~src:(i + 1) (declare env param))
    func.params;
  List.iter (compile_stmt env) func.body;
  (* implicit return 0 *)
  mov_imm env.e ~dst:0 0L;
  emit env.e (I.make Op.exit');
  E.Program.of_bytes (Bytes.sub env.e.code 0 (env.e.len * I.size_bytes))
