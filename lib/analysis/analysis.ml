(* Abstract interpretation over verified bytecode.

   One abstract state is a vector of eleven register values drawn from a
   small lattice; stack pointers carry an interval of byte offsets
   relative to [stack_vaddr] (so r10 enters holding [stack_size,
   stack_size]).  A worklist fixpoint propagates states across the CFG,
   widening intervals along back edges so loops converge; a final clean
   pass over the stabilized states collects diagnostics and per-pc
   in-bounds proofs.

   Soundness contract for the fast path: a proof at [pc] means the access
   base is r10-derived and its offset interval, shifted by the
   instruction offset, lies inside [0, stack_size - width] on every
   path.  Only [Stack_ptr] values (which can originate from r10 alone)
   ever generate proofs; anything laundered through memory, truncation or
   unknown arithmetic degrades to [Any]/top and stays runtime-checked. *)

open Femto_ebpf
module Fault = Femto_vm.Fault
module Config = Femto_vm.Config
module Helper = Femto_vm.Helper
module Verifier = Femto_vm.Verifier
module Interp = Femto_vm.Interp
module Vm = Femto_vm.Vm
module Vir = Femto_vm.Ir
module Obs = Femto_obs.Obs
module Metrics = Femto_obs.Metrics
module Trace = Femto_obs.Trace
module Jsonx = Femto_obs.Jsonx

let m_accepted = Obs.counter "analysis.accepted"
let m_rejected = Obs.counter "analysis.rejected"
let m_fastpath = Obs.counter "analysis.fastpath_eligible"

(* Lift + pass pipeline, which [vm.compile_ns] (the closure backend
   alone) does not cover. *)
let m_ir_build_ns = Obs.histogram "analysis.ir_build_ns"

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type diag = {
  severity : severity;
  pc : int;
  reg : int option;
  kind : string;
  message : string;
}

type termination = Dag | Has_loops

type outcome = {
  diags : diag list;
  termination : termination;
  fastpath : bool array option;
  mem_facts : Vir.mem_fact option array;
      (* per-pc region typing + interval facts for memory accesses, from
         the stabilized states; feeds the IR lifter *)
  insns : int;
  blocks : int;
  reachable_blocks : int;
  unreachable : int list;
}

(* ------------------------------------------------------------------ *)
(* The register lattice.                                              *)

(* Interval bounds use saturating sentinels standing for +/-infinity so
   loop-widened offsets stay stable under further arithmetic. *)
let top_lo = -0x4000_0000
let top_hi = 0x4000_0000

type aval =
  | Bot  (** no path reaches this point yet *)
  | Uninit  (** may hold leftover bits from a previous run *)
  | Scalar  (** plain number (possibly a region address used as data) *)
  | Stack_ptr of int * int
      (** r10-derived; inclusive offset interval from [stack_vaddr] *)
  | Ctx_ptr  (** the context argument passed in r1 *)
  | Any  (** anything, including pointers laundered through memory *)

let is_ptr = function Stack_ptr _ | Ctx_ptr -> true | _ -> false

let add_off v d =
  if v <= top_lo then top_lo
  else if v >= top_hi then top_hi
  else
    let r = v + d in
    if r <= top_lo then top_lo else if r >= top_hi then top_hi else r

let join a b =
  match (a, b) with
  | Bot, v | v, Bot -> v
  | Uninit, _ | _, Uninit -> Uninit
  | Any, _ | _, Any -> Any
  | Scalar, Scalar -> Scalar
  | Ctx_ptr, Ctx_ptr -> Ctx_ptr
  | Stack_ptr (l1, h1), Stack_ptr (l2, h2) -> Stack_ptr (min l1 l2, max h1 h2)
  | (Scalar | Ctx_ptr | Stack_ptr _), (Scalar | Ctx_ptr | Stack_ptr _) -> Any

(* Widening at back-edge targets: a bound that grew goes straight to its
   sentinel, so loop-carried pointers stabilize in one extra round.
   [grown] must already include [old] (it is [join old incoming]). *)
let widen old grown =
  match (old, grown) with
  | Stack_ptr (l1, h1), Stack_ptr (l2, h2) ->
      Stack_ptr
        ((if l2 < l1 then top_lo else l1), if h2 > h1 then top_hi else h1)
  | _ -> grown

let aval_equal a b =
  match (a, b) with
  | Bot, Bot | Uninit, Uninit | Scalar, Scalar | Ctx_ptr, Ctx_ptr | Any, Any ->
      true
  | Stack_ptr (l1, h1), Stack_ptr (l2, h2) -> l1 = l2 && h1 = h2
  | (Bot | Uninit | Scalar | Stack_ptr _ | Ctx_ptr | Any), _ -> false

(* Linux-verifier entry convention: only the context pointer (r1) and
   the frame pointer (r10) are readable; everything else must be written
   before use.  The concrete machine zeroes all registers at reset, so
   this is a strictly conservative lint, not a soundness requirement. *)
let entry_state (config : Config.t) =
  let s = Array.make 11 Uninit in
  s.(1) <- Ctx_ptr;
  s.(10) <- Stack_ptr (config.stack_size, config.stack_size);
  s

(* ------------------------------------------------------------------ *)
(* Transfer function.                                                 *)

(* Where the reporting pass writes its findings; the fixpoint runs
   without one and records nothing. *)
type sink = {
  mutable found : diag list;
  proved : bool array;
  facts : Vir.mem_fact option array;
      (* region typing + shifted interval of each memory access *)
}

type ctx = { config : Config.t; helpers : Helper.t option; sink : sink option }

let emit ctx pc severity reg kind message =
  match ctx.sink with
  | None -> ()
  | Some s -> s.found <- { severity; pc; reg; kind; message } :: s.found

let note ctx pc base_kind lo hi proven =
  match ctx.sink with
  | None -> ()
  | Some s ->
      s.facts.(pc) <- Some { Vir.base_kind; lo; hi; proven };
      if proven then s.proved.(pc) <- true

let use ctx state pc r =
  match state.(r) with
  | Uninit ->
      emit ctx pc Error (Some r) "uninit_read"
        (Printf.sprintf "r%d read before initialization" r)
  | _ -> ()

(* After flagging, degrade Uninit/Bot to Any so one bad read produces
   one diagnostic, not a cascade. *)
let value state r = match state.(r) with Bot | Uninit -> Any | v -> v

let stack_access ctx state pc ~base ~offset nbytes =
  match value state base with
  | Stack_ptr (lo, hi) ->
      let lo = add_off lo offset and hi = add_off hi offset in
      let size = ctx.config.Config.stack_size in
      if hi < 0 || lo + nbytes > size then begin
        note ctx pc Vir.Base_stack lo hi false;
        emit ctx pc Error (Some base) "stack_oob"
          (Printf.sprintf
             "%d-byte stack access at r%d%+d is outside the %d B frame \
              (offsets %d..%d from frame base)"
             nbytes base offset size lo hi)
      end
      else if lo >= 0 && hi + nbytes <= size then
        note ctx pc Vir.Base_stack lo hi true
      else begin
        note ctx pc Vir.Base_stack lo hi false;
        if lo > top_lo && hi < top_hi then
          emit ctx pc Warning (Some base) "stack_maybe_oob"
            (Printf.sprintf
               "%d-byte stack access at r%d%+d may leave the %d B frame \
                (offsets %d..%d from frame base)"
               nbytes base offset size lo hi)
      end
  | Ctx_ptr -> note ctx pc Vir.Base_ctx offset offset false
  | _ ->
      (* non-stack bases stay subject to the runtime allow-list *)
      note ctx pc Vir.Base_other 0 0 false

let transfer ctx state program pc =
  let dst = Program.dst program pc and src = Program.src program pc in
  match Program.kind program pc with
  | Insn.Alu (is64, op, source) ->
      (* [has_imm]: the operand is the immediate, a plain scalar *)
      let has_imm = source = Opcode.Src_imm in
      let src_v =
        if has_imm then Scalar
        else begin
          use ctx state pc src;
          value state src
        end
      in
      (* mov never reads dst; neg reads only dst. *)
      (match op with
      | Opcode.Mov -> ()
      | _ -> use ctx state pc dst);
      let dst_v = if op = Opcode.Mov then Scalar else value state dst in
      if not is64 then begin
        (match op with
        | Opcode.Mov ->
            if is_ptr src_v then
              emit ctx pc Warning (Some dst) "ptr_trunc"
                "32-bit mov truncates a pointer to a scalar"
        | _ ->
            if is_ptr dst_v || is_ptr src_v then
              emit ctx pc Error (Some dst) "ptr_arith"
                "32-bit arithmetic on a pointer manufactures an invalid \
                 pointer");
        state.(dst) <- Scalar
      end
      else begin
        match op with
        | Opcode.Mov -> state.(dst) <- (if has_imm then Scalar else src_v)
        | Opcode.Add ->
            state.(dst) <-
              (match (dst_v, src_v, has_imm) with
              | Stack_ptr (l, h), _, true ->
                  let d = Program.imm program pc in
                  Stack_ptr (add_off l d, add_off h d)
              | Ctx_ptr, _, true -> Ctx_ptr
              | Stack_ptr _, Scalar, false -> Stack_ptr (top_lo, top_hi)
              | Scalar, Stack_ptr _, false -> Stack_ptr (top_lo, top_hi)
              | Ctx_ptr, Scalar, false | Scalar, Ctx_ptr, false -> Ctx_ptr
              | (Stack_ptr _ | Ctx_ptr), p, false when is_ptr p ->
                  emit ctx pc Error (Some dst) "ptr_arith"
                    "adding two pointers manufactures an invalid pointer";
                  Any
              | Scalar, Scalar, _ -> Scalar
              | _ -> Any)
        | Opcode.Sub ->
            state.(dst) <-
              (match (dst_v, src_v, has_imm) with
              | Stack_ptr (l, h), _, true ->
                  let d = Program.imm program pc in
                  Stack_ptr (add_off l (-d), add_off h (-d))
              | Ctx_ptr, _, true -> Ctx_ptr
              | Stack_ptr _, Scalar, false -> Stack_ptr (top_lo, top_hi)
              | Ctx_ptr, Scalar, false -> Ctx_ptr
              | (Stack_ptr _ | Ctx_ptr), p, false when is_ptr p ->
                  (* pointer difference is an ordinary number *)
                  Scalar
              | Scalar, p, false when is_ptr p ->
                  emit ctx pc Error (Some dst) "ptr_arith"
                    "subtracting a pointer from a scalar manufactures an \
                     invalid pointer";
                  Any
              | Scalar, Scalar, _ -> Scalar
              | _ -> Any)
        | Opcode.Neg ->
            if is_ptr dst_v then
              emit ctx pc Error (Some dst) "ptr_arith" "negating a pointer";
            state.(dst) <- (match dst_v with Any -> Any | _ -> Scalar)
        | Opcode.Mul | Opcode.Div | Opcode.Mod | Opcode.Or | Opcode.And
        | Opcode.Xor | Opcode.Lsh | Opcode.Rsh | Opcode.Arsh ->
            if is_ptr dst_v || is_ptr src_v then
              emit ctx pc Error (Some dst) "ptr_arith"
                (Printf.sprintf "%s on a pointer manufactures an invalid \
                                 pointer" (Opcode.alu_op_name op));
            state.(dst) <-
              (match (dst_v, src_v) with
              | Any, _ | _, Any -> Any
              | _ -> Scalar)
      end
  | Insn.Load size ->
      use ctx state pc src;
      stack_access ctx state pc ~base:src ~offset:(Program.offset program pc)
        (Opcode.size_bytes size);
      state.(dst) <- Any
  | Insn.Store_imm size ->
      use ctx state pc dst;
      stack_access ctx state pc ~base:dst ~offset:(Program.offset program pc)
        (Opcode.size_bytes size)
  | Insn.Store_reg size ->
      use ctx state pc dst;
      use ctx state pc src;
      stack_access ctx state pc ~base:dst ~offset:(Program.offset program pc)
        (Opcode.size_bytes size)
  | Insn.Lddw_head -> state.(dst) <- Scalar
  | Insn.Lddw_tail -> ()
  | Insn.End _ ->
      use ctx state pc dst;
      if is_ptr (value state dst) then
        emit ctx pc Error (Some dst) "ptr_arith" "byte-swapping a pointer";
      state.(dst) <- Scalar
  | Insn.Ja -> ()
  | Insn.Jcond (_, _, source) -> (
      use ctx state pc dst;
      match source with
      | Opcode.Src_reg -> use ctx state pc src
      | Opcode.Src_imm -> ())
  | Insn.Call ->
      let id = Program.imm program pc in
      (match ctx.helpers with
      | None -> ()
      | Some registry -> (
          match Helper.find registry id with
          | None ->
              emit ctx pc Error None "unknown_helper"
                (Printf.sprintf "call to unregistered helper %d" id)
          | Some entry -> (
              match entry.Helper.arity with
              | None -> ()
              | Some n ->
                  for r = 1 to n do
                    match state.(r) with
                    | Uninit ->
                        emit ctx pc Error (Some r) "call_signature"
                          (Printf.sprintf
                             "helper %s takes %d argument%s but r%d is \
                              uninitialized"
                             entry.Helper.name n
                             (if n = 1 then "" else "s")
                             r)
                    | _ -> ()
                  done)));
      (* This VM's helpers write only r0. *)
      state.(0) <- Any
  | Insn.Exit -> (
      match state.(0) with
      | Uninit ->
          emit ctx pc Error (Some 0) "uninit_read"
            "r0 (the return value) is uninitialized at exit"
      | _ -> ())
  | Insn.Invalid _ -> ()

let exec_block ctx (cfg : Cfg.t) state b =
  let blk = cfg.Cfg.blocks.(b) in
  for pc = blk.Cfg.first to blk.Cfg.last do
    if not cfg.Cfg.is_tail.(pc) then transfer ctx state cfg.Cfg.program pc
  done

(* ------------------------------------------------------------------ *)
(* Fixpoint and reporting.                                            *)

let severity_count sev diags =
  List.length (List.filter (fun d -> d.severity = sev) diags)

let errors o = severity_count Error o.diags
let warnings o = severity_count Warning o.diags
let accepted o = errors o = 0

let record_event ~insns ~blocks ~loops ~errors ~warnings ~fastpath =
  if Obs.enabled () then begin
    Metrics.incr (if errors = 0 then m_accepted else m_rejected);
    if fastpath then Metrics.incr m_fastpath;
    Obs.event (fun () ->
        Trace.Analysis_done { insns; blocks; loops; errors; warnings; fastpath })
  end

let analyze ?helpers (config : Config.t) program :
    (outcome, Fault.t) result =
  match Verifier.verify ?helpers config program with
  | Result.Error fault ->
      record_event ~insns:(Program.length program) ~blocks:0 ~loops:false
        ~errors:1 ~warnings:0 ~fastpath:false;
      Result.Error fault
  | Result.Ok vstats ->
      let len = Program.length program in
      let cfg = Cfg.build program in
      let n = Array.length cfg.Cfg.blocks in
      let inputs = Array.init n (fun _ -> Array.make 11 Bot) in
      inputs.(0) <- entry_state config;
      let silent = { config; helpers; sink = None } in
      (* one scratch state, reloaded from a block's input before each
         block runs *)
      let out = Array.make 11 Bot in
      let in_wl = Array.make n false in
      let wl = Queue.create () in
      Queue.add 0 wl;
      in_wl.(0) <- true;
      while not (Queue.is_empty wl) do
        let b = Queue.pop wl in
        in_wl.(b) <- false;
        Array.blit inputs.(b) 0 out 0 11;
        exec_block silent cfg out b;
        let blk = cfg.Cfg.blocks.(b) in
        List.iter
          (fun s ->
            let is_back = List.memq s blk.Cfg.back_succs in
            (* [inputs.(s)] is owned by [s] alone, so merge in place *)
            let old = inputs.(s) in
            let changed = ref false in
            for i = 0 to 10 do
              let oldv = old.(i) in
              let j = join oldv out.(i) in
              let j = if is_back then widen oldv j else j in
              if not (aval_equal j oldv) then begin
                changed := true;
                old.(i) <- j
              end
            done;
            if !changed && not in_wl.(s) then begin
              Queue.add s wl;
              in_wl.(s) <- true
            end)
          blk.Cfg.succs
      done;
      (* Clean reporting pass over the stabilized states: each reachable
         pc is interpreted exactly once, so diagnostics and proofs need
         no deduplication. *)
      let sink =
        {
          found = [];
          proved = Array.make len false;
          facts = Array.make len None;
        }
      in
      let ctx = { config; helpers; sink = Some sink } in
      for b = 0 to n - 1 do
        if cfg.Cfg.reachable.(b) then begin
          Array.blit inputs.(b) 0 out 0 11;
          exec_block ctx cfg out b
        end
      done;
      let unreachable = Cfg.unreachable_pcs cfg in
      List.iter
        (fun pc ->
          emit ctx pc Warning None "unreachable_code"
            "no path reaches this instruction")
        unreachable;
      let diags =
        List.sort
          (fun a b -> compare (a.pc, a.kind, a.reg) (b.pc, b.kind, b.reg))
          sink.found
      in
      (* One uninitialized register produces one report (at its first
         offending pc), not one per read site: later reads are symptoms
         of the same missing write. *)
      let diags =
        let seen = Hashtbl.create 8 in
        List.filter
          (fun d ->
            match (d.kind, d.reg) with
            | "uninit_read", Some r ->
                if Hashtbl.mem seen r then false
                else begin
                  Hashtbl.add seen r ();
                  true
                end
            | _ -> true)
          diags
      in
      let termination = if Cfg.has_loops cfg then Has_loops else Dag in
      let n_errors = severity_count Error diags in
      let n_warnings = severity_count Warning diags in
      (* Fast-path eligibility: every instruction of a DAG executes at
         most once, so with the whole program inside both static budgets
         neither counter can fire; proven stack accesses cannot miss the
         allow-list.  The IR tier compiles its budget guard out for
         such programs. *)
      let eligible =
        termination = Dag && n_errors = 0
        && vstats.Verifier.branch_count <= config.max_branches
        && len <= Config.dynamic_instruction_limit config
      in
      let reachable_blocks =
        Array.fold_left (fun k r -> if r then k + 1 else k) 0 cfg.Cfg.reachable
      in
      record_event ~insns:len ~blocks:n ~loops:(termination = Has_loops)
        ~errors:n_errors ~warnings:n_warnings ~fastpath:eligible;
      Result.Ok
        {
          diags;
          termination;
          fastpath = (if eligible then Some sink.proved else None);
          mem_facts = sink.facts;
          insns = len;
          blocks = n;
          reachable_blocks;
          unreachable;
        }

let load ?(config = Config.default) ?cycle_cost ?passes ~helpers ~regions
    program =
  match analyze ~helpers config program with
  | Result.Error fault -> Result.Error fault
  | Result.Ok outcome ->
      (* [analyze] already ran pre-flight verification; lift to
         superblocks, run the pass pipeline and hand the IR plus the
         per-pc proofs (when eligibility granted them) to the IR tier —
         the analyzer owns the IR just as it owns the proofs. *)
      let cost = match cycle_cost with Some c -> c | None -> Interp.no_cost in
      let t0 = Obs.now_ns () in
      let ir, _report =
        Passes.run ?config:passes ~cost ~facts:outcome.mem_facts program
      in
      if Obs.enabled () then
        Metrics.observe m_ir_build_ns (Obs.now_ns () -. t0);
      Result.Ok
        (Vm.load_analyzed ~config ?cycle_cost ?proofs:outcome.fastpath ~ir
           ~helpers ~regions program)

(* ------------------------------------------------------------------ *)
(* JSON rendering (schema femto-analysis/1).                          *)

let fault_pc = function
  | Fault.Invalid_opcode { pc; _ }
  | Fault.Invalid_register { pc; _ }
  | Fault.Readonly_register { pc }
  | Fault.Bad_jump { pc; _ }
  | Fault.Jump_to_lddw_tail { pc; _ }
  | Fault.Truncated_lddw { pc }
  | Fault.Malformed_lddw_tail { pc }
  | Fault.Division_by_zero { pc }
  | Fault.Memory_access { pc; _ }
  | Fault.Unknown_helper { pc; _ }
  | Fault.Helper_error { pc; _ }
  | Fault.Fall_off_end { pc }
  | Fault.Nonzero_field { pc; _ }
  | Fault.Bad_end_instruction { pc } ->
      pc
  | Fault.Instruction_budget_exhausted _ | Fault.Branch_budget_exhausted _
  | Fault.Program_too_long _ | Fault.Empty_program ->
      0

let fault_diag fault =
  {
    severity = Error;
    pc = fault_pc fault;
    reg = None;
    kind = Fault.kind fault;
    message = Fault.to_string fault;
  }

let diag_to_json d =
  Jsonx.Obj
    [
      ("severity", Jsonx.String (severity_name d.severity));
      ("pc", Jsonx.Int d.pc);
      ("register", match d.reg with Some r -> Jsonx.Int r | None -> Jsonx.Null);
      ("kind", Jsonx.String d.kind);
      ("message", Jsonx.String d.message);
    ]

let report_to_json result =
  let verdict_ok, fields =
    match result with
    | Result.Error fault ->
        ( false,
          [
            ("termination", Jsonx.Null);
            ("fastpath_eligible", Jsonx.Bool false);
            ("diagnostics", Jsonx.List [ diag_to_json (fault_diag fault) ]);
          ] )
    | Result.Ok o ->
        ( accepted o,
          [
            ( "termination",
              Jsonx.String
                (match o.termination with Dag -> "dag" | Has_loops -> "has_loops")
            );
            ("fastpath_eligible", Jsonx.Bool (o.fastpath <> None));
            ("insns", Jsonx.Int o.insns);
            ("blocks", Jsonx.Int o.blocks);
            ("reachable_blocks", Jsonx.Int o.reachable_blocks);
            ( "unreachable_pcs",
              Jsonx.List (List.map (fun pc -> Jsonx.Int pc) o.unreachable) );
            ("errors", Jsonx.Int (errors o));
            ("warnings", Jsonx.Int (warnings o));
            ("diagnostics", Jsonx.List (List.map diag_to_json o.diags));
          ] )
  in
  Jsonx.Obj
    (("schema", Jsonx.String "femto-analysis/1")
    :: ("verdict", Jsonx.String (if verdict_ok then "accepted" else "rejected"))
    :: fields)
