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

type ctx = {
  config : Config.t;
  helpers : Helper.t option;
  emit : diag -> unit;
  prove : int -> unit;
  note : int -> Vir.mem_fact -> unit;
      (* record the region typing + shifted interval of a memory access *)
}

let transfer ctx state pc (insn : Insn.t) =
  let emit severity reg kind message =
    ctx.emit { severity; pc; reg; kind; message }
  in
  let use r =
    match state.(r) with
    | Uninit ->
        emit Error (Some r) "uninit_read"
          (Printf.sprintf "r%d read before initialization" r)
    | _ -> ()
  in
  (* After flagging, degrade Uninit/Bot to Any so one bad read produces
     one diagnostic, not a cascade. *)
  let value r = match state.(r) with Bot | Uninit -> Any | v -> v in
  let stack_access ~base ~write:_ nbytes =
    match value base with
    | Stack_ptr (lo, hi) ->
        let lo = add_off lo insn.offset and hi = add_off hi insn.offset in
        let size = ctx.config.Config.stack_size in
        if hi < 0 || lo + nbytes > size then begin
          ctx.note pc
            { Vir.base_kind = Vir.Base_stack; lo; hi; proven = false };
          emit Error (Some base) "stack_oob"
            (Printf.sprintf
               "%d-byte stack access at r%d%+d is outside the %d B frame \
                (offsets %d..%d from frame base)"
               nbytes base insn.offset size lo hi)
        end
        else if lo >= 0 && hi + nbytes <= size then begin
          ctx.note pc { Vir.base_kind = Vir.Base_stack; lo; hi; proven = true };
          ctx.prove pc
        end
        else begin
          ctx.note pc
            { Vir.base_kind = Vir.Base_stack; lo; hi; proven = false };
          if lo > top_lo && hi < top_hi then
            emit Warning (Some base) "stack_maybe_oob"
              (Printf.sprintf
                 "%d-byte stack access at r%d%+d may leave the %d B frame \
                  (offsets %d..%d from frame base)"
                 nbytes base insn.offset size lo hi)
        end
    | Ctx_ptr ->
        ctx.note pc
          {
            Vir.base_kind = Vir.Base_ctx;
            lo = insn.offset;
            hi = insn.offset;
            proven = false;
          }
    | _ ->
        (* non-stack bases stay subject to the runtime allow-list *)
        ctx.note pc
          { Vir.base_kind = Vir.Base_other; lo = 0; hi = 0; proven = false }
  in
  match Insn.kind insn with
  | Insn.Alu (is64, op, source) ->
      let dst = insn.dst in
      let src_v, src_imm =
        match source with
        | Opcode.Src_imm -> (Scalar, Some (Int32.to_int insn.imm))
        | Opcode.Src_reg ->
            use insn.src;
            (value insn.src, None)
      in
      (* mov never reads dst; neg reads only dst. *)
      (match op with
      | Opcode.Mov -> ()
      | _ -> use dst);
      let dst_v = if op = Opcode.Mov then Scalar else value dst in
      if not is64 then begin
        (match op with
        | Opcode.Mov ->
            if is_ptr src_v then
              emit Warning (Some dst) "ptr_trunc"
                "32-bit mov truncates a pointer to a scalar"
        | _ ->
            if is_ptr dst_v || is_ptr src_v then
              emit Error (Some dst) "ptr_arith"
                "32-bit arithmetic on a pointer manufactures an invalid \
                 pointer");
        state.(dst) <- Scalar
      end
      else begin
        match op with
        | Opcode.Mov ->
            state.(dst) <-
              (match src_imm with Some _ -> Scalar | None -> src_v)
        | Opcode.Add ->
            state.(dst) <-
              (match (dst_v, src_v, src_imm) with
              | Stack_ptr (l, h), _, Some d ->
                  Stack_ptr (add_off l d, add_off h d)
              | Ctx_ptr, _, Some _ -> Ctx_ptr
              | Stack_ptr _, Scalar, None -> Stack_ptr (top_lo, top_hi)
              | Scalar, Stack_ptr _, None -> Stack_ptr (top_lo, top_hi)
              | Ctx_ptr, Scalar, None | Scalar, Ctx_ptr, None -> Ctx_ptr
              | (Stack_ptr _ | Ctx_ptr), p, None when is_ptr p ->
                  emit Error (Some dst) "ptr_arith"
                    "adding two pointers manufactures an invalid pointer";
                  Any
              | Scalar, Scalar, _ -> Scalar
              | _ -> Any)
        | Opcode.Sub ->
            state.(dst) <-
              (match (dst_v, src_v, src_imm) with
              | Stack_ptr (l, h), _, Some d ->
                  Stack_ptr (add_off l (-d), add_off h (-d))
              | Ctx_ptr, _, Some _ -> Ctx_ptr
              | Stack_ptr _, Scalar, None -> Stack_ptr (top_lo, top_hi)
              | Ctx_ptr, Scalar, None -> Ctx_ptr
              | (Stack_ptr _ | Ctx_ptr), p, None when is_ptr p ->
                  (* pointer difference is an ordinary number *)
                  Scalar
              | Scalar, p, None when is_ptr p ->
                  emit Error (Some dst) "ptr_arith"
                    "subtracting a pointer from a scalar manufactures an \
                     invalid pointer";
                  Any
              | Scalar, Scalar, _ -> Scalar
              | _ -> Any)
        | Opcode.Neg ->
            if is_ptr dst_v then
              emit Error (Some dst) "ptr_arith" "negating a pointer";
            state.(dst) <- (match dst_v with Any -> Any | _ -> Scalar)
        | Opcode.Mul | Opcode.Div | Opcode.Mod | Opcode.Or | Opcode.And
        | Opcode.Xor | Opcode.Lsh | Opcode.Rsh | Opcode.Arsh ->
            if is_ptr dst_v || is_ptr src_v then
              emit Error (Some dst) "ptr_arith"
                (Printf.sprintf "%s on a pointer manufactures an invalid \
                                 pointer" (Opcode.alu_op_name op));
            state.(dst) <-
              (match (dst_v, src_v) with
              | Any, _ | _, Any -> Any
              | _ -> Scalar)
      end
  | Insn.Load size ->
      use insn.src;
      stack_access ~base:insn.src ~write:false (Opcode.size_bytes size);
      state.(insn.dst) <- Any
  | Insn.Store_imm size ->
      use insn.dst;
      stack_access ~base:insn.dst ~write:true (Opcode.size_bytes size)
  | Insn.Store_reg size ->
      use insn.dst;
      use insn.src;
      stack_access ~base:insn.dst ~write:true (Opcode.size_bytes size)
  | Insn.Lddw_head -> state.(insn.dst) <- Scalar
  | Insn.Lddw_tail -> ()
  | Insn.End _ ->
      use insn.dst;
      if is_ptr (value insn.dst) then
        emit Error (Some insn.dst) "ptr_arith" "byte-swapping a pointer";
      state.(insn.dst) <- Scalar
  | Insn.Ja -> ()
  | Insn.Jcond (_, _, source) -> (
      use insn.dst;
      match source with Opcode.Src_reg -> use insn.src | Opcode.Src_imm -> ())
  | Insn.Call ->
      let id = Int32.to_int insn.imm in
      (match ctx.helpers with
      | None -> ()
      | Some registry -> (
          match Helper.find registry id with
          | None ->
              emit Error None "unknown_helper"
                (Printf.sprintf "call to unregistered helper %d" id)
          | Some entry -> (
              match entry.Helper.arity with
              | None -> ()
              | Some n ->
                  for r = 1 to n do
                    match state.(r) with
                    | Uninit ->
                        emit Error (Some r) "call_signature"
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
          emit Error (Some 0) "uninit_read"
            "r0 (the return value) is uninitialized at exit"
      | _ -> ())
  | Insn.Invalid _ -> ()

let exec_block ctx (cfg : Cfg.t) state b =
  let blk = cfg.Cfg.blocks.(b) in
  for pc = blk.Cfg.first to blk.Cfg.last do
    if not cfg.Cfg.is_tail.(pc) then
      transfer ctx state pc (Program.get cfg.Cfg.program pc)
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
      let silent =
        {
          config;
          helpers;
          emit = (fun _ -> ());
          prove = (fun _ -> ());
          note = (fun _ _ -> ());
        }
      in
      let in_wl = Array.make n false in
      let wl = Queue.create () in
      Queue.add 0 wl;
      in_wl.(0) <- true;
      while not (Queue.is_empty wl) do
        let b = Queue.pop wl in
        in_wl.(b) <- false;
        let out = Array.copy inputs.(b) in
        exec_block silent cfg out b;
        List.iter
          (fun s ->
            let is_back = List.mem (b, s) cfg.Cfg.back_edges in
            let old = inputs.(s) in
            let changed = ref false in
            let merged =
              Array.mapi
                (fun i oldv ->
                  let j = join oldv out.(i) in
                  let j = if is_back then widen oldv j else j in
                  if j <> oldv then changed := true;
                  j)
                old
            in
            if !changed then begin
              inputs.(s) <- merged;
              if not in_wl.(s) then begin
                Queue.add s wl;
                in_wl.(s) <- true
              end
            end)
          cfg.Cfg.blocks.(b).Cfg.succs
      done;
      (* Clean reporting pass over the stabilized states: each reachable
         pc is interpreted exactly once, so diagnostics and proofs need
         no deduplication. *)
      let diags = ref [] in
      let proofs = Array.make len false in
      let mem_facts = Array.make len None in
      let ctx =
        {
          config;
          helpers;
          emit = (fun d -> diags := d :: !diags);
          prove = (fun pc -> proofs.(pc) <- true);
          note = (fun pc f -> mem_facts.(pc) <- Some f);
        }
      in
      for b = 0 to n - 1 do
        if cfg.Cfg.reachable.(b) then
          exec_block ctx cfg (Array.copy inputs.(b)) b
      done;
      let unreachable = Cfg.unreachable_pcs cfg in
      List.iter
        (fun pc ->
          ctx.emit
            {
              severity = Warning;
              pc;
              reg = None;
              kind = "unreachable_code";
              message = "no path reaches this instruction";
            })
        unreachable;
      let diags =
        List.sort
          (fun a b -> compare (a.pc, a.kind, a.reg) (b.pc, b.kind, b.reg))
          !diags
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
          fastpath = (if eligible then Some proofs else None);
          mem_facts;
          insns = len;
          blocks = n;
          reachable_blocks;
          unreachable;
        }

let load_outcome ?(config = Config.default) ?cycle_cost ?passes ~helpers
    ~regions program =
  match analyze ~helpers config program with
  | Result.Error fault -> Result.Error fault
  | Result.Ok outcome ->
      (* [analyze] already ran pre-flight verification; lift to
         superblocks, run the pass pipeline and hand the IR plus the
         per-pc proofs (when eligibility granted them) to the IR tier —
         the analyzer owns the IR just as it owns the proofs. *)
      let cost = match cycle_cost with Some c -> c | None -> Interp.no_cost in
      let t0 = Obs.now_ns () in
      let lifted = Ir.lift ~cost ~facts:outcome.mem_facts program in
      let ir, _report = Passes.run ?config:passes lifted in
      if Obs.enabled () then
        Metrics.observe m_ir_build_ns (Obs.now_ns () -. t0);
      Result.Ok
        ( Vm.load_analyzed ~config ?cycle_cost ?proofs:outcome.fastpath ~ir
            ~helpers ~regions program,
          outcome )

let load ?config ?cycle_cost ?passes ~helpers ~regions program =
  match load_outcome ?config ?cycle_cost ?passes ~helpers ~regions program with
  | Result.Error fault -> Result.Error fault
  | Result.Ok (vm, _outcome) -> Result.Ok vm

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
