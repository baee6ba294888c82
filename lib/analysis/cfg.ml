(* Control-flow graph construction.

   Leaders are: slot 0, every jump target, and every slot following a
   terminator (ja/jcond/exit).  A block runs from its leader to the slot
   before the next leader; because every terminator marks its successor a
   leader, terminators always end their block.  Lddw tails are absorbed
   into the head's block and never split it. *)

open Femto_ebpf

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  back_succs : int list;
}

type t = {
  program : Program.t;
  blocks : block array;
  block_of_pc : int array;
  is_tail : bool array;
  reachable : bool array;
}

(* Mark lddw tail slots, tolerating malformed programs (a head in the
   final slot simply has no tail). *)
let mark_tails program len =
  let is_tail = Array.make len false in
  let pc = ref 0 in
  while !pc < len do
    (match Program.kind program !pc with
    | Insn.Lddw_head when !pc + 1 < len ->
        is_tail.(!pc + 1) <- true;
        incr pc
    | _ -> ());
    incr pc
  done;
  is_tail

let build program =
  let len = Program.length program in
  let is_tail = mark_tails program len in
  let in_range t = t >= 0 && t < len in
  let leader = Array.make len false in
  if len > 0 then leader.(0) <- true;
  for pc = 0 to len - 1 do
    if not is_tail.(pc) then begin
      match Program.kind program pc with
      | Insn.Ja | Insn.Jcond _ ->
          let target = pc + 1 + Program.offset program pc in
          if in_range target then leader.(target) <- true;
          if pc + 1 < len then leader.(pc + 1) <- true
      | Insn.Exit -> if pc + 1 < len then leader.(pc + 1) <- true
      | _ -> ()
    end
  done;
  (* Never split between an lddw head and its tail; verified programs
     cannot jump to a tail, so this only matters for malformed input. *)
  for pc = 0 to len - 1 do
    if is_tail.(pc) then leader.(pc) <- false
  done;
  let n_blocks = Array.fold_left (fun n l -> if l then n + 1 else n) 0 leader in
  let firsts = Array.make (max n_blocks 1) 0 in
  let block_of_pc = Array.make len (-1) in
  let bi = ref (-1) in
  for pc = 0 to len - 1 do
    if leader.(pc) then begin
      incr bi;
      firsts.(!bi) <- pc
    end;
    block_of_pc.(pc) <- !bi
  done;
  let last_of i = if i + 1 < n_blocks then firsts.(i + 1) - 1 else len - 1 in
  let succs_of i =
    let last = last_of i in
    let last_exec = if is_tail.(last) then last - 1 else last in
    let fallthrough () =
      if last + 1 < len then [ block_of_pc.(last + 1) ] else []
    in
    let raw =
      match Program.kind program last_exec with
      | Insn.Ja ->
          let t = last_exec + 1 + Program.offset program last_exec in
          if in_range t then [ block_of_pc.(t) ] else []
      | Insn.Jcond _ ->
          let t = last_exec + 1 + Program.offset program last_exec in
          (if in_range t then [ block_of_pc.(t) ] else []) @ fallthrough ()
      | Insn.Exit -> []
      | _ -> fallthrough ()
    in
    List.sort_uniq compare raw
  in
  let succs = Array.init n_blocks succs_of in
  (* DFS from the entry block: reachability plus back-edge detection via
     the classic white/grey/black colouring. *)
  let colour = Array.make (max n_blocks 1) 0 in
  let back_succs = Array.make n_blocks [] in
  let rec dfs b =
    colour.(b) <- 1;
    List.iter
      (fun s ->
        if colour.(s) = 1 then back_succs.(b) <- s :: back_succs.(b)
        else if colour.(s) = 0 then dfs s)
      succs.(b);
    colour.(b) <- 2
  in
  if n_blocks > 0 then dfs 0;
  let blocks =
    Array.init n_blocks (fun i ->
        {
          id = i;
          first = firsts.(i);
          last = last_of i;
          succs = succs.(i);
          back_succs = back_succs.(i);
        })
  in
  let reachable = Array.init (max n_blocks 1) (fun b -> colour.(b) <> 0) in
  {
    program;
    blocks;
    block_of_pc;
    is_tail;
    reachable;
  }

let has_loops t = Array.exists (fun b -> b.back_succs <> []) t.blocks

let unreachable_pcs t =
  let acc = ref [] in
  for pc = Array.length t.block_of_pc - 1 downto 0 do
    let b = t.block_of_pc.(pc) in
    if b >= 0 && (not t.reachable.(b)) && not t.is_tail.(pc) then
      acc := pc :: !acc
  done;
  !acc
