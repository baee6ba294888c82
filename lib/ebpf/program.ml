(* An eBPF program: a sequence of instruction slots plus binary codec. *)

type t = { insns : Insn.t array }

let of_insns insns = { insns = Array.of_list insns }
let of_array insns = { insns }
let insns t = t.insns
let length t = Array.length t.insns
let get t i = t.insns.(i)
let byte_size t = Array.length t.insns * Insn.size_bytes

exception Truncated of string

let to_bytes t =
  let buf = Bytes.create (byte_size t) in
  Array.iteri (fun i insn -> Insn.encode_into buf (i * Insn.size_bytes) insn) t.insns;
  buf

(* A static slot to seed [of_bytes]'s array with.  [Array.init] seeds it
   with the first (young) decoded slot, and on OCaml 5 an array over 256
   words seeded with a young value forces a minor collection. *)
let seed = { Insn.opcode = 0; dst = 0; src = 0; offset = 0; imm = 0l }

let of_bytes buf =
  let len = Bytes.length buf in
  if len mod Insn.size_bytes <> 0 then
    raise (Truncated (Printf.sprintf "program length %d is not a multiple of 8" len));
  let count = len / Insn.size_bytes in
  let insns = Array.make count seed in
  for i = 0 to count - 1 do
    insns.(i) <- Insn.decode_from buf (i * Insn.size_bytes)
  done;
  { insns }

let equal a b =
  Array.length a.insns = Array.length b.insns
  && Array.for_all2 Insn.equal a.insns b.insns

let pp ppf t =
  Array.iteri
    (fun i insn -> Format.fprintf ppf "%4d: %a@." i Insn.pp insn)
    t.insns
