(* Helper (system call) registry.

   Containers reach OS facilities only through helpers invoked with the
   eBPF [call] instruction — the paper's "simple containerization"
   interface.  The calling convention is eBPF's: a helper reads its
   arguments from r1..r5 of the run's register file and writes its
   result to r0, and it receives the container's memory map, so pointer
   arguments are checked against the same allow-list as VM loads and
   stores.  A helper that fails raises [Error]; the calling tier turns
   that into the container's fault. *)

exception Error of string

type fn = Mem.t -> bytes -> unit

external get64 : bytes -> int -> int64 = "%caml_bytes_get64"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline] arg rf n = get64 rf (n lsl 3)
let[@inline] return rf v = set64 rf 0 v
let fail message = raise (Error message)

type entry = {
  id : int;
  name : string;
  cost_cycles : int; (* cycle-model cost charged per invocation *)
  arity : int option; (* argument registers r1..rN consumed, when declared *)
  fn : fn;
}

type t = {
  by_id : (int, entry) Hashtbl.t;
  by_name : (string, entry) Hashtbl.t;
}

let create () = { by_id = Hashtbl.create 16; by_name = Hashtbl.create 16 }

let register t ?(cost_cycles = 50) ?arity ~id ~name fn =
  if Hashtbl.mem t.by_id id then
    invalid_arg (Printf.sprintf "helper id %d already registered" id);
  if Hashtbl.mem t.by_name name then
    invalid_arg (Printf.sprintf "helper name %s already registered" name);
  (match arity with
  | Some n when n < 0 || n > 5 ->
      invalid_arg (Printf.sprintf "helper %s arity %d outside r1..r5" name n)
  | _ -> ());
  let entry = { id; name; cost_cycles; arity; fn } in
  Hashtbl.replace t.by_id id entry;
  Hashtbl.replace t.by_name name entry

let find t id = Hashtbl.find_opt t.by_id id
let find_by_name t name = Hashtbl.find_opt t.by_name name
let id_of_name t name = Option.map (fun e -> e.id) (find_by_name t name)
let name_of_id t id = Option.map (fun e -> e.name) (find t id)
let mem t id = Hashtbl.mem t.by_id id
let count t = Hashtbl.length t.by_id

(* Assembler plug: resolves `call <name>` mnemonics. *)
let asm_resolver t name = id_of_name t name

let iter t f =
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.by_id [] in
  List.iter f (List.sort (fun a b -> compare a.id b.id) entries)
