(* Fixed-capacity ring buffer of typed trace events. *)

type event =
  | Vm_run of {
      insns : int;
      branches : int;
      helpers : int;
      cycles : int;
      ok : bool;
    }
  | Fault of { kind : string; detail : string }
  | Helper_call of { id : int; name : string }
  | Hook_fired of {
      uuid : string;
      name : string;
      containers : int;
      faults : int;
    }
  | Suit_step of { step : string; ok : bool; ns : float }
  | Coap_request of { path : string; code : string; outcome : string }
  | Analysis_done of {
      insns : int;
      blocks : int;
      loops : bool;
      errors : int;
      warnings : int;
      fastpath : bool;
    }
  | Tier_selected of { tier : string; proven : int }
  | Pipeline_update of { tenant : string; ok : bool; ns : float }

type record = { seq : int; t_ns : float; event : event }
type ring

val default_capacity : int
val create : ?capacity:int -> unit -> ring
val capacity : ring -> int

(* [total] counts every record ever written; [dropped] how many of those
   the ring has already overwritten. *)
val total : ring -> int
val dropped : ring -> int

val record : ring -> t_ns:float -> event -> unit
val clear : ring -> unit

(* The retained window, oldest first. *)
val events : ring -> record list

val event_kind : event -> string
val record_to_json : record -> Jsonx.t
val to_json : ring -> Jsonx.t
