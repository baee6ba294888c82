(* Trace sink: a fixed-capacity ring buffer of typed events.

   Events cover the paths the paper's evaluation cares about — VM
   executions and faults (Tables 2-4), helper calls (the hook-call
   overhead of Table 4), SUIT update steps (§5) and CoAP request
   handling (§8.3).  The ring overwrites the oldest record when full, so
   the sink is safe to leave attached on a long-running device: memory
   is bounded, recording is O(1), and the JSON dump shows the most
   recent window plus how much history was shed. *)

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

type ring = {
  slots : record option array;
  mutable next : int; (* total records ever written; also next seq *)
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { slots = Array.make capacity None; next = 0 }

let capacity ring = Array.length ring.slots
let total ring = ring.next
let dropped ring = max 0 (ring.next - Array.length ring.slots)

let record ring ~t_ns event =
  let slot = ring.next mod Array.length ring.slots in
  ring.slots.(slot) <- Some { seq = ring.next; t_ns; event };
  ring.next <- ring.next + 1

let clear ring =
  Array.fill ring.slots 0 (Array.length ring.slots) None;
  ring.next <- 0

(* Oldest-first list of the retained window. *)
let events ring =
  let cap = Array.length ring.slots in
  let start = if ring.next > cap then ring.next - cap else 0 in
  List.filter_map
    (fun i -> ring.slots.(i mod cap))
    (List.init (ring.next - start) (fun k -> start + k))

let event_kind = function
  | Vm_run _ -> "vm_run"
  | Fault _ -> "fault"
  | Helper_call _ -> "helper_call"
  | Hook_fired _ -> "hook_fired"
  | Suit_step _ -> "suit_step"
  | Coap_request _ -> "coap_request"
  | Analysis_done _ -> "analysis_done"
  | Tier_selected _ -> "tier_selected"
  | Pipeline_update _ -> "pipeline_update"

let event_fields = function
  | Vm_run { insns; branches; helpers; cycles; ok } ->
      [
        ("insns", Jsonx.Int insns);
        ("branches", Jsonx.Int branches);
        ("helpers", Jsonx.Int helpers);
        ("cycles", Jsonx.Int cycles);
        ("ok", Jsonx.Bool ok);
      ]
  | Fault { kind; detail } ->
      [ ("fault", Jsonx.String kind); ("detail", Jsonx.String detail) ]
  | Helper_call { id; name } ->
      [ ("id", Jsonx.Int id); ("name", Jsonx.String name) ]
  | Hook_fired { uuid; name; containers; faults } ->
      [
        ("uuid", Jsonx.String uuid);
        ("name", Jsonx.String name);
        ("containers", Jsonx.Int containers);
        ("faults", Jsonx.Int faults);
      ]
  | Suit_step { step; ok; ns } ->
      [ ("step", Jsonx.String step); ("ok", Jsonx.Bool ok); ("ns", Jsonx.Float ns) ]
  | Coap_request { path; code; outcome } ->
      [
        ("path", Jsonx.String path);
        ("code", Jsonx.String code);
        ("outcome", Jsonx.String outcome);
      ]
  | Analysis_done { insns; blocks; loops; errors; warnings; fastpath } ->
      [
        ("insns", Jsonx.Int insns);
        ("blocks", Jsonx.Int blocks);
        ("loops", Jsonx.Bool loops);
        ("errors", Jsonx.Int errors);
        ("warnings", Jsonx.Int warnings);
        ("fastpath", Jsonx.Bool fastpath);
      ]
  | Tier_selected { tier; proven } ->
      [ ("tier", Jsonx.String tier); ("proven", Jsonx.Int proven) ]
  | Pipeline_update { tenant; ok; ns } ->
      [
        ("tenant", Jsonx.String tenant);
        ("ok", Jsonx.Bool ok);
        ("ns", Jsonx.Float ns);
      ]

let record_to_json { seq; t_ns; event } =
  Jsonx.Obj
    (("seq", Jsonx.Int seq)
    :: ("t_ns", Jsonx.Float t_ns)
    :: ("event", Jsonx.String (event_kind event))
    :: event_fields event)

let to_json ring =
  Jsonx.Obj
    [
      ("capacity", Jsonx.Int (capacity ring));
      ("total", Jsonx.Int (total ring));
      ("dropped", Jsonx.Int (dropped ring));
      ("events", Jsonx.List (List.map record_to_json (events ring)));
    ]
