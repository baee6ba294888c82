(* The RTOS simulator kernel: threads, priority scheduler, timers, and the
   context-switch hook Femto-Containers attach to.

   This stands in for RIOT in the paper's experiments (see DESIGN.md,
   substitutions).  It is a deterministic cooperative simulation: each
   scheduled thread runs one *quantum* (a closure) and reports whether it
   wants to run again, block, or finish.  Scheduling is priority-based
   (lower number = higher priority, RIOT convention) with round-robin among
   equal priorities.  Every scheduler decision fires the context-switch
   hooks, which is where the thread-counter example and the Table 4 hook
   benchmarks plug in. *)

type quantum_result = Yield | Block | Finish

type thread_state = Ready | Blocked | Done

type thread = {
  tid : int;
  name : string;
  mutable priority : int;
  mutable state : thread_state;
  mutable last_run : int; (* scheduler tick of last quantum, for round-robin *)
  mutable body : t -> quantum_result;
}

and t = {
  clock : Clock.t;
  mutable threads : thread list; (* in creation order *)
  mutable current_tid : int; (* 0 = none, matching the paper's example *)
  mutable next_tid : int;
  mutable tick : int;
  timers : (t -> unit) Event_queue.t;
  mutable switch_hooks : (prev:int -> next:int -> unit) list;
  mutable context_switch_cost : int; (* cycles charged per switch *)
  mutable switches : int;
}

let create ?(frequency_hz = Clock.default_frequency_hz)
    ?(context_switch_cost = 150) () =
  {
    clock = Clock.create ~frequency_hz ();
    threads = [];
    current_tid = 0;
    next_tid = 1;
    tick = 0;
    timers = Event_queue.create ();
    switch_hooks = [];
    context_switch_cost;
    switches = 0;
  }

let clock t = t.clock
let now t = Clock.now t.clock
let now_int t = Clock.now_int t.clock
let now_us t = Clock.us_of_cycles t.clock (Clock.now t.clock)
let current_tid t = t.current_tid
let context_switches t = t.switches
let set_context_switch_cost t cost = t.context_switch_cost <- cost

let spawn t ~name ?(priority = 7) body =
  let thread =
    {
      tid = t.next_tid;
      name;
      priority;
      state = Ready;
      last_run = 0;
      body;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.threads <- t.threads @ [ thread ];
  thread

let find_thread t tid = List.find_opt (fun th -> th.tid = tid) t.threads

let wake thread = if thread.state = Blocked then thread.state <- Ready

(* Context-switch hooks run on every switch; registration order is
   execution order. *)
let add_switch_hook t hook = t.switch_hooks <- t.switch_hooks @ [ hook ]

(* --- timers --- *)

let at_cycles t ~at callback = Event_queue.add t.timers ~at callback

let after_cycles t ~cycles callback =
  Event_queue.add_int t.timers ~at:(Clock.now_int t.clock + cycles) callback

let after_us t ~us callback =
  after_cycles t ~cycles:(Clock.cycles_of_us t.clock us) callback

(* Re-arming periodic timer; [callback] may return [false] to stop.  The
   timer is one closure that re-arms itself, one period after the clock
   at its fire, so a fire allocates only its queue entry. *)
let every_us t ~us callback =
  let period = Clock.cycles_of_us t.clock us in
  let rec tick kernel =
    if callback kernel then after_cycles kernel ~cycles:period tick
  in
  after_cycles t ~cycles:period tick

(* Drift-free periodic timer: [callback] runs at [first_us], then every
   [us] after that due time, for the kernel's lifetime.  One queue entry
   re-armed in place, so a fire allocates nothing — a fleet shard keeps
   one per device. *)
let periodic_us t ~first_us ~us callback =
  Event_queue.add_periodic_int t.timers
    ~at:(Clock.now_int t.clock + Clock.cycles_of_us t.clock first_us)
    ~period:(Clock.cycles_of_us t.clock us)
    callback

let sleep_us t thread ~us =
  thread.state <- Blocked;
  after_us t ~us (fun _ -> wake thread)

(* --- scheduler --- *)

let runnable t =
  List.filter (fun th -> th.state = Ready) t.threads

(* Highest priority first; among equals, least recently run. *)
let pick_next t =
  match runnable t with
  | [] -> None
  | first :: rest ->
      let better a b =
        if a.priority <> b.priority then a.priority < b.priority
        else a.last_run < b.last_run
      in
      Some (List.fold_left (fun best th -> if better th best then th else best) first rest)

let fire_due_timers t =
  ignore
    (Event_queue.advance_until_int t.timers ~until:(Clock.now_int t.clock)
       (fun _at callback -> callback t))

(* Timer-only epoch run: fire every timer due at or before [until] in
   (time, seq) order, advancing the clock to each timer's due time
   before its callback (so re-arming callbacks compute offsets from
   their own fire time) and finally to [until].  Thread quanta do not
   run — this is the fleet shard's wheel loop, where each shard kernel
   carries network deliveries and per-device telemetry timers but no
   threads.  Returns the number of timers fired. *)
let run_timers_until t ~until =
  let fired =
    Event_queue.advance_until_int t.timers ~until:(Int64.to_int until)
      (fun at callback ->
        Clock.advance_to_int t.clock at;
        callback t)
  in
  Clock.advance_to t.clock until;
  fired

type step_outcome = Ran of int (* tid *) | Advanced_idle | Nothing_to_do

(* One scheduler step: fire due timers, then run one thread quantum, or
   idle-advance the clock to the next timer. *)
let step t =
  fire_due_timers t;
  match pick_next t with
  | Some thread ->
      t.tick <- t.tick + 1;
      thread.last_run <- t.tick;
      let prev = t.current_tid in
      let next = thread.tid in
      t.switches <- t.switches + 1;
      Clock.advance t.clock t.context_switch_cost;
      List.iter (fun hook -> hook ~prev ~next) t.switch_hooks;
      t.current_tid <- next;
      (match thread.body t with
      | Yield -> ()
      | Block -> thread.state <- Blocked
      | Finish -> thread.state <- Done);
      (* leaving the thread: the "next thread" is unknown until the next
         step; model the idle hand-off as tid 0 *)
      t.current_tid <- thread.tid;
      Ran thread.tid
  | None -> (
      match Event_queue.peek_time t.timers with
      | Some time ->
          Clock.advance_to t.clock time;
          Advanced_idle
      | None -> Nothing_to_do)

(* Run until the clock passes [until_cycles] or the system is fully idle
   with no pending timers.  Returns the number of quanta executed. *)
let run t ?until_cycles () =
  let budget_ok () =
    match until_cycles with
    | None -> true
    | Some limit -> Int64.compare (now t) limit < 0
  in
  let rec loop quanta =
    if not (budget_ok ()) then quanta
    else
      match step t with
      | Ran _ -> loop (quanta + 1)
      | Advanced_idle -> loop quanta
      | Nothing_to_do -> quanta
  in
  loop 0

let run_for_us t ~us =
  let limit = Int64.add (now t) (Int64.of_int (Clock.cycles_of_us t.clock us)) in
  run t ~until_cycles:limit ()
