(* Tests for the RTOS simulator: clock, event queue, scheduler, timers,
   mailboxes. *)

module Clock = Femto_rtos.Clock
module Event_queue = Femto_rtos.Event_queue
module Kernel = Femto_rtos.Kernel
module Mailbox = Femto_rtos.Mailbox

let test_clock_advance () =
  let clock = Clock.create () in
  Clock.advance clock 640;
  Alcotest.(check int64) "cycles" 640L (Clock.now clock);
  Alcotest.(check (float 0.001)) "us at 64MHz" 10.0 (Clock.us_of_cycles clock 640L)

let test_clock_us_conversion () =
  let clock = Clock.create () in
  Alcotest.(check int) "1ms = 64000 cycles" 64_000 (Clock.cycles_of_us clock 1000)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.add q ~at:30L "c";
  Event_queue.add q ~at:10L "a";
  Event_queue.add q ~at:20L "b";
  Event_queue.add q ~at:10L "a2";
  let order = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, payload) ->
        order := payload :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "fifo within same time" [ "a"; "a2"; "b"; "c" ]
    (List.rev !order)

let test_event_queue_pop_due () =
  let q = Event_queue.create () in
  Event_queue.add q ~at:100L "later";
  Alcotest.(check bool) "not due yet" true (Event_queue.pop_due q ~now:50L = None);
  Alcotest.(check bool) "due" true
    (match Event_queue.pop_due q ~now:100L with Some (_, "later") -> true | _ -> false)

let test_event_queue_advance_until () =
  let q = Event_queue.create () in
  Event_queue.add q ~at:10L "a";
  Event_queue.add q ~at:20L "b";
  Event_queue.add q ~at:20L "b2";
  Event_queue.add q ~at:30L "c";
  let fired = ref [] in
  let n =
    Event_queue.advance_until q ~until:20L (fun ~at p -> fired := (at, p) :: !fired)
  in
  Alcotest.(check int) "three due" 3 n;
  Alcotest.(check (list (pair int64 string)))
    "(time, seq) order" [ (10L, "a"); (20L, "b"); (20L, "b2") ]
    (List.rev !fired);
  Alcotest.(check int) "c still queued" 1 (Event_queue.length q)

(* advance_until must be observationally equivalent to the pop_due loop
   it replaced — including when callbacks re-arm new events, some due
   within the same horizon (the fleet wheel does exactly this with
   periodic telemetry timers). *)
let prop_advance_until_equals_pop_loop =
  let gen =
    QCheck.Gen.(
      let event = pair (int_bound 100) (int_bound 3) in
      pair (list_size (int_bound 40) event) (int_bound 100))
  in
  (* an event is (time, rearm): firing at [t] re-arms at [t + 7] while
     rearm > 0, so chains cross the horizon *)
  QCheck.Test.make ~name:"advance_until = pop_due loop" ~count:500
    (QCheck.make gen) (fun (events, until) ->
      let until = Int64.of_int until in
      let run drain =
        let q = Event_queue.create () in
        List.iter
          (fun (t, rearm) -> Event_queue.add q ~at:(Int64.of_int t) (t, rearm))
          events;
        let log = ref [] in
        let fire ~at (t, rearm) =
          log := (at, t, rearm) :: !log;
          if rearm > 0 then
            Event_queue.add q ~at:(Int64.add at 7L) (t, rearm - 1)
        in
        drain q fire;
        (List.rev !log, Event_queue.length q)
      in
      let oracle q fire =
        (* the replaced implementation: peek/pop one due event at a time *)
        let rec loop () =
          match Event_queue.peek_time q with
          | Some t when Int64.compare t until <= 0 ->
              (match Event_queue.pop q with
              | Some (at, p) -> fire ~at p
              | None -> ());
              loop ()
          | _ -> ()
        in
        loop ()
      in
      let batched q fire = ignore (Event_queue.advance_until q ~until fire) in
      run oracle = run batched)

let test_spawn_and_run () =
  let kernel = Kernel.create () in
  let runs = ref 0 in
  let _thread =
    Kernel.spawn kernel ~name:"worker" (fun _ ->
        incr runs;
        if !runs < 3 then Kernel.Yield else Kernel.Finish)
  in
  let quanta = Kernel.run kernel () in
  Alcotest.(check int) "three quanta" 3 quanta;
  Alcotest.(check int) "three runs" 3 !runs

let test_priority_scheduling () =
  let kernel = Kernel.create () in
  let order = ref [] in
  let mark name = order := name :: !order in
  let _low =
    Kernel.spawn kernel ~name:"low" ~priority:10 (fun _ ->
        mark "low";
        Kernel.Finish)
  in
  let _high =
    Kernel.spawn kernel ~name:"high" ~priority:1 (fun _ ->
        mark "high";
        Kernel.Finish)
  in
  ignore (Kernel.run kernel ());
  Alcotest.(check (list string)) "high first" [ "high"; "low" ] (List.rev !order)

let test_round_robin_same_priority () =
  let kernel = Kernel.create () in
  let order = ref [] in
  let counters = Hashtbl.create 2 in
  let thread name =
    Kernel.spawn kernel ~name ~priority:5 (fun _ ->
        order := name :: !order;
        let n = Option.value ~default:0 (Hashtbl.find_opt counters name) + 1 in
        Hashtbl.replace counters name n;
        if n >= 2 then Kernel.Finish else Kernel.Yield)
  in
  let _a = thread "a" and _b = thread "b" in
  ignore (Kernel.run kernel ());
  Alcotest.(check (list string)) "alternates" [ "a"; "b"; "a"; "b" ] (List.rev !order)

let test_timer_fires_in_order () =
  let kernel = Kernel.create () in
  let fired = ref [] in
  Kernel.after_us kernel ~us:200 (fun _ -> fired := "second" :: !fired);
  Kernel.after_us kernel ~us:100 (fun _ -> fired := "first" :: !fired);
  ignore (Kernel.run kernel ());
  Alcotest.(check (list string)) "order" [ "first"; "second" ] (List.rev !fired);
  (* the clock idle-advanced to the last timer *)
  Alcotest.(check bool) "clock advanced" true
    (Clock.now (Kernel.clock kernel) >= Int64.of_int (Clock.cycles_of_us (Kernel.clock kernel) 200))

let test_periodic_timer () =
  let kernel = Kernel.create () in
  let count = ref 0 in
  Kernel.every_us kernel ~us:100 (fun _ ->
      incr count;
      !count < 5);
  ignore (Kernel.run kernel ());
  Alcotest.(check int) "five firings" 5 !count

(* A periodic timer driven by the fleet's epoch loop: each fire sees the
   clock at its due time, an exact multiple of the period. *)
let test_periodic_exact_multiples () =
  let kernel = Kernel.create () in
  let period = Clock.cycles_of_us (Kernel.clock kernel) 100 in
  let fires = ref [] in
  Kernel.every_us kernel ~us:100 (fun k ->
      fires := Kernel.now k :: !fires;
      true);
  (* three epochs whose bounds fall between fires *)
  List.iter
    (fun until -> ignore (Kernel.run_timers_until kernel ~until))
    [ Int64.of_int ((3 * period) + 5); Int64.of_int (7 * period); 1_000_000L ];
  let expected =
    List.init (1_000_000 / period) (fun i -> Int64.of_int ((i + 1) * period))
  in
  Alcotest.(check (list int64)) "fires at k * period" expected
    (List.rev !fires)

let test_periodic_stops () =
  let kernel = Kernel.create () in
  let count = ref 0 in
  Kernel.every_us kernel ~us:100 (fun _ ->
      incr count;
      !count < 3);
  let fired = Kernel.run_timers_until kernel ~until:1_000_000L in
  Alcotest.(check int) "three fires" 3 !count;
  Alcotest.(check int) "nothing else queued" 3 fired;
  Alcotest.(check int) "stays stopped" 0
    (Kernel.run_timers_until kernel ~until:10_000_000L)

(* A warm fire re-arms the timer's own closure: the only allocation is
   the queue entry (a 4-word block, the time an immediate int).  The
   marginal words of [n] more fires cancel the per-call overhead. *)
let test_periodic_fire_allocation () =
  let kernel = Kernel.create () in
  let period = Clock.cycles_of_us (Kernel.clock kernel) 100 in
  let count = ref 0 in
  Kernel.every_us kernel ~us:100 (fun _ ->
      incr count;
      true);
  let horizon = ref 0 in
  let words_for fires =
    horizon := !horizon + (fires * period);
    let until = Int64.of_int !horizon in
    let before = Gc.minor_words () in
    let fired = Kernel.run_timers_until kernel ~until in
    let words = Gc.minor_words () -. before in
    Alcotest.(check int) "fired" fires fired;
    words
  in
  ignore (words_for 16);
  let one = words_for 1 in
  let many = words_for 1001 in
  let per_fire = (many -. one) /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per warm fire <= 4" per_fire)
    true (per_fire <= 4.)

let test_sleep_and_wake () =
  let kernel = Kernel.create () in
  let phases = ref [] in
  let thread = ref None in
  let body kernel' =
    match !phases with
    | [] ->
        phases := [ "slept" ];
        Kernel.sleep_us kernel' (Option.get !thread) ~us:500;
        Kernel.Yield
    | _ ->
        phases := "woke" :: !phases;
        Kernel.Finish
  in
  thread := Some (Kernel.spawn kernel ~name:"sleeper" body);
  ignore (Kernel.run kernel ());
  Alcotest.(check (list string)) "slept then woke" [ "slept"; "woke" ]
    (List.rev !phases)

let test_context_switch_hook () =
  let kernel = Kernel.create () in
  let switches = ref [] in
  Kernel.add_switch_hook kernel (fun ~prev ~next ->
      switches := (prev, next) :: !switches);
  let _t1 = Kernel.spawn kernel ~name:"t1" (fun _ -> Kernel.Finish) in
  let _t2 = Kernel.spawn kernel ~name:"t2" (fun _ -> Kernel.Finish) in
  ignore (Kernel.run kernel ());
  (* two switches: (0 -> 1), (1 -> 2) *)
  Alcotest.(check (list (pair int int))) "switch sequence" [ (0, 1); (1, 2) ]
    (List.rev !switches)

let test_context_switch_charges_cycles () =
  let kernel = Kernel.create ~context_switch_cost:100 () in
  let _t = Kernel.spawn kernel ~name:"t" (fun _ -> Kernel.Finish) in
  ignore (Kernel.run kernel ());
  Alcotest.(check int64) "cycles charged" 100L (Kernel.now kernel)

let test_run_until_budget () =
  let kernel = Kernel.create ~context_switch_cost:1000 () in
  let _spin = Kernel.spawn kernel ~name:"spin" (fun _ -> Kernel.Yield) in
  let quanta = Kernel.run kernel ~until_cycles:10_000L () in
  Alcotest.(check int) "ten quanta in budget" 10 quanta

(* --- synchronization primitives --- *)

module Sync = Femto_rtos.Sync

let test_mutex_basic () =
  let kernel = Kernel.create () in
  let mutex = Sync.create_mutex () in
  let log = ref [] in
  let mark m = log := m :: !log in
  let make name priority =
    let self = ref None in
    let phase = ref `Want_lock in
    let thread =
      Kernel.spawn kernel ~name ~priority (fun _ ->
          let t = Option.get !self in
          match !phase with
          | `Want_lock -> (
              match Sync.lock mutex t with
              | `Acquired ->
                  mark (name ^ ":locked");
                  phase := `Unlock;
                  Kernel.Yield
              | `Blocked ->
                  mark (name ^ ":blocked");
                  Kernel.Yield)
          | `Unlock ->
              mark (name ^ ":unlock");
              ignore (Sync.unlock mutex t);
              Kernel.Finish)
    in
    self := Some thread;
    thread
  in
  let _a = make "a" 5 in
  let _b = make "b" 5 in
  ignore (Kernel.run kernel ());
  (* a locks, b blocks, a unlocks handing ownership to b; b's re-lock is
     a no-op acquire on the mutex it now owns, then it unlocks *)
  Alcotest.(check (list string)) "sequence"
    [ "a:locked"; "b:blocked"; "a:unlock"; "b:locked"; "b:unlock" ]
    (List.rev !log);
  Alcotest.(check bool) "free at the end" false (Sync.is_locked mutex);
  Alcotest.(check int) "one contention" 1 (Sync.contentions mutex)

let test_mutex_priority_inheritance () =
  (* classic inversion: low-priority owner, high-priority waiter, and a
     medium-priority CPU hog.  Without inheritance the hog starves the
     owner; with it, the owner is boosted above the hog and releases. *)
  let kernel = Kernel.create () in
  let mutex = Sync.create_mutex () in
  let order = ref [] in
  let mark m = order := m :: !order in
  (* low-priority thread: takes the lock, then needs 3 quanta to finish
     its critical section *)
  let low_self = ref None in
  let low_work = ref 3 in
  let low_locked = ref false in
  let low =
    Kernel.spawn kernel ~name:"low" ~priority:9 (fun _ ->
        let t = Option.get !low_self in
        if not !low_locked then begin
          (match Sync.lock mutex t with
          | `Acquired -> low_locked := true
          | `Blocked -> ());
          Kernel.Yield
        end
        else if !low_work > 0 then begin
          decr low_work;
          mark "low:critical";
          Kernel.Yield
        end
        else begin
          ignore (Sync.unlock mutex t);
          mark "low:released";
          Kernel.Finish
        end)
  in
  low_self := Some low;
  (* give low a head start to grab the lock *)
  ignore (Kernel.step kernel);
  (* high-priority thread blocks on the mutex *)
  let high_self = ref None in
  let high_has_lock = ref false in
  let high =
    Kernel.spawn kernel ~name:"high" ~priority:1 (fun _ ->
        let t = Option.get !high_self in
        if not !high_has_lock then (
          match Sync.lock mutex t with
          | `Acquired ->
              high_has_lock := true;
              mark "high:locked";
              ignore (Sync.unlock mutex t);
              Kernel.Finish
          | `Blocked ->
              mark "high:blocked";
              Kernel.Yield)
        else Kernel.Finish)
  in
  high_self := Some high;
  (* medium-priority CPU hog: would run forever ahead of 'low' without
     priority inheritance *)
  let hog_runs = ref 0 in
  let _hog =
    Kernel.spawn kernel ~name:"hog" ~priority:5 (fun _ ->
        incr hog_runs;
        mark "hog";
        if !hog_runs > 50 then Kernel.Finish else Kernel.Yield)
  in
  ignore (Kernel.run kernel ~until_cycles:2_000_000L ());
  let sequence = List.rev !order in
  (* high must obtain the lock quickly: 'low' inherits priority 1 and
     finishes its critical section ahead of the hog *)
  let index_of name =
    let rec find i = function
      | [] -> max_int
      | x :: _ when x = name -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 sequence
  in
  Alcotest.(check bool) "high eventually locked" true
    (List.mem "high:locked" sequence);
  Alcotest.(check bool) "low released before the hog ran 3 times" true
    (index_of "low:released" < index_of "hog" + 10);
  (* the boost is temporary: after release, low is back at 9 *)
  Alcotest.(check int) "priority restored" 9 low.Kernel.priority

let test_semaphore () =
  let kernel = Kernel.create () in
  let sem = Sync.create_semaphore ~count:2 in
  let acquired = ref 0 in
  let make name =
    let self = ref None in
    let got = ref false in
    let thread =
      Kernel.spawn kernel ~name ~priority:5 (fun _ ->
          let t = Option.get !self in
          if not !got then (
            match Sync.sem_acquire sem t with
            | `Acquired ->
                got := true;
                incr acquired;
                Kernel.Yield
            | `Blocked -> Kernel.Yield)
          else begin
            Sync.sem_release sem;
            Kernel.Finish
          end)
    in
    self := Some thread;
    thread
  in
  let _a = make "a" and _b = make "b" and _c = make "c" in
  ignore (Kernel.run kernel ());
  (* all three eventually acquire (two concurrently, the third after a
     release) *)
  Alcotest.(check int) "all acquired" 3 !acquired;
  Alcotest.(check int) "count restored" 2 (Sync.sem_value sem)

let test_mutex_unlock_errors () =
  let kernel = Kernel.create () in
  let mutex = Sync.create_mutex () in
  let t1 = Kernel.spawn kernel ~name:"t1" (fun _ -> Kernel.Finish) in
  let t2 = Kernel.spawn kernel ~name:"t2" (fun _ -> Kernel.Finish) in
  Alcotest.(check bool) "unlock unlocked" true
    (Sync.unlock mutex t1 = Error `Not_locked);
  ignore (Sync.lock mutex t1);
  Alcotest.(check bool) "unlock by non-owner" true
    (Sync.unlock mutex t2 = Error `Not_owner);
  Alcotest.(check bool) "owner unlock" true (Sync.unlock mutex t1 = Ok ())

let test_mailbox_send_receive () =
  let mailbox = Mailbox.create ~capacity:2 () in
  Alcotest.(check bool) "send 1" true (Mailbox.send mailbox 1);
  Alcotest.(check bool) "send 2" true (Mailbox.send mailbox 2);
  Alcotest.(check bool) "full drops" false (Mailbox.send mailbox 3);
  Alcotest.(check int) "dropped" 1 (Mailbox.dropped mailbox);
  Alcotest.(check (option int)) "fifo" (Some 1) (Mailbox.receive mailbox);
  Alcotest.(check (list int)) "drain" [ 2 ] (Mailbox.drain mailbox)

let suite =
  [
    Alcotest.test_case "clock advance" `Quick test_clock_advance;
    Alcotest.test_case "clock conversions" `Quick test_clock_us_conversion;
    Alcotest.test_case "event queue ordering" `Quick test_event_queue_ordering;
    Alcotest.test_case "event queue pop_due" `Quick test_event_queue_pop_due;
    Alcotest.test_case "event queue advance_until" `Quick
      test_event_queue_advance_until;
    QCheck_alcotest.to_alcotest prop_advance_until_equals_pop_loop;
    Alcotest.test_case "spawn and run" `Quick test_spawn_and_run;
    Alcotest.test_case "priority scheduling" `Quick test_priority_scheduling;
    Alcotest.test_case "round robin" `Quick test_round_robin_same_priority;
    Alcotest.test_case "timer order" `Quick test_timer_fires_in_order;
    Alcotest.test_case "periodic timer" `Quick test_periodic_timer;
    Alcotest.test_case "periodic exact multiples" `Quick
      test_periodic_exact_multiples;
    Alcotest.test_case "periodic stops on false" `Quick test_periodic_stops;
    Alcotest.test_case "periodic fire allocation" `Quick
      test_periodic_fire_allocation;
    Alcotest.test_case "sleep and wake" `Quick test_sleep_and_wake;
    Alcotest.test_case "context switch hook" `Quick test_context_switch_hook;
    Alcotest.test_case "switch cost" `Quick test_context_switch_charges_cycles;
    Alcotest.test_case "run budget" `Quick test_run_until_budget;
    Alcotest.test_case "mutex basic" `Quick test_mutex_basic;
    Alcotest.test_case "priority inheritance" `Quick test_mutex_priority_inheritance;
    Alcotest.test_case "semaphore" `Quick test_semaphore;
    Alcotest.test_case "mutex errors" `Quick test_mutex_unlock_errors;
    Alcotest.test_case "mailbox" `Quick test_mailbox_send_receive;
  ]

let () = Alcotest.run "femto_rtos" [ ("rtos", suite) ]
