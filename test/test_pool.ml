(* Fork-join pool: every index runs exactly once per [run], a raise is
   re-raised on the caller without hanging or poisoning the pool, and
   create/shutdown validate their use. *)

module Pool = Femto_par.Pool

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_each_index_once ~domains () =
  with_pool ~domains (fun pool ->
      Alcotest.(check int) "domains" domains (Pool.domains pool);
      let counts = Array.init domains (fun _ -> Atomic.make 0) in
      for _ = 1 to 50 do
        Pool.run pool (fun i -> Atomic.incr counts.(i))
      done;
      Array.iteri
        (fun i c ->
          Alcotest.(check int) (Printf.sprintf "index %d" i) 50 (Atomic.get c))
        counts)

exception Boom of int

let test_raise_then_reuse () =
  with_pool ~domains:2 (fun pool ->
      (match Pool.run pool (fun i -> if i = 1 then raise (Boom i)) with
      | exception Boom 1 -> ()
      | () -> Alcotest.fail "the raise at index 1 was lost");
      (* a raise on the caller still waits for the other indices *)
      let finished = Atomic.make false in
      (match
         Pool.run pool (fun i ->
             if i = 0 then raise (Boom 0)
             else begin
               Unix.sleepf 0.02;
               Atomic.set finished true
             end)
       with
      | exception Boom 0 ->
          Alcotest.(check bool) "index 1 finished first" true
            (Atomic.get finished)
      | () -> Alcotest.fail "the raise at index 0 was lost");
      let ran = Array.make 2 false in
      Pool.run pool (fun i -> ran.(i) <- true);
      Alcotest.(check (array bool)) "second run" [| true; true |] ran)

let test_create_validates () =
  match Pool.create ~domains:0 with
  | exception Invalid_argument _ -> ()
  | pool ->
      Pool.shutdown pool;
      Alcotest.fail "domains:0 accepted"

let test_shutdown_twice () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool

(* [shutdown] does not join its workers, so the pool relies on an
   exited domain freeing its slot: more pools than the runtime has
   domain slots (128) come and go one after another. *)
let test_pools_outnumber_slots () =
  for _ = 1 to 160 do
    let pool = Pool.create ~domains:2 in
    let ran = Array.make 2 false in
    Pool.run pool (fun i -> ran.(i) <- true);
    Pool.shutdown pool;
    Alcotest.(check (array bool)) "both ran" [| true; true |] ran
  done

let test_run_after_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  match Pool.run pool ignore with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "run after shutdown accepted"

let () =
  Alcotest.run "femto_par"
    [
      ( "fork-join",
        [
          Alcotest.test_case "each index once (1 domain)" `Quick
            (test_each_index_once ~domains:1);
          Alcotest.test_case "each index once (2 domains)" `Quick
            (test_each_index_once ~domains:2);
          Alcotest.test_case "each index once (4 domains)" `Quick
            (test_each_index_once ~domains:4);
          Alcotest.test_case "raise re-raised, pool reusable" `Quick
            test_raise_then_reuse;
          Alcotest.test_case "create validates" `Quick test_create_validates;
          Alcotest.test_case "shutdown twice" `Quick test_shutdown_twice;
          Alcotest.test_case "pools outnumber domain slots" `Quick
            test_pools_outnumber_slots;
          Alcotest.test_case "run after shutdown" `Quick
            test_run_after_shutdown;
        ] );
    ]
