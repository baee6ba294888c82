(* Parallel update-verification pool: equivalence with the sequential
   path, per-tenant ordering, backpressure accounting, shutdown
   semantics.  The pool may only beat a sequential loop; it must never
   accept or reject a different set of updates. *)

module Suit = Femto_suit.Suit
module Pipeline = Femto_suit.Pipeline
module Cose = Femto_cose.Cose
module Crypto = Femto_crypto.Crypto

let key = Cose.make_key ~key_id:"fleet-key" ~secret:"pool signing secret"
let attacker_key = Cose.make_key ~key_id:"fleet-key" ~secret:"attacker secret"
let uuid = "pooltest-0000-4000-8000-000000000001"

let make_device () =
  let installed = ref [] in
  let device =
    Suit.create_device ~key
      ~install:(fun ~sequence:_ ~storage_uuid payload ->
        installed := (storage_uuid, payload) :: !installed;
        Ok ())
      ~known_storage:(fun u -> u = uuid)
      ()
  in
  (device, installed)

let envelope ?(key = key) ~sequence payload =
  Suit.sign
    (Suit.make ~sequence [ Suit.component_for ~storage_uuid:uuid payload ])
    key

(* A mixed workload over several tenants: good updates, a rollback
   replay, a tampered payload, a wrongly-signed envelope. *)
let jobs () =
  [
    ("tenant-a", envelope ~sequence:1L "a v1", [ (uuid, "a v1") ]);
    ("tenant-b", envelope ~sequence:1L "b v1", [ (uuid, "b v1") ]);
    ("tenant-a", envelope ~sequence:2L "a v2", [ (uuid, "a v2") ]);
    ("tenant-c", envelope ~sequence:1L "c v1", [ (uuid, "evil") ]);
    ("tenant-b", envelope ~sequence:1L "b replay", [ (uuid, "b replay") ]);
    ("tenant-c", envelope ~key:attacker_key ~sequence:2L "c v2",
     [ (uuid, "c v2") ]);
    ("tenant-a", envelope ~sequence:3L "a v3", [ (uuid, "a v3") ]);
  ]

let outcome_to_string = function
  | Ok (m : Suit.t) -> Printf.sprintf "ok seq=%Ld" m.Suit.sequence
  | Error e -> "error: " ^ Suit.error_to_string e

let run_sequential devices jobs =
  List.map
    (fun (tenant, envelope, payloads) ->
      let device = List.assoc tenant devices in
      (tenant, Suit.process device ~envelope ~payloads))
    jobs

let run_pipeline ~domains devices jobs =
  let pool = Pipeline.create ~domains ~queue_depth:4 () in
  List.iter
    (fun (tenant, envelope, payloads) ->
      let device = List.assoc tenant devices in
      Pipeline.submit pool ~tenant ~device ~envelope ~payloads ())
    jobs;
  let results = Pipeline.shutdown pool in
  results

let fresh_tenants () =
  List.map
    (fun t ->
      let device, installed = make_device () in
      (t, (device, installed)))
    [ "tenant-a"; "tenant-b"; "tenant-c" ]

let check_equivalence ~domains () =
  let seq_tenants = fresh_tenants () in
  let par_tenants = fresh_tenants () in
  let devices_of l = List.map (fun (t, (d, _)) -> (t, d)) l in
  let seq = run_sequential (devices_of seq_tenants) (jobs ()) in
  let par = run_pipeline ~domains (devices_of par_tenants) (jobs ()) in
  Alcotest.(check (list (pair string string)))
    "same outcomes in submission order"
    (List.map (fun (t, r) -> (t, outcome_to_string r)) seq)
    (List.map (fun (t, r) -> (t, outcome_to_string r)) par);
  List.iter2
    (fun (t1, (d1, i1)) (t2, (d2, i2)) ->
      Alcotest.(check string) "tenant" t1 t2;
      Alcotest.(check int64) (t1 ^ " sequence") d1.Suit.sequence d2.Suit.sequence;
      Alcotest.(check int) (t1 ^ " accepted") d1.Suit.accepted d2.Suit.accepted;
      Alcotest.(check int) (t1 ^ " rejected") d1.Suit.rejected d2.Suit.rejected;
      Alcotest.(check (list (pair string string))) (t1 ^ " installs") !i1 !i2)
    seq_tenants par_tenants

let test_equivalence_one_domain () = check_equivalence ~domains:1 ()
let test_equivalence_many_domains () = check_equivalence ~domains:4 ()

let test_rollback_ordering_within_tenant () =
  (* per-tenant ordering: v1 then v2 for the same tenant must both land
     even when many other tenants' jobs are in flight; the v1 replay
     afterwards must be the one rejected *)
  let tenants =
    List.init 8 (fun i ->
        let device, _ = make_device () in
        (Printf.sprintf "t%d" i, device))
  in
  let pool = Pipeline.create ~domains:3 ~queue_depth:4 () in
  List.iter
    (fun sequence ->
      List.iter
        (fun (tenant, device) ->
          let payload = Printf.sprintf "%s v%Ld" tenant sequence in
          Pipeline.submit pool ~tenant ~device
            ~envelope:(envelope ~sequence payload)
            ~payloads:[ (uuid, payload) ] ())
        tenants)
    [ 1L; 2L; 3L ];
  (* replays of sequence 3 must all be rejected as rollbacks *)
  List.iter
    (fun (tenant, device) ->
      Pipeline.submit pool ~tenant ~device
        ~envelope:(envelope ~sequence:3L "replay")
        ~payloads:[ (uuid, "replay") ] ())
    tenants;
  let results = Pipeline.shutdown pool in
  Alcotest.(check int) "all jobs committed" (8 * 4) (List.length results);
  let ok, err = List.partition (fun (_, r) -> Result.is_ok r) results in
  Alcotest.(check int) "three accepted per tenant" (8 * 3) (List.length ok);
  Alcotest.(check int) "one rollback per tenant" 8 (List.length err);
  List.iter
    (fun (_, r) ->
      match r with
      | Error (Suit.Rollback _) -> ()
      | r -> Alcotest.failf "expected rollback, got %s" (outcome_to_string r))
    err;
  List.iter
    (fun (_, device) ->
      Alcotest.(check int64) "device at v3" 3L device.Suit.sequence)
    tenants

let test_submit_after_shutdown_raises () =
  let pool = Pipeline.create ~domains:1 () in
  ignore (Pipeline.shutdown pool);
  let device, _ = make_device () in
  match
    Pipeline.submit pool ~tenant:"t" ~device
      ~envelope:(envelope ~sequence:1L "x")
      ~payloads:[ (uuid, "x") ] ()
  with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit after shutdown accepted"

let test_create_validates () =
  (match Pipeline.create ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | pool ->
      ignore (Pipeline.shutdown pool);
      Alcotest.fail "domains:0 accepted");
  match Pipeline.create ~queue_depth:0 () with
  | exception Invalid_argument _ -> ()
  | pool ->
      ignore (Pipeline.shutdown pool);
      Alcotest.fail "queue_depth:0 accepted"

let test_failed_install_isolated () =
  (* one tenant's failing installer must reject only that tenant's job;
     the pool keeps serving the others *)
  let pool = Pipeline.create ~domains:2 ~queue_depth:2 () in
  let broken =
    Suit.create_device ~key
      ~install:(fun ~sequence:_ ~storage_uuid:_ _ -> Error "flash dead")
      ~known_storage:(fun _ -> true)
      ()
  in
  let fine, _ = make_device () in
  Pipeline.submit pool ~tenant:"bad" ~device:broken
    ~envelope:(envelope ~sequence:1L "x")
    ~payloads:[ (uuid, "x") ] ();
  Pipeline.submit pool ~tenant:"good" ~device:fine
    ~envelope:(envelope ~sequence:1L "y")
    ~payloads:[ (uuid, "y") ] ();
  let results = Pipeline.shutdown pool in
  Alcotest.(check int) "both committed" 2 (List.length results);
  (match List.assoc "bad" results with
  | Error (Suit.Install_failed "flash dead") -> ()
  | r -> Alcotest.failf "expected install failure, got %s" (outcome_to_string r));
  (match List.assoc "good" results with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Suit.error_to_string e));
  Alcotest.(check int64) "broken device sequence unchanged" 0L
    broken.Suit.sequence

let test_digest_hints_through_pool () =
  let device, installed = make_device () in
  let payload = "streamed payload" in
  let pool = Pipeline.create ~domains:2 () in
  Pipeline.submit pool
    ~digests:
      [ (uuid, { Suit.streamed = Crypto.sha256 payload;
                 bytes = String.length payload }) ]
    ~tenant:"t" ~device
    ~envelope:(envelope ~sequence:1L payload)
    ~payloads:[ (uuid, payload) ] ();
  (match Pipeline.shutdown pool with
  | [ ("t", Ok _) ] -> ()
  | [ ("t", Error e) ] -> Alcotest.fail (Suit.error_to_string e)
  | _ -> Alcotest.fail "unexpected results");
  Alcotest.(check int) "installed" 1 (List.length !installed)

(* The update storm's shape: 4 tenants x 4 updates at 2 domains.  Both
   submission orders leave 8 jobs on each pool index, each tenant on one
   index, its jobs in submission order. *)
let test_balanced_assignment () =
  let tenants = List.init 4 (Printf.sprintf "tenant-%d") in
  let check_order name order =
    let devices = List.map (fun t -> (t, fst (make_device ()))) tenants in
    let pool = Pipeline.create ~domains:2 () in
    List.iter
      (fun (tenant, sequence) ->
        let payload = Printf.sprintf "%s v%Ld" tenant sequence in
        Pipeline.submit pool ~tenant ~device:(List.assoc tenant devices)
          ~envelope:(envelope ~sequence payload)
          ~payloads:[ (uuid, payload) ] ())
      order;
    let pending = Pipeline.pending pool in
    Alcotest.(check (list int))
      (name ^ ": jobs per index") [ 8; 8 ]
      (Array.to_list (Array.map List.length pending));
    List.iter
      (fun tenant ->
        let on i = List.filter (fun (t, _) -> t = tenant) pending.(i) in
        let seqs = List.map snd (on 0 @ on 1) in
        Alcotest.(check bool)
          (name ^ ": " ^ tenant ^ " on one index") true
          (on 0 = [] || on 1 = []);
        Alcotest.(check (list int))
          (name ^ ": " ^ tenant ^ " in submission order")
          (List.sort compare seqs) seqs)
      tenants;
    List.iter
      (fun (tenant, r) ->
        Alcotest.(check bool) (name ^ ": " ^ tenant ^ " accepted") true
          (Result.is_ok r))
      (Pipeline.shutdown pool)
  in
  let sequences = [ 1L; 2L; 3L; 4L ] in
  check_order "round robin"
    (List.concat_map (fun s -> List.map (fun t -> (t, s)) tenants) sequences);
  check_order "tenant by tenant"
    (List.concat_map (fun t -> List.map (fun s -> (t, s)) sequences) tenants)

let suite =
  [
    Alcotest.test_case "pool = sequential (1 domain)" `Quick
      test_equivalence_one_domain;
    Alcotest.test_case "pool = sequential (4 domains)" `Quick
      test_equivalence_many_domains;
    Alcotest.test_case "per-tenant rollback ordering" `Quick
      test_rollback_ordering_within_tenant;
    Alcotest.test_case "submit after shutdown" `Quick
      test_submit_after_shutdown_raises;
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "failed install isolated" `Quick
      test_failed_install_isolated;
    Alcotest.test_case "digest hints through pool" `Quick
      test_digest_hints_through_pool;
    Alcotest.test_case "balanced tenant assignment" `Quick
      test_balanced_assignment;
  ]

let () = Alcotest.run "femto_pipeline" [ ("pipeline", suite) ]
