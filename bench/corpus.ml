(* corpus/* bench family: the three-layer cross-runtime shootout
   (ROADMAP item 5; EXPERIMENTS.md "Corpus").

   L1/L2 workloads come from Femto_workloads.Corpus: every (runtime,
   tier) expression of a kernel is checked for result equivalence with
   the native reference *before* it is timed — then one wall-clock row is
   emitted per impl.  L3 is the multi-tenant update storm (sequential
   zero-copy path vs the domain pool, checked against an unhinted
   sequential oracle) and a rolling fleet campaign.

   The gated ratios are per-workload speed relative to the workload's
   reference row (rbpf/decoded for guest programs, update/sequential for
   the storm) — robust to absolute machine speed, sensitive to any one
   runtime regressing relative to the others. *)

module Jsonx = Femto_obs.Jsonx
module Harness = Femto_workloads.Harness
module Corpus_reg = Femto_workloads.Corpus
module Measure = Femto_eval.Measure
module Suit = Femto_suit.Suit
module Pipeline = Femto_suit.Pipeline
module Cose = Femto_cose.Cose
module Sha256 = Femto_crypto.Sha256
module Fleet = Femto_fleet.Fleet

type row = {
  wname : string;
  layer : string;
  runtime : string;
  tier : string;
  ns : float;
  result : int64;
}

let row_key r = Printf.sprintf "%s:%s/%s" r.wname r.runtime r.tier

(* Tolerance of the ratio gate: a workload/impl may lose up to half its
   committed relative speed before the job fails.  Wide on purpose — CI
   runners are noisy and the corpus rows are short smoke timings; a real
   regression (a tier losing its fast path, an interpreter de-optimized)
   shifts ratios by integer factors, not tens of percent. *)
let tolerance = 0.5

(* --- L3 fixture: four tenants' signed updates ------------------------ *)

let hook_uuid = "bench000-0000-4000-8000-000000000001"
let vendor = "bench-vendor"
let class_id = "bench-class"
let key = Cose.make_key ~key_id:"bench-key" ~secret:"bench-update-secret"
let chunk_size = 1024
let updates_per_tenant = 4
let tenant_count = 4

(* Deterministic pseudo-random payload. *)
let make_payload n =
  String.init n (fun i -> Char.chr ((i * 131) lxor (i lsr 3) land 0xff))

let envelope_for ~sequence payload =
  Suit.sign
    (Suit.make ~vendor_id:vendor ~class_id ~sequence
       [ Suit.component_for ~storage_uuid:hook_uuid payload ])
    key

let ok_or ~what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ Suit.error_to_string e)

(* The digest a Block1 upload would have computed chunk by chunk. *)
let streamed_digest payload =
  let ctx = Sha256.init () in
  let len = String.length payload in
  let pos = ref 0 in
  while !pos < len do
    let n = min chunk_size (len - !pos) in
    Sha256.update_substring ctx payload !pos n;
    pos := !pos + n
  done;
  Sha256.finalize ctx

type tenant_jobs = {
  devices : Suit.device array;
  (* (tenant index, envelope, digest hint) in global submission order *)
  jobs : (int * string * Suit.digest_hint) list;
  payload : string;
}

let make_tenant_jobs () =
  let payload = make_payload (16 * 1024) in
  let hint =
    { Suit.streamed = streamed_digest payload; bytes = String.length payload }
  in
  let devices =
    Array.init tenant_count (fun _ ->
        Suit.create_device ~vendor_id:vendor ~class_id ~key
          ~install:(fun ~sequence:_ ~storage_uuid:_ _ -> Ok ())
          ~known_storage:(fun uuid -> String.equal uuid hook_uuid)
          ())
  in
  (* interleave tenants round-robin, sequences rising per tenant *)
  let jobs =
    List.concat_map
      (fun seq ->
        List.map
          (fun tenant ->
            (tenant, envelope_for ~sequence:(Int64.of_int seq) payload, hint))
          (List.init tenant_count Fun.id))
      (List.init updates_per_tenant (fun i -> i + 1))
  in
  { devices; jobs; payload }

let reset_tenants t = Array.iter (fun d -> d.Suit.sequence <- 0L) t.devices

(* Every job through [Suit.process] in submission order, no domain pool;
   with [~hinted:false] the library hashes each payload itself — the
   oracle the hinted impls are checked against. *)
let sequential ~hinted t () =
  reset_tenants t;
  List.iter
    (fun (tenant, envelope, hint) ->
      let digests = if hinted then [ (hook_uuid, hint) ] else [] in
      ignore
        (ok_or ~what:"update storm"
           (Suit.process ~digests t.devices.(tenant) ~envelope
              ~payloads:[ (hook_uuid, t.payload) ])))
    t.jobs

let pipeline_concurrent pool t () =
  reset_tenants t;
  List.iter
    (fun (tenant, envelope, hint) ->
      Pipeline.submit pool
        ~digests:[ (hook_uuid, hint) ]
        ~tenant:(Printf.sprintf "tenant-%d" tenant)
        ~device:t.devices.(tenant) ~envelope
        ~payloads:[ (hook_uuid, t.payload) ]
        ())
    t.jobs;
  List.iter
    (fun (_, outcome) -> ignore (ok_or ~what:"update storm pipeline" outcome))
    (Pipeline.drain pool)

(* --- L3: the update storm, expressed as a corpus workload ----------- *)

let storm_checksum t =
  let acc = ref 0L in
  Array.iteri
    (fun i d ->
      acc := Int64.add !acc (Int64.mul (Int64.of_int (i + 1)) d.Suit.sequence))
    t.devices;
  !acc

let update_storm () =
  let expected =
    let t = make_tenant_jobs () in
    sequential ~hinted:false t ();
    storm_checksum t
  in
  {
    Harness.wname = "l3/update-storm";
    layer = "l3";
    expected;
    impls =
      [
        {
          Harness.runtime = "update";
          tier = "sequential";
          mk =
            (fun () ->
              let t = make_tenant_jobs () in
              Harness.instance (fun () ->
                  sequential ~hinted:true t ();
                  storm_checksum t));
        };
        {
          Harness.runtime = "update";
          tier = "pipeline";
          mk =
            (fun () ->
              let t = make_tenant_jobs () in
              let pool = Pipeline.create ~queue_depth:16 () in
              {
                Harness.run =
                  (fun () ->
                    pipeline_concurrent pool t ();
                    storm_checksum t);
                dispose = (fun () -> ignore (Pipeline.shutdown pool));
              });
        };
      ];
  }

(* --- L3: a rolling fleet-update campaign as a corpus workload -------- *)

(* A small sharded fleet (PR 9) pushed through a full rolling v2
   campaign.  The checksum folds the fleet's deterministic state
   fingerprint with the update count, so the 2-domain impl only matches
   the reference if parallel sharding is bit-identical to sequential —
   the equivalence gate doubles as a determinism test.  Half-installed
   images fail the run outright. *)
let campaign_config ~domains =
  {
    Fleet.default_config with
    devices = 512;
    shards = 8;
    domains;
    telemetry_us = 0;
    seed = 11;
  }

let campaign_checksum fleet (r : Fleet.report) =
  if r.Fleet.r_half_installed <> 0 then
    failwith "fleet campaign left a half-installed image";
  Int64.add
    (Int64.of_string ("0x" ^ String.sub (Fleet.fingerprint fleet) 0 15))
    (Int64.of_int r.Fleet.r_updates_ok)

let fleet_campaign () =
  let run_once ~domains () =
    let fleet = Fleet.create (campaign_config ~domains) in
    campaign_checksum fleet (Fleet.run_campaign fleet)
  in
  {
    Harness.wname = "l3/fleet-campaign";
    layer = "l3";
    expected = run_once ~domains:1 ();
    impls =
      [
        {
          Harness.runtime = "fleet";
          tier = "1-domain";
          mk = (fun () -> Harness.instance (run_once ~domains:1));
        };
        {
          Harness.runtime = "fleet";
          tier = "2-domain";
          mk = (fun () -> Harness.instance (run_once ~domains:2));
        };
      ];
  }

(* --- workloads -------------------------------------------------------- *)

let workloads () =
  Corpus_reg.l1 () @ Corpus_reg.l2 () @ [ update_storm (); fleet_campaign () ]

(* --- measurement ---------------------------------------------------- *)

(* Per-layer batching: L1 kernels run in µs, L2 hooks in tens of µs, L3
   storms in ms.  Short smoke batches trade statistical niceness for
   wall-clock budget — the gate compares ratios of identically-batched
   rows, so the estimator bias cancels. *)
let timing = function "l1" -> (1, 10, 2) | "l2" -> (1, 5, 2) | _ -> (1, 2, 2)

let measure_workload (w : Harness.workload) =
  let warmup, iters, trials = timing w.layer in
  List.map
    (fun (impl : Harness.impl) ->
      let inst = impl.mk () in
      let check what =
        let got = inst.run () in
        if not (Int64.equal got w.expected) then
          failwith
            (Printf.sprintf
               "EQUIVALENCE FAILURE: %s %s/%s: %s returned %Ld, reference %Ld"
               w.wname impl.runtime impl.tier what got w.expected)
      in
      (* equivalence gate: first run and a repeat (catches instance state
         leaking between runs) must match the native reference *)
      check "first run";
      check "rerun";
      let ns =
        Measure.wall_ns ~warmup ~iters ~trials (fun () -> ignore (inst.run ()))
      in
      let result = inst.run () in
      inst.dispose ();
      {
        wname = w.wname;
        layer = w.layer;
        runtime = impl.runtime;
        tier = impl.tier;
        ns;
        result;
      })
    w.impls

(* --- ratios + family ------------------------------------------------- *)

(* Speed of every impl relative to its workload's reference row (the
   first impl listed — rbpf/decoded for L1/L2, update/sequential for
   L3).  > 1 means faster than the reference. *)
let ratios rows =
  let by_workload = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not (Hashtbl.mem by_workload r.wname) then
        Hashtbl.add by_workload r.wname r.ns)
    rows;
  List.map
    (fun r -> (row_key r, Hashtbl.find by_workload r.wname /. r.ns))
    rows

(* The corpus has no in-run floor: equivalence failures raise before
   any timing. *)
let outcome rows =
  {
    Family.rows =
      List.map
        (fun r ->
          Jsonx.Obj
            [
              ("name", Jsonx.String (row_key r));
              ("workload", Jsonx.String r.wname);
              ("layer", Jsonx.String r.layer);
              ("runtime", Jsonx.String r.runtime);
              ("tier", Jsonx.String r.tier);
              ("ns_per_run", Jsonx.Float r.ns);
              ("result", Jsonx.String (Int64.to_string r.result));
            ])
        rows;
    ratios = ratios rows;
    failures = [];
  }

let run () =
  let selected = workloads () in
  let rows = List.concat_map measure_workload selected in
  Printf.printf "\nCorpus smoke (%d workloads, wall-clock ns/run)\n%s\n"
    (List.length selected) (String.make 58 '-');
  let last_w = ref "" in
  List.iter
    (fun r ->
      if r.wname <> !last_w then begin
        Printf.printf "  %s\n" r.wname;
        last_w := r.wname
      end;
      Printf.printf "    %-24s %14.1f\n" (r.runtime ^ "/" ^ r.tier) r.ns)
    rows;
  outcome rows

let family = { Family.name = "corpus"; tolerance; run }
