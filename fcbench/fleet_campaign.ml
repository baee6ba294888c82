(* fleet-campaign: [Fleet.create] then [Fleet.run_campaign] over 50 000
   simulated devices in 64 shards on 2 domains (the default 5 ms epochs
   and 50 ms telemetry, no radio loss), seeded from the benchmark seed.

   One campaign is one operation.  The untraced run repeats create +
   campaign until [seconds] have passed (at least once); the traced run
   makes a warm-up campaign, one untraced campaign, one measured campaign
   and a 1-domain rerun of it whose device-state fingerprint must match. *)

module Fleet = Femto_fleet.Fleet
module Samples = Timing.Samples

let devices = 50_000
let shards = 64
let domains = 2
let word_bytes = Sys.word_size / 8

let config ~fleet_seed ~domains =
  { Fleet.default_config with devices; shards; domains; seed = fleet_seed; loss_permille = 0 }

type campaign = {
  create_s : float;
  wall_ns : float;
  report : Fleet.report;
  gc_before : Timing.gc_mark;
  gc_after : Timing.gc_mark;
}

(* One create + campaign on a fresh fleet, returned with the fleet; the
   caller drops its previous fleet first, and it is collected here so
   every campaign starts from the same heap. *)
let campaign ~fleet_seed ~domains =
  Gc.full_major ();
  let t0 = Timing.now_ns () in
  let fleet = Fleet.create (config ~fleet_seed ~domains) in
  let t1 = Timing.now_ns () in
  let gc_before = Timing.gc_mark () in
  let report = Fleet.run_campaign fleet in
  let t2 = Timing.now_ns () in
  let gc_after = Timing.gc_mark () in
  if report.Fleet.r_half_installed <> 0 then
    Report.wrong "%d half-installed devices after the campaign"
      report.Fleet.r_half_installed;
  if report.Fleet.r_updates_ok + report.Fleet.r_incomplete < devices then
    Report.wrong "%d updates accepted and %d incomplete out of %d devices"
      report.Fleet.r_updates_ok report.Fleet.r_incomplete devices;
  ({ create_s = (t1 -. t0) /. 1e9; wall_ns = t2 -. t1; report; gc_before; gc_after }, fleet)

let ops c = float_of_int c.report.Fleet.r_updates_ok /. (c.wall_ns /. 1e9)
let failures c = c.report.Fleet.r_incomplete + c.report.Fleet.r_half_installed

let run ~seed ~seconds ~trace =
  let fleet_seed = Random.State.bits (Random.State.make [| seed; 0xf1ee7 |]) in
  let detail cs =
    [
      ("devices", string_of_int devices);
      ("shards", string_of_int shards);
      ("fleet_seed", string_of_int fleet_seed);
      ("campaign_samples", string_of_int (List.length cs));
      ( "create_s",
        "[" ^ String.concat "," (List.map (fun c -> Printf.sprintf "%.4f" c.create_s) cs) ^ "]" );
      ( "campaign_s",
        "[" ^ String.concat "," (List.map (fun c -> Printf.sprintf "%.4f" (c.wall_ns /. 1e9)) cs) ^ "]" );
    ]
  in
  if not trace then begin
    let t_end = Timing.now_ns () +. (seconds *. 1e9) in
    let last = ref None in
    let rec loop acc =
      if acc <> [] && Timing.now_ns () >= t_end then List.rev acc
      else begin
        last := None;
        let c, fleet = campaign ~fleet_seed ~domains in
        last := Some fleet;
        loop (c :: acc)
      end
    in
    let cs = loop [] in
    (* footprint after the timed region, on the last fleet in its final
       state *)
    let resident_bytes =
      match !last with
      | Some fleet -> float_of_int (Fleet.resident_words fleet * word_bytes)
      | None -> assert false
    in
    let walls = Samples.create () in
    List.iter (fun c -> Samples.add walls c.wall_ns) cs;
    let attempted = devices * List.length cs in
    let failed = List.fold_left (fun acc c -> acc + failures c) 0 cs in
    ( {
        Report.correct = true;
        attempted;
        failed;
        metrics =
          Report.metrics
            [
              ("ops_per_s", Timing.median_of (List.map ops cs), "1/s");
              ("latency_p50_us", Timing.us_of_ns (Samples.median walls), "us");
              ("latency_p99_us", Timing.us_of_ns (Samples.percentile walls 0.99), "us");
              ( "success_ratio",
                Report.ratio (float_of_int (attempted - failed)) (float_of_int attempted),
                "ratio" );
              ("setup_s", Timing.median_of (List.map (fun c -> c.create_s) cs), "s");
              ("bytes_per_device", resident_bytes /. float_of_int devices, "B");
            ];
        detail = detail cs;
      },
      [] )
  end
  else begin
    (* the first campaign of a process also grows the heap: keep it out
       of the comparisons below *)
    ignore (campaign ~fleet_seed ~domains);
    let untraced, _ = campaign ~fleet_seed ~domains in
    let c, fingerprint =
      let c, fleet = campaign ~fleet_seed ~domains in
      (c, Fleet.fingerprint fleet)
    in
    let single, single_fingerprint =
      let c, fleet = campaign ~fleet_seed ~domains:1 in
      (c, Fleet.fingerprint fleet)
    in
    if not (String.equal single_fingerprint fingerprint) then
      Report.wrong "1-domain fingerprint %s differs from the 2-domain %s"
        single_fingerprint fingerprint;
    let r = c.report in
    let wall_s = c.wall_ns /. 1e9 in
    let images = r.Fleet.r_images_built + r.Fleet.r_image_hits in
    ( {
        Report.correct = true;
        attempted = devices;
        failed = failures c;
        metrics =
          Report.metrics
            ([
               ("fleet.epochs", float_of_int r.Fleet.r_epochs, "count");
               ("fleet.epoch_ms", c.wall_ns /. 1e6 /. float_of_int (max 1 r.Fleet.r_epochs), "ms");
               ("fleet.timer_events_per_s", float_of_int r.Fleet.r_timer_events /. wall_s, "1/s");
               ( "fleet.cross_shard_per_update",
                 Report.ratio (float_of_int r.Fleet.r_cross_shard) (float_of_int r.Fleet.r_updates_ok),
                 "count" );
               ("fleet.parallel_efficiency", single.wall_ns /. (2. *. c.wall_ns), "ratio");
               ("fleet.boot_us_per_device", c.create_s *. 1e6 /. float_of_int devices, "us");
               ( "engine.image_hit_ratio",
                 Report.ratio (float_of_int r.Fleet.r_image_hits) (float_of_int images),
                 "ratio" );
               ("fleet.images_built", float_of_int r.Fleet.r_images_built, "count");
               ("bench.trace_overhead", ops untraced /. ops c, "ratio");
               ( "error_rate",
                 Report.ratio (float_of_int (failures c)) (float_of_int devices),
                 "ratio" );
             ]
            @ Timing.gc_metrics ~ops:r.Fleet.r_updates_ok c.gc_before c.gc_after);
        detail = detail [ untraced; c; single ] @ [ ("fingerprint", Printf.sprintf "%S" fingerprint) ];
      },
      [] )
  end
