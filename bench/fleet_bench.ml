(* fleet/* bench family (PR 9): the sharded fleet simulator.

   The headline scenario is a rolling signed-SUIT firmware campaign over
   10k simulated devices (each with its own engine, CoW kv delta, SUIT
   processor and radio; one firmware image per shard) measured at 1 and
   2 domains:

     fleet/campaign-10k-1d   wall-clock campaign, single domain
     fleet/campaign-10k-2d   same scenario across 2 domains
     fleet/footprint         marginal bytes per resident device vs the
                             single-engine spawn marginal (spawn_bench)

   Hard gates (CI, per push):
     - both campaigns fully complete: zero incomplete devices and zero
       half-installed devices (SUIT sequence vs running firmware)
     - both campaigns produce the same device-state fingerprint — the
       domain count must not change simulated behaviour
     - per-device marginal footprint <= [footprint_x_ceiling] times the
       single-engine spawn figure
     - 2-domain speedup >= [scale_floor] when the host actually has two
       effective cores (skipped loudly on single-core hosts, where an
       extra domain cannot help; CI runners have >= 2)

   plus the regression-only ratio gate on the footprint against the
   committed bench/baseline.json (tolerance 0.6). *)

module Fleet = Femto_fleet.Fleet
module Jsonx = Femto_obs.Jsonx

let word_bytes = Sys.word_size / 8
let effective_cores () = Domain.recommended_domain_count ()
let scale_floor = 1.3
let footprint_x_ceiling = 2.0
let smoke_devices = 10_000
let smoke_shards = 32

type crow = {
  c_name : string;
  c_domains : int;
  c_wall_ns : float;
  c_updates_ok : int;
  c_ups_core : float; (* accepted updates / s / domain *)
  c_incomplete : int;
  c_half : int;
  c_fingerprint : string;
}

let run_campaign_row ~domains =
  let fleet =
    Fleet.create
      { Fleet.default_config with devices = smoke_devices; shards = smoke_shards; domains }
  in
  let r = Fleet.run_campaign fleet in
  {
    c_name = Printf.sprintf "campaign-10k-%dd" domains;
    c_domains = domains;
    c_wall_ns = r.Fleet.r_wall_ns;
    c_updates_ok = r.Fleet.r_updates_ok;
    c_ups_core =
      float_of_int r.Fleet.r_updates_ok
      /. (r.Fleet.r_wall_ns /. 1e9)
      /. float_of_int domains;
    c_incomplete = r.Fleet.r_incomplete;
    c_half = r.Fleet.r_half_installed;
    c_fingerprint = Fleet.fingerprint fleet;
  }

(* Marginal reachable bytes per device between two fleet sizes at a
   fixed shard count, so per-shard overhead (kernel, network, image
   cache) cancels and only true per-device state remains — the same
   methodology as spawn_bench's bytes/instance. *)
let fleet_marginal_bytes () =
  let words n =
    let f =
      Fleet.create
        { Fleet.default_config with devices = n; shards = 8; telemetry_us = 0 }
    in
    Fleet.resident_words f
  in
  let n1 = 512 and n2 = 4096 in
  float_of_int ((words n2 - words n1) * word_bytes) /. float_of_int (n2 - n1)

(* The PR 8 single-engine figure, measured in-process with the same
   reachable-words method rather than read from a committed file, so the
   comparison is apples-to-apples on this exact build and host. *)
let spawn_marginal_bytes () =
  let ws = Spawn_bench.workloads () in
  Spawn_bench.marginal_bytes ~how:`Spawn
    (Spawn_bench.footprint_workload ws)
    ~n1:100 ~n2:10_000

type footprint = {
  fleet_bytes : float;
  spawn_bytes : float;
  footprint_x : float;
}

let measure_footprint () =
  let fleet_bytes = fleet_marginal_bytes () in
  let spawn_bytes = spawn_marginal_bytes () in
  { fleet_bytes; spawn_bytes; footprint_x = fleet_bytes /. spawn_bytes }

let scale_2x rows =
  match
    ( List.find_opt (fun r -> r.c_domains = 1) rows,
      List.find_opt (fun r -> r.c_domains = 2) rows )
  with
  | Some r1, Some r2 -> r1.c_wall_ns /. r2.c_wall_ns
  | _ -> 1.0

(* Gated ratio (higher-is-better): the spawn marginal over the per-device
   marginal, the reciprocal of [footprint_x].  The 2-domain scaling is
   reported on its row but only floor-gated: a committed scale ratio
   depends on the core count of whatever host measured it. *)
let inv_footprint_key = "inv_footprint_x"

let outcome ~cores rows fp =
  let scale = scale_2x rows in
  {
    Family.rows =
      List.map
        (fun r ->
          Jsonx.Obj
            ([
               ("name", Jsonx.String ("fleet/" ^ r.c_name));
               ("devices", Jsonx.Int smoke_devices);
               ("shards", Jsonx.Int smoke_shards);
               ("domains", Jsonx.Int r.c_domains);
               ("cores", Jsonx.Int cores);
               ("wall_ns", Jsonx.Float r.c_wall_ns);
               ("updates_ok", Jsonx.Int r.c_updates_ok);
               ("updates_per_sec_per_core", Jsonx.Float r.c_ups_core);
               ("incomplete", Jsonx.Int r.c_incomplete);
               ("half_installed", Jsonx.Int r.c_half);
               ("fingerprint", Jsonx.String r.c_fingerprint);
             ]
            @ if r.c_domains = 2 then [ ("scale_x", Jsonx.Float scale) ] else []))
        rows
      @ [
          Jsonx.Obj
            [
              ("name", Jsonx.String "fleet/footprint");
              ("fleet_bytes_per_device", Jsonx.Float fp.fleet_bytes);
              ("spawn_bytes_per_instance", Jsonx.Float fp.spawn_bytes);
              ("footprint_x", Jsonx.Float fp.footprint_x);
            ];
        ];
    ratios = [ (inv_footprint_key, 1.0 /. fp.footprint_x) ];
    failures =
      List.concat_map
        (fun r ->
          Family.fail_if (r.c_incomplete > 0)
            "fleet/%s: %d device(s) never completed the update" r.c_name
            r.c_incomplete
          @ Family.fail_if (r.c_half > 0)
              "fleet/%s: %d half-installed device(s) (sequence advanced \
               without the firmware, or vice versa)"
              r.c_name r.c_half)
        rows
      @ (match rows with
        | [ r1; r2 ] ->
            Family.fail_if
              (not (String.equal r1.c_fingerprint r2.c_fingerprint))
              "fleet: domain count changed simulated behaviour (%s vs %s)"
              r1.c_fingerprint r2.c_fingerprint
        | _ -> [])
      @ Family.fail_if (fp.footprint_x > footprint_x_ceiling)
          "fleet footprint %.0f B/device is %.2fx the spawn marginal \
           (ceiling %.1fx)"
          fp.fleet_bytes fp.footprint_x footprint_x_ceiling
      @ Family.fail_if
          (cores >= 2 && scale < scale_floor)
          "fleet scale_2x %.2fx below floor %.2fx" scale scale_floor;
  }

let run () =
  (* bound in sequence: list elements are evaluated right to left, and
     the 1-domain campaign is meant to run first *)
  let one = run_campaign_row ~domains:1 in
  let two = run_campaign_row ~domains:2 in
  let rows = [ one; two ] in
  let fp = measure_footprint () in
  let cores = effective_cores () in
  Printf.printf "\nFleet smoke (%d devices, %d shards, %d core(s))\n%s\n"
    smoke_devices smoke_shards cores (String.make 48 '-');
  List.iter
    (fun r ->
      Printf.printf
        "  fleet/%-16s %8.1f ms   %6.0f updates/s/core   incomplete %d  half %d\n"
        r.c_name (r.c_wall_ns /. 1e6) r.c_ups_core r.c_incomplete r.c_half)
    rows;
  Printf.printf
    "  fleet/footprint     %.0f B/device vs %.0f B spawn marginal (%.2fx)\n"
    fp.fleet_bytes fp.spawn_bytes fp.footprint_x;
  Printf.printf "  scale 1 -> 2 domains: %.2fx\n" (scale_2x rows);
  if cores < 2 then
    Printf.printf
      "  (scale floor skipped: single effective core, domains cannot help)\n";
  outcome ~cores rows fp

let family = { Family.name = "fleet"; tolerance = 0.6; run }
