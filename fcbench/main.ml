(* The repository benchmark.

     main.exe --workload edge-read|edge-update|fleet-campaign
              --seed N --seconds S --trace 0|1

   Run from the repository root.  --trace 0 measures the end-to-end
   metrics; --trace 1 makes a separate traced run and reports the
   per-layer metrics (and writes every span buffer to
   .bench_out/<workload>.jsonl).  The metrics are declared in
   BENCHMARK.json.  The last line of standard output is
   the result object; the line before it records the seed, the
   configuration and the sample count behind every percentile.  A wrong
   output from the program under test prints correct=false and exits 1. *)

let benchmark = "BENCHMARK.json"
let spans_dir = ".bench_out"

(* The metric names and units come from BENCHMARK.json, the one place
   they are declared: [section] is "end_to_end" or "per_layer". *)
let declared section =
  let doc =
    let ic = open_in_bin benchmark in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    Femto_obs.Jsonx.of_string (really_input_string ic (in_channel_length ic))
  in
  let field key m =
    match Option.bind (Femto_obs.Jsonx.member key m) Femto_obs.Jsonx.to_str with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: a %s metric lacks %S" benchmark section key)
  in
  match Option.bind (Femto_obs.Jsonx.member section doc) Femto_obs.Jsonx.to_list with
  | Some metrics -> List.map (fun m -> (field "name" m, field "unit" m)) metrics
  | None -> failwith (Printf.sprintf "%s has no %s list" benchmark section)

let workloads =
  [
    ("edge-read", Edge_read.run);
    ("edge-update", Edge_update.run);
    ("fleet-campaign", Fleet_campaign.run);
  ]

(* Put the measured metrics in the declared order.  Every workload prints
   every declared metric; one it does not measure reads 0 (README.md lists
   where each is measured).  A metric that is not declared, or declared
   with another unit, is a benchmark bug. *)
let canonical expected measured =
  List.iter
    (fun m ->
      match List.assoc_opt m.Report.name expected with
      | Some u when String.equal u m.Report.unit_ -> ()
      | _ -> failwith (Printf.sprintf "metric %s (%s) is not declared" m.name m.unit_))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> String.equal m.Report.name name) measured with
      | Some m -> m
      | None -> Report.metric name 0.0 unit_)
    expected

let usage () =
  prerr_endline
    "usage: main.exe --workload edge-read|edge-update|fleet-campaign --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some run, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      let detail_prefix =
        [
          ("workload", Printf.sprintf "%S" !workload);
          ("seed", string_of_int seed);
          ("seconds", Report.number seconds);
          ("trace", string_of_bool trace);
          ("cpus", string_of_int (Domain.recommended_domain_count ()));
        ]
      in
      let expected =
        declared (if trace then "per_layer" else "end_to_end")
      in
      (match run ~seed ~seconds ~trace with
      | outcome, bufs ->
          if bufs <> [] then begin
            (try Unix.mkdir spans_dir 0o755
             with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
            Spans.write (Filename.concat spans_dir (!workload ^ ".jsonl")) bufs
          end;
          Report.print ~detail_prefix outcome (canonical expected outcome.Report.metrics)
      | exception Report.Wrong_output msg ->
          Printf.eprintf "fcbench %s: wrong output: %s\n%!" !workload msg;
          Report.print ~detail_prefix
            { Report.correct = false; attempted = 1; failed = 1; metrics = []; detail = [] }
            [];
          exit 1)
  | _ -> usage ()
