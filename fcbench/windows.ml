(* The untraced edge runs measure many short windows, each on a freshly
   set-up server and transport, with more timed set-ups interleaved
   between windows.  What else the host runs meanwhile then varies within
   one run instead of between runs.  Throughput is the trimmed mean
   ({!Timing.trimmed_mean}) of the windows' throughputs; the latency
   percentiles are taken over every window's samples pooled, which keeps
   a p99 steady even though the host's scheduling stalls land in some
   windows and not in others.  Set-up time is the median of every set-up
   in the run. *)

module Samples = Timing.Samples

type window = {
  setup_s : float;
  ops_per_s : float;
  latency : Samples.t;  (** ns *)
  completed : int;
  failed : int;  (** timed out, refused, or retransmitted at least once *)
  retransmissions : int;
  empty_polls : int;  (** the acceptor's, see {!Acceptor} *)
}

(* [count] windows splitting [seconds]; [extra] set-ups (timed, then torn
   down) run before each window. *)
let run ~seconds ~segment_s ~extra ~extra_setup ~window =
  let count = max 1 (int_of_float (Float.round (seconds /. segment_s))) in
  let extras = ref [] in
  let windows =
    List.init count (fun i ->
        for _ = 1 to extra do
          extras := extra_setup () :: !extras
        done;
        window i (seconds /. float_of_int count))
  in
  (windows, !extras)

let summarize ~extras ~bytes_per_device windows =
  let latency = Samples.create () in
  List.iter (fun w -> Samples.append latency w.latency) windows;
  let completed = List.fold_left (fun acc w -> acc + w.completed) 0 windows in
  let failed = List.fold_left (fun acc w -> acc + w.failed) 0 windows in
  let p50, p99 =
    match Samples.percentiles latency [ 0.5; 0.99 ] with
    | [ p50; p99 ] -> (p50, p99)
    | _ -> assert false
  in
  let metrics =
    [
      ("ops_per_s", Timing.trimmed_mean (List.map (fun w -> w.ops_per_s) windows), "1/s");
      ("latency_p50_us", Timing.us_of_ns p50, "us");
      ("latency_p99_us", Timing.us_of_ns p99, "us");
      ( "success_ratio",
        Report.ratio (float_of_int completed) (float_of_int (completed + failed)),
        "ratio" );
      ("setup_s", Timing.median_of (extras @ List.map (fun w -> w.setup_s) windows), "s");
      ("bytes_per_device", bytes_per_device, "B");
    ]
  in
  let detail =
    [
      ("windows", string_of_int (List.length windows));
      ("setups", string_of_int (List.length extras + List.length windows));
      ("latency_samples", string_of_int (Samples.count latency));
      ( "retransmissions",
        string_of_int (List.fold_left (fun acc w -> acc + w.retransmissions) 0 windows) );
      ( "acceptor_empty_polls",
        string_of_int (List.fold_left (fun acc w -> acc + w.empty_polls) 0 windows) );
      ( "window_p99_us",
        "["
        ^ String.concat ","
            (List.map
               (fun w -> Printf.sprintf "%.1f" (Timing.us_of_ns (Samples.percentile w.latency 0.99)))
               windows)
        ^ "]" );
      ( "window_ops_per_s",
        "[" ^ String.concat "," (List.map (fun w -> Printf.sprintf "%.1f" w.ops_per_s) windows) ^ "]" );
    ]
  in
  ( {
      Report.correct = true;
      attempted = completed + failed;
      failed;
      metrics = Report.metrics metrics;
      detail;
    },
    [] )
