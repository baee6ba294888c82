(* What one run prints: a detail line (seed, configuration, sample counts
   behind every percentile) and, last, the result object with exactly the
   keys correct / attempted / failed / metrics. *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  detail : (string * string) list;  (** key -> raw JSON value *)
}

(* A wrong output from the program under test: the run exits nonzero. *)
exception Wrong_output of string

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong_output m)) fmt
let metric name value unit_ = { name; value; unit_ }
let metrics triples = List.map (fun (n, v, u) -> metric n v u) triples

(* Every value with all its digits (the shortest of %.15g / %.17g that
   reads back exactly); a non-finite value is a benchmark bug and is
   printed as 0 so the line stays valid JSON. *)
let number v =
  if not (Float.is_finite v) then "0"
  else
    let short = Printf.sprintf "%.15g" v in
    if Float.equal (float_of_string short) v then short else Printf.sprintf "%.17g" v

let ratio num den = if den = 0.0 then 0.0 else num /. den

let print ~detail_prefix outcome metrics =
  let detail =
    String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) (detail_prefix @ outcome.detail))
  in
  Printf.printf "{%s}\n" detail;
  let ms =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    outcome.correct outcome.attempted outcome.failed ms
