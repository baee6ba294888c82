(* femto-bench/1: the one JSON envelope every bench emitter shares.

   A document is an object with the schema tag, a UTC timestamp, the
   producing toolchain, any number of *section* keys, and the process
   observability snapshot.  A section is either a row list (objects with
   a "name" and ns measurements) or, under a key ending in
   [ratios_suffix], a flat object of positive floats — the
   machine-speed-robust numbers the smoke gate compares against the
   committed baseline.  Section names are whatever the emitters chose:
   the bench registry ({!Smoke.families}) is the one place that knows
   which families exist.  [validate] is the single checker
   test_bench_schema runs against every emitter and the committed
   baseline. *)

module Jsonx = Femto_obs.Jsonx
module Obs = Femto_obs.Obs

let tag = "femto-bench/1"

let iso8601_utc seconds =
  let tm = Unix.gmtime seconds in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Inverse of [iso8601_utc], for monotonicity checks. *)
let parse_timestamp s =
  match
    Scanf.sscanf s "%04d-%02d-%02dT%02d:%02d:%02dZ%!"
      (fun y mo d h mi sec -> (y, mo, d, h, mi, sec))
  with
  | exception _ -> None
  | y, mo, d, h, mi, sec ->
      if mo < 1 || mo > 12 || d < 1 || d > 31 || h > 23 || mi > 59 || sec > 60
      then None
      else
        (* days-since-epoch arithmetic is overkill here: a lexicographic
           tuple compares correctly for a fixed-width UTC stamp, so return
           a sortable float built the same way *)
        Some
          (((((float_of_int y *. 12. +. float_of_int mo) *. 31.
             +. float_of_int d)
             *. 24.
            +. float_of_int h)
            *. 60.
           +. float_of_int mi)
           *. 61.
          +. float_of_int sec)

(* Assemble a document: the shared envelope around [sections]. *)
let doc sections =
  Jsonx.Obj
    ([
       ("schema", Jsonx.String tag);
       ("generated_at", Jsonx.String (iso8601_utc (Unix.time ())));
       ("ocaml_version", Jsonx.String Sys.ocaml_version);
       ("word_size", Jsonx.Int Sys.word_size);
     ]
    @ sections
    @ [ ("metrics", Obs.metrics_json ()) ])

let write_doc doc path =
  let oc = open_out path in
  output_string oc (Jsonx.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* A family [f] publishes its rows under [f] and its gated ratios under
   [ratios_key f]. *)
let ratios_suffix = "_ratios"
let ratios_key family = family ^ ratios_suffix

(* Top-level keys every document carries; every other key is a section. *)
let envelope_keys =
  [ "schema"; "generated_at"; "ocaml_version"; "word_size"; "metrics" ]

(* Optional latency-percentile fields a row may carry (p50_ns, p90_ns,
   p99_ns) are ns keys like any other; when present they must also be
   ordered. *)
let is_ns_key key =
  key = "ns_per_run" || key = "legacy_ns_per_run"
  || Astring.String.is_suffix ~affix:"_ns" key

(* [validate doc] returns every problem found ([] = conformant). *)
let validate doc =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  (match Jsonx.member "schema" doc with
  | Some (Jsonx.String s) when s = tag -> ()
  | Some (Jsonx.String s) -> bad "schema is %S, want %S" s tag
  | _ -> bad "schema tag missing");
  (match Jsonx.member "generated_at" doc with
  | Some (Jsonx.String s) -> (
      match parse_timestamp s with
      | Some _ -> ()
      | None -> bad "generated_at %S is not an ISO-8601 UTC stamp" s)
  | _ -> bad "generated_at missing");
  (match Jsonx.member "ocaml_version" doc with
  | Some (Jsonx.String s) when s <> "" -> ()
  | _ -> bad "ocaml_version missing or empty");
  (match Jsonx.member "word_size" doc with
  | Some (Jsonx.Int n) when n > 0 -> ()
  | _ -> bad "word_size missing or non-positive");
  let check_rows section rows =
    let seen = Hashtbl.create 16 in
    List.iteri
      (fun i row ->
        match row with
        | Jsonx.Obj fields ->
            (match List.assoc_opt "name" fields with
            | Some (Jsonx.String name) when name <> "" ->
                if Hashtbl.mem seen name then
                  bad "%s: duplicate row name %S" section name;
                Hashtbl.replace seen name ()
            | _ -> bad "%s[%d]: name missing or empty" section i);
            List.iter
              (fun (key, v) ->
                if is_ns_key key then
                  match v with
                  | Jsonx.Float ns when ns >= 0.0 && ns = ns -> ()
                  | Jsonx.Null when section = "bechamel" ->
                      () (* an OLS fit may fail to converge *)
                  | _ -> bad "%s[%d]: %s not a non-negative float" section i key)
              fields;
            (* present percentiles must not cross: p50 <= p90 <= p99 *)
            let pct key =
              match List.assoc_opt key fields with
              | Some (Jsonx.Float v) -> Some v
              | _ -> None
            in
            List.iter
              (fun (lo, hi) ->
                match (pct lo, pct hi) with
                | Some l, Some h when l > h ->
                    bad "%s[%d]: %s (%.1f) exceeds %s (%.1f)" section i lo l hi
                      h
                | _ -> ())
              [ ("p50_ns", "p90_ns"); ("p90_ns", "p99_ns") ]
        | _ -> bad "%s[%d]: row is not an object" section i)
      rows
  in
  let check_ratios section = function
    | Jsonx.Obj fields ->
        List.iter
          (fun (key, v) ->
            match v with
            | Jsonx.Float r when r > 0.0 && r = r && r <> infinity -> ()
            | _ -> bad "%s: ratio %S not a positive finite float" section key)
          fields
    | _ -> bad "%s: not an object" section
  in
  (match doc with
  | Jsonx.Obj fields ->
      List.iter
        (fun (section, v) ->
          if List.mem section envelope_keys then ()
          else if Astring.String.is_suffix ~affix:ratios_suffix section then
            check_ratios section v
          else
            match v with
            | Jsonx.List rows -> check_rows section rows
            | Jsonx.Obj _ ->
                bad "%s: an object section must be named *%s" section
                  ratios_suffix
            | _ -> () (* scalar run parameters, e.g. quota_s *))
        fields
  | _ -> bad "document is not an object");
  List.rev !problems
