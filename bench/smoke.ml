(* The per-push bench smoke: one registry of families, one femto-bench/1
   document, one ratio gate, one exit code.

     dune exec bench/main.exe -- --smoke [--only FAMILY] [--json F] \
                                 [--baseline bench/baseline.json]

   Every selected family runs in this process, in registry order; a
   family that raises (a workload or equivalence failure) is reported
   as a failure and the rest still run.  The document carries each
   family's rows and gated ratios; [Gate] then compares the ratios
   against the baseline.  Exit 0 = every floor and ratio held, 1 = any
   failed, 2 = bad invocation (unknown family, unreadable baseline). *)

module Jsonx = Femto_obs.Jsonx

(* The one place that knows which families exist. *)
let families =
  [
    Dispatch_bench.family;
    Spawn_bench.family;
    Fleet_bench.family;
    Edge_bench.family;
    Corpus.family;
  ]

let names = List.map (fun (f : Family.t) -> f.name) families

let select = function
  | None -> Ok families
  | Some name -> (
      match List.find_opt (fun (f : Family.t) -> f.name = name) families with
      | Some f -> Ok [ f ]
      | None ->
          Error
            (Printf.sprintf "unknown family %S (known: %s)" name
               (String.concat ", " names)))

let run_family (f : Family.t) =
  (* each family starts from a compacted heap, so one family's garbage
     is not collected on the next one's clock *)
  Gc.compact ();
  match f.run () with
  | o -> (Some o, List.map (fun m -> f.name ^ ": " ^ m) o.failures)
  | exception Failure m -> (None, [ f.name ^ ": " ^ m ])
  | exception e ->
      (None, [ f.name ^ ": workload failure: " ^ Printexc.to_string e ])

let run ~only ~json_file ~baseline_file =
  let baseline =
    match baseline_file with
    | None -> Ok None
    | Some path -> Result.map Option.some (Gate.load path)
  in
  match (select only, baseline) with
  | Error m, _ | _, Error m ->
      Printf.eprintf "bench: %s\n" m;
      2
  | Ok selected, Ok baseline ->
      let results = List.map (fun f -> (f, run_family f)) selected in
      flush stdout;
      let runs =
        List.filter_map
          (fun (f, (o, _)) -> Option.map (fun o -> (f, o)) o)
          results
      in
      Option.iter
        (Schema.write_doc
           (Schema.doc
              (List.concat_map
                 (fun ((f : Family.t), o) -> Family.sections f.name o)
                 runs)))
        json_file;
      let failures =
        List.concat_map (fun (_, (_, failures)) -> failures) results
        @ match baseline with None -> [] | Some b -> Gate.check_doc b runs
      in
      List.iter (fun m -> Printf.eprintf "smoke gate: %s\n" m) failures;
      if failures = [] then 0 else 1
