(* The one ratio gate: the ratios a smoke run produced against the
   committed femto-bench/1 baseline (bench/baseline.json).

   For every family that ran, every ratio committed under its
   [Schema.ratios_key] must have been produced again and must not have
   dropped below the family's tolerance times its committed value.  A
   family that produced ratios but has no committed section fails too,
   as does an unreadable or malformed baseline: a gate that cannot read
   its yardstick must not pass.  Ratios the baseline does not name yet
   only gate once committed. *)

module Jsonx = Femto_obs.Jsonx

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Error (Printf.sprintf "baseline %s unreadable: %s" path m)
  | raw -> (
      match Jsonx.of_string raw with
      | exception Jsonx.Parse_error m ->
          Error (Printf.sprintf "baseline %s malformed: %s" path m)
      | doc -> (
          match Schema.validate doc with
          | [] -> Ok doc
          | problem :: _ ->
              Error (Printf.sprintf "baseline %s malformed: %s" path problem)))

let check_family baseline (family : Family.t) (o : Family.outcome) =
  let section = Schema.ratios_key family.name in
  match Jsonx.member section baseline with
  | None when o.ratios = [] -> []
  | None -> [ Printf.sprintf "%s: baseline has no %s section" family.name section ]
  | Some (Jsonx.Obj committed) ->
      List.filter_map
        (fun (key, v) ->
          let id = family.name ^ "/" ^ key in
          match (Jsonx.to_float v, List.assoc_opt key o.ratios) with
          | None, _ -> Some (Printf.sprintf "%s: committed ratio unreadable" id)
          | Some _, None ->
              Some
                (Printf.sprintf "%s: committed ratio not produced by this run" id)
          | Some was, Some now ->
              if now < was *. family.tolerance then
                Some
                  (Printf.sprintf
                     "%s regressed: %.4g now vs %.4g committed (tolerance %.0f%%)"
                     id now was (family.tolerance *. 100.))
              else None)
        committed
  | Some _ -> [ Printf.sprintf "%s: %s is not an object" family.name section ]

(* [runs] pairs each family that ran with its outcome. *)
let check_doc baseline runs =
  List.concat_map (fun (family, o) -> check_family baseline family o) runs

let check path runs =
  match load path with Error m -> [ m ] | Ok doc -> check_doc doc runs
