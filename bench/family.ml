(* A smoke family: one slice of the per-push bench, run by {!Smoke}.

   Running a family yields its femto-bench/1 rows, its gated ratios and
   the failures of its hard floors.  Every gated ratio is oriented
   higher-is-better, so the one baseline gate ({!Gate.check_doc}) needs
   no direction flag: a ratio fails once it drops below [tolerance] times
   its committed value.  Numbers a family reports but does not gate go
   in its rows. *)

module Jsonx = Femto_obs.Jsonx

type outcome = {
  rows : Jsonx.t list;
  ratios : (string * float) list;
  failures : string list;
}

type t = { name : string; tolerance : float; run : unit -> outcome }

(* The family's sections of the shared document. *)
let sections name o =
  [
    (name, Jsonx.List o.rows);
    ( Schema.ratios_key name,
      Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) o.ratios) );
  ]

(* [fail_if cond fmt ...] is [[message]] when [cond] holds, else []:
   one hard floor's contribution to [failures]. *)
let fail_if cond fmt =
  Printf.ksprintf (fun m -> if cond then [ m ] else []) fmt
