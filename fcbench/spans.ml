(* Benchmark-side spans for the traced run.

   Spans are recorded around calls into a layer's public functions.  Each
   side (the client, the server) owns its buffer, written by one domain
   only and preallocated so recording does not allocate.  A buffer keeps
   per-kind totals over every span and the most recent [capacity] spans
   themselves; all buffers are written out as JSON lines when the run
   ends.

   [key] correlates the spans of one request across the two sides: the
   CoAP message id on the edge workloads (the client's request span and
   the server's exchange/handler/trigger spans of that request share it),
   the update number for update-level spans.  Nesting within a buffer is
   by time containment (a handler span lies inside its exchange span,
   which lies inside its drain span). *)

type kind =
  | Drain  (** one [Transport.drain] call that consumed >= 1 datagram *)
  | Exchange  (** one datagram: from the previous reply (or drain start)
                  to this reply leaving through the server's send *)
  | Handler  (** a benchmark resource handler, inside [Server] *)
  | Trigger  (** [Engine.trigger] inside a handler *)
  | Request  (** client: request sent -> matching response received *)
  | Upload  (** client: Block1 POST /suit/slot, first block -> 2.04 *)
  | Install  (** client: POST /suit/install -> 2.04 *)

let kinds = [| Drain; Exchange; Handler; Trigger; Request; Upload; Install |]

let index = function
  | Drain -> 0
  | Exchange -> 1
  | Handler -> 2
  | Trigger -> 3
  | Request -> 4
  | Upload -> 5
  | Install -> 6

let name = function
  | Drain -> "transport.drain"
  | Exchange -> "coap.exchange"
  | Handler -> "coap.handler"
  | Trigger -> "engine.trigger"
  | Request -> "client.request"
  | Upload -> "update.upload"
  | Install -> "update.install"

type buf = {
  domain : string;
  kind : int array;
  key : int array;
  aux : int array;
  start : float array;
  stop : float array;
  mutable recorded : int;
  durations : Timing.Samples.t array;  (** every span's duration, per kind *)
}

let capacity = 1 lsl 14

let create domain =
  {
    domain;
    kind = Array.make capacity 0;
    key = Array.make capacity 0;
    aux = Array.make capacity 0;
    start = Array.make capacity 0.0;
    stop = Array.make capacity 0.0;
    recorded = 0;
    durations = Array.map (fun _ -> Timing.Samples.create ()) kinds;
  }

let record b kind ~key ~aux t0 t1 =
  let k = index kind in
  let i = b.recorded mod capacity in
  b.kind.(i) <- k;
  b.key.(i) <- key;
  b.aux.(i) <- aux;
  b.start.(i) <- t0;
  b.stop.(i) <- t1;
  b.recorded <- b.recorded + 1;
  Timing.Samples.add b.durations.(k) (t1 -. t0)

let durations b kind = b.durations.(index kind)

let total_ns b kind =
  let d = durations b kind in
  Timing.Samples.mean d *. float_of_int (Timing.Samples.count d)

let reset b =
  b.recorded <- 0;
  Array.iter Timing.Samples.clear b.durations

(* One JSON line per span, oldest first, preceded by a header line per
   buffer giving how many spans were recorded and how many are kept. *)
let write path bufs =
  let oc = open_out path in
  List.iter
    (fun b ->
      let kept = min b.recorded capacity in
      Printf.fprintf oc
        "{\"domain\":%S,\"recorded\":%d,\"kept\":%d}\n" b.domain b.recorded kept;
      let first = b.recorded - kept in
      for j = first to b.recorded - 1 do
        let i = j mod capacity in
        Printf.fprintf oc
          "{\"domain\":%S,\"span\":%S,\"key\":%d,\"aux\":%d,\"start_ns\":%.0f,\"dur_ns\":%.0f}\n"
          b.domain
          (name kinds.(b.kind.(i)))
          b.key.(i) b.aux.(i) b.start.(i)
          (b.stop.(i) -. b.start.(i))
      done)
    bufs;
  close_out oc
