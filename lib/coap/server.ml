(* CoAP resource server behind a pluggable datagram backend.

   Resources are registered by path; confirmable requests are answered
   with piggybacked acknowledgements, as gcoap does in RIOT.  Handlers
   return a (code, options, payload) triple — or delegate to a
   Femto-Container through the [Gcoap] glue.

   The server itself is transport-agnostic: it consumes datagrams via
   {!handle_datagram} and emits replies through a swappable [send]
   function.  [create] wires it to a simulated-network node; the Unix
   transport ({!Transport}) attaches the same server to a real UDP
   socket, so one set of handlers/sinks serves both worlds.

   A datagram is validated in place ({!Message.scan}) and only decoded
   into a {!Message.t} when a handler runs: a cached GET and a Block1
   2.31 continue are answered by writing the request's header and token
   in front of an encoded tail.  All per-peer state sits in fixed-size
   tables that evict their oldest entry, so no number of peers grows
   the server. *)

module Network = Femto_net.Network
module Obs = Femto_obs.Obs
module Ometrics = Femto_obs.Metrics
module Otrace = Femto_obs.Trace

(* CoAP-server metrics across all server instances; per-request outcome
   detail goes to the trace ring as Coap_request events. *)
let m_requests = Obs.counter "coap.requests"
let m_not_found = Obs.counter "coap.not_found"
let m_handler_errors = Obs.counter "coap.handler_errors"
let m_retransmissions = Obs.counter "coap.retransmissions"
let m_notifications = Obs.counter "coap.notifications"
let m_notify_encodes = Obs.counter "coap.notify_encodes"
let m_dedupe_evictions = Obs.counter "coap.dedupe_evictions"
let m_upload_evictions = Obs.counter "coap.upload_evictions"
let m_download_evictions = Obs.counter "coap.download_evictions"
let m_observer_evictions = Obs.counter "coap.observer_evictions"
let m_cache_hits = Obs.counter "coap.cache_hits"
let m_cache_misses = Obs.counter "coap.cache_misses"

type response = { code : int * int; options : (int * string) list; payload : string }

let respond ?(options = []) ?(payload = "") code = { code; options; payload }

type handler = src:int -> Message.t -> response

(* A streaming upload consumer: Block1 chunks are pushed into [chunk] as
   they arrive (so flash programming and digest work overlap the
   transfer), and [finish] runs when the final block lands, with the
   streaming SHA-256 and total size already computed.  [abort] must be
   idempotent: it also fires for out-of-order restarts that never saw
   [start]. *)
type sink = {
  start : unit -> unit;
  chunk : string -> unit;
  finish : src:int -> digest:string -> size:int -> Message.t -> response;
  abort : unit -> unit;
}

type resource =
  | Plain of handler
  | Upload of sink
  | Cached of { handler : handler; max_age_s : int }

(* A fresh cached GET response: the response itself (replies that add
   options to it, Observe or Block2, start from there), its options and
   payload encoded once, and its expiry on the server's clock. *)
type cache_entry = { ce_response : response; ce_tail : bytes; ce_expires : float }

type route = {
  path : string;
  mutable resource : resource;
  mutable cached : cache_entry option;
}

let upload_capacity = 8
let download_capacity = 8
let observer_capacity = 128

(* State a peer opens and may abandon: partial uploads, pending Block2
   downloads, observe registrations.  Entries keyed by (source, path,
   tag) in slots grown on demand up to a fixed capacity; when every
   slot is taken the oldest entry is evicted, so the table never grows
   with the number of peers, and an unused one costs nothing. *)
module Table = struct
  type 'a entry = {
    src : int;
    path : string;
    tag : string;
    mutable value : 'a;
    age : int; (* insertion order *)
  }

  type 'a t = {
    capacity : int;
    mutable slots : 'a entry option array; (* None: a free slot *)
    mutable clock : int;
    mutable evictions : int;
    metric : Ometrics.counter;
  }

  let create capacity metric =
    { capacity; slots = [||]; clock = 0; evictions = 0; metric }

  let entry t i =
    match t.slots.(i) with Some e -> e | None -> invalid_arg "Table.entry"

  let remove t i = t.slots.(i) <- None

  (* The slot of [src]'s entry for the request's path, or -1. *)
  let rec find_request t ~src v i =
    if i = Array.length t.slots then -1
    else
      match t.slots.(i) with
      | Some e when e.src = src && Message.path_matches v e.path -> i
      | Some _ | None -> find_request t ~src v (i + 1)

  let rec find t ~src ~path ~tag i =
    if i = Array.length t.slots then -1
    else
      match t.slots.(i) with
      | Some e
        when e.src = src && String.equal e.path path && String.equal e.tag tag
        ->
          i
      | Some _ | None -> find t ~src ~path ~tag (i + 1)

  let rec free t i =
    if i = Array.length t.slots then -1
    else if Option.is_none t.slots.(i) then i
    else free t (i + 1)

  let rec oldest t i best =
    if i = Array.length t.slots then best
    else oldest t (i + 1) (if (entry t i).age < (entry t best).age then i else best)

  (* Store an entry in a free slot, a new one (doubling the slots up to
     the capacity), or the oldest entry's; returns the slot. *)
  let add t ~src ~path ~tag value =
    let n = Array.length t.slots in
    let i =
      match free t 0 with
      | -1 when n < t.capacity ->
          t.slots <-
            Array.append t.slots (Array.make (min t.capacity (max 4 (2 * n)) - n) None);
          n
      | -1 ->
          t.evictions <- t.evictions + 1;
          if Obs.enabled () then Ometrics.incr t.metric;
          oldest t 0 0
      | i -> i
    in
    t.slots.(i) <- Some { src; path; tag; value; age = t.clock };
    t.clock <- t.clock + 1;
    i

  (* The entries for [path], newest first. *)
  let on_path t path =
    Array.fold_left
      (fun acc -> function
        | Some e when String.equal e.path path -> e :: acc
        | Some _ | None -> acc)
      [] t.slots
    |> List.sort (fun a b -> compare b.age a.age)
end

type t = {
  addr : int;
  mutable send : dst:int -> bytes -> unit;
  mutable routes : route list; (* registration order *)
  mutable requests_served : int;
  mutable not_found : int;
  (* message-id deduplication: CON retransmissions of a request already
     answered get the same encoded reply again.  A FIFO ring of the last
     [Array.length dedupe_keys] replies, keyed by (src, message id)
     packed into one int; a full ring evicts its oldest entry. *)
  dedupe_keys : int array;
  dedupe_replies : bytes array;
  mutable dedupe_used : int;
  mutable dedupe_next : int; (* the slot the next reply takes *)
  mutable dedupe_evictions : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable now : unit -> float; (* seconds, for Max-Age *)
  (* RFC 7959: Block1 reassembly and the full payload of a Block2
     download, per (src, path); RFC 7641 registrations per (src, path,
     token) *)
  uploads : Block.assembly Table.t;
  downloads : string Table.t;
  observers : unit Table.t;
  mutable observe_seq : int;
}

let create_detached ?(dedupe_capacity = 64) ~addr ~send () =
  let dedupe_capacity = max 1 dedupe_capacity in
  {
    addr;
    send;
    routes = [];
    requests_served = 0;
    not_found = 0;
    dedupe_keys = Array.make dedupe_capacity 0;
    dedupe_replies = Array.make dedupe_capacity Bytes.empty;
    dedupe_used = 0;
    dedupe_next = 0;
    dedupe_evictions = 0;
    cache_hits = 0;
    cache_misses = 0;
    now = (fun () -> Obs.now_ns () *. 1e-9);
    uploads = Table.create upload_capacity m_upload_evictions;
    downloads = Table.create download_capacity m_download_evictions;
    observers = Table.create observer_capacity m_observer_evictions;
    observe_seq = 2;
  }

(* --- the dedupe ring --- *)

let dedupe_key ~src mid = (src lsl 16) lor mid

let rec dedupe_find t key i =
  if i = t.dedupe_used then -1
  else if t.dedupe_keys.(i) = key then i
  else dedupe_find t key (i + 1)

let remember_reply t key reply =
  let slot = t.dedupe_next in
  if t.dedupe_used < Array.length t.dedupe_keys then
    t.dedupe_used <- t.dedupe_used + 1
  else begin
    t.dedupe_evictions <- t.dedupe_evictions + 1;
    if Obs.enabled () then Ometrics.incr m_dedupe_evictions
  end;
  t.dedupe_keys.(slot) <- key;
  t.dedupe_replies.(slot) <- reply;
  t.dedupe_next <- (slot + 1) mod Array.length t.dedupe_keys

(* --- routes --- *)

let rec route_for v = function
  | [] -> raise_notrace Not_found
  | r :: rest -> if Message.path_matches v r.path then r else route_for v rest

let rec route_named path = function
  | [] -> raise_notrace Not_found
  | r :: rest -> if String.equal r.path path then r else route_named path rest

(* --- request handling --- *)

let trace path outcome response =
  if Obs.enabled () then
    Obs.event (fun () ->
        Otrace.Coap_request
          { path; code = Message.code_to_string response.code; outcome });
  response

(* Shared accounting for every handler run: request metrics, the trace
   event, an exception turned into 5.00 (aborting an upload sink). *)
let run_resource t route run =
  t.requests_served <- t.requests_served + 1;
  if Obs.enabled () then Ometrics.incr m_requests;
  match run () with
  | response -> trace route.path "ok" response
  | exception _ ->
      (match route.resource with
      | Upload sink -> ( try sink.abort () with _ -> ())
      | Plain _ | Cached _ -> ());
      if Obs.enabled () then Ometrics.incr m_handler_errors;
      trace route.path "handler_error" (respond Message.code_internal_error)

let not_found t request =
  t.not_found <- t.not_found + 1;
  if Obs.enabled () then begin
    Ometrics.incr m_requests;
    Ometrics.incr m_not_found;
    Obs.event (fun () ->
        Otrace.Coap_request
          {
            path = Message.path_string request;
            code = "4.04";
            outcome = "not_found";
          })
  end;
  respond Message.code_not_found

(* The route's fresh cache entry, if any (the [Some] already stored). *)
let fresh t route =
  match route.cached with
  | Some entry when entry.ce_expires > t.now () -> route.cached
  | Some _ | None -> None

let count_hit t =
  t.cache_hits <- t.cache_hits + 1;
  t.requests_served <- t.requests_served + 1;
  if Obs.enabled () then begin
    Ometrics.incr m_requests;
    Ometrics.incr m_cache_hits
  end

(* Store a 2.05 with its ETag and Max-Age stamped on, and its options
   and payload encoded once for {!Message.reply_tail}. *)
let fill_cache t route ~max_age_s response =
  let etag = String.sub (Femto_crypto.Crypto.sha256 response.payload) 0 8 in
  let response =
    { response with
      options =
        Message.etag_option etag
        :: Message.max_age_option max_age_s
        :: response.options }
  in
  let encoded =
    Message.encode
      (Message.make ~options:response.options ~payload:response.payload
         ~code:response.code ~message_id:0 ())
  in
  route.cached <-
    Some
      {
        ce_response = response;
        ce_tail = Bytes.sub encoded 4 (Bytes.length encoded - 4);
        ce_expires = t.now () +. float_of_int max_age_s;
      };
  response

(* The idempotent-GET path: a fresh cache entry answers without
   touching the handler; a miss (or expiry) runs the handler once and
   stores a 2.05. *)
let run_cached t ~src route ~handler ~max_age_s request =
  if request.Message.code <> Message.code_get then
    run_resource t route (fun () -> handler ~src request)
  else
    match fresh t route with
    | Some entry ->
        count_hit t;
        entry.ce_response
    | None ->
        t.cache_misses <- t.cache_misses + 1;
        if Obs.enabled () then Ometrics.incr m_cache_misses;
        let response = run_resource t route (fun () -> handler ~src request) in
        if response.code = Message.code_content then
          fill_cache t route ~max_age_s response
        else response

let run_handler t ~src route request =
  match route.resource with
  | Plain handler -> run_resource t route (fun () -> handler ~src request)
  | Cached { handler; max_age_s } ->
      run_cached t ~src route ~handler ~max_age_s request
  | Upload sink ->
      (* single-datagram upload (no Block1): drive the sink in one shot *)
      let payload = request.Message.payload in
      run_resource t route (fun () ->
          sink.start ();
          sink.chunk payload;
          sink.finish ~src
            ~digest:(Femto_crypto.Crypto.sha256 payload)
            ~size:(String.length payload) request)

(* The handler for the request's path, or 4.04. *)
let run_request t ~src v request =
  match route_for v t.routes with
  | route -> run_handler t ~src route request
  | exception Not_found -> not_found t request

let reply_to v response =
  Message.reply v ~code:response.code ~options:response.options
    ~payload:response.payload

let block2_option ~num ~more ~size =
  Block.to_option ~number:Block.opt_block2 (Block.make ~num ~more ~size)

let continue_reply v =
  Message.reply v ~code:Message.code_continue
    ~options:[ (Block.opt_block1, Message.uint_value v.Message.block1) ]
    ~payload:""

let abort_upload t sink slot v code =
  Option.iter (fun s -> try s.abort () with _ -> ()) sink;
  Table.remove t.uploads slot;
  reply_to v (respond code)

let sink_failed t sink slot v =
  if Obs.enabled () then Ometrics.incr m_handler_errors;
  abort_upload t sink slot v Message.code_internal_error

let feed_block t ~src v route sink slot =
  let value = v.Message.block1 in
  let block =
    { Block.num = value lsr 4; more = value land 8 <> 0; szx = value land 7 }
  in
  let assembly = (Table.entry t.uploads slot).value in
  let chunk = Message.view_payload v in
  match Block.feed assembly block chunk with
  | Block.Continue -> (
      match sink with
      | None -> continue_reply v
      | Some s -> (
          match s.chunk chunk with
          | () -> continue_reply v
          | exception _ -> sink_failed t sink slot v))
  | Block.Complete payload ->
      Table.remove t.uploads slot;
      let full = { (Message.message v) with Message.payload } in
      let response =
        match (route, sink) with
        | Some route, Some s ->
            run_resource t route (fun () ->
                s.chunk chunk;
                let digest =
                  match Block.finalize_digest assembly with
                  | Some d -> d
                  | None -> Femto_crypto.Crypto.sha256 payload
                in
                s.finish ~src ~digest ~size:(String.length payload) full)
        | Some route, None -> run_handler t ~src route full
        | None, _ -> not_found t full
      in
      reply_to v
        { response with
          options = Block.to_option ~number:Block.opt_block1 block :: response.options }
  | Block.Out_of_order ->
      abort_upload t sink slot v Message.code_request_entity_incomplete

(* Block1: accumulate upload blocks.  For Plain resources the handler
   only runs when the final block arrives, with the reassembled payload;
   for Upload sinks every chunk is pushed as it lands (streaming flash
   writes) with an incremental SHA-256 running alongside, and [finish]
   fires together with the last block — digest and storage writes
   complete with the transfer.  A 2.31 continue is written straight
   from the request.  Block 0, or a block with no transfer in progress,
   opens a fresh assembly. *)
let handle_block1 t ~src v route =
  let num = v.Message.block1 lsr 4 in
  let sink =
    match route with Some { resource = Upload s; _ } -> Some s | _ -> None
  in
  let slot = Table.find_request t.uploads ~src v 0 in
  if slot >= 0 && num > 0 then feed_block t ~src v route sink slot
  else begin
    let assembly = Block.create_assembly ~digest:(Option.is_some sink) () in
    let slot =
      if slot >= 0 then begin
        (Table.entry t.uploads slot).value <- assembly;
        slot
      end
      else Table.add t.uploads ~src ~path:(Message.view_path v) ~tag:"" assembly
    in
    match sink with
    | Some s when num = 0 -> (
        match s.start () with
        | () -> feed_block t ~src v route sink slot
        | exception _ -> sink_failed t sink slot v)
    | Some _ | None -> feed_block t ~src v route sink slot
  end

(* Block [num] of [full]; the download is dropped with its last block. *)
let block2_slice t ~src v ~num full options =
  match Block.slice ~num ~size:Block.chunk_size full with
  | None -> respond Message.code_bad_request
  | Some (chunk, more) ->
      (if not more then
         let slot = Table.find_request t.downloads ~src v 0 in
         if slot >= 0 then Table.remove t.downloads slot);
      respond
        ~options:
          (block2_option ~num ~more ~size:Block.chunk_size
          :: List.filter (fun (n, _) -> n <> Block.opt_block2) options)
        ~payload:chunk Message.code_content

let keep_download t ~src v payload =
  let slot = Table.find_request t.downloads ~src v 0 in
  if slot >= 0 then (Table.entry t.downloads slot).value <- payload
  else
    ignore (Table.add t.downloads ~src ~path:(Message.view_path v) ~tag:"" payload)

(* Block2: slice a large response; the handler runs once (block 0) and
   the full payload is kept for the follow-up block requests. *)
let handle_block2 t ~src v =
  let num = v.Message.block2 lsr 4 in
  if num = 0 then begin
    let response = run_request t ~src v (Message.message v) in
    if response.code <> Message.code_content then response
    else begin
      keep_download t ~src v response.payload;
      block2_slice t ~src v ~num response.payload response.options
    end
  end
  else
    match Table.find_request t.downloads ~src v 0 with
    | -1 -> respond Message.code_request_entity_incomplete
    | slot -> block2_slice t ~src v ~num (Table.entry t.downloads slot).value []

(* RFC 7641: register/deregister the observe relationship carried by a
   GET; the response to a registration echoes an Observe option. *)
let handle_observe t ~src v =
  if Message.view_code v <> Message.code_to_int Message.code_get then
    `Not_observe
  else
    match v.Message.observe_value with
    | 0 ->
        let path = Message.view_path v and tag = Message.view_token v in
        if Table.find t.observers ~src ~path ~tag 0 < 0 then
          ignore (Table.add t.observers ~src ~path ~tag ());
        `Registered
    | 1 ->
        let path = Message.view_path v and tag = Message.view_token v in
        let slot = Table.find t.observers ~src ~path ~tag 0 in
        if slot >= 0 then Table.remove t.observers slot;
        `Deregistered
    | _ -> `Not_observe

let dispatch t ~src v route =
  let observe_status = handle_observe t ~src v in
  let request = Message.message v in
  let response =
    match route with
    | Some route -> run_handler t ~src route request
    | None -> not_found t request
  in
  let response =
    match observe_status with
    | `Registered when response.code = Message.code_content ->
        { response with options = Message.observe_option 1 :: response.options }
    | `Registered | `Deregistered | `Not_observe -> response
  in
  (* unsolicited large responses switch to Block2 automatically *)
  if
    String.length response.payload > Block.chunk_size
    && response.code = Message.code_content
  then begin
    keep_download t ~src v response.payload;
    match Block.slice ~num:0 ~size:Block.chunk_size response.payload with
    | Some (chunk, more) ->
        { response with
          payload = chunk;
          options =
            block2_option ~num:0 ~more ~size:Block.chunk_size
            :: response.options }
    | None -> response
  end
  else response

(* The fresh entry that answers a plain GET of a cached route, when it
   fits one block: the reply is then the request's header and token in
   front of the stored tail, with no handler, no decode and no encode. *)
let cached_entry t v route =
  match route.resource with
  | Cached _
    when Message.view_code v = Message.code_to_int Message.code_get
         && v.Message.observe_value < 0 -> (
      match fresh t route with
      | Some entry as hit
        when String.length entry.ce_response.payload <= Block.chunk_size ->
          hit
      | Some _ | None -> None)
  | Plain _ | Upload _ | Cached _ -> None

let reply_for t ~src v =
  if v.Message.block1 >= 0 then
    handle_block1 t ~src v
      (match route_for v t.routes with
      | route -> Some route
      | exception Not_found -> None)
  else if v.Message.block2 >= 0 then reply_to v (handle_block2 t ~src v)
  else
    match route_for v t.routes with
    | exception Not_found -> reply_to v (dispatch t ~src v None)
    | route -> (
        match cached_entry t v route with
        | Some entry ->
            count_hit t;
            Message.reply_tail v
              ~code:(Message.code_to_int entry.ce_response.code)
              entry.ce_tail
        | None -> reply_to v (dispatch t ~src v (Some route)))

let handle t ~src v =
  if Message.view_type_code v < 2 (* CON or NON: a request *) then begin
    let key = dedupe_key ~src (Message.view_message_id v) in
    let slot = dedupe_find t key 0 in
    if slot >= 0 then begin
      if Obs.enabled () then Ometrics.incr m_retransmissions;
      t.send ~dst:src t.dedupe_replies.(slot)
    end
    else begin
      let reply = reply_for t ~src v in
      remember_reply t key reply;
      t.send ~dst:src reply
    end
  end

(* Transport entry point: one datagram in, zero or one reply out through
   [t.send].  Malformed input is dropped silently, as RFC 7252 wants for
   unparseable messages. *)
let handle_datagram_sub t ~src data ~off ~len =
  match Message.scan data ~off ~len with
  | exception Message.Parse_error _ -> ()
  | v -> handle t ~src v

let handle_datagram t ~src data =
  handle_datagram_sub t ~src data ~off:0 ~len:(Bytes.length data)

(* A datagram longer than {!Message.max_size}, of which only the first
   bytes arrived: a request is answered 4.13 with Size1 set to the bound
   (RFC 7959 §2.9.3), built from its header alone; the rest is never
   parsed.  Anything that is not a request is dropped. *)
let reject_oversize t ~src data =
  if Bytes.length data >= 4 then begin
    let b0 = Bytes.get_uint8 data 0 and code = Bytes.get_uint8 data 1 in
    let tkl = b0 land 0x0f and kind = (b0 lsr 4) land 0x3 in
    if b0 lsr 6 = 1 && tkl <= 8 && kind < 2 && code > 0 && code < 32 then
      t.send ~dst:src
        (Message.encode
           (Message.make
              ~msg_type:
                (if kind = 0 then Message.Acknowledgement
                 else Message.Non_confirmable)
              ~token:(Bytes.sub_string data 4 tkl)
              ~options:
                [ (Message.opt_size1, Message.uint_value Message.max_size) ]
              ~code:Message.code_request_entity_too_large
              ~message_id:(Bytes.get_uint16_be data 2)
              ()))
  end

let create ?dedupe_capacity ~network ~addr () =
  let t =
    create_detached ?dedupe_capacity ~addr
      ~send:(fun ~dst:_ _ -> ())
      ()
  in
  t.send <- (fun ~dst data -> Network.send network ~src:addr ~dst data);
  let node = Network.add_node network ~addr in
  Network.set_receiver node (fun ~src datagram ->
      handle_datagram t ~src datagram);
  t

let set_send t send = t.send <- send
let send_fn t = t.send
let set_time_source t now = t.now <- now

(* Registering a path again replaces its resource and drops its cached
   response. *)
let add_route t path resource =
  match route_named path t.routes with
  | route ->
      route.resource <- resource;
      route.cached <- None
  | exception Not_found ->
      t.routes <- t.routes @ [ { path; resource; cached = None } ]

let register t ~path handler = add_route t path (Plain handler)

let register_cached ?(max_age_s = 60) t ~path handler =
  add_route t path (Cached { handler; max_age_s })

let register_upload t ~path sink = add_route t path (Upload sink)

let invalidate t ~path =
  match route_named path t.routes with
  | route -> route.cached <- None
  | exception Not_found -> ()

let addr t = t.addr
let requests_served t = t.requests_served
let dedupe_evictions t = t.dedupe_evictions
let cache_stats t = (t.cache_hits, t.cache_misses)

type evictions = { dedupe : int; uploads : int; downloads : int; observers : int }

let evictions (t : t) : evictions =
  {
    dedupe = t.dedupe_evictions;
    uploads = t.uploads.Table.evictions;
    downloads = t.downloads.Table.evictions;
    observers = t.observers.Table.evictions;
  }

(* Insert [token] into a notification encoded with an empty token: the
   header's TKL nibble is patched and the token bytes spliced in after
   the 4-byte header — cheap blits, no per-observer re-encode. *)
let splice_token base ~token =
  let tkl = String.length token in
  if tkl = 0 then base
  else begin
    let len = Bytes.length base in
    let out = Bytes.create (len + tkl) in
    Bytes.blit base 0 out 0 4;
    Bytes.set out 0 (Char.chr (Char.code (Bytes.get base 0) lor tkl));
    Bytes.blit_string token 0 out 4 tkl;
    Bytes.blit base 4 out (4 + tkl) (len - 4);
    out
  end

(* [notify t ~path] re-evaluates the resource once, encodes the
   notification once (empty token), and fans it out to every registered
   observer with only the per-observer token spliced in — RFC 7641
   server-side, one handler run and one encode for N sends. *)
let notify (t : t) ~path =
  match Table.on_path t.observers path with
  | [] -> 0
  | newest :: _ as observers ->
      let count = List.length observers in
      t.observe_seq <- t.observe_seq + 1;
      invalidate t ~path; (* the resource changed: cached reads are stale *)
      if Obs.enabled () then begin
        Ometrics.add m_notifications count;
        Ometrics.incr m_notify_encodes
      end;
      let synthetic =
        Message.make
          ~options:(Message.options_of_path path)
          ~code:Message.code_get ~message_id:0 ()
      in
      let response =
        match route_named path t.routes with
        | route -> run_handler t ~src:newest.Table.src route synthetic
        | exception Not_found -> not_found t synthetic
      in
      let base =
        Message.encode
          (Message.make ~msg_type:Message.Non_confirmable
             ~options:(Message.observe_option t.observe_seq :: response.options)
             ~payload:response.payload ~code:response.code
             ~message_id:(0x8000 lor t.observe_seq land 0xFFFF) ())
      in
      List.iter
        (fun (o : unit Table.entry) ->
          t.send ~dst:o.src (splice_token base ~token:o.tag))
        observers;
      count

let observer_count (t : t) ~path = List.length (Table.on_path t.observers path)
