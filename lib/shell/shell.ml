(* Device shell, in the spirit of RIOT's `shell` module.

   A line-oriented command interpreter over the device composition: the
   local-console counterpart of the CoAP management endpoints.  Commands
   are pure string -> string so the shell is equally usable from a UART
   simulator, tests, or an interactive loop.

     > help
     > ps                      threads and scheduler state
     > fc list                 containers, hooks, stats
     > fc run <hook-uuid>      fire a hook manually
     > fc disasm <hook-uuid>   disassemble an installed container
     > kv get <key>            read the global key-value store
     > kv set <key> <value>
     > suit seq                rollback counter
     > slots                   flash slot inventory
     > free                    RAM accounting
     > uptime                  virtual clock *)

module Device = Femto_device.Device
module Engine = Femto_core.Engine
module Container = Femto_core.Container
module Kvstore = Femto_core.Kvstore
module Kernel = Femto_rtos.Kernel
module Slots = Femto_flash.Slots

type t = { device : Device.t; mutable history : string list }

let create device = { device; history = [] }

let lines fmt = Printf.sprintf fmt

let help () =
  String.concat "\n"
    [
      "help                 this text";
      "ps                   scheduler state";
      "fc list              installed containers";
      "fc run <hook-uuid>   trigger a hook";
      "fc disasm <hook-uuid> disassemble a container";
      "kv get <key>         read the global store";
      "kv set <key> <value> write the global store";
      "suit seq             SUIT rollback counter";
      "slots                flash slot inventory";
      "free                 RAM accounting";
      "uptime               virtual clock";
    ]

let ps t =
  let kernel = Device.kernel t.device in
  lines "tick: %Ld cycles | context switches: %d | current tid: %d"
    (Kernel.now kernel)
    (Kernel.context_switches kernel)
    (Kernel.current_tid kernel)

let fc_list t =
  let engine = Device.engine t.device in
  let rows =
    List.concat_map
      (fun hook ->
        List.map
          (fun container ->
            lines "%-40s %-20s runs=%-5d faults=%-3d %4d B"
              (Femto_core.Hook.uuid hook)
              (Container.name container)
              (Container.executions container)
              (Container.faults container)
              (Container.bytecode_size container))
          (Femto_core.Hook.attached hook))
      (Engine.hooks engine)
  in
  if rows = [] then "(no containers attached)" else String.concat "\n" rows

let fc_run t uuid =
  match Engine.trigger_by_uuid (Device.engine t.device) ~uuid () with
  | Error e -> Engine.attach_error_to_string e
  | Ok [] -> "hook fired: no containers attached"
  | Ok reports ->
      String.concat "\n"
        (List.map
           (fun report ->
             match report.Engine.result with
             | Ok v ->
                 lines "%s -> %Ld (%d cycles)"
                   (Container.name report.Engine.container)
                   v report.Engine.vm_cycles
             | Error fault ->
                 lines "%s -> FAULT: %s"
                   (Container.name report.Engine.container)
                   (Femto_vm.Fault.to_string fault))
           reports)

let fc_disasm t uuid =
  match Engine.find_hook (Device.engine t.device) uuid with
  | None -> lines "no hook %s" uuid
  | Some hook -> (
      match Femto_core.Hook.attached hook with
      | [] -> "(hook has no containers)"
      | containers ->
          String.concat "\n--\n"
            (List.map
               (fun container ->
                 Femto_ebpf.Disasm.to_string
                   ~helper_name:(fun id ->
                     List.find_map
                       (fun (name, i) -> if i = id then Some name else None)
                       Femto_core.Syscall.standard_names)
                   (Container.program container))
               containers))

let kv_get t key =
  match Int32.of_string_opt key with
  | None -> "usage: kv get <numeric key>"
  | Some key ->
      lines "%ld = %Ld" key
        (Kvstore.fetch (Engine.global_store (Device.engine t.device)) key)

let kv_set t key value =
  match (Int32.of_string_opt key, Int64.of_string_opt value) with
  | Some key, Some value -> (
      match
        Kvstore.store (Engine.global_store (Device.engine t.device)) key value
      with
      | Ok () -> "ok"
      | Error (`Store_full name) -> lines "store %s is full" name)
  | _ -> "usage: kv set <numeric key> <numeric value>"

let suit_seq t =
  lines "sequence: %Ld (accepted %d, rejected %d)"
    (Device.suit_sequence t.device)
    (Device.suit_accepted t.device)
    (Device.suit_rejected t.device)

let slots t =
  let slots = Device.slots t.device in
  let rows =
    List.map
      (fun (slot, image) ->
        lines "slot %d: seq=%Ld hook=%s %d B" slot image.Slots.sequence
          image.Slots.hook_uuid
          (String.length image.Slots.payload))
      (Slots.scan slots)
  in
  let used = List.length rows in
  String.concat "\n"
    (rows @ [ lines "%d/%d slots used, %d B capacity each" used
                (Slots.count slots) (Slots.capacity slots) ])

let free t =
  let engine = Device.engine t.device in
  let container_ram =
    List.fold_left
      (fun acc container ->
        acc
        +
        match Container.instance container with
        | Some (Container.Fc_instance vm) -> Femto_vm.Vm.ram_bytes vm
        | Some (Container.Certfc_instance vm) -> Femto_certfc.Interp.ram_bytes vm
        | None -> 0)
      0
      (Device.containers t.device)
  in
  let store_ram =
    Kvstore.ram_bytes (Engine.global_store engine)
    + List.fold_left
        (fun acc tenant -> acc + Kvstore.ram_bytes (Femto_core.Tenant.store tenant))
        0 (Engine.tenants engine)
  in
  lines "container instances: %d B | key-value stores: %d B" container_ram
    store_ram

let uptime t =
  let kernel = Device.kernel t.device in
  lines "%.3f ms virtual (%Ld cycles @%d MHz)"
    (Kernel.now_us kernel /. 1000.0)
    (Kernel.now kernel)
    (Femto_rtos.Clock.frequency_hz (Kernel.clock kernel) / 1_000_000)

(* [exec t line] runs one command line and returns its output. *)
let exec t line =
  t.history <- line :: t.history;
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  match words with
  | [] -> ""
  | [ "help" ] -> help ()
  | [ "ps" ] -> ps t
  | [ "fc"; "list" ] -> fc_list t
  | [ "fc"; "run"; uuid ] -> fc_run t uuid
  | [ "fc"; "disasm"; uuid ] -> fc_disasm t uuid
  | [ "kv"; "get"; key ] -> kv_get t key
  | [ "kv"; "set"; key; value ] -> kv_set t key value
  | [ "suit"; "seq" ] -> suit_seq t
  | [ "slots" ] -> slots t
  | [ "free" ] -> free t
  | [ "uptime" ] -> uptime t
  | [ "history" ] -> String.concat "\n" (List.rev t.history)
  | command :: _ -> lines "unknown command %S (try 'help')" command

(* [script t input] runs a newline-separated command script, echoing each
   command with its output — the form used by the example and tests. *)
let script t input =
  String.split_on_char '\n' input
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line -> Printf.sprintf "> %s\n%s" (String.trim line) (exec t line))
  |> String.concat "\n"
