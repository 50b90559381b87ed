(* The per-packet kernel under Rtc, Batch_rtc and Scheduler (see .mli).
   Telemetry hooks match on [telemetry] in place rather than through a
   closure, so the untraced per-action path allocates nothing. *)

type t = {
  name : string;
  ctx : Exec_ctx.t;
  cfg : Worker.cfg;
  program : Program.t;
  plane : Fault.t;
  telemetry : Trace.t option;
  quiesce : (unit -> bool) option;
  step : int -> Event.t -> int;
  runners : (Exec_ctx.t -> Nftask.t -> Event.t) array option;
  on_complete : (Nftask.t -> unit) option;
  latencies : Metrics.Collector.t;
  mutable packets : int;
  mutable drops : int;
  mutable wire_bytes : int;
  mutable faulted : int;
  mutable stash_max : int;
}

let no_action name qname = Printf.sprintf "%s: control state %s has no action" name qname

let run ~name ~label ?quiesce ?fault ?telemetry ?on_complete (worker : Worker.t)
    (program : Program.t) body =
  let ctx = Worker.ctx worker in
  let snap = Worker.snapshot worker in
  let plane = match fault with Some p -> p | None -> Fault.create () in
  (match telemetry with Some tr -> Exec_ctx.attach_trace ctx tr | None -> ());
  let spec = Specialize.get program in
  let e =
    {
      name;
      ctx;
      cfg = worker.Worker.cfg;
      program;
      plane;
      telemetry;
      quiesce;
      step =
        (match spec with
        | Some sp -> fun cs ev -> Specialize.step sp cs ev
        | None -> fun cs ev -> Program.step program cs ev);
      runners =
        (match (spec, telemetry) with
        | Some sp, None -> Some (Specialize.runners sp plane ~err:(no_action name))
        | _ -> None);
      on_complete;
      latencies = Metrics.Collector.create ();
      packets = 0;
      drops = 0;
      wire_bytes = 0;
      faulted = 0;
      stash_max = 0;
    }
  in
  let switches =
    Fun.protect
      ~finally:(fun () ->
        match telemetry with Some _ -> Exec_ctx.detach_trace ctx | None -> ())
      (fun () -> body e)
  in
  Worker.finish
    ?latency:(Metrics.Collector.summarize e.latencies)
    ~faulted:e.faulted ~stash_max:e.stash_max ~faults:(Fault.counts plane) ~degraded:(Fault.degraded plane)
    worker snap ~label ~packets:e.packets ~drops:e.drops ~wire_bytes:e.wire_bytes
    ~switches

let step e cs ev = e.step cs ev
let telemetry e = e.telemetry
let want_pause e = match e.quiesce with Some q -> q () | None -> false
let stashed e n = if n > e.stash_max then e.stash_max <- n

let is_faulted (task : Nftask.t) =
  match task.Nftask.event with Event.Faulted _ -> true | _ -> false

let load e ~pulled_at (task : Nftask.t) (item : Workload.item) =
  let ctx = e.ctx in
  Nftask.load task ~cs:(Program.start e.program) ?packet:item.Workload.packet
    ~aux:item.Workload.aux ~flow_hint:item.Workload.flow_hint ();
  task.Nftask.start_clock <- ctx.Exec_ctx.clock;
  task.Nftask.pulled_at <- pulled_at;
  Exec_ctx.compute ctx ~cycles:e.cfg.Worker.rx_tx_cycles ~instrs:e.cfg.Worker.rx_tx_instrs;
  (match e.telemetry with
  | Some tr ->
      Trace.on_pull tr ~ts:task.Nftask.start_clock ~dur:e.cfg.Worker.rx_tx_cycles
        ~task:task.Nftask.id ~flow:task.Nftask.flow_hint;
      Trace.on_parse tr ~ts:ctx.Exec_ctx.clock ~task:task.Nftask.id
  | None -> ());
  match Fault.on_load e.plane ~mem:ctx.Exec_ctx.mem ~now:ctx.Exec_ctx.clock task with
  | Some r -> task.Nftask.event <- Event.Faulted (Fault.reason_to_key r)
  | None -> ()

let has_action e cs = Option.is_some (Program.info e.program cs).Program.action

let act e (task : Nftask.t) =
  let ctx = e.ctx in
  match e.runners with
  | Some r -> task.Nftask.event <- r.(task.Nftask.cs) ctx task
  | None -> (
      let info = Program.info e.program task.Nftask.cs in
      match info.Program.action with
      | None -> invalid_arg (no_action e.name info.Program.qname)
      | Some action ->
          (match e.telemetry with
          | Some tr ->
              Trace.on_action_start tr ~ts:ctx.Exec_ctx.clock ~nf:info.Program.inst
                ~cs:info.Program.qname
          | None -> ());
          task.Nftask.event <- Fault.guard e.plane ~nf:info.Program.inst action ctx task;
          match e.telemetry with
          | Some tr -> Trace.on_action_end tr ~ts:ctx.Exec_ctx.clock
          | None -> ())

let complete e (task : Nftask.t) =
  let now = e.ctx.Exec_ctx.clock in
  e.packets <- e.packets + 1;
  (match
     Fault.complete e.plane ~flow:task.Nftask.flow_hint
       ~faulted:(Fault.reason_of_event task.Nftask.event)
   with
  | Some r ->
      e.faulted <- e.faulted + 1;
      task.Nftask.event <- Event.Faulted (Fault.reason_to_key r)
  | None ->
      if Event.is_drop task.Nftask.event then e.drops <- e.drops + 1
      else (
        match task.Nftask.packet with
        | Some p -> e.wire_bytes <- e.wire_bytes + p.Netcore.Packet.wire_len
        | None -> ());
      Metrics.Collector.record e.latencies (now - task.Nftask.pulled_at));
  (match e.telemetry with
  | Some tr ->
      Trace.on_complete tr ~ts:now ~task:task.Nftask.id
        ~note:(Event.to_key task.Nftask.event) ~latency:(now - task.Nftask.pulled_at)
  | None -> ());
  (match e.on_complete with Some f -> f task | None -> ());
  Nftask.retire task
