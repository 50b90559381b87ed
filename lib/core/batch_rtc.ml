(* Run-to-completion with batched software prefetching — the prior-art
   baseline the paper positions against (§II-C): CuckooSwitch / G-opt style
   batch lookups.

   For each RX batch the executor performs a prefetch pass and then a
   processing pass:
   - prefetch pass: for every packet, run the NF's leading match actions
     far enough to *resolve* the first dependent state address (key
     extraction + first hash), and issue a prefetch for it, plus the packet
     headers;
   - processing pass: run each packet to completion.

   This captures exactly what single-stream batching can and cannot do:
   the first bucket of the first classifier is covered, but every
   control-flow-dependent access after it (second cuckoo bucket, key-store
   line, tree descent, per-flow state, later NFs of an SFC) is a demand
   miss — the control-flow divergence limitation the interleaved
   function-stream model removes. *)

let default_batch = 32

(* Control states whose action resolves the next match address without
   needing any not-yet-prefetched state: the prefix we may pre-run. A
   conservative, structural choice: the entry state (key extraction, needs
   only the packet) and states reached from it by pure-compute actions
   (hash). We identify the prefix as the chain up to the first state whose
   prefetch policy demands Match_addrs — that state's address is what the
   prefix resolved. *)
let prefix_of program =
  let rec walk cs acc depth =
    if depth > 4 then List.rev acc
    else
      let info = Program.info program cs in
      let wants_match =
        List.exists
          (fun t -> match Prefetch.class_of t with `Match_addrs -> true | _ -> false)
          info.Program.prefetch
      in
      if wants_match then List.rev acc
      else
        match info.Program.action with
        | None -> List.rev acc
        | Some _ -> (
            (* Follow the unique expected-success edge if unambiguous. *)
            match Fsm.successors program.Program.fsm cs with
            | [ next ] -> walk next (cs :: acc) (depth + 1)
            | _ -> List.rev (cs :: acc))
  in
  let first = Program.step program (Program.start program) Event.Packet_arrival in
  walk first [] 0

let run ?label ?(batch = default_batch) ?quiesce ?fault ?telemetry ?on_complete
    (worker : Worker.t) (program : Program.t) (source : Workload.source) =
  if batch <= 0 then invalid_arg "Batch_rtc.run: batch must be positive";
  let label =
    Option.value label ~default:(Printf.sprintf "%s/batch-rtc" (Program.name program))
  in
  Engine.run ~name:"Batch_rtc" ~label ?quiesce ?fault ?telemetry ?on_complete worker
    program
  @@ fun e ->
  let ctx = Worker.ctx worker in
  let dispatch = worker.Worker.cfg.Worker.rtc_dispatch_cycles in
  let set_task (task : Nftask.t) =
    match Engine.telemetry e with
    | Some tr -> Trace.set_task tr ~task:task.Nftask.id
    | None -> ()
  in
  let tasks = Array.init batch Nftask.create in
  let prefix = prefix_of program in
  (* Load-time quarantines are only *marked* here; the task is finalised
     by the processing pass, in slot order, so per-flow completion order
     matches the other executors. *)
  let rec fill n =
    if n = batch then n
    else
      match source () with
      | None -> n
      | Some item ->
          Engine.load e tasks.(n) item;
          fill (n + 1)
  in
  let prefetch_pass n =
    for i = 0 to n - 1 do
      let task = tasks.(i) in
      set_task task;
      if not (Engine.is_faulted task) then begin
        (* Packet headers are known: prefetch them. *)
        (match task.Nftask.packet with
        | Some p when p.Netcore.Packet.sim_addr >= 0 ->
            ignore (Exec_ctx.prefetch ctx ~addr:p.Netcore.Packet.sim_addr ~bytes:64)
        | Some _ | None -> ());
        (* Pre-run the pure prefix (key + first hash) to resolve the first
           bucket, then prefetch it. The prefix's compute is charged here;
           the processing pass will not repeat it. *)
        task.Nftask.cs <- Engine.step e (Program.start program) Event.Packet_arrival;
        let rec pre = function
          | cs :: rest when cs = task.Nftask.cs && Engine.has_action e cs ->
              Engine.act e task;
              if not (Engine.is_faulted task) then begin
                task.Nftask.cs <- Engine.step e cs task.Nftask.event;
                Exec_ctx.compute ctx ~cycles:dispatch ~instrs:2;
                pre rest
              end
          | _ -> ()
        in
        pre prefix;
        if not (Engine.is_faulted task) then
          List.iter
            (fun (addr, bytes) -> ignore (Exec_ctx.prefetch ctx ~addr ~bytes))
            task.Nftask.match_addrs
      end
    done
  in
  (* An action-less state ends the task's pass rather than raising. *)
  let rec go (task : Nftask.t) =
    let cs = task.Nftask.cs in
    if
      (not (Engine.is_faulted task))
      && (not (Program.is_done program cs))
      && Engine.has_action e cs
    then begin
      Exec_ctx.compute ctx ~cycles:dispatch ~instrs:2;
      Engine.act e task;
      if not (Engine.is_faulted task) then task.Nftask.cs <- Engine.step e cs task.Nftask.event;
      go task
    end
  in
  let process_pass n =
    for i = 0 to n - 1 do
      let task = tasks.(i) in
      set_task task;
      go task;
      Engine.complete e task
    done
  in
  (* Batch boundaries are quiescent (the previous batch fully completed),
     so the pause hook is polled before each fill. *)
  let rec loop () =
    if not (Engine.want_pause e) then
      let n = fill 0 in
      if n > 0 then begin
        prefetch_pass n;
        process_pass n;
        if n = batch then loop ()
      end
  in
  loop ();
  0
