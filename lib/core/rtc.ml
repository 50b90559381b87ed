(* The per-packet run-to-completion baseline (§II-B): the execution model of
   BESS / FastClick / L25GC / Free5GC that the paper compares against.

   Each packet is processed start-to-finish with no yielding: every state
   access demand-fetches and the core stalls for the full latency of
   whatever level serves it. The same compiled {!Program} is executed —
   only the execution model differs — so comparisons isolate exactly the
   paper's variable. Prefetch policies are ignored. The slot policy is one
   task drained to completion; the per-packet lifecycle is {!Engine}'s. *)

let run ?label ?quiesce ?fault ?telemetry ?on_complete (worker : Worker.t)
    (program : Program.t) (source : Workload.source) =
  let label =
    Option.value label ~default:(Printf.sprintf "%s/rtc" (Program.name program))
  in
  Engine.run ~name:"Rtc" ~label ?quiesce ?fault ?telemetry ?on_complete worker program
  @@ fun e ->
  let ctx = Worker.ctx worker in
  let dispatch = worker.Worker.cfg.Worker.rtc_dispatch_cycles in
  let task = Nftask.create 0 in
  let rec step () =
    if not (Engine.is_faulted task) (* quarantined mid-run; stop executing *) then begin
      let next = Engine.step e task.Nftask.cs task.Nftask.event in
      if not (Program.is_done program next) then begin
        task.Nftask.cs <- next;
        Exec_ctx.compute ctx ~cycles:dispatch ~instrs:2;
        Engine.act e task;
        step ()
      end
    end
  in
  (* Every RTC pull boundary is quiescent (the previous packet completed),
     so the pause hook simply stops the drain. *)
  let rec drain () =
    if not (Engine.want_pause e) then
      match source () with
      | None -> ()
      | Some item ->
          Engine.load e ~pulled_at:ctx.Exec_ctx.clock task item;
          step ();
          Engine.complete e task;
          drain ()
  in
  drain ();
  0
