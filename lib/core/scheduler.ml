(* The interleaved function-stream executor — Algorithm 1 of the paper.

   A fixed set of NFTasks is multiplexed round-robin on one core. The Fetch
   step (run right after each transition) resolves the next action's
   NFState targets and issues their prefetches immediately, so the fills
   overlap with the execution of the other function streams. On a visit,
   the scheduler checks the task's P-state (isPrefetched, Algorithm 1 line
   7): if a fill is still in flight it re-issues anything dropped or
   evicted and switches to the next task; otherwise it executes the action,
   takes the FSM transition and fetches for the successor state.

   Finished NFTasks are re-initialised with new work in place (line 13), so
   the pipeline stays full until the source drains. The per-packet
   lifecycle is {!Engine}'s; this file keeps the slot policy: the stash,
   Fetch and the visit order. *)

(* Task-selection policy. The paper's scheduler is round-robin; Ready_first
   is a design-space variant that scans for a task whose P-state allows
   immediate execution, trading a (charged) scan for fewer wasted visits. *)
type policy = Round_robin | Ready_first

(* Stashed flows ready to be taken, ordered by the arrival seq of their
   head item (seqs are distinct). *)
module Ready = Set.Make (struct
  type t = int * int

  let compare (a, _) (b, _) = Int.compare a b
end)

(* Per-flow tables keyed by the flow hint: an int hash, where the generic
   table would run the polymorphic [caml_hash] on every lookup. Nothing
   iterates them, so bucket order is unobservable. *)
module Flow_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash fh = fh land max_int
end)

let run ?label ?(policy = Round_robin) ?(prefetch_distance = 1) ?quiesce ?fault
    ?telemetry ?on_complete (worker : Worker.t) (program : Program.t) ~n_tasks
    (source : Workload.source) =
  if n_tasks <= 0 then invalid_arg "Scheduler.run: n_tasks must be positive";
  if prefetch_distance < 0 then
    invalid_arg "Scheduler.run: prefetch_distance must be >= 0";
  let label =
    Option.value label
      ~default:(Printf.sprintf "%s/interleaved-%d" (Program.name program) n_tasks)
  in
  Engine.run ~name:"Scheduler" ~label ?quiesce ?fault ?telemetry ?on_complete worker
    program
  @@ fun e ->
  let ctx = Worker.ctx worker in
  let cfg = worker.Worker.cfg in
  let tasks = Array.init n_tasks Nftask.create in
  let exhausted = ref false in
  (* Quiescent-pause latch: once [quiesce] answers [true] at a pull
     boundary no further source pulls happen — in-flight tasks and the
     stash drain to completion and the run returns with every pulled item
     completed. *)
  let paused = ref false in
  let switches = ref 0 in

  (* Per-flow ordering: two packets of one flow must not be in flight in
     two NFTasks at once (their state mutations would race and could
     complete out of order). Items whose flow is already being processed,
     or has an earlier item stashed, wait in the stash; [inflight] counts
     active tasks per flow.

     The stash is indexed so every operation is O(log n) in its size: a
     per-flow FIFO of (arrival seq, pull clock, item) in [stash], a
     priority queue [ready] of the flows that are idle and have stashed
     items, keyed by the seq of their head item, and the item count
     [stashed]. Taking the minimum of [ready] yields the earliest-arrived
     stashed item whose flow is idle — the item a front-to-back scan of
     the arrival-ordered stash would take. The pull clock travels with the
     item, so its latency counts the stash wait. Bookkeeping charges no
     cycles. *)
  let inflight : int Flow_tbl.t = Flow_tbl.create (4 * n_tasks) in
  let stash : (int * int * Workload.item) Queue.t Flow_tbl.t =
    Flow_tbl.create (4 * n_tasks)
  in
  let ready = ref Ready.empty in
  let stashed = ref 0 in
  let seq = ref 0 in
  let flow_of (item : Workload.item) = item.Workload.flow_hint in
  let mark_inflight fh =
    if fh >= 0 then
      Flow_tbl.replace inflight fh
        (1 + Option.value ~default:0 (Flow_tbl.find_opt inflight fh))
  in
  (* A flow going idle with items stashed becomes takeable. *)
  let clear_inflight fh =
    if fh >= 0 then
      match Flow_tbl.find_opt inflight fh with
      | Some 1 -> (
          Flow_tbl.remove inflight fh;
          match Flow_tbl.find_opt stash fh with
          | Some q ->
              let head, _, _ = Queue.peek q in
              ready := Ready.add (head, fh) !ready
          | None -> ())
      | Some n -> Flow_tbl.replace inflight fh (n - 1)
      | None -> ()
  in
  (* The caller marks the taken item's flow in flight at once, so the
     flow leaves [ready] even when more of its items stay stashed. *)
  let take_stashed () =
    match Ready.min_elt_opt !ready with
    | None -> None
    | Some ((_, fh) as head) ->
        ready := Ready.remove head !ready;
        let q = Flow_tbl.find stash fh in
        let _, pulled_at, item = Queue.pop q in
        if Queue.is_empty q then Flow_tbl.remove stash fh;
        decr stashed;
        Some (pulled_at, item)
  in
  (* Only reached for a flow in flight or already stashed: an idle
     stashed flow is in [ready] already with an older head. *)
  let stash_item fh item =
    let q =
      match Flow_tbl.find_opt stash fh with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Flow_tbl.replace stash fh q;
          q
    in
    Queue.push (!seq, ctx.Exec_ctx.clock, item) q;
    incr seq;
    incr stashed;
    Engine.stashed e !stashed
  in
  (* Backpressure: no pull starts while the stash holds [n_tasks] items —
     one per task slot, so every completion can still refill from the
     stash. A pull loop stops at the same bound, so the stash never
     exceeds it; sources are pull-based, so nothing is lost. *)
  let can_pull () = (not (!exhausted || !paused)) && !stashed < n_tasks in
  let rec pull () =
    match source () with
    | None ->
        exhausted := true;
        None
    | Some item ->
        let fh = flow_of item in
        if fh >= 0 && (Flow_tbl.mem inflight fh || Flow_tbl.mem stash fh) then begin
          stash_item fh item;
          (* Keep pulling: another flow's packet can fill this task. *)
          if can_pull () then pull () else None
        end
        else Some (ctx.Exec_ctx.clock, item)
  in
  let next_item () =
    match take_stashed () with
    | Some _ as taken -> taken
    | None ->
        if not (can_pull ()) then None
        else if Engine.want_pause e then begin
          paused := true;
          None
        end
        else pull ()
  in

  (* Distance >= 2: also issue the resolvable targets of FSM successor
     states, breadth-first up to [prefetch_distance - 1] steps ahead.
     Fire-and-forget — readiness is still tracked only on the current
     state's blocks; targets that resolve differently once the real
     transition happens are mere cache pollution, and the issue cycles are
     charged like any other software prefetch. *)
  let speculate (task : Nftask.t) =
    let seen = Hashtbl.create 8 in
    let frontier = ref (Fsm.successors program.Program.fsm task.Nftask.cs) in
    let depth = ref 1 in
    while !depth < prefetch_distance && !frontier <> [] do
      let next = ref [] in
      List.iter
        (fun cs ->
          if
            (not (Hashtbl.mem seen cs))
            && (not (Program.is_done program cs))
            && cs <> task.Nftask.cs
          then begin
            Hashtbl.add seen cs ();
            let blocks =
              Prefetch.resolve_all (Program.info program cs).Program.prefetch task
            in
            List.iter
              (fun (addr, bytes) ->
                if not (List.mem (addr, bytes) task.Nftask.pending_blocks) then
                  ignore (Exec_ctx.prefetch ctx ~addr ~bytes))
              blocks;
            next := List.rev_append (Fsm.successors program.Program.fsm cs) !next
          end)
        !frontier;
      frontier := !next;
      incr depth
    done
  in

  (* Fetch (F): resolve the prefetch targets of the (new) current control
     state and issue their prefetches right away. Distance 0 issues
     nothing — the action demand-fetches ([P_ready] so the next visit
     executes immediately); distance 1 is the paper's policy. *)
  let fetch (task : Nftask.t) =
    let info = Program.info program task.Nftask.cs in
    let blocks = Prefetch.resolve_all info.Program.prefetch task in
    task.Nftask.pending_blocks <- blocks;
    if prefetch_distance = 0 then task.Nftask.p_state <- Nftask.P_ready
    else begin
      (match blocks with
      | [] -> task.Nftask.p_state <- Nftask.P_ready
      | _ :: _ ->
          Exec_ctx.prefetch_blocks ctx blocks;
          (* If everything is already resident (e.g. packed states fetched
             by an earlier NF of the chain), run on the next visit without
             waiting. *)
          task.Nftask.p_state <-
            (if Exec_ctx.blocks_ready ctx blocks then Nftask.P_ready else Nftask.P_issued));
      if prefetch_distance >= 2 then speculate task
    end
  in

  (* Finish one task: the kernel's completion, per-flow release, and
     immediate re-initialisation with fresh work (Algorithm 1 line 13). *)
  let rec finalize (task : Nftask.t) =
    Engine.complete e task;
    clear_inflight task.Nftask.flow_hint;
    load_new task

  (* Transition (Δ) + Fetch; a task reaching the terminal state is
     finalised. *)
  and transition_and_fetch (task : Nftask.t) =
    let next = Engine.step e task.Nftask.cs task.Nftask.event in
    Exec_ctx.compute ctx ~cycles:cfg.Worker.fetch_cycles ~instrs:cfg.Worker.fetch_instrs;
    if Program.is_done program next then finalize task
    else begin
      task.Nftask.cs <- next;
      fetch task
    end

  and load_new (task : Nftask.t) =
    match next_item () with
    | None -> ()
    | Some (pulled_at, item) ->
        mark_inflight item.Workload.flow_hint;
        Engine.load e ~pulled_at task item;
        (* Quarantined at load: finalise without executing anything (the
           flow is serialised, so completion order is kept). Otherwise the
           initial transition and fetching (Algorithm 1 line 4), driven by
           the "packet" system event. *)
        if Engine.is_faulted task then finalize task else transition_and_fetch task
  in

  (* One scheduler visit (one iteration of Algorithm 1's inner loop). *)
  let visit (task : Nftask.t) =
    if not task.Nftask.active then load_new task
    else begin
      (match Engine.telemetry e with
      | Some tr -> Trace.set_task tr ~task:task.Nftask.id
      | None -> ());
      if
        task.Nftask.p_state = Nftask.P_ready
        || Exec_ctx.blocks_ready ctx task.Nftask.pending_blocks
      then begin
        Engine.act e task;
        if Engine.is_faulted task then finalize task else transition_and_fetch task
      end
      else
        (* Fills dropped (MSHR full) or lines evicted before use: re-issue;
           resident/pending lines are skipped inside the hierarchy, so this
           is cheap and idempotent. *)
        Exec_ctx.prefetch_blocks ctx task.Nftask.pending_blocks
    end
  in

  let any_active () = Array.exists (fun t -> t.Nftask.active) tasks in
  let idx = ref 0 in
  (* Ready_first: advance to the next runnable (or inactive, to refill)
     task, charging one cycle per skipped slot for the scan. Falls back to
     plain round-robin when nothing is ready. *)
  let advance () =
    match policy with
    | Round_robin -> idx := (!idx + 1) mod n_tasks
    | Ready_first ->
        (* An idle slot is only worth visiting when it can actually load
           work; otherwise the scan would keep picking no-op idle slots
           over a waiting task whose dropped prefetch (MSHR starvation)
           needs a re-issuing visit — during the drain phase, or while
           the stash is full, that task would never be visited again and
           the loop would spin forever. *)
        let refillable = lazy (can_pull () || not (Ready.is_empty !ready)) in
        let runnable i =
          let t = tasks.(i) in
          if not t.Nftask.active then Lazy.force refillable
          else
            t.Nftask.p_state = Nftask.P_ready
            || Exec_ctx.blocks_ready ctx t.Nftask.pending_blocks
        in
        let rec scan k skipped =
          if skipped = n_tasks then (!idx + 1) mod n_tasks
          else if runnable k then begin
            Exec_ctx.compute ctx ~cycles:skipped ~instrs:skipped;
            k
          end
          else scan ((k + 1) mod n_tasks) (skipped + 1)
        in
        idx := scan ((!idx + 1) mod n_tasks) 0
  in
  let continue_run = ref true in
  while !continue_run do
    let visited = tasks.(!idx).Nftask.id in
    visit tasks.(!idx);
    let switch_start = ctx.Exec_ctx.clock in
    Exec_ctx.compute ctx ~cycles:cfg.Worker.switch_cycles ~instrs:cfg.Worker.switch_instrs;
    incr switches;
    (match Engine.telemetry e with
    | Some tr ->
        Trace.on_switch tr ~ts:switch_start ~dur:cfg.Worker.switch_cycles ~task:visited;
        Trace.on_occupancy tr ~ts:ctx.Exec_ctx.clock
          ~active:
            (Array.fold_left (fun acc t -> if t.Nftask.active then acc + 1 else acc) 0 tasks)
          ~mshr:(Memsim.Hierarchy.mshr_pending_count ctx.Exec_ctx.mem ~now:ctx.Exec_ctx.clock)
    | None -> ());
    advance ();
    if (!exhausted || !paused) && !stashed = 0 && not (any_active ()) then
      continue_run := false
  done;
  !switches
