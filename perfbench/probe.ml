(* Outside-in instrumentation of one core: a wrapper around the workload
   source and the executor's [?on_complete] hook. Both read only public
   fields — the core's [Exec_ctx.clock] at pull and at completion, and
   [Nftask.start_clock] — and never charge simulated cycles, so they cannot
   move a simulated number.

   Per packet it keeps the pull sequence number and pull clock in a ring
   keyed by packet id (ids are process-global and increase in pull order,
   so a ring larger than a round's pulls never collides). *)

open Gunfu

(* What a round records beyond counts: [digest] folds inputs and per-flow
   outputs into fingerprints (the output check), [collect] feeds the
   sojourn/stash/service distributions (the simulated window). *)
type mode = { digest : bool; collect : bool }

let light = { digest = false; collect = false }

(* Counts of one core over one round; host times in ns. *)
type round = {
  mutable pulled : int;
  mutable completed : int;
  mutable emits : int;
  mutable drops : int;
  mutable faulted : int;
  mutable pull_ns : int;
  mutable pull_words : int;
  mutable inflight_max : int;
  mutable inflight_sum : int;  (* pulled - completed, summed at each pull *)
  mutable out_of_order : int;  (* completions behind a later pull of their flow *)
  mutable unmatched : int;  (* completions the ring cannot place *)
}

let new_round () =
  {
    pulled = 0;
    completed = 0;
    emits = 0;
    drops = 0;
    faulted = 0;
    pull_ns = 0;
    pull_words = 0;
    inflight_max = 0;
    inflight_sum = 0;
    out_of_order = 0;
    unmatched = 0;
  }

(* Sim-window distributions, shared by every core of a system. *)
type dists = {
  sojourn : Metrics.Collector.t;  (* completion - pull *)
  stash_wait : Metrics.Collector.t;  (* start_clock - pull *)
  service : Metrics.Collector.t;  (* completion - start_clock *)
}

let dists () =
  {
    sojourn = Metrics.Collector.create ();
    stash_wait = Metrics.Collector.create ();
    service = Metrics.Collector.create ();
  }

(* What the output check compares between two executors. *)
type outputs = {
  inputs : Fingerprint.t;  (* every item pulled in digest rounds *)
  flow_fp : Fingerprint.t array;  (* per flow hint: output stream digest *)
  flow_emits : int array;
}

type t = {
  ctx : Exec_ctx.t;
  dists : dists;
  out : outputs;
  mask : int;
  ring_id : int array;  (* -1 = free *)
  ring_seq : int array;
  ring_clock : int array;
  last_seq : int array;  (* per flow hint: pull seq of its last completion *)
  mutable seq : int;
  mutable mode : mode;
  mutable r : round;
}

let create ~ctx ~dists ~n_flows ~round_packets =
  let size =
    let rec pow2 n = if n >= 2 * round_packets then n else pow2 (2 * n) in
    pow2 1024
  in
  {
    ctx;
    dists;
    mask = size - 1;
    ring_id = Array.make size (-1);
    ring_seq = Array.make size 0;
    ring_clock = Array.make size 0;
    last_seq = Array.make n_flows (-1);
    out =
      {
        inputs = Fingerprint.create ();
        flow_fp = Array.init n_flows (fun _ -> Fingerprint.create ());
        flow_emits = Array.make n_flows 0;
      };
    seq = 0;
    mode = light;
    r = new_round ();
  }

let start_round t mode =
  t.mode <- mode;
  t.r <- new_round ()

(* Minor words the pull bracket itself allocates, measured once. *)
let bracket_words =
  lazy
    (let n = 10_000 in
     let total = ref 0 in
     for _ = 1 to n do
       let w0 = Gc.minor_words () in
       let t0 = Host.now () in
       let t1 = Host.now () in
       let w1 = Gc.minor_words () in
       ignore (Sys.opaque_identity (t1 -. t0));
       total := !total + int_of_float (w1 -. w0)
     done;
     float_of_int !total /. float_of_int n)

let source t (src : Workload.source) : Workload.source =
 fun () ->
  let r = t.r in
  let w0 = Gc.minor_words () in
  let t0 = Host.now () in
  let item = src () in
  let t1 = Host.now () in
  let w1 = Gc.minor_words () in
  r.pull_ns <- r.pull_ns + int_of_float ((t1 -. t0) *. 1e9);
  r.pull_words <- r.pull_words + int_of_float (w1 -. w0);
  (match item with
  | None -> ()
  | Some it ->
      r.pulled <- r.pulled + 1;
      let inflight = r.pulled - r.completed in
      if inflight > r.inflight_max then r.inflight_max <- inflight;
      r.inflight_sum <- r.inflight_sum + inflight;
      (match it.Workload.packet with
      | Some p ->
          let slot = p.Netcore.Packet.id land t.mask in
          if t.ring_id.(slot) >= 0 then r.unmatched <- r.unmatched + 1;
          t.ring_id.(slot) <- p.Netcore.Packet.id;
          t.ring_seq.(slot) <- t.seq;
          t.ring_clock.(slot) <- t.ctx.Exec_ctx.clock;
          if t.mode.digest then begin
            Fingerprint.feed_int t.out.inputs it.Workload.flow_hint;
            Fingerprint.feed_int t.out.inputs it.Workload.aux;
            Fingerprint.feed_string t.out.inputs (Check.Oracle.packet_fingerprint p)
          end
      | None -> r.unmatched <- r.unmatched + 1);
      t.seq <- t.seq + 1);
  item

let on_complete t (task : Nftask.t) =
  let r = t.r in
  let clock = t.ctx.Exec_ctx.clock in
  r.completed <- r.completed + 1;
  let ev = task.Nftask.event in
  let dropped = Event.equal ev Event.Drop_packet || Event.equal ev Event.Match_fail in
  (match ev with
  | Event.Faulted _ -> r.faulted <- r.faulted + 1
  | _ -> if dropped then r.drops <- r.drops + 1 else r.emits <- r.emits + 1);
  match task.Nftask.packet with
  | None -> r.unmatched <- r.unmatched + 1
  | Some p ->
      let slot = p.Netcore.Packet.id land t.mask in
      let fh = task.Nftask.flow_hint in
      if t.ring_id.(slot) <> p.Netcore.Packet.id || fh < 0 || fh >= Array.length t.last_seq
      then r.unmatched <- r.unmatched + 1
      else begin
        t.ring_id.(slot) <- -1;
        let seq = t.ring_seq.(slot) and pulled_at = t.ring_clock.(slot) in
        if seq <= t.last_seq.(fh) then r.out_of_order <- r.out_of_order + 1;
        t.last_seq.(fh) <- seq;
        if t.mode.collect then begin
          let start = task.Nftask.start_clock in
          Metrics.Collector.record t.dists.sojourn (clock - pulled_at);
          Metrics.Collector.record t.dists.stash_wait (start - pulled_at);
          Metrics.Collector.record t.dists.service (clock - start)
        end;
        if t.mode.digest then begin
          let fp = t.out.flow_fp.(fh) in
          Fingerprint.feed_int fp task.Nftask.aux;
          Fingerprint.feed_string fp (Event.to_key ev);
          Fingerprint.feed_bool fp dropped;
          Fingerprint.feed_int fp p.Netcore.Packet.wire_len;
          Fingerprint.feed_string fp (Check.Oracle.packet_fingerprint p);
          t.out.flow_emits.(fh) <- t.out.flow_emits.(fh) + 1
        end
      end

(* Conservation of one finished round against the executor's own counts:
   pulled = completed = [run.packets] = emits + drops + faulted, with no
   packet faulted and every completion matched to its pull in flow order.
   Returns the packets lost or misplaced (0 when every rule holds) and a
   reason per broken rule. *)
let conservation (r : round) (run : Metrics.run) =
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (r.pulled = r.completed, Printf.sprintf "pulled %d <> completed %d" r.pulled r.completed);
        ( r.completed = run.Metrics.packets,
          Printf.sprintf "completed %d <> run.packets %d" r.completed run.Metrics.packets );
        ( r.emits = run.Metrics.packets - run.Metrics.drops - run.Metrics.faulted
          && r.drops = run.Metrics.drops && r.faulted = run.Metrics.faulted,
          Printf.sprintf "emits/drops/faulted %d/%d/%d <> run %d/%d/%d" r.emits r.drops r.faulted
            (run.Metrics.packets - run.Metrics.drops - run.Metrics.faulted)
            run.Metrics.drops run.Metrics.faulted );
        (r.faulted = 0, Printf.sprintf "%d packets faulted" r.faulted);
        (r.out_of_order = 0, Printf.sprintf "%d completions out of flow order" r.out_of_order);
        (r.unmatched = 0, Printf.sprintf "%d completions without a matching pull" r.unmatched);
      ]
  in
  let lost = max 0 (r.pulled - r.completed) + r.faulted + r.out_of_order + r.unmatched in
  (lost, problems)
