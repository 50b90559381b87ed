(* One workload of the repository benchmark, in its own process.

     gunfu_bench.exe --workload NAME --seed N --seconds S [--spans FILE]

   Work is cut into rounds: every core runs the executor over its next
   [round_packets] items. Three phases, each on a system set up afresh from
   the seed (host spans name them; see README.md):
   - measure: a warm-up round and the simulated window (both digested for
     the output check), then timed rounds until S seconds have passed.
     Simulated metrics come from the window, host throughput from the
     timed rounds.
   - check: the warm-up and window again, through the reference executor;
     inputs and per-flow output digests must match the measured run's.
   - traced: the warm-up and window again, with a [Trace.t] attached to the
     window; every simulated number must equal the measured window's, and
     the Trace books give the cycle split.
   Every round must also conserve packets.

   Prints one line per metric, then a JSON record on the last line. Exits
   1 when any check fails. *)

open Gunfu

type core_result = {
  run : Metrics.run;
  wall_s : float;  (* engine call, pulls included *)
  words : float;  (* minor words allocated during the call *)
  gcs : int;  (* major collections during the call *)
  r : Probe.round;
}

type system = {
  wl : Workloads.t;
  platform : Platform.t option;
  workers : Worker.t array;
  envs : Workloads.env array;
  probes : Probe.t array;
  dists : Probe.dists;
  cost : Workloads.setup_cost;  (* scaled to the reference machine speed *)
}

let slowdown k = k /. Host.kernel_ref_s

(* Build every core's system. Runs after a full major GC so that the
   previous phase's system is gone and the peak RSS is that of one system. *)
let setup ~seed spans (wl : Workloads.t) =
  Gc.full_major ();
  let platform, workers =
    if wl.Workloads.cores = 1 then (None, [| Worker.create ~id:0 () |])
    else
      let p = Platform.create ~cores:wl.Workloads.cores () in
      (Some p, Platform.workers p)
  in
  let cost = Workloads.setup_cost () in
  let before = Host.kernel () in
  let envs, _ =
    Host.span spans "setup" (fun () ->
        Array.mapi (fun core w -> wl.Workloads.build ~seed spans cost w core) workers)
  in
  Workloads.scale_cost cost (1.0 /. slowdown ((before +. Host.kernel ()) /. 2.0));
  let dists = Probe.dists () in
  let probes =
    Array.map
      (fun w ->
        Probe.create ~ctx:(Worker.ctx w) ~dists ~n_flows:wl.Workloads.n_flows
          ~round_packets:wl.Workloads.round_packets)
      workers
  in
  { wl; platform; workers; envs; probes; dists; cost }

(* One round on every core, through [Platform.run] on multi-core
   workloads; its setup callback hands each core its next traffic slice. *)
let round spans sys (x : Check.Oracle.executor) ?traces mode =
  let results = Array.make (Array.length sys.workers) None in
  let slice _w core =
    let env = sys.envs.(core) in
    ( env.Workloads.program,
      Probe.source sys.probes.(core) (env.Workloads.slice ~count:sys.wl.Workloads.round_packets) )
  in
  let execute w program source =
    let core = Worker.id w in
    let p = sys.probes.(core) in
    Probe.start_round p mode;
    let telemetry = Option.map (fun a -> a.(core)) traces in
    let g0 = Host.major_gcs () in
    let w0 = Gc.minor_words () in
    let run, wall_s =
      Host.span spans "engine"
        ~args:(fun _ ->
          let r = p.Probe.r in
          [
            ("core", float_of_int core);
            ("pulls", float_of_int r.Probe.pulled);
            ("pull_s", float_of_int r.Probe.pull_ns /. 1e9);
            ("packets", float_of_int r.Probe.completed);
          ])
        (fun () ->
          x.Check.Oracle.x_run ?telemetry ~on_complete:(Probe.on_complete p) w program source)
    in
    let words = Gc.minor_words () -. w0 in
    results.(core) <- Some { run; wall_s; words; gcs = Host.major_gcs () - g0; r = p.Probe.r };
    run
  in
  (match sys.platform with
  | Some pf -> ignore (Platform.run pf ~setup:slice ~execute)
  | None ->
      let w = sys.workers.(0) in
      let program, source = slice w 0 in
      ignore (execute w program source));
  Array.map Option.get results

(* ----- failure ledger ----- *)

type ledger = { mutable lost : int; mutable problems : string list }

let problem ledger msg = ledger.problems <- msg :: ledger.problems

let note ledger phase ~round rs =
  Array.iteri
    (fun core c ->
      let lost, problems = Probe.conservation c.r c.run in
      ledger.lost <- ledger.lost + lost;
      List.iter
        (fun m -> problem ledger (Printf.sprintf "%s round %d core %d: %s" phase round core m))
        problems)
    rs

(* The warm-up round and the simulated window, all digested; returns the
   window's rounds and the machine slowdown they ran at. [traces] attach to
   the window only. *)
let checked_rounds spans ledger phase sys x ?traces () =
  note ledger phase ~round:0 (round spans sys x { Probe.digest = true; collect = false });
  let before = Host.kernel () in
  let window =
    List.init sys.wl.Workloads.window_rounds (fun i ->
        let rs = round spans sys x ?traces { Probe.digest = true; collect = true } in
        note ledger phase ~round:(i + 1) rs;
        rs)
  in
  (window, slowdown ((before +. Host.kernel ()) /. 2.0))

(* ----- statistics ----- *)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list (List.sort compare xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum_f f rs = Array.fold_left (fun acc c -> acc +. f c) 0.0 rs
let sum_i f rs = Array.fold_left (fun acc c -> acc + f c) 0 rs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* The window as one run: rounds chain on each core, cores run in
   parallel. *)
let window_run cores window =
  Metrics.merge_parallel
    (List.init cores (fun core ->
         Metrics.merge_sequential (List.map (fun rs -> rs.(core).run) window)))

let p99 col =
  match Metrics.Collector.summarize col with Some l -> l.Metrics.l_p99 | None -> 0

(* Everything the traced window must reproduce: the per-core runs and the
   outside-in distributions. *)
let sim_signature sys window =
  ( List.map (Array.map (fun c -> (c.run, c.r.Probe.inflight_max, c.r.Probe.inflight_sum))) window,
    List.map Metrics.Collector.summarize
      [ sys.dists.Probe.sojourn; sys.dists.Probe.stash_wait; sys.dists.Probe.service ] )

(* ----- output check ----- *)

(* Flows whose output streams differ, the packets on them, and whether
   both sides pulled identical inputs. *)
let compare_outputs (a : Probe.outputs array) (b : Probe.outputs array) =
  let mismatched = ref 0 and lost = ref 0 and inputs_equal = ref true in
  Array.iteri
    (fun core (oa : Probe.outputs) ->
      let ob = b.(core) in
      if not (Fingerprint.equal oa.Probe.inputs ob.Probe.inputs) then inputs_equal := false;
      Array.iteri
        (fun fh fa ->
          let na = oa.Probe.flow_emits.(fh) and nb = ob.Probe.flow_emits.(fh) in
          if na <> nb || not (Fingerprint.equal fa ob.Probe.flow_fp.(fh)) then begin
            incr mismatched;
            lost := !lost + max na nb
          end)
        oa.Probe.flow_fp)
    a;
  (!mismatched, !lost, !inputs_equal)

let inputs_digest outs =
  Fingerprint.of_fn (fun fp ->
      Array.iter (fun o -> Fingerprint.feed_int64 fp (Fingerprint.value o.Probe.inputs)) outs)

(* ----- output ----- *)

let write_spans ~path spans =
  let module J = Telemetry.Json_lite in
  let rows = Host.ordered spans in
  let origin = match rows with s :: _ -> s.Host.start_s | [] -> 0.0 in
  let row (s : Host.span) =
    J.Obj
      ([
         ("id", J.Num (fi s.Host.id));
         ("name", J.Str s.Host.name);
         ("parent", J.Num (fi s.Host.parent));
         ("start_s", J.Num (s.Host.start_s -. origin));
         ("end_s", J.Num (s.Host.stop_s -. origin));
       ]
      @ List.map (fun (k, v) -> (k, J.Num v)) s.Host.args)
  in
  let oc = open_out path in
  output_string oc (J.to_string ~indent:true (J.Arr (List.map row rows)));
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--spans", Arg.Set_string spans_out, "FILE write the host spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "gunfu_bench.exe --workload NAME --seed N --seconds S [--spans FILE]";
  let wl =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload; one of: "
          ^ String.concat " " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2
  in
  let spans = Host.spans () in
  let ledger = { lost = 0; problems = [] } in
  let engine = Workloads.executor wl.Workloads.engine in
  let reference = Workloads.executor wl.Workloads.reference in
  let bracket_words = Lazy.force Probe.bracket_words in

  (* --- measure --- *)
  let (a, window, win_slow, peak_rss_mb, timed, timed_wall, timed_cpu), _ =
    Host.span spans "measure" (fun () ->
        let a = setup ~seed:!seed spans wl in
        let window, win_slow = checked_rounds spans ledger "measure" a engine () in
        (* Sampled before the timed rounds, whose number depends on host
           speed: up to here the work, and so the heap, is fixed by the
           seed. *)
        let peak_rss_mb = Host.peak_rss_mb () in
        let cpu0 = Host.cpu_s () and t0 = Host.now () in
        (* Kernel passes bracket every timed round; their mean is the
           machine speed the round ran at. *)
        let rec go acc n before =
          if Host.now () -. t0 >= !seconds && n >= 3 then List.rev acc
          else begin
            let rs = round spans a engine Probe.light in
            let after = Host.kernel () in
            note ledger "measure" ~round:(n + 1 + wl.Workloads.window_rounds) rs;
            go ((rs, slowdown ((before +. after) /. 2.0)) :: acc) (n + 1) after
          end
        in
        let timed = go [] 0 (Host.kernel ()) in
        (a, window, win_slow, peak_rss_mb, timed, Host.now () -. t0, Host.cpu_s () -. cpu0))
  in
  let offered = sum_i (fun p -> p.Probe.seq) a.probes in
  let a_outputs = Array.map (fun p -> p.Probe.out) a.probes in
  let a_sig = sim_signature a window in
  let a_dists = a.dists in
  let a_cost = a.cost in
  let win = window_run wl.Workloads.cores window in
  let win_rounds = Array.concat window in
  let win_wall = sum_f (fun c -> c.wall_s) win_rounds in

  (* --- check --- *)
  let mismatched, check_s, b_cost =
    fst
      (Host.span spans "check" (fun () ->
           let b = setup ~seed:!seed spans wl in
           let t0 = Host.now () in
           ignore (checked_rounds spans ledger "check" b reference ());
           let mismatched, lost, inputs_equal =
             fst
               (Host.span spans "compare" (fun () ->
                    compare_outputs a_outputs (Array.map (fun p -> p.Probe.out) b.probes)))
           in
           ledger.lost <- ledger.lost + lost;
           if mismatched > 0 then
             problem ledger
               (Printf.sprintf "%d flows' outputs differ from %s" mismatched wl.Workloads.reference);
           if not inputs_equal then problem ledger "the reference replay pulled different inputs";
           (mismatched, Host.now () -. t0, b.cost)))
  in

  (* --- traced replay --- *)
  let (c, traces, (c_window, c_slow)), _ =
    Host.span spans "traced" (fun () ->
        let c = setup ~seed:!seed spans wl in
        let traces = Array.map (fun _ -> Trace.create ~capacity:4096 ()) c.workers in
        (c, traces, checked_rounds spans ledger "traced" c engine ~traces ()))
  in
  if sim_signature c c_window <> a_sig then
    problem ledger "the traced window's simulated metrics differ from the untraced window's";
  let traced_wall = sum_f (fun c -> c.wall_s) (Array.concat c_window) in

  (* --- metrics --- *)
  let pkts_f = fi win.Metrics.packets in
  let per_pkt v = ratio (fi v) pkts_f in
  let book f = per_pkt (Array.fold_left (fun acc tr -> acc + f tr) 0 traces) in
  let level l = book (fun tr -> Trace.level_cycles tr l) in
  let mem = win.Metrics.mem in
  let pf_total =
    mem.Memsim.Memstats.prefetch_issued + mem.Memsim.Memstats.prefetch_redundant
    + mem.Memsim.Memstats.prefetch_dropped
  in
  let sojourn_p50, sojourn_p99, sojourn_n =
    match Metrics.Collector.summarize a_dists.Probe.sojourn with
    | Some l -> (l.Metrics.l_p50, l.Metrics.l_p99, l.Metrics.l_count)
    | None -> (0, 0, 0)
  in
  let engine_p99 =
    Array.fold_left
      (fun acc c ->
        match c.run.Metrics.latency with Some l -> max acc l.Metrics.l_p99 | None -> acc)
      0 win_rounds
  in
  (* Host figures over the timed rounds: per-round values at the reference
     machine speed (see [Host.kernel]), then the median. *)
  let per_round f = median (List.map (fun (rs, slow) -> f rs slow) timed) in
  let pkts rs = fi (sum_i (fun c -> c.r.Probe.completed) rs) in
  let pulls rs = fi (sum_i (fun c -> c.r.Probe.pulled) rs) in
  let wall rs = sum_f (fun c -> c.wall_s) rs in
  let pull_s rs = fi (sum_i (fun c -> c.r.Probe.pull_ns) rs) /. 1e9 in
  let all_timed = Array.concat (List.map fst timed) in
  let t_pkts = pkts all_timed and t_pulls = pulls all_timed in
  let t_pull_words = fi (sum_i (fun c -> c.r.Probe.pull_words) all_timed) in
  let core_walls =
    Array.init wl.Workloads.cores (fun core ->
        List.fold_left (fun acc (rs, _) -> acc +. rs.(core).wall_s) 0.0 timed)
  in
  let imb_offered, imb_served = Option.value win.Metrics.imbalance ~default:(1.0, 1.0) in
  let costs = [ a_cost; b_cost; c.cost ] in
  let med f = median (List.map f costs) in
  let failed = min offered ledger.lost in
  let metrics =
    [
      ("sim_mpps", Metrics.mpps win, "Mpps");
      ("sim_sojourn_p50_cycles", fi sojourn_p50, "cycles");
      ("sim_sojourn_p99_cycles", fi sojourn_p99, "cycles");
      ("engine.latency_p99_cycles", fi engine_p99, "cycles");
      ("sim.sojourn_samples", fi sojourn_n, "count");
      ("host_kpps", per_round (fun rs slow -> ratio (pkts rs) (wall rs) *. slow /. 1e3), "kpps");
      ("setup_s", med Workloads.setup_total, "s");
      ("peak_rss_mb", peak_rss_mb, "MB");
      ("failed_share", ratio (fi failed) (fi offered), "share");
      ("traffic.pull_ns_per_item", per_round (fun rs slow -> ratio (pull_s rs) (pulls rs) /. slow *. 1e9), "ns");
      ("traffic.alloc_words_per_item", ratio (t_pull_words -. (bracket_words *. t_pulls)) t_pulls, "words");
      ("traffic.create_s", med (fun c -> c.Workloads.traffic_s), "s");
      ("nfs.populate_s", med (fun c -> c.Workloads.populate_s), "s");
      ("compiler.program_s", med (fun c -> c.Workloads.program_s), "s");
      ( "engine.ns_per_pkt",
        per_round (fun rs slow -> ratio (wall rs -. pull_s rs) (pkts rs) /. slow *. 1e9),
        "ns" );
      ("engine.alloc_words_per_pkt", ratio (sum_f (fun c -> c.words) all_timed -. t_pull_words) t_pkts, "words");
      ("engine.major_gcs", ratio (fi (sum_i (fun c -> c.gcs) all_timed)) t_pkts *. 1e6, "1/Mpkt");
      ("scheduler.inflight_max", fi (Array.fold_left (fun acc c -> max acc c.r.Probe.inflight_max) 0 win_rounds), "count");
      ( "scheduler.inflight_mean",
        ratio (fi (sum_i (fun c -> c.r.Probe.inflight_sum) win_rounds)) (fi (sum_i (fun c -> c.r.Probe.pulled) win_rounds)),
        "count" );
      ("scheduler.stash_wait_p99_cycles", fi (p99 a_dists.Probe.stash_wait), "cycles");
      ("scheduler.service_p99_cycles", fi (p99 a_dists.Probe.service), "cycles");
      ("scheduler.switches_per_pkt", per_pkt win.Metrics.switches, "count");
      ("memsim.line_accesses_per_pkt", per_pkt mem.Memsim.Memstats.line_accesses, "count");
      ("memsim.l1_miss_per_pkt", per_pkt (Memsim.Memstats.l1_misses mem), "count");
      ("memsim.l2_miss_per_pkt", per_pkt (Memsim.Memstats.l2_misses mem), "count");
      ("memsim.llc_miss_per_pkt", per_pkt (Memsim.Memstats.llc_misses mem), "count");
      ("memsim.mshr_wait_cycles_per_pkt", per_pkt mem.Memsim.Memstats.wait_cycles, "cycles");
      ("memsim.prefetch_issue_ratio", ratio (fi mem.Memsim.Memstats.prefetch_issued) (fi pf_total), "ratio");
      ("memsim.prefetch_dropped_ratio", ratio (fi mem.Memsim.Memstats.prefetch_dropped) (fi pf_total), "ratio");
      ("sim.pull_cycles_per_pkt", book Trace.pull_cycles, "cycles");
      ("sim.action_cycles_per_pkt", book Trace.action_cycles, "cycles");
      ("sim.mem_cycles_per_pkt.l1", level Trace.L1, "cycles");
      ("sim.mem_cycles_per_pkt.l2", level Trace.L2, "cycles");
      ("sim.mem_cycles_per_pkt.llc", level Trace.Llc, "cycles");
      ("sim.mem_cycles_per_pkt.dram", level Trace.Dram, "cycles");
      ("sim.mem_cycles_per_pkt.inflight", level Trace.Inflight, "cycles");
      ("sim.prefetch_cycles_per_pkt", book Trace.prefetch_cycles, "cycles");
      ("sim.switch_cycles_per_pkt", book Trace.switch_cycles, "cycles");
      ( "sim.unattributed_cycles_per_pkt",
        ratio (fi (sum_i (fun c -> c.run.Metrics.cycles) (Array.concat c_window) - sum_i Trace.attributed_cycles traces)) pkts_f,
        "cycles" );
      ("telemetry.overhead_ratio", ratio (traced_wall /. c_slow) (win_wall /. win_slow), "ratio");
      ("platform.core_wall_s_max", Array.fold_left max 0.0 core_walls, "s");
      ("platform.core_wall_s_sum", Array.fold_left ( +. ) 0.0 core_walls, "s");
      ("platform.imbalance_offered", imb_offered, "ratio");
      ("platform.imbalance_served", imb_served, "ratio");
      ("check.host_s", check_s, "s");
      ("check.mismatched_flows", fi mismatched, "count");
      ("process.cpu_over_wall", ratio timed_cpu timed_wall, "ratio");
      ("process.raw_kpps", per_round (fun rs _ -> ratio (pkts rs) (wall rs) /. 1e3), "kpps");
      ("process.machine_slowdown", per_round (fun _ slow -> slow), "ratio");
    ]
  in
  let correct = ledger.problems = [] in
  let digest = inputs_digest a_outputs in
  Printf.printf "%s seed %d: window %d x %d x %d packets, %d timed rounds, inputs %s\n"
    wl.Workloads.name !seed wl.Workloads.window_rounds wl.Workloads.cores
    wl.Workloads.round_packets (List.length timed) digest;
  List.iter (fun (n, v, u) -> Printf.printf "  %-36s %16.6g %s\n" n v u) metrics;
  List.iter (fun m -> Printf.printf "  CHECK FAILED: %s\n" m) (List.rev ledger.problems);
  if !spans_out <> "" then write_spans ~path:!spans_out spans;
  let module J = Telemetry.Json_lite in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str wl.Workloads.name);
            ("seed", J.Num (fi !seed));
            ("inputs_digest", J.Str digest);
            ("timed_rounds", J.Num (fi (List.length timed)));
            ("correct", J.Bool correct);
            ("attempted", J.Num (fi offered));
            ("failed", J.Num (fi failed));
            ("problems", J.Arr (List.map (fun m -> J.Str m) (List.rev ledger.problems)));
            ( "metrics",
              J.Obj (List.map (fun (n, v, u) -> (n, J.Obj [ ("value", J.Num v); ("unit", J.Str u) ])) metrics) );
          ]));
  if not correct then exit 1
