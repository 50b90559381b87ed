(* SCR vs RSS skew scale-out (fig14/15 companion): one GLOBAL arrival
   stream per Zipf skew point, driven through RSS owner-sharding and
   through State-Compute Replication on identical 16-core platforms over
   a million-flow monitor.

   Unlike fig14/15 — which give every core an independent generator and
   therefore cannot exhibit skew collapse — both passes here split the
   same stream: RSS by flow ownership ({!Gunfu.Platform.Recovery.owner}),
   SCR by seeded spray with no flow affinity. Under heavy tails the hot
   flows' owners receive most of the stream, their cycles dominate
   {!Gunfu.Metrics.merge_parallel}'s makespan, and RSS throughput
   collapses; SCR stays balanced and pays only the update-stream apply
   cost.

   Records into its own collector (not {!Bench_common.baseline}), written
   by main.ml as BENCH_PR9.json — the default figure run and its
   BENCH_PR4.json stay untouched. *)

open Gunfu

let alphas = [ 0.0; 0.9; 1.2; 1.5 ]
let cores = 16
let n_flows = 1_000_000
let packets = 48_000

let baseline = Telemetry.Baseline.collector ()

let record_metrics ~series ~x metrics =
  Telemetry.Baseline.record baseline ~fig:"scr"
    ~title:"SCR vs RSS under Zipf skew (16 cores, 1M-flow monitor)" ~series ~x
    metrics

(* A monitor over [flows], sized for them, as one core's working set. *)
let monitor layout ~name flows =
  let mon = Nfs.Monitor.create layout ~name ~n_flows:(Array.length flows) () in
  Nfs.Monitor.populate mon flows;
  mon

(* RSS cores own disjoint shards: state sharding is RSS's genuine
   advantage, so each core's tables hold only its owned slice. *)
let rss_core flows ~core worker =
  let layout = Worker.layout worker in
  let owned = ref [] in
  for i = Array.length flows - 1 downto 0 do
    if Platform.Recovery.owner ~cores i = core then owned := flows.(i) :: !owned
  done;
  let owned = Array.of_list !owned in
  let mon = monitor layout ~name:(Printf.sprintf "nm%d" core) owned in
  {
    Scaleout.Scr_platform.rss_worker = worker;
    rss_program = Nfs.Monitor.program mon;
    rss_pool = Netcore.Packet.Pool.create layout ~count:1024;
  }

(* SCR replicas hold the full universe; updates are single-flow absolute
   monitor snapshots applied through the Migration upsert surface. *)
let scr_replica flows ~core worker =
  let layout = Worker.layout worker in
  let mon = monitor layout ~name:(Printf.sprintf "nm%d" core) flows in
  {
    Scaleout.Scr.sc_worker = worker;
    sc_program = Nfs.Monitor.program mon;
    sc_pool = Netcore.Packet.Pool.create layout ~count:1024;
    sc_export =
      (fun i -> [ ("nm", Nfs.Migration.export_monitor mon [ flows.(i) ]) ]);
    sc_apply =
      (fun r ->
        List.iter
          (fun (_, snap) -> ignore (Nfs.Migration.apply_monitor mon snap : int))
          r.Scaleout.Update_log.u_payload);
    sc_counters = (fun () -> []);
    sc_flow_digest = (fun _ _ -> ());
  }

(* Build each platform's cores once and reuse them across alpha points
   (runs are snapshot deltas); only the offered stream changes. *)
let memo build =
  let tbl = Hashtbl.create cores in
  fun ~core worker ->
    match Hashtbl.find_opt tbl core with
    | Some v -> v
    | None ->
        let v = build ~core worker in
        Hashtbl.add tbl core v;
        v

let trace gen =
  let worker = Worker.create ~id:99 () in
  let pool = Netcore.Packet.Pool.create (Worker.layout worker) ~count:1024 in
  let src = Workload.of_flowgen gen ~pool ~count:packets in
  let rec go acc =
    match src () with Some it -> go (it :: acc) | None -> List.rev acc
  in
  go []

let pp_imb = function
  | Some (offered, served) -> Printf.sprintf "%.2f/%.2f" offered served
  | None -> "-"

let run () =
  Bench_common.header
    (Printf.sprintf
       "SCR vs RSS: one global stream, %d cores, %dk-flow monitor, Zipf sweep"
       cores (n_flows / 1000));
  Bench_common.row "%-8s %10s %10s %8s  %-12s %-12s" "alpha" "rss-gbps"
    "scr-gbps" "scr/rss" "rss-imb" "scr-imb";
  let sweep = Traffic.Flowgen.alpha_sweep ~seed:42 ~n_flows alphas in
  let flows = Traffic.Flowgen.flows (snd (List.hd sweep)) in
  let rss_plat = Platform.create ~cores () in
  let scr_plat = Platform.create ~cores () in
  let rss_build = memo (rss_core flows) in
  let scr_build = memo (scr_replica flows) in
  let ratios =
    List.map
      (fun (alpha, gen) ->
        let items = trace gen in
        let _, rss = Scaleout.Scr_platform.run_rss ~plat:rss_plat ~build:rss_build items in
        let res =
          Scaleout.Scr_platform.run_scr ~digest:false
            ~plat:scr_plat ~build:scr_build
            ~universe:n_flows items
        in
        let scr = res.Scaleout.Scr.sr_merged in
        let rg = Metrics.gbps rss and sg = Metrics.gbps scr in
        let ratio = sg /. rg in
        let imb r =
          match r.Metrics.imbalance with Some (o, s) -> [ ("imb_offered", o); ("imb_served", s) ] | None -> []
        in
        record_metrics ~series:"rss" ~x:alpha
          ([ ("gbps", rg); ("mpps", Metrics.mpps rss) ] @ imb rss);
        record_metrics ~series:"scr" ~x:alpha
          ([ ("gbps", sg); ("mpps", Metrics.mpps scr) ] @ imb scr);
        record_metrics ~series:"scr-stream" ~x:alpha
          [
            ("records", float_of_int res.Scaleout.Scr.sr_stats.Scaleout.Scr.st_records);
            ("applied", float_of_int res.Scaleout.Scr.sr_stats.Scaleout.Scr.st_applied);
            ("coalesced", float_of_int res.Scaleout.Scr.sr_stats.Scaleout.Scr.st_coalesced);
            ("max_lag", float_of_int res.Scaleout.Scr.sr_stats.Scaleout.Scr.st_max_lag);
          ];
        Bench_common.row "%-8.1f %10.2f %10.2f %8.2f  %-12s %-12s" alpha rg sg
          ratio
          (pp_imb rss.Metrics.imbalance)
          (pp_imb scr.Metrics.imbalance);
        (alpha, ratio))
      sweep
  in
  let ok =
    List.for_all
      (fun (alpha, r) -> if alpha >= 1.2 then r >= 2.0 else alpha > 0.0 || r >= 0.9)
      ratios
  in
  Bench_common.row
    "acceptance (scr >= 2x rss at alpha >= 1.2, >= 0.9x at uniform): %s"
    (if ok then "ok" else "FAIL");
  Bench_common.row
    "expected shape: RSS collapses onto the hot flows' owners as alpha grows;";
  Bench_common.row
    "SCR stays near-balanced, paying only the update-stream apply cost"
