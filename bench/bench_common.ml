(* Shared builders and table printing for the figure-regeneration harness.

   Every experiment constructs a fresh worker (own caches / address space),
   populates the NF under test with the paper's workload, runs a warmup
   slice to reach steady state, then measures a fixed packet count. *)

open Gunfu

let default_packets = 50_000
let warmup_packets = 5_000

(* --specialize: run every figure through the compile-and-specialize hot
   path (fused action closures, dense FSM dispatch) and feed sources from
   a zero-alloc packet arena. Simulated metrics are byte-identical either
   way — combine with --check-baseline to prove it — only host wall-clock
   changes. *)
let specialize = ref false

(* Applied to every program an env builder compiles. *)
let prep program =
  if !specialize then Specialize.install program;
  program

(* Fresh per env. The ring recycles records in pull order, so it must
   outlast the oldest live packet's age in pulls. The scheduler holds at
   most 16 tasks + 16 stashed items (one per task slot), and under Zipf
   skew a live packet's age stays near a hundred pulls, far inside the
   default 1024 (pinned by test_specialize.ml). *)
let arena () = if !specialize then Some (Netcore.Packet.Arena.create ()) else None

type model = Rtc_model | Interleaved of int

let model_name = function
  | Rtc_model -> "RTC"
  | Interleaved n -> Printf.sprintf "IL-%d" n

(* Run [source] under [model] on [worker], measuring only after warmup. *)
let measure ?(warmup = warmup_packets) ?(packets = default_packets) worker program model
    (mk_source : count:int -> Workload.source) =
  let run count =
    match model with
    | Rtc_model -> Rtc.run worker program (mk_source ~count)
    | Interleaved n -> Scheduler.run worker program ~n_tasks:n (mk_source ~count)
  in
  ignore (run warmup);
  run packets

(* ----- builders ----- *)

let nat_env ?(n_flows = 131072) () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:1 ~n_flows ~size_model:(Traffic.Flowgen.Fixed 128) ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
  let program = prep (Nfs.Nat.program nat) in
  let arena = arena () in
  (worker, program, fun ~count -> Workload.of_flowgen ?arena gen ~pool ~count)

let upf_env ?(n_sessions = 131072) ?(n_pdrs = 16) ?(wire_len = 128) () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let mgw = Traffic.Mgw.create ~seed:2 ~n_sessions ~n_pdrs ~wire_len () in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let upf =
    Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs ()
  in
  Nfs.Upf.populate upf;
  let program = prep (Nfs.Upf.program upf) in
  let arena = arena () in
  (worker, program, fun ~count -> Workload.of_mgw_downlink ?arena mgw ~pool ~count)

let amf_env ?(n_ues = 131072) ?(packed = false) ?only_msg () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Mgw.amf_create ~seed:3 ~n_ues () in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let amf = Nfs.Amf.create layout ~name:"amf" ~packed ~n_ues () in
  Nfs.Amf.populate amf;
  let program = prep (Nfs.Amf.program amf) in
  let arena = arena () in
  let source ~count =
    match only_msg with
    | None -> Workload.of_amf ?arena gen ~pool ~count
    | Some msg ->
        (* Homogeneous stream of one message type across random UEs — used
           to attribute cost per message (Fig 3). *)
        let rng = Memsim.Rng.create 17 in
        Workload.limited count (fun () ->
            let ue = Memsim.Rng.int rng n_ues in
            let pkt = Workload.amf_packet ?arena ~ue ~msg () in
            Netcore.Packet.Pool.assign pool pkt;
            {
              Workload.packet = Some pkt;
              aux = Workload.amf_msg_code msg;
              flow_hint = ue;
            })
  in
  (worker, program, amf, source)

let sfc_env ?(n_flows = 131072) ?(length = 6) ?(packed = false)
    ?(opts = Gunfu.Compiler.default_opts) ?(size_model = Traffic.Flowgen.Fixed 128) () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen = Traffic.Flowgen.create ~seed:4 ~n_flows ~size_model () in
  let pool = Netcore.Packet.Pool.create layout ~count:1024 in
  let sfc = Nfs.Sfc.create layout ~length ~packed ~n_flows () in
  Nfs.Sfc.populate sfc (Traffic.Flowgen.flows gen);
  let program = prep (Nfs.Sfc.program ~opts sfc) in
  let arena = arena () in
  (worker, program, fun ~count -> Workload.of_flowgen ?arena gen ~pool ~count)

(* ----- machine-readable baseline ----- *)

(* Global collector: each figure records its key series alongside the
   printed table, and main.ml writes the aggregate as BENCH_<pr>.json
   (schema gunfu-bench-baseline/1) for later PRs to diff against. *)
let baseline = Telemetry.Baseline.collector ()

let record ~fig ~title ~series ~x r =
  Telemetry.Baseline.record_run baseline ~fig ~title ~series ~x r

let record_metrics ~fig ~title ~series ~x metrics =
  Telemetry.Baseline.record baseline ~fig ~title ~series ~x metrics

let write_baseline ?(collector = baseline) ~pr ~path () =
  let b = Telemetry.Baseline.to_baseline collector ~pr in
  if b.Telemetry.Baseline.figures <> [] then begin
    let oc = open_out path in
    output_string oc (Telemetry.Baseline.to_string b);
    close_out oc;
    Printf.printf "\nwrote %s: %d figures (schema %s)\n%!" path
      (List.length b.Telemetry.Baseline.figures)
      Telemetry.Baseline.schema_id
  end

(* ----- output ----- *)

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf (fmt ^^ "\n%!")

let pp_run label r =
  row "%-34s %8.2f Mpps %8.2f Gbps  ipc=%.2f  cyc/pkt=%8.1f  L1m/p=%.2f L2m/p=%.2f LLCm/p=%.2f"
    label (Metrics.mpps r) (Metrics.gbps r) (Metrics.ipc r) (Metrics.cycles_per_packet r)
    (Metrics.l1_misses_per_packet r) (Metrics.l2_misses_per_packet r)
    (Metrics.llc_misses_per_packet r)
