(* The four benchmark workloads. Each builds, per core, a fresh traffic
   generator, NF instance and compiled program from the workload seed, and
   names the executor under test plus the second executor from the
   differential oracle's set that the output check compares it against.

   Why these four (see README.md for the layer map):
   - upf-il16: per-session state far larger than the LLC, so memsim fills,
     prefetch/MSHR overlap and task switching carry the run; sessions are
     uniform, so the scheduler's per-flow stash stays idle.
   - nat-zipf-il16: hot flows stay in L1/L2 while same-flow hazards fill
     the stash; the cheapest NF, so traffic generation weighs most here.
   - sfc6-caida-4core-rtc: the BESS-like baseline; the only workload that
     runs the platform layer, and the heaviest setup (24 NF instances).
   - amf-batch32: the only workload on Batch_rtc, with write-heavy per-UE
     contexts of 20+ lines instead of read-mostly lookups. *)

open Gunfu

(* Host seconds of the three setup layers, summed over cores. *)
type setup_cost = {
  mutable traffic_s : float;
  mutable populate_s : float;
  mutable program_s : float;
}

let setup_cost () = { traffic_s = 0.0; populate_s = 0.0; program_s = 0.0 }
let setup_total c = c.traffic_s +. c.populate_s +. c.program_s

let scale_cost c k =
  c.traffic_s <- c.traffic_s *. k;
  c.populate_s <- c.populate_s *. k;
  c.program_s <- c.program_s *. k

(* One core's system under test; [slice ~count] continues the core's
   generator for the next [count] items. *)
type env = { program : Program.t; slice : count:int -> Workload.source }

type t = {
  name : string;
  cores : int;
  n_flows : int;  (* per core: bound on flow hints *)
  round_packets : int;  (* per core and round *)
  window_rounds : int;  (* rounds in the simulated window, after one warm-up *)
  engine : string;  (* Check.Oracle executor under test *)
  reference : string;  (* Check.Oracle executor the outputs must match *)
  build : seed:int -> Host.spans -> setup_cost -> Worker.t -> int -> env;
}

(* The three setup layers of one core, each timed as a span and added to
   [cost]: the traffic generator (with its packet pool), the populated NF,
   and its compiled program. *)
let staged spans cost ~traffic ~nf ~program ~source =
  let gen, t1 = Host.span spans "traffic.create" traffic in
  let inst, t2 = Host.span spans "nfs.populate" (fun () -> nf gen) in
  let prog, t3 = Host.span spans "compiler.program" (fun () -> program inst) in
  cost.traffic_s <- cost.traffic_s +. t1;
  cost.populate_s <- cost.populate_s +. t2;
  cost.program_s <- cost.program_s +. t3;
  { program = prog; slice = source gen }

(* Distinct generator seed per (workload seed, core). *)
let core_seed seed core = (seed * 64) + core

let pool worker = Netcore.Packet.Pool.create (Worker.layout worker) ~count:1024

let upf_sessions = 131072

let upf =
  {
    name = "upf-il16";
    cores = 1;
    n_flows = upf_sessions;
    round_packets = 10_000;
    window_rounds = 2;
    engine = "rr-16";
    reference = "rtc";
    build =
      (fun ~seed spans cost worker core ->
        staged spans cost
          ~traffic:(fun () ->
            let mgw =
              Traffic.Mgw.create ~seed:(core_seed seed core) ~n_sessions:upf_sessions
                ~n_pdrs:16 ~wire_len:128 ()
            in
            (mgw, pool worker))
          ~nf:(fun (mgw, _) ->
            let u =
              Nfs.Upf.create (Worker.layout worker) ~name:"upf"
                ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
            in
            Nfs.Upf.populate u;
            u)
          ~program:(fun u -> Nfs.Upf.program u)
          ~source:(fun (mgw, pool) ~count -> Workload.of_mgw_downlink mgw ~pool ~count));
  }

let nat_flows = 131072

let nat =
  {
    name = "nat-zipf-il16";
    cores = 1;
    n_flows = nat_flows;
    round_packets = 2_500;
    window_rounds = 16;
    engine = "rr-16";
    reference = "rtc";
    build =
      (fun ~seed spans cost worker core ->
        staged spans cost
          ~traffic:(fun () ->
            let gen =
              Traffic.Flowgen.create ~seed:(core_seed seed core)
                ~popularity:(Traffic.Flowgen.Zipf 1.1) ~size_model:(Traffic.Flowgen.Fixed 64)
                ~n_flows:nat_flows ()
            in
            (gen, pool worker))
          ~nf:(fun (gen, _) ->
            let n = Nfs.Nat.create (Worker.layout worker) ~name:"nat" ~n_flows:nat_flows () in
            Nfs.Nat.populate n (Traffic.Flowgen.flows gen);
            n)
          ~program:(fun n -> Nfs.Nat.program n)
          ~source:(fun (gen, pool) ~count -> Workload.of_flowgen gen ~pool ~count));
  }

(* 131072 flows RSS-split over four share-nothing cores: each core owns a
   quarter of the flow universe, as in the Fig 14 harness. *)
let sfc_cores = 4
let sfc_flows = 131072 / sfc_cores

let sfc =
  {
    name = "sfc6-caida-4core-rtc";
    cores = sfc_cores;
    n_flows = sfc_flows;
    round_packets = 2_500;
    window_rounds = 4;
    engine = "rtc";
    reference = "batch-32";
    build =
      (fun ~seed spans cost worker core ->
        staged spans cost
          ~traffic:(fun () ->
            let gen = Traffic.Caida.create ~seed:(core_seed seed core) ~n_flows:sfc_flows () in
            (gen, pool worker))
          ~nf:(fun (gen, _) ->
            let s =
              Nfs.Sfc.create (Worker.layout worker) ~length:6 ~packed:true ~n_flows:sfc_flows ()
            in
            Nfs.Sfc.populate s (Traffic.Flowgen.flows gen);
            s)
          ~program:(fun s -> Nfs.Sfc.program s)
          ~source:(fun (gen, pool) ~count -> Workload.of_flowgen gen ~pool ~count));
  }

let amf_ues = 131072

let amf =
  {
    name = "amf-batch32";
    cores = 1;
    n_flows = amf_ues;
    round_packets = 10_000;
    window_rounds = 2;
    engine = "batch-32";
    reference = "rtc";
    build =
      (fun ~seed spans cost worker core ->
        staged spans cost
          ~traffic:(fun () ->
            let gen = Traffic.Mgw.amf_create ~seed:(core_seed seed core) ~n_ues:amf_ues () in
            (gen, pool worker))
          ~nf:(fun _ ->
            let a = Nfs.Amf.create (Worker.layout worker) ~name:"amf" ~packed:true ~n_ues:amf_ues () in
            Nfs.Amf.populate a;
            a)
          ~program:(fun a -> Nfs.Amf.program a)
          ~source:(fun (gen, pool) ~count -> Workload.of_amf gen ~pool ~count));
  }

let all = [ upf; nat; sfc; amf ]
let find name = List.find_opt (fun w -> w.name = name) all

let executor name =
  List.find
    (fun x -> x.Check.Oracle.x_name = name)
    (Check.Oracle.reference :: Check.Oracle.executors)
