(* Interleaved scheduler under flow skew: the per-flow hazard stash.

   A Zipf-1.1 NAT source over 64 flows keeps a few hot flows permanently
   in flight, so most pulls are stashed behind a same-flow task and pull
   loops run into their [4 * n_tasks] cap. The order pins fix the exact
   schedule (which item each refill takes, when every packet completes);
   they were recorded with the stash kept as a plain arrival-ordered
   list, so they prove the indexed stash picks the same items. The
   allocation test bounds the host cost of the stash per packet as runs
   grow longer. *)

open Gunfu

let n_flows = 64

type setup = { worker : Worker.t; source : Workload.source; program : Program.t }

let setup ~count =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let gen =
    Traffic.Flowgen.create ~seed:11 ~popularity:(Traffic.Flowgen.Zipf 1.1)
      ~size_model:(Traffic.Flowgen.Fixed 64) ~n_flows ()
  in
  let pool = Netcore.Packet.Pool.create layout ~count:256 in
  let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
  Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
  { worker; source = Workload.of_flowgen gen ~pool ~count; program = Nfs.Nat.program nat }

(* ----- order pins ----- *)

type variant = Plain | Quiesce | Fault_at_load

let packets = 5000

(* Every completion folds (flow, aux, event, clock) into the digest —
   packet ids are left out because they are process-global. The pin adds
   the cycle, switch, packet and fault totals of every [Scheduler.run]
   call of the case. *)
let order_pin policy n_tasks variant =
  let s = setup ~count:packets in
  let ctx = Worker.ctx s.worker in
  let buf = Buffer.create (packets * 24) in
  let completed = ref 0 in
  let on_complete (t : Nftask.t) =
    incr completed;
    Printf.bprintf buf "%d,%d,%s,%d;" t.Nftask.flow_hint t.Nftask.aux
      (Event.to_key t.Nftask.event) ctx.Exec_ctx.clock
  in
  let totals = Buffer.create 64 in
  let run ?quiesce ?fault source =
    let r =
      Scheduler.run ~policy ?quiesce ?fault ~on_complete s.worker s.program ~n_tasks
        source
    in
    Printf.bprintf totals "/%d,%d,%d,%d" r.Metrics.cycles r.Metrics.switches
      r.Metrics.packets r.Metrics.faulted
  in
  (match variant with
  | Plain -> run s.source
  | Quiesce ->
      (* Pause mid-run, drain, then resume the same source. *)
      run ~quiesce:(fun () -> !completed >= packets / 2) s.source;
      run s.source
  | Fault_at_load ->
      (* Every 7th pull is corrupt: quarantined at load, which finalises
         the task and recurses into the next load. *)
      let plane = Fault.create () in
      let pulled = ref 0 in
      let tapped =
        Workload.tap
          (fun item ->
            incr pulled;
            match item.Workload.packet with
            | Some p when !pulled mod 7 = 0 ->
                Fault.inject plane ~packet_id:p.Netcore.Packet.id Fault.Corrupt_packet
            | Some _ | None -> ())
          s.source
      in
      run ~fault:plane tapped);
  Alcotest.(check int) "every packet completed" packets !completed;
  Digest.to_hex (Digest.string (Buffer.contents buf)) ^ Buffer.contents totals

let policy_name = function
  | Scheduler.Round_robin -> "rr"
  | Scheduler.Ready_first -> "rf"

let variant_name = function
  | Plain -> "plain"
  | Quiesce -> "quiesce"
  | Fault_at_load -> "fault"

let pins =
  [
    (Scheduler.Round_robin, 4, Plain,
     "b2ff61129db510f91183ab6b4b1c3bbf/1161344,27434,5000,0");
    (Scheduler.Round_robin, 4, Quiesce,
     "67d914664f402e8f1014536b78721722/587166,14207,2512,0/575588,13367,2488,0");
    (Scheduler.Round_robin, 4, Fault_at_load,
     "4053a9d5686b91bcf3f1de5471ce0348/1025234,23673,5000,1590");
    (Scheduler.Round_robin, 16, Plain,
     "f68bd596602908bc9dd8dc22be0c2341/1962844,104486,5000,0");
    (Scheduler.Round_robin, 16, Quiesce,
     "29cfa8cc2efab57397b980fa8624ffe5/1435570,76566,3651,0/526834,27926,1349,0");
    (Scheduler.Round_robin, 16, Fault_at_load,
     "52c7e885e500febc097bd9fd7a7fd7a2/1714164,89936,5000,1590");
    (Scheduler.Ready_first, 4, Plain,
     "f9a385e4ec611e2e444ff01e23e8cf04/1153747,26570,5000,0");
    (Scheduler.Ready_first, 4, Quiesce,
     "c96a75978e9bd8ddb81b1a66dbc74be8/580541,13451,2512,0/573392,13123,2488,0");
    (Scheduler.Ready_first, 4, Fault_at_load,
     "0036ce16dadf990b8a4a7f7654302f6e/1018361,22888,5000,1590");
    (Scheduler.Ready_first, 16, Plain,
     "4c5740ce81fd35c3e9874fb700fd9858/1282930,28940,5000,0");
    (Scheduler.Ready_first, 16, Quiesce,
     "0a05df1fac6146b91a34d79037d5cc28/936475,21111,3651,0/345079,7731,1349,0");
    (Scheduler.Ready_first, 16, Fault_at_load,
     "ecf09fe7542c7e37dd465b40260e0f86/1132008,25252,5000,1590");
  ]

let order_pin_case (policy, n_tasks, variant, expected) =
  let name =
    Printf.sprintf "order pin %s-%d %s" (policy_name policy) n_tasks (variant_name variant)
  in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "schedule digest and totals" expected
        (order_pin policy n_tasks variant))

(* ----- host-cost scaling ----- *)

(* Minor-heap words allocated per completed packet by one run. Setup and
   populate stay outside the measurement; what remains is the source, the
   engine and the stash. *)
let alloc_words_per_pkt ~count =
  let s = setup ~count in
  let w0 = Gc.minor_words () in
  let r = Scheduler.run s.worker s.program ~n_tasks:16 s.source in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all packets completed" count r.Metrics.packets;
  words /. float_of_int r.Metrics.packets

let test_alloc_scaling () =
  let short = alloc_words_per_pkt ~count:2_500 in
  let long = alloc_words_per_pkt ~count:10_000 in
  if long > 1.25 *. short then
    Alcotest.failf "alloc per packet grows with run length: %.0f words at 2500, %.0f at 10000"
      short long

let suite =
  List.map order_pin_case pins
  @ [ Alcotest.test_case "alloc per packet flat in run length" `Quick test_alloc_scaling ]
