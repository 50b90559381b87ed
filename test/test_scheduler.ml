(* Single-core engines under flow skew: execution order pins and the
   interleaved scheduler's per-flow hazard stash.

   A Zipf-1.1 NAT source over 64 flows keeps a few hot flows permanently
   in flight, so most interleaved pulls are stashed behind a same-flow task
   and the stash fills to its bound of one item per task slot, where
   pulling stops until a stashed flow goes idle. The order pins fix the
   exact schedule of every single-core engine (which item each refill
   takes, when every packet completes), and every interleaved run checks
   that the stash reached its bound and never passed it. The rtc, batch,
   AMF and UPF pins were recorded before the engines shared one per-packet
   kernel and before the stash was bounded, so they prove neither change
   moved them; the bound never binds on the UPF source. The NAT
   interleaved pins were re-recorded when the bound landed. Two more sources run through the same harness: a
   packed-AMF signalling source (per-UE contexts of 20+ lines, one handler
   slot per message) under batch and rtc, and a UPF downlink source under
   the interleaved scheduler, whose prefetches keep the MSHRs busy. The
   allocation test bounds the host cost of the stash per packet as runs
   grow longer. *)

open Gunfu

let n_flows = 64

type setup = { worker : Worker.t; source : Workload.source; program : Program.t }

(* [Nat_zipf] is the skewed NAT source above; [Amf_packed] is registration
   signalling over 2048 UEs with the data-packed context layout;
   [Upf_downlink] is uniform downlink over 4096 sessions x 16 PDRs. *)
type src = Nat_zipf | Amf_packed | Upf_downlink

let setup ?(src = Nat_zipf) ~count () =
  let worker = Worker.create ~id:0 () in
  let layout = Worker.layout worker in
  let pool = Netcore.Packet.Pool.create layout ~count:256 in
  match src with
  | Nat_zipf ->
      let gen =
        Traffic.Flowgen.create ~seed:11 ~popularity:(Traffic.Flowgen.Zipf 1.1)
          ~size_model:(Traffic.Flowgen.Fixed 64) ~n_flows ()
      in
      let nat = Nfs.Nat.create layout ~name:"nat" ~n_flows () in
      Nfs.Nat.populate nat (Traffic.Flowgen.flows gen);
      { worker; source = Workload.of_flowgen gen ~pool ~count; program = Nfs.Nat.program nat }
  | Amf_packed ->
      let n_ues = 2048 in
      let gen = Traffic.Mgw.amf_create ~seed:11 ~n_ues () in
      let amf = Nfs.Amf.create layout ~name:"amf" ~packed:true ~n_ues () in
      Nfs.Amf.populate amf;
      { worker; source = Workload.of_amf gen ~pool ~count; program = Nfs.Amf.program amf }
  | Upf_downlink ->
      let mgw = Traffic.Mgw.create ~seed:11 ~n_sessions:4096 ~n_pdrs:16 ~wire_len:128 () in
      let upf =
        Nfs.Upf.create layout ~name:"upf" ~sessions:(Traffic.Mgw.sessions mgw) ~n_pdrs:16 ()
      in
      Nfs.Upf.populate upf;
      {
        worker;
        source = Workload.of_mgw_downlink mgw ~pool ~count;
        program = Nfs.Upf.program upf;
      }

(* ----- order pins ----- *)

(* Every single-core engine is one input to the same harness: same source,
   same variants, same digest. [Specialized] installs the fused-runner hot
   path; [Traced] attaches a span tracer, which keeps the interpreted
   action path and records spans. *)
type engine = Rtc | Batch of int | Il of Scheduler.policy * int
type mode = Interp | Specialized | Traced
type variant = Plain | Quiesce | Fault_at_load

let packets = 5000

let run_engine engine ?quiesce ?fault ?telemetry ~on_complete worker program source =
  match engine with
  | Rtc -> Rtc.run ?quiesce ?fault ?telemetry ~on_complete worker program source
  | Batch batch ->
      Batch_rtc.run ~batch ?quiesce ?fault ?telemetry ~on_complete worker program source
  | Il (policy, n_tasks) ->
      Scheduler.run ~policy ?quiesce ?fault ?telemetry ~on_complete worker program
        ~n_tasks source

(* Every completion folds (flow, aux, event, clock) into the digest —
   packet ids are left out because they are process-global. The pin adds
   the cycle, switch, packet and fault totals of every run call of the
   case, and for a traced call the tracer's span count, completions and
   attributed/action/switch cycles. *)
let order_pin src engine mode variant =
  let s = setup ~src ~count:packets () in
  if mode = Specialized then Specialize.install s.program;
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
    let telemetry = if mode = Traced then Some (Trace.create ()) else None in
    let r =
      run_engine engine ?quiesce ?fault ?telemetry ~on_complete s.worker s.program source
    in
    (match engine with
    | Il (_, n) when src = Nat_zipf ->
        Alcotest.(check int) "stash fills to one item per task slot" n r.Metrics.stash_max
    | Il (_, n) ->
        if r.Metrics.stash_max > n then
          Alcotest.failf "stash held %d items behind %d task slots" r.Metrics.stash_max n
    | Rtc | Batch _ -> Alcotest.(check int) "no stash" 0 r.Metrics.stash_max);
    Printf.bprintf totals "/%d,%d,%d,%d" r.Metrics.cycles r.Metrics.switches
      r.Metrics.packets r.Metrics.faulted;
    Option.iter
      (fun tr ->
        Printf.bprintf totals "+%d,%d,%d,%d,%d" (Trace.total_spans tr)
          (Trace.completes tr) (Trace.attributed_cycles tr) (Trace.action_cycles tr)
          (Trace.switch_cycles tr))
      telemetry
  in
  (match variant with
  | Plain -> run s.source
  | Quiesce ->
      (* Pause mid-run, drain, then resume the same source. *)
      run ~quiesce:(fun () -> !completed >= packets / 2) s.source;
      run s.source
  | Fault_at_load ->
      (* Every 7th pull is corrupt: quarantined at load, which finalises
         the task without executing it. *)
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

let engine_name = function
  | Rtc -> "rtc"
  | Batch b -> Printf.sprintf "batch-%d" b
  | Il (Scheduler.Round_robin, n) -> Printf.sprintf "rr-%d" n
  | Il (Scheduler.Ready_first, n) -> Printf.sprintf "rf-%d" n

let mode_name = function
  | Interp -> ""
  | Specialized -> " specialized"
  | Traced -> " traced"

let src_name = function
  | Nat_zipf -> ""
  | Amf_packed -> "amf "
  | Upf_downlink -> "upf "

let variant_name = function
  | Plain -> "plain"
  | Quiesce -> "quiesce"
  | Fault_at_load -> "fault"

let rr n = Il (Scheduler.Round_robin, n)
let rf n = Il (Scheduler.Ready_first, n)

let pins =
  [
    (rr 4, Interp, Plain,
     "444252920520db2c4868001de2b084ba/1183304,29616,5000,0");
    (rr 4, Interp, Quiesce,
     "ad2d23b8f9000c24b26c2fd11c8c5f64/595466,15192,2503,0/587968,14437,2497,0");
    (rr 4, Interp, Fault_at_load,
     "359fbd08182adccd994b949dfcbc1a61/1046904,25830,5000,1590");
    (rr 16, Interp, Plain,
     "412e3902726c66a1d6b7a1c956a7bdc6/1934694,104582,5000,0");
    (rr 16, Interp, Quiesce,
     "7254da394472b9d61293684983bd9a59/974826,52662,2522,0/960228,51921,2478,0");
    (rr 16, Interp, Fault_at_load,
     "4d3a4e9ca281246d65e29d928a2a8f93/1691554,90096,5000,1590");
    (rf 4, Interp, Plain,
     "f7618fa4c9eac67f2be5130501db403e/1156782,26644,5000,0");
    (rf 4, Interp, Quiesce,
     "92033f18f629d33223ed7d3490a74d0d/579870,13434,2503,0/576961,13214,2497,0");
    (rf 4, Interp, Fault_at_load,
     "07e0704bc1d66ff378f3873c8b35eb09/1020841,22913,5000,1590");
    (rf 16, Interp, Plain,
     "6fcebf6a972877dc7f25aad9e6e4345e/1255452,29048,5000,0");
    (rf 16, Interp, Quiesce,
     "93c0dec7d3c52da31a350baedf662560/633732,14700,2522,0/621666,14303,2478,0");
    (rf 16, Interp, Fault_at_load,
     "96dfea22941a0f0c83b5505b7c62175e/1105432,24900,5000,1590");
    (Rtc, Interp, Plain,
     "b15cfafa026c56a6076160ae252e346d/933450,0,5000,0");
    (Rtc, Interp, Quiesce,
     "b15cfafa026c56a6076160ae252e346d/512230,0,2500,0/421220,0,2500,0");
    (Rtc, Interp, Fault_at_load,
     "64c9eadf2d0a7bbc8f4a9d4b92d3e9de/841478,0,5000,1590");
    (Rtc, Specialized, Plain,
     "b15cfafa026c56a6076160ae252e346d/933450,0,5000,0");
    (Rtc, Specialized, Quiesce,
     "b15cfafa026c56a6076160ae252e346d/512230,0,2500,0/421220,0,2500,0");
    (Rtc, Specialized, Fault_at_load,
     "64c9eadf2d0a7bbc8f4a9d4b92d3e9de/841478,0,5000,1590");
    (Rtc, Traced, Plain,
     "b15cfafa026c56a6076160ae252e346d/933450,0,5000,0+76266,5000,855918,655918,0");
    (Rtc, Traced, Quiesce,
     "b15cfafa026c56a6076160ae252e346d/512230,0,2500,0+38166,2500,473398,373398,0/421220,0,2500,0+38100,2500,382520,282520,0");
    (Rtc, Traced, Fault_at_load,
     "64c9eadf2d0a7bbc8f4a9d4b92d3e9de/841478,0,5000,1590+67515,5000,775022,575022,0");
    (Batch 1, Interp, Plain,
     "9c2e0b621a820f3c0c9b62913d233896/931177,0,5000,0");
    (Batch 1, Interp, Quiesce,
     "9c2e0b621a820f3c0c9b62913d233896/509957,0,2500,0/421220,0,2500,0");
    (Batch 1, Interp, Fault_at_load,
     "9f234bf6268069208e9079306b4423c6/839205,0,5000,1590");
    (Batch 8, Interp, Plain,
     "fd03c69c15249fa996da1ce65c38f185/925677,0,5000,0");
    (Batch 8, Interp, Quiesce,
     "fd03c69c15249fa996da1ce65c38f185/504937,0,2504,0/420740,0,2496,0");
    (Batch 8, Interp, Fault_at_load,
     "56be1da5880792b3f8cad7ecf64955c4/833585,0,5000,1590");
    (Batch 32, Interp, Plain,
     "31e433924a2b7c2c966e6677417be45e/976442,0,5000,0");
    (Batch 32, Interp, Quiesce,
     "31e433924a2b7c2c966e6677417be45e/534504,0,2528,0/441938,0,2472,0");
    (Batch 32, Interp, Fault_at_load,
     "35f56cbf9a54a6acb6e85f52db6de491/877565,0,5000,1590");
    (Batch 32, Specialized, Plain,
     "31e433924a2b7c2c966e6677417be45e/976442,0,5000,0");
    (Batch 32, Specialized, Quiesce,
     "31e433924a2b7c2c966e6677417be45e/534504,0,2528,0/441938,0,2472,0");
    (Batch 32, Specialized, Fault_at_load,
     "35f56cbf9a54a6acb6e85f52db6de491/877565,0,5000,1590");
    (Batch 32, Traced, Plain,
     "31e433924a2b7c2c966e6677417be45e/976442,0,5000,0+76548,5000,898910,698628,0");
    (Batch 32, Traced, Quiesce,
     "31e433924a2b7c2c966e6677417be45e/534504,0,2528,0+38871,2528,495246,393844,0/441938,0,2472,0+37677,2472,403664,304784,0");
    (Batch 32, Traced, Fault_at_load,
     "35f56cbf9a54a6acb6e85f52db6de491/877565,0,5000,1590+67796,5000,811109,610828,0");
    (rr 16, Specialized, Plain,
     "412e3902726c66a1d6b7a1c956a7bdc6/1934694,104582,5000,0");
    (rr 16, Specialized, Quiesce,
     "7254da394472b9d61293684983bd9a59/974826,52662,2522,0/960228,51921,2478,0");
    (rr 16, Specialized, Fault_at_load,
     "4d3a4e9ca281246d65e29d928a2a8f93/1691554,90096,5000,1590");
    (rr 16, Traced, Plain,
     "412e3902726c66a1d6b7a1c956a7bdc6/1934694,104582,5000,0+181224,5000,1811318,565122,1045820");
    (rr 16, Traced, Quiesce,
     "7254da394472b9d61293684983bd9a59/974826,52662,2522,0+91537,2522,912514,284638,526620/960228,51921,2478,0+89688,2478,899164,280834,519210");
    (rr 16, Traced, Fault_at_load,
     "4d3a4e9ca281246d65e29d928a2a8f93/1691554,90096,5000,1590+157987,5000,1585802,484466,900960");
  ]

(* Pins of the other sources, recorded with the same harness. *)
let source_pins =
  [
    (Amf_packed, Batch 32, Interp, Plain,
     "b6cc7f1ed2f6f64a1a1eeb42fca3dd60/18906187,0,5000,0");
    (Amf_packed, Batch 32, Interp, Quiesce,
     "b6cc7f1ed2f6f64a1a1eeb42fca3dd60/10358634,0,2528,0/8547553,0,2472,0");
    (Amf_packed, Batch 32, Interp, Fault_at_load,
     "75507244a59411e3471c5b02d2046b06/16382167,0,5000,719");
    (Amf_packed, Rtc, Interp, Plain,
     "8de5302e4b9647405bd8d0fe96beddc1/19144838,0,5000,0");
    (Amf_packed, Rtc, Interp, Quiesce,
     "8de5302e4b9647405bd8d0fe96beddc1/10470365,0,2500,0/8674473,0,2500,0");
    (Amf_packed, Rtc, Interp, Fault_at_load,
     "b6d11abb5bf821587b09fd38438abd89/16618662,0,5000,719");
    (Upf_downlink, rr 16, Interp, Plain,
     "be8ab9d1aa2562cec9a2541d9600cbf8/2190163,47460,5000,0");
    (Upf_downlink, rr 16, Interp, Quiesce,
     "cae4514adcbaf8517ef738974837c3fd/1087498,23865,2515,0/1103485,23691,2485,0");
    (Upf_downlink, rr 16, Interp, Fault_at_load,
     "55bb645ec4c25f04fbcb8ce0307b51c9/1901126,40683,5000,716");
  ]

let order_pin_case (src, engine, mode, variant, expected) =
  let name =
    Printf.sprintf "order pin %s%s%s %s" (src_name src) (engine_name engine) (mode_name mode)
      (variant_name variant)
  in
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "schedule digest and totals" expected
        (order_pin src engine mode variant))

(* ----- action-less states ----- *)

(* Strip the action of the first state a packet reaches. Rtc and the
   scheduler raise with their own error text, on the interpreted and the
   fused-runner path alike; Batch_rtc ends the packet's pass there and
   completes it. *)
let test_actionless specialized () =
  let s = setup ~count:8 () in
  let p = s.program in
  let first = Program.step p (Program.start p) Event.Packet_arrival in
  let info =
    Array.mapi
      (fun i (ci : Program.cs_info) ->
        if i = first then { ci with Program.action = None } else ci)
      p.Program.info
  in
  let program = { p with Program.info; payload = None } in
  if specialized then Specialize.install program;
  let q = (Program.info program first).Program.qname in
  let raises name run =
    Alcotest.check_raises name
      (Invalid_argument (name ^ ": control state " ^ q ^ " has no action"))
      (fun () -> ignore (run ()))
  in
  raises "Rtc" (fun () -> Rtc.run s.worker program s.source);
  raises "Scheduler" (fun () -> Scheduler.run s.worker program ~n_tasks:4 s.source);
  let r = Batch_rtc.run ~batch:4 s.worker program s.source in
  Alcotest.(check bool) "batch completes what it pulled" true (r.Metrics.packets > 0)

(* ----- host-cost scaling ----- *)

(* Minor-heap words allocated per completed packet by one run. Setup and
   populate stay outside the measurement; what remains is the source, the
   engine and the stash. *)
let alloc_words_per_pkt ~count =
  let s = setup ~count () in
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

(* An absolute bound on the same measurement. The per-line memsim path,
   Fetch, readiness, the FSM step and the match probes allocate nothing, so
   what remains is the source's packets and the actions' own results: 145
   words per packet, against 447 while those paths allocated closures and
   options. *)
let alloc_budget_words = 250.0

let test_alloc_budget () =
  let words = alloc_words_per_pkt ~count:2_500 in
  if words > alloc_budget_words then
    Alcotest.failf "%.0f words allocated per packet, budget %.0f" words alloc_budget_words

let suite =
  List.map order_pin_case
    (List.map (fun (e, m, v, d) -> (Nat_zipf, e, m, v, d)) pins @ source_pins)
  @ [
      Alcotest.test_case "action-less state interpreted" `Quick (test_actionless false);
      Alcotest.test_case "action-less state specialized" `Quick (test_actionless true);
      Alcotest.test_case "alloc per packet flat in run length" `Quick test_alloc_scaling;
      Alcotest.test_case "alloc per packet within budget" `Quick test_alloc_budget;
    ]
