(* Multi-level hierarchy with MSHRs and asynchronous prefetch — the
   substrate every experiment's numbers rest on. *)

open Memsim

let cfg = Hierarchy.default_config

let small_cfg =
  (* Tiny caches so eviction scenarios are cheap to construct. *)
  {
    cfg with
    Hierarchy.l1_size = 512;
    l1_assoc = 2;
    l2_size = 2048;
    l2_assoc = 2;
    llc_size = 8192;
    llc_assoc = 2;
    mshr_count = 2;
  }

let mk ?(cfg = cfg) () = Hierarchy.create ~cfg ()

let test_cold_read_is_dram () =
  let h = mk () in
  let lat = Hierarchy.read h ~now:0 ~addr:0x10000 ~bytes:8 in
  Alcotest.(check int) "cold read pays DRAM latency" cfg.Hierarchy.lat_dram lat

let test_second_read_is_l1 () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x10000 ~bytes:8);
  let lat = Hierarchy.read h ~now:300 ~addr:0x10000 ~bytes:8 in
  Alcotest.(check int) "second read hits L1" cfg.Hierarchy.lat_l1 lat

let test_l2_hit_after_l1_eviction () =
  let h = mk ~cfg:small_cfg () in
  ignore (Hierarchy.read h ~now:0 ~addr:0 ~bytes:8);
  (* Evict line 0 from the tiny L1 (4 sets x 2 ways): lines 4 and 8 share
     its L1 set but land in different L2 sets (16 sets). *)
  ignore (Hierarchy.read h ~now:0 ~addr:(4 * 64) ~bytes:8);
  ignore (Hierarchy.read h ~now:0 ~addr:(8 * 64) ~bytes:8);
  let lat = Hierarchy.read h ~now:0 ~addr:0 ~bytes:8 in
  Alcotest.(check int) "read served from L2" small_cfg.Hierarchy.lat_l2 lat

let test_multi_line_stream_discount () =
  let h = mk () in
  (* 4 lines cold: first pays full DRAM, the next three pay the stream
     fraction (2/5 of 250 = 100). *)
  let lat = Hierarchy.read h ~now:0 ~addr:0x20000 ~bytes:256 in
  Alcotest.(check int) "streamed block read" (250 + (3 * 100)) lat

let test_lines_of () =
  let h = mk () in
  Alcotest.(check (list int)) "span two lines" [ 0x3F; 0x40 ]
    (Hierarchy.lines_of h ~addr:0xFC0 ~bytes:100);
  Alcotest.(check (list int)) "zero bytes" [] (Hierarchy.lines_of h ~addr:0xFC0 ~bytes:0)

let test_prefetch_then_ready () =
  let h = mk () in
  let issued = Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "one fill issued" 1 issued;
  Alcotest.(check bool) "not ready immediately" false
    (Hierarchy.ready h ~now:1 ~addr:0x30000 ~bytes:8);
  Alcotest.(check bool) "ready after DRAM latency" true
    (Hierarchy.ready h ~now:cfg.Hierarchy.lat_dram ~addr:0x30000 ~bytes:8)

let test_prefetch_hides_latency () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8);
  let lat = Hierarchy.read h ~now:(cfg.Hierarchy.lat_dram + 10) ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "completed prefetch -> L1 hit" cfg.Hierarchy.lat_l1 lat

let test_demand_on_inflight_pays_residual () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x30000 ~bytes:8);
  (* Demand read arrives 100 cycles in: waits the remaining 150 + L1. *)
  let lat = Hierarchy.read h ~now:100 ~addr:0x30000 ~bytes:8 in
  Alcotest.(check int) "residual wait" (150 + cfg.Hierarchy.lat_l1) lat;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "mshr wait recorded" 1 c.Memstats.mshr_waits;
  Alcotest.(check int) "wait cycles recorded" 150 c.Memstats.wait_cycles

let test_prefetch_redundant () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x40000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:10 ~addr:0x40000 ~bytes:8 in
  Alcotest.(check int) "resident line not re-fetched" 0 issued;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "counted redundant" 1 c.Memstats.prefetch_redundant

let test_prefetch_pending_redundant () =
  let h = mk () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x40000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:1 ~addr:0x40000 ~bytes:8 in
  Alcotest.(check int) "in-flight line not re-issued" 0 issued

let test_mshr_exhaustion () =
  let h = mk ~cfg:small_cfg () in
  (* 2 MSHRs: the third concurrent prefetch is dropped. *)
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x50000 ~bytes:8);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x60000 ~bytes:8);
  let issued = Hierarchy.prefetch h ~now:0 ~addr:0x70000 ~bytes:8 in
  Alcotest.(check int) "dropped when MSHRs busy" 0 issued;
  let c = Hierarchy.counters h in
  Alcotest.(check int) "drop counted" 1 c.Memstats.prefetch_dropped;
  Alcotest.(check int) "two outstanding" 2 (Hierarchy.mshr_pending_count h ~now:0)

let test_mshr_recycled_after_completion () =
  let h = mk ~cfg:small_cfg () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x50000 ~bytes:8);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x60000 ~bytes:8);
  let issued =
    Hierarchy.prefetch h ~now:(small_cfg.Hierarchy.lat_dram + 1) ~addr:0x70000 ~bytes:8
  in
  Alcotest.(check int) "slot reused after completion" 1 issued

let test_prefetch_eviction_means_not_ready () =
  let h = mk ~cfg:{ small_cfg with Hierarchy.mshr_count = 16 } () in
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0 ~bytes:8);
  (* Thrash line 0's set in both L1 (4 sets) and L2 (16 sets): multiples of
     line 16 conflict in both. *)
  List.iter
    (fun i -> ignore (Hierarchy.read h ~now:0 ~addr:(i * 16 * 64) ~bytes:8))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "evicted prefetched line is not ready" false
    (Hierarchy.ready h ~now:1000 ~addr:0 ~bytes:8)

let test_llc_prefetch_faster () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0x80000 ~bytes:8);
  (* Push it out of L1+L2 but it stays in LLC; then a prefetch completes at
     LLC latency. *)
  Hierarchy.clear h;
  ignore (Cache.install (Hierarchy.llc h) 0x80000);
  ignore (Hierarchy.prefetch h ~now:0 ~addr:0x80000 ~bytes:8);
  Alcotest.(check bool) "ready at LLC latency" true
    (Hierarchy.ready h ~now:cfg.Hierarchy.lat_llc ~addr:0x80000 ~bytes:8)

let test_write_counts () =
  let h = mk () in
  ignore (Hierarchy.write h ~now:0 ~addr:0x90000 ~bytes:8);
  let c = Hierarchy.counters h in
  Alcotest.(check int) "write counted" 1 c.Memstats.writes;
  Alcotest.(check int) "write allocates" 1 c.Memstats.dram_fills

let test_counters_diff () =
  let h = mk () in
  ignore (Hierarchy.read h ~now:0 ~addr:0xA0000 ~bytes:8);
  let before = Hierarchy.counters h in
  ignore (Hierarchy.read h ~now:10 ~addr:0xA0000 ~bytes:8);
  let d = Memstats.diff (Hierarchy.counters h) before in
  Alcotest.(check int) "delta accesses" 1 d.Memstats.line_accesses;
  Alcotest.(check int) "delta l1 hits" 1 d.Memstats.l1_hits

let test_memstats_derived () =
  let s =
    {
      Memstats.zero with
      Memstats.line_accesses = 10;
      l1_hits = 6;
      l2_hits = 2;
      llc_hits = 1;
      dram_fills = 1;
      mshr_waits = 0;
    }
  in
  Alcotest.(check int) "l1 misses" 4 (Memstats.l1_misses s);
  Alcotest.(check int) "l2 misses" 2 (Memstats.l2_misses s);
  Alcotest.(check int) "llc misses" 1 (Memstats.llc_misses s);
  Alcotest.(check (float 0.0001)) "hit rate" 0.6 (Memstats.l1_hit_rate s)

let qcheck_read_latency_bounded =
  QCheck.Test.make ~name:"single-line read latency within [L1, DRAM]" ~count:300
    QCheck.(pair (int_bound 100_000) (int_bound 1_000_000))
    (fun (now, addr) ->
      let h = mk () in
      (* one byte: guaranteed single-line regardless of alignment *)
      let lat = Hierarchy.read h ~now ~addr ~bytes:1 in
      lat >= cfg.Hierarchy.lat_l1 && lat <= cfg.Hierarchy.lat_dram)

let qcheck_prefetch_makes_ready =
  QCheck.Test.make ~name:"issued prefetch is ready after DRAM latency" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun addr ->
      let h = mk () in
      ignore (Hierarchy.prefetch h ~now:0 ~addr ~bytes:8);
      Hierarchy.ready h ~now:(cfg.Hierarchy.lat_dram + 1) ~addr ~bytes:8)

(* Equivalence pin: a seeded random stream of every hierarchy operation,
   with [now] mostly advancing and sometimes stepping back, digested over
   every return value and the final counters of the hierarchy and of each
   level. Lines are [tag * span + j] for eight [j]s. With [span] the LLC's
   set count, each tag of one [j] lands in the same set of every level;
   with [span] the L2's, the tags share an L2 set but spread over LLC sets,
   so lines the L2 evicts can still hit in the LLC. [tags] exceeds every
   associativity, so every level evicts, and a skewed tag draw keeps some
   lines hot enough to hit. The default geometry's
   11-way LLC has a non-power-of-two set count. The digests were recorded
   before the prefetch path probed each level once and before the MSHR
   horizon. *)
let op_stream_digest ~cfg ~tags ~ops =
  let h = mk ~cfg () in
  let l2_sets = Cache.nsets (Hierarchy.l2 h) and llc_sets = Cache.nsets (Hierarchy.llc h) in
  let rng = Rng.create 2024 in
  let buf = Buffer.create (ops * 8) in
  let now = ref 0 in
  let block () =
    let span = if Rng.bool rng then l2_sets else llc_sets in
    let line = (Rng.int rng (1 + Rng.int rng tags) * span) + Rng.int rng 8 in
    ((line * cfg.Hierarchy.line_bytes) + Rng.int rng 64, Rng.int rng 257)
  in
  for _ = 1 to ops do
    if Rng.int rng 8 = 0 then now := max 0 (!now - Rng.int rng 400)
    else now := !now + Rng.int rng 120;
    let now = !now in
    let op = Rng.int rng 100 in
    if op < 30 then begin
      let addr, bytes = block () in
      Printf.bprintf buf "r%d;" (Hierarchy.read h ~now ~addr ~bytes)
    end
    else if op < 45 then begin
      let addr, bytes = block () in
      Printf.bprintf buf "w%d;" (Hierarchy.write h ~now ~addr ~bytes)
    end
    else if op < 75 then begin
      let addr, bytes = block () in
      Printf.bprintf buf "p%d;" (Hierarchy.prefetch h ~now ~addr ~bytes)
    end
    else if op < 85 then begin
      let addr, bytes = block () in
      Printf.bprintf buf "y%b;" (Hierarchy.ready h ~now ~addr ~bytes)
    end
    else if op < 93 then begin
      let addr, bytes = block () in
      Printf.bprintf buf "s%b;" (Hierarchy.resident h ~addr ~bytes)
    end
    else if op < 96 then Printf.bprintf buf "m%d;" (Hierarchy.mshr_pending_count h ~now)
    else if op < 99 then
      Printf.bprintf buf "x%d;" (Hierarchy.stall_mshrs h ~now ~cycles:(Rng.int rng 600))
    else begin
      Hierarchy.clear h;
      Buffer.add_string buf "c;"
    end
  done;
  let c = Hierarchy.counters h in
  Printf.bprintf buf "|%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" c.Memstats.reads
    c.Memstats.writes c.Memstats.line_accesses c.Memstats.l1_hits c.Memstats.l2_hits
    c.Memstats.llc_hits c.Memstats.dram_fills c.Memstats.mshr_waits c.Memstats.wait_cycles
    c.Memstats.prefetch_issued c.Memstats.prefetch_redundant c.Memstats.prefetch_dropped
    c.Memstats.mshr_stalls;
  List.iter
    (fun cache ->
      Printf.bprintf buf "|%d,%d,%d,%d" (Cache.hits cache) (Cache.misses cache)
        (Cache.evictions cache) (Cache.installs cache))
    [ Hierarchy.l1 h; Hierarchy.l2 h; Hierarchy.llc h ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_op_stream_pin name ~cfg ~tags ~expected () =
  Alcotest.(check string) name expected (op_stream_digest ~cfg ~tags ~ops:20_000)

let suite =
  [
    Alcotest.test_case "cold read = DRAM" `Quick test_cold_read_is_dram;
    Alcotest.test_case "second read = L1" `Quick test_second_read_is_l1;
    Alcotest.test_case "L2 hit after L1 eviction" `Quick test_l2_hit_after_l1_eviction;
    Alcotest.test_case "multi-line stream discount" `Quick test_multi_line_stream_discount;
    Alcotest.test_case "lines_of" `Quick test_lines_of;
    Alcotest.test_case "prefetch then ready" `Quick test_prefetch_then_ready;
    Alcotest.test_case "prefetch hides latency" `Quick test_prefetch_hides_latency;
    Alcotest.test_case "demand on in-flight pays residual" `Quick
      test_demand_on_inflight_pays_residual;
    Alcotest.test_case "redundant prefetch (resident)" `Quick test_prefetch_redundant;
    Alcotest.test_case "redundant prefetch (pending)" `Quick test_prefetch_pending_redundant;
    Alcotest.test_case "MSHR exhaustion drops" `Quick test_mshr_exhaustion;
    Alcotest.test_case "MSHR recycled" `Quick test_mshr_recycled_after_completion;
    Alcotest.test_case "evicted prefetch not ready" `Quick
      test_prefetch_eviction_means_not_ready;
    Alcotest.test_case "LLC-resident prefetch faster" `Quick test_llc_prefetch_faster;
    Alcotest.test_case "write counts" `Quick test_write_counts;
    Alcotest.test_case "counters diff" `Quick test_counters_diff;
    Alcotest.test_case "memstats derived metrics" `Quick test_memstats_derived;
    Alcotest.test_case "op stream pin, small geometry" `Quick
      (test_op_stream_pin "small" ~cfg:small_cfg ~tags:6
         ~expected:"39e954ce6a4c7a588ce833f5adfcdb49");
    Alcotest.test_case "op stream pin, default geometry" `Quick
      (test_op_stream_pin "default" ~cfg ~tags:24
         ~expected:"ffa15bd8013de050c2ee892326644644");
    Helpers.qcheck qcheck_read_latency_bounded;
    Helpers.qcheck qcheck_prefetch_makes_ready;
  ]
