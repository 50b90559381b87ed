(* Multi-level cache hierarchy with MSHR-limited asynchronous prefetch.

   Time is an externally supplied cycle count ([now]); the hierarchy never
   advances time itself. A prefetch installs the line into L1/L2 immediately
   (so it participates in replacement pressure — this is what makes "too many
   interleaved NFTasks" degrade, as in the paper) and records a completion
   time in an MSHR. A demand access that arrives before completion pays the
   residual wait; after completion it is an ordinary L1 hit.

   Multi-line demand accesses model hardware stream-in: the first missing
   line pays the full latency of the level that serves it, subsequent
   contiguous missing lines pay [stream_num/stream_den] of it. *)

type config = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  llc_size : int;
  llc_assoc : int;
  line_bytes : int;
  lat_l1 : int;
  lat_l2 : int;
  lat_llc : int;
  lat_dram : int;
  mshr_count : int;
  stream_num : int;
  stream_den : int;
}

(* Latencies in cycles at 2.7 GHz, matching the paper's Xeon 8168 testbed
   discussion in §II-A (L1 ~1.2ns, L2 ~4.1ns, LLC ~13-20ns, DRAM ~70-125ns). *)
let default_config =
  {
    l1_size = 32 * 1024;
    l1_assoc = 8;
    l2_size = 1024 * 1024;
    l2_assoc = 16;
    llc_size = 33 * 1024 * 1024;
    llc_assoc = 11;
    line_bytes = 64;
    lat_l1 = 4;
    lat_l2 = 14;
    lat_llc = 50;
    lat_dram = 250;
    mshr_count = 10;
    stream_num = 2;
    stream_den = 5;
  }

(* Which level served a demand line access (the telemetry plane's
   attribution key). [Served_inflight] means the line was found in an MSHR:
   an earlier prefetch's fill was still in flight and the access paid the
   residual wait. *)
type served = Served_l1 | Served_l2 | Served_llc | Served_dram | Served_inflight

(* Observation tap: called once per demand line access with the access
   start time, the line, the serving level, and the cycles charged (post
   stream discount). Purely observational — installing a tap must not
   change any counter, latency, or replacement decision. *)
type tap = now:int -> line:int -> served:served -> cycles:int -> unit

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  line_bits : int;
  mshr_line : int array;   (* -1 = free slot *)
  mshr_ready : int array;
  mutable mshr_horizon : int;  (* no slot's fill is pending at or after this time *)
  mutable tap : tap option;
  mutable reads : int;
  mutable writes : int;
  mutable line_accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable llc_hits : int;
  mutable dram_fills : int;
  mutable mshr_waits : int;
  mutable wait_cycles : int;
  mutable prefetch_issued : int;
  mutable prefetch_redundant : int;
  mutable prefetch_dropped : int;
  mutable mshr_stalls : int;
}

let log2_exact n =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 n

let create ?(cfg = default_config) () =
  {
    cfg;
    l1 =
      Cache.create ~name:"L1d" ~size_bytes:cfg.l1_size ~assoc:cfg.l1_assoc
        ~line_bytes:cfg.line_bytes;
    l2 =
      Cache.create ~name:"L2" ~size_bytes:cfg.l2_size ~assoc:cfg.l2_assoc
        ~line_bytes:cfg.line_bytes;
    llc =
      Cache.create ~name:"LLC" ~size_bytes:cfg.llc_size ~assoc:cfg.llc_assoc
        ~line_bytes:cfg.line_bytes;
    line_bits = log2_exact cfg.line_bytes;
    mshr_line = Array.make cfg.mshr_count (-1);
    mshr_ready = Array.make cfg.mshr_count 0;
    mshr_horizon = min_int;
    tap = None;
    reads = 0;
    writes = 0;
    line_accesses = 0;
    l1_hits = 0;
    l2_hits = 0;
    llc_hits = 0;
    dram_fills = 0;
    mshr_waits = 0;
    wait_cycles = 0;
    prefetch_issued = 0;
    prefetch_redundant = 0;
    prefetch_dropped = 0;
    mshr_stalls = 0;
  }

let config t = t.cfg
let set_tap t f = t.tap <- f
let line_bytes t = t.cfg.line_bytes
let l1 t = t.l1
let l2 t = t.l2
let llc t = t.llc

let line_of t addr = addr lsr t.line_bits

(* Lines spanned by [addr, addr+bytes). A zero-byte access touches nothing. *)
let lines_of t ~addr ~bytes =
  if bytes <= 0 then []
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let rec go acc l = if l < first then acc else go (l :: acc) (l - 1) in
    go [] last
  end

(* MSHR helpers; slots whose deadline has passed are reclaimed lazily.
   [mshr_horizon] is the largest ready time any slot was given since the
   last {!clear}: at or after it nothing is pending and every slot is
   free, so most line accesses (all of them under demand-only executors
   such as per-packet RTC) skip the slot scan. Freeing a slot leaves the
   horizon as it is; it stays an upper bound. *)

let occupy t slot ~line ~ready =
  t.mshr_line.(slot) <- line;
  t.mshr_ready.(slot) <- ready;
  if ready > t.mshr_horizon then t.mshr_horizon <- ready

(* The slot loops are top-level functions over explicit arguments: a local
   [let rec] capturing [t] would allocate a closure per line access. The
   annotations keep the comparisons on ints; left polymorphic, they would
   call the runtime's generic compare. *)
let rec find_from (lines : int array) line i =
  if i = Array.length lines then -1
  else if lines.(i) = line then i
  else find_from lines line (i + 1)

let mshr_find t line = find_from t.mshr_line line 0

(* One pass for a prefetch of [line]: -2 when the slot holding its fill
   (the first slot naming it) is still in flight, else the first free slot,
   or -1 when none is free. A slot is free when empty or when its fill is
   done. *)
let rec issue_slot_from (lines : int array) (ready : int array) ~now line i free =
  if i = Array.length lines then free
  else
    let l = lines.(i) in
    if l = line then if ready.(i) > now then -2 else if free >= 0 then free else i
    else
      let free = if free < 0 && (l = -1 || ready.(i) <= now) then i else free in
      issue_slot_from lines ready ~now line (i + 1) free

let mshr_issue_slot t ~now line =
  if now >= t.mshr_horizon then 0
  else issue_slot_from t.mshr_line t.mshr_ready ~now line 0 (-1)

let mshr_pending_count t ~now =
  let count = ref 0 in
  Array.iteri
    (fun i line -> if line >= 0 && t.mshr_ready.(i) > now then incr count)
    t.mshr_line;
  !count

let mshr_deadlines t ~now =
  let acc = ref [] in
  Array.iteri
    (fun i line -> if line >= 0 && t.mshr_ready.(i) > now then acc := (line, t.mshr_ready.(i)) :: !acc)
    t.mshr_line;
  List.rev !acc

(* The slot whose fill of [line] is still in flight at [now], or -1. *)
let mshr_pending t ~now line =
  if now >= t.mshr_horizon then -1
  else
    let i = mshr_find t line in
    if i >= 0 && t.mshr_ready.(i) > now then i else -1

(* Serve one demand line access at time [now]. The result is packed as
   [latency lsl 3 lor served_code] so the per-line hot path allocates
   nothing; the tap (telemetry only) unpacks the code back to {!served}. *)

let served_of_code = function
  | 0 -> Served_l1
  | 1 -> Served_l2
  | 2 -> Served_llc
  | 3 -> Served_dram
  | _ -> Served_inflight

let access_line_coded t ~now line =
  t.line_accesses <- t.line_accesses + 1;
  let slot = mshr_pending t ~now line in
  if slot >= 0 then begin
    (* The line is in flight from an earlier prefetch: pay the residual. *)
    t.mshr_waits <- t.mshr_waits + 1;
    let wait = t.mshr_ready.(slot) - now in
    t.wait_cycles <- t.wait_cycles + wait;
    t.mshr_line.(slot) <- -1;
    ignore (Cache.install_victim t.l1 line);
    ignore (Cache.install_victim t.l2 line);
    ((wait + t.cfg.lat_l1) lsl 3) lor 4
  end
  else begin
    (* Each level is probed once; on a miss the probe also reports the
       set's valid-way count so the fill below skips the second scan. *)
    let p1 = Cache.probe_line t.l1 line in
    if p1 > 0 then begin
      t.l1_hits <- t.l1_hits + 1;
      t.cfg.lat_l1 lsl 3
    end
    else begin
      let e1 = -p1 - 1 in
      let p2 = Cache.probe_line t.l2 line in
      if p2 > 0 then begin
        t.l2_hits <- t.l2_hits + 1;
        ignore (Cache.fill_victim t.l1 line e1);
        (t.cfg.lat_l2 lsl 3) lor 1
      end
      else begin
        let e2 = -p2 - 1 in
        let p3 = Cache.probe_line t.llc line in
        if p3 > 0 then begin
          t.llc_hits <- t.llc_hits + 1;
          ignore (Cache.fill_victim t.l1 line e1);
          ignore (Cache.fill_victim t.l2 line e2);
          (t.cfg.lat_llc lsl 3) lor 2
        end
        else begin
          let e3 = -p3 - 1 in
          t.dram_fills <- t.dram_fills + 1;
          ignore (Cache.fill_victim t.l1 line e1);
          ignore (Cache.fill_victim t.l2 line e2);
          ignore (Cache.fill_victim t.llc line e3);
          (t.cfg.lat_dram lsl 3) lor 3
        end
      end
    end
  end

let stream_discount t lat = max t.cfg.lat_l1 (lat * t.cfg.stream_num / t.cfg.stream_den)

(* Iterates the block's lines directly — same order and timing as mapping
   over {!lines_of}, without materialising the list. *)
let access_block t ~now ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let total = ref 0 in
    let first_miss_seen = ref false in
    for line = first to last do
      let start = now + !total in
      let coded = access_line_coded t ~now:start line in
      let lat = coded lsr 3 in
      let lat =
        if lat > t.cfg.lat_l1 && !first_miss_seen then stream_discount t lat
        else begin
          if lat > t.cfg.lat_l1 then first_miss_seen := true;
          lat
        end
      in
      (match t.tap with
      | Some f -> f ~now:start ~line ~served:(served_of_code (coded land 7)) ~cycles:lat
      | None -> ());
      total := !total + lat
    done;
    !total
  end

let read t ~now ~addr ~bytes =
  t.reads <- t.reads + 1;
  access_block t ~now ~addr ~bytes

(* Write-allocate, same timing as a read. *)
let write t ~now ~addr ~bytes =
  t.writes <- t.writes + 1;
  access_block t ~now ~addr ~bytes

(* Issue an asynchronous prefetch for every line of the block. Returns the
   number of prefetches actually issued (0 when everything was already
   resident or pending). Lines are installed immediately so they contend for
   cache space from the moment of issue. Each level is looked up once per
   line, without touching recency; a miss reports the set's valid-way
   count, so the fills skip a second scan. The levels are separate arrays,
   so filling one leaves the others' counts exact. *)
let prefetch t ~now ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let first = line_of t addr in
    let last = line_of t (addr + bytes - 1) in
    let issued = ref 0 in
    for line = first to last do
      let w1 = Cache.lookup_line t.l1 line in
      (* An L1 hit skips the L2 lookup; [w2] is then just non-negative. *)
      let w2 = if w1 >= 0 then w1 else Cache.lookup_line t.l2 line in
      let slot = if w2 >= 0 then -2 else mshr_issue_slot t ~now line in
      if slot = -2 then t.prefetch_redundant <- t.prefetch_redundant + 1
      else if slot = -1 then t.prefetch_dropped <- t.prefetch_dropped + 1
      else begin
        let w3 = Cache.lookup_line t.llc line in
        let lat =
          if w3 >= 0 then t.cfg.lat_llc
          else begin
            ignore (Cache.fill_victim t.llc line (-w3 - 1));
            t.cfg.lat_dram
          end
        in
        ignore (Cache.fill_victim t.l2 line (-w2 - 1));
        ignore (Cache.fill_victim t.l1 line (-w1 - 1));
        occupy t slot ~line ~ready:(now + lat);
        t.prefetch_issued <- t.prefetch_issued + 1;
        incr issued
      end
    done;
    !issued
  end

(* A block is "ready" when every line is resident in L1 or L2 and no fetch
   for it is still in flight. Prefetched lines that were evicted before use
   therefore report not-ready and must be re-prefetched. *)
let in_l1_or_l2 t line = Cache.contains_line t.l1 line || Cache.contains_line t.l2 line

let rec ready_from t ~now line last =
  line > last
  || mshr_pending t ~now line < 0 && in_l1_or_l2 t line && ready_from t ~now (line + 1) last

let ready t ~now ~addr ~bytes =
  bytes <= 0 || ready_from t ~now (line_of t addr) (line_of t (addr + bytes - 1))

let rec resident_from t line last =
  line > last || (in_l1_or_l2 t line && resident_from t (line + 1) last)

let resident t ~addr ~bytes =
  bytes <= 0 || resident_from t (line_of t addr) (line_of t (addr + bytes - 1))

let counters t : Memstats.t =
  {
    Memstats.reads = t.reads;
    writes = t.writes;
    line_accesses = t.line_accesses;
    l1_hits = t.l1_hits;
    l2_hits = t.l2_hits;
    llc_hits = t.llc_hits;
    dram_fills = t.dram_fills;
    mshr_waits = t.mshr_waits;
    wait_cycles = t.wait_cycles;
    prefetch_issued = t.prefetch_issued;
    prefetch_redundant = t.prefetch_redundant;
    prefetch_dropped = t.prefetch_dropped;
    mshr_stalls = t.mshr_stalls;
  }

(* Fault-injection hook: occupy every currently-free MSHR slot with a dummy
   in-flight fetch for [cycles] cycles. Dummy line ids sit far above any real
   allocation, so no demand access or readiness check ever matches them; the
   only observable effect is that prefetches issued before the deadline find
   the MSHRs exhausted and are dropped (starvation). Returns the number of
   slots stalled. *)
let stall_mshrs t ~now ~cycles =
  let stalled = ref 0 in
  let n = Array.length t.mshr_line in
  for i = 0 to n - 1 do
    if t.mshr_line.(i) = -1 || t.mshr_ready.(i) <= now then begin
      occupy t i ~line:(max_int - i) ~ready:(now + cycles);
      incr stalled
    end
  done;
  t.mshr_stalls <- t.mshr_stalls + !stalled;
  !stalled

let clear t =
  Cache.clear t.l1;
  Cache.clear t.l2;
  Cache.clear t.llc;
  Array.fill t.mshr_line 0 (Array.length t.mshr_line) (-1);
  t.mshr_horizon <- min_int
