(* Per-core runtime (§V, Fig 8): each worker owns its core's simulated
   memory hierarchy, simulated address space, clock, and the cost model of
   the runtime itself (task-switch, fetch, and packet I/O overheads). *)

type cfg = {
  freq_ghz : float;
  switch_cycles : int;  (* scheduler overhead per NFTask visit *)
  switch_instrs : int;
  fetch_cycles : int;  (* Transition + Fetch step (Algorithm 1 l.15-16) *)
  fetch_instrs : int;
  rx_tx_cycles : int;  (* per-packet I/O (descriptor ring, doorbell) *)
  rx_tx_instrs : int;
  rtc_dispatch_cycles : int;  (* RTC per-action call overhead *)
  mem_cfg : Memsim.Hierarchy.config;
}

let default_cfg =
  {
    freq_ghz = 2.7;
    switch_cycles = 10;
    switch_instrs = 9;
    fetch_cycles = 4;
    fetch_instrs = 4;
    rx_tx_cycles = 40;
    rx_tx_instrs = 30;
    rtc_dispatch_cycles = 3;
    mem_cfg = Memsim.Hierarchy.default_config;
  }

type t = { id : int; cfg : cfg; ctx : Exec_ctx.t }

let create ?(cfg = default_cfg) ~id () =
  { id; cfg; ctx = Exec_ctx.create ~mem_cfg:cfg.mem_cfg () }

let ctx t = t.ctx
let layout t = t.ctx.Exec_ctx.layout
let id t = t.id

(* Measurement bracket: snapshot before a run, diff after. *)
type snapshot = {
  s_clock : int;
  s_instrs : int;
  s_mem : Memsim.Memstats.t;
  s_state_cycles : int array;
}

let snapshot t =
  {
    s_clock = t.ctx.Exec_ctx.clock;
    s_instrs = t.ctx.Exec_ctx.instrs;
    s_mem = Exec_ctx.counters t.ctx;
    s_state_cycles = Array.copy t.ctx.Exec_ctx.cycles_by_class;
  }

let finish ?latency ?(faulted = 0) ?(faults = []) ?(degraded = false) ?(stash_max = 0) t snap
    ~label ~packets ~drops ~wire_bytes ~switches : Metrics.run =
  {
    Metrics.label;
    packets;
    drops;
    cycles = t.ctx.Exec_ctx.clock - snap.s_clock;
    instrs = t.ctx.Exec_ctx.instrs - snap.s_instrs;
    wire_bytes;
    switches;
    stash_max;
    mem = Memsim.Memstats.diff (Exec_ctx.counters t.ctx) snap.s_mem;
    freq_ghz = t.cfg.freq_ghz;
    state_cycles =
      Array.init Exec_ctx.n_classes (fun i ->
          t.ctx.Exec_ctx.cycles_by_class.(i) - snap.s_state_cycles.(i));
    latency;
    faulted;
    faults;
    degraded;
    imbalance = None;
  }
