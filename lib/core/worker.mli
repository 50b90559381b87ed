(** Per-core runtime (§V, Fig 8): each worker owns its core's simulated
    memory hierarchy, address space, clock, and the runtime cost model
    (task-switch, fetch and packet-I/O overheads). *)

type cfg = {
  freq_ghz : float;
  switch_cycles : int;  (** scheduler overhead per NFTask visit *)
  switch_instrs : int;
  fetch_cycles : int;  (** Transition+Fetch step (Algorithm 1 l.15-16) *)
  fetch_instrs : int;
  rx_tx_cycles : int;  (** per-packet I/O (descriptor ring, doorbell) *)
  rx_tx_instrs : int;
  rtc_dispatch_cycles : int;  (** RTC per-action call overhead *)
  mem_cfg : Memsim.Hierarchy.config;
}

(** 2.7 GHz Xeon 8168-like defaults. *)
val default_cfg : cfg

type t = { id : int; cfg : cfg; ctx : Exec_ctx.t }

val create : ?cfg:cfg -> id:int -> unit -> t
val ctx : t -> Exec_ctx.t
val layout : t -> Memsim.Layout.t
val id : t -> int

(** Measurement bracket: {!snapshot} before a run, {!finish} after. *)
type snapshot

val snapshot : t -> snapshot

(** [faulted]/[faults]/[degraded] come from the run's fault plane and
    default to a fault-free run; [stash_max] defaults to 0 (no stash). *)
val finish :
  ?latency:Metrics.latency -> ?faulted:int ->
  ?faults:(string * Fault.reason * int) list -> ?degraded:bool -> ?stash_max:int -> t ->
  snapshot -> label:string -> packets:int -> drops:int -> wire_bytes:int ->
  switches:int -> Metrics.run
