(** Per-core execution context: the simulated memory hierarchy plus cycle
    and instruction counters. NFAction bodies charge all memory traffic and
    computation here; executors add their own overheads. *)

type t = {
  mem : Memsim.Hierarchy.t;
  layout : Memsim.Layout.t;
  mutable clock : int;  (** cycles *)
  mutable instrs : int;  (** retired instructions, for IPC *)
  cycles_by_class : int array;  (** memory cycles per {!Sref.state_class} *)
  mutable trace : Trace.t option;  (** telemetry plane, [None] = inert *)
}

val n_classes : int
val class_index : Sref.state_class -> int
val class_of_index : int -> Sref.state_class

val create : ?mem_cfg:Memsim.Hierarchy.config -> unit -> t

(** Attach the telemetry plane: stores it and taps the memory hierarchy so
    every demand line access reports its serving level to the trace.
    Executors pair attach/detach under [Fun.protect], so a raising run
    cannot leak the tap into a later one. *)
val attach_trace : t -> Trace.t -> unit

val detach_trace : t -> unit

(** Pure computation: advance the clock without memory traffic. *)
val compute : t -> cycles:int -> instrs:int -> unit

(** Demand load/store of [bytes] at [addr], classified as [cls] state;
    charges the latency of whatever level serves it. *)
val read : t -> cls:Sref.state_class -> addr:int -> bytes:int -> unit

val write : t -> cls:Sref.state_class -> addr:int -> bytes:int -> unit
val read_sref : t -> Sref.t -> unit

(** Issue a software prefetch (non-blocking); returns fills issued. *)
val prefetch : t -> addr:int -> bytes:int -> int

(** Would an access now be cheap? (resident in L1/L2 with no fill in
    flight). *)
val ready : t -> addr:int -> bytes:int -> bool

(** [read] every [(addr, bytes)] block, in order. *)
val read_blocks : t -> cls:Sref.state_class -> (int * int) list -> unit

(** [prefetch] every [(addr, bytes)] block, in order. *)
val prefetch_blocks : t -> (int * int) list -> unit

(** [ready] holds for every block. *)
val blocks_ready : t -> (int * int) list -> bool

val counters : t -> Memsim.Memstats.t
val state_access_cycles : t -> Sref.state_class -> int
