(** Differential execution oracle: run one program + workload through every
    executor (RTC as the semantic reference; Batch_rtc over several batch
    sizes; Scheduler over both policies × several task counts) and diff the
    observable behaviour — emitted packet streams, drop/emit/byte counts,
    per-flow output order, final NF state. Divergences come with a
    minimized, seed-replayable repro.

    Executors mutate packets and NF state in place, so a {!case} builds a
    fresh {!instance} (worker, program, state, workload) per run from its
    deterministic seed. *)

open Gunfu

type emit = {
  e_flow : int;  (** workload flow hint; -1 = unordered *)
  e_aux : int;
  e_event : string;  (** terminal event key *)
  e_dropped : bool;
  e_wire : int;
  e_pkt : string;  (** fingerprint of the final header bytes; [""] if none *)
  e_pktid : int;  (** run-local packet id, for order checks *)
  e_clock : int;  (** simulated completion time *)
}

type observation = {
  o_label : string;
  o_run : Metrics.run;
  o_emits : emit list;  (** completion order *)
  o_inputs : (int * int) list;  (** (pktid, flow) in pull order *)
  o_state : string;  (** final NF-state digest *)
  o_mshr_pending : int;  (** outstanding fills at end of run *)
  o_mshr_limit : int;
  o_stash_limit : int;
      (** most items the executor may stash: n_tasks under the scheduler,
          0 under rtc and batch *)
}

type instance = {
  worker : Worker.t;
  program : Program.t;
  source : Workload.source;
  digest : Fingerprint.t -> unit;
}

type case = {
  c_name : string;
  c_seed : int;
  c_profile : string;
  c_packets : int;
  c_build : packets:int -> instance;  (** fresh system under test *)
  c_repro : packets:int -> string;  (** one-command replay *)
}

type divergence = {
  d_case : string;
  d_seed : int;
  d_profile : string;
  d_exec : string;
  d_packets : int;  (** minimized workload length *)
  d_detail : string;
  d_repro : string;
}

type executor = {
  x_name : string;
  x_stash_limit : int;  (** the {!observation.o_stash_limit} of its runs *)
  x_run :
    ?fault:Fault.t -> ?telemetry:Trace.t -> on_complete:(Nftask.t -> unit) ->
    Worker.t -> Program.t -> Workload.source -> Metrics.run;
}

val reference : executor

(** Everything compared against {!reference}: batch sizes {1,8,32}, both
    scheduler policies × n_tasks {1,2,4,8,16}. *)
val executors : executor list

val executor_names : string list
val batch_sizes : int list
val task_counts : int list

val packet_fingerprint : Netcore.Packet.t -> string

(** What a packet's journey must look like regardless of executor (or,
    for the recovery plane, regardless of which core processed it): the
    packet id is deliberately excluded — ids are run-local. *)
val emit_content : emit -> int * int * string * bool * int * string

(** Emit contents grouped per flow hint in completion order, sorted by
    flow — the per-flow stream comparison surface. *)
val per_flow_streams :
  emit list -> (int * (int * int * string * bool * int * string) list) list

(** Run one executor over a fresh instance, recording all observables.
    With [~specialize:true] the compiled hot path (see {!Specialize}) is
    installed on the instance's program before the run and the label gains
    a ["+spec"] suffix; with [false] (the default) any payload is stripped,
    so the interpreted baseline genuinely interprets even on a shared
    program. With [?plan], a fresh fault plane is created for the run, the
    source is instrumented with the plan's deterministic injection schedule
    (see {!Faultgen.instrument}) and the plane is handed to the executor —
    so two observations of the same case under the same plan see identical
    fault schedules. [?telemetry] attaches the span tracer for the run;
    because its hooks never charge cycles, the observation is identical
    with or without it (the inertness test pins this). *)
val observe :
  ?specialize:bool -> ?plan:Faultgen.t -> ?telemetry:Trace.t -> executor -> instance ->
  observation

(** First behavioural difference against the reference observation, or
    [None] when identical. Under faults this additionally diffs the
    faulted-completion counts, the degraded flags and the per-NF
    per-reason taxonomy. *)
val diff_observations : reference:observation -> observation -> string option

(** Rebuild + rerun reference and [exec] on a [packets]-long prefix. The
    reference is always interpreted; [?specialize] applies to [exec]. *)
val diverges :
  ?plan:Faultgen.t -> ?specialize:bool -> case -> executor -> packets:int ->
  string option

(** Smallest prefix length still diverging (binary search; repro aid, not
    a minimality proof). *)
val minimize :
  ?plan:Faultgen.t -> ?specialize:bool -> case -> executor -> packets:int -> int

(** Run the case through every executor; [Some] on the first divergence
    (minimized unless [~minimized:false]). With [~specialize:true] the scan
    widens to the full 28-way matrix: all 14 executors interpreted plus all
    14 under the specialized hot path (the reference included), every one
    diffed against the interpreted reference; diverging specialized
    variants are reported with a ["+spec"] suffix on [d_exec]. [?plan] runs
    the whole comparison under that injection schedule — the chaos mode:
    executors must agree even while faulting. *)
val check_case :
  ?minimized:bool -> ?specialize:bool -> ?plan:Faultgen.t -> case -> divergence option

val check_cases :
  ?minimized:bool -> ?specialize:bool -> ?plan:Faultgen.t -> case list ->
  divergence list
val pp_divergence : Format.formatter -> divergence -> unit
