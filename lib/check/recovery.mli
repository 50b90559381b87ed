(** Crash-tolerant scale-out: core-failure injection with checkpoint/replay
    recovery.

    A recovery case shards one generated (or spec-assembled) program across
    a share-nothing multi-core platform (RSS pinning via
    {!Gunfu.Platform.Recovery.owner}). The chaos axis kills one core right
    after a scheduled global pull ({!Faultgen.decide_kill}); a survivor
    adopts the dead core's flows by restoring its last epoch checkpoint
    (Migration-layer snapshots for every stateful NF family), replaying the
    journaled suffix with the victim's recorded fault injections re-armed,
    and absorbing the redirected remainder. Replayed completions are
    deduplicated by run-local packet id and verified content-equal to the
    victim's originals (exactly-once emits).

    The recovered run is judged against a failure-free reference — the same
    platform, sharding and injection schedule without the kill — on
    per-flow emit-content streams and a location-independent state digest,
    plus {!Invariants.check_recovery}'s replay-aware conservation law.
    Per-core executors are RTC: pull boundaries are quiescent, which is
    what makes the journal's checkpoint snapshots consistent. *)

open Gunfu

(** One core's copy of the program, populated with only its owned flows,
    plus the recovery engine's state-plane closures (export/import through
    the Migration layer keyed by universe flow ids, commutative counters
    with additive restore, location-independent per-flow digest). *)
type core_instance = {
  ci_worker : Worker.t;
  ci_program : Program.t;
  ci_pool : Netcore.Packet.Pool.pool;
  ci_export : int list -> (string * string) list;
  ci_import : (string * string) list -> unit;
  ci_apply : (string * string) list -> unit;
      (** SCR update upsert: overwrite resident flows, admit absent ones —
          unlike [ci_import], safe on an instance that already holds the
          flow. *)
  ci_counters : unit -> (string * int) list;
  ci_restore : (string * int) list -> unit;
  ci_flow_digest : Fingerprint.t -> int -> unit;
}

type rcase = {
  r_name : string;
  r_seed : int;
  r_packets : int;
  r_universe : int;  (** flow/session universe size; hints are [0, universe) *)
  r_cfg : Worker.cfg;  (** per-core config before LLC partitioning *)
  r_trace : unit -> Workload.item list;
      (** the global input stream, pristine packets — traced once per check
          and shared (as clones) by both passes so packet ids line up *)
  r_build : Worker.t -> owned:int array -> core_instance;
  r_repro : cores:int -> string;
}

(** The generated program behind [seed] (chain or synthetic, via
    {!Progen.recipe}) as a recovery case. *)
val gen_rcase : seed:int -> profile:string -> packets:int -> rcase

(** A recovery case over an on-disk composition ({!Progen.spec_names}):
    catalog chains rebuild per core via the spec files; [upf_downlink]
    starts each core's UPF empty and installs its owned PFCP sessions
    through the admission path. *)
val spec_rcase : specs_dir:string -> name:string -> seed:int -> packets:int -> rcase

type content = int * int * string * bool * int * string

(** One full platform pass: live cores' observations (core order), the
    merged per-flow emit-content streams, and the location-independent
    state digest. *)
type pass = {
  p_obs : (string * Oracle.observation) list;
  p_streams : (int * content list) list;
  p_digest : string;
}

(** The failure-free platform pass. [~journal:true] turns on
    checkpoint/replay bookkeeping on every core without consuming it —
    journaling is pure reads and clones, so the observations must be
    byte-identical with it on or off (the inertness pin). [?items]
    supplies a pre-drawn trace instead of calling [r_trace] — required
    when a caller compares two passes of a case whose generator is
    stateful (the UPF composition's mobile gateway). *)
val observe_platform :
  ?plan:Faultgen.t -> ?journal:bool -> ?rplan:Platform.Recovery.plan ->
  ?items:Workload.item list -> cores:int -> rcase -> pass

(** First behavioural difference between two passes (per-flow streams,
    then state digest), or [None]. *)
val diff_passes : reference:pass -> pass -> string option

(** First difference in completion, drop, faulted or wire-byte totals
    summed over a pass's cores, or [None]; the message names the
    candidate pass [label], e.g. ["drop counts differ: 3 (reference) vs 2
    (scr)"]. *)
val diff_totals : label:string -> reference:pass -> pass -> string option

(** Fault-plan arming at global stream index [g]: roll [plan], mangle a
    corrupted packet's bytes, and register the injection with [plane].
    Returns the injection armed, if any ([None] without a plan or packet). *)
val arm_plan :
  ?plan:Faultgen.t -> plane:Fault.t -> g:int -> Netcore.Packet.t option ->
  Fault.injection option

type outcome = {
  oc_case : string;
  oc_cores : int;
  oc_packets : int;
  oc_kill : (int * int) option;  (** (victim core, global kill index) *)
  oc_replayed : int;  (** journal-suffix completions replayed by the adopter *)
  oc_checkpoints : int;  (** checkpoints the victim took *)
  oc_reference : pass;
  oc_recovered : pass;
  oc_violations : (string * Invariants.violation) list;
  oc_divergence : string option;
  oc_repro : string;
}

(** Run the failure-free reference and the killed-and-recovered pass and
    compare. The kill schedule comes from [?kill] (explicit), else
    [?plan]'s {!Faultgen.decide_kill}, else no kill (the passes coincide).
    [?plan] also drives packet-fault injection, keyed by global stream
    index so the schedule is sharding-independent. *)
val check_case :
  ?plan:Faultgen.t -> ?kill:int * int -> ?rplan:Platform.Recovery.plan -> cores:int ->
  rcase -> outcome

(** No violations and no divergence. *)
val passed : outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit
