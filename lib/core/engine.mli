(** The per-packet kernel shared by every single-core executor: one
    measured run, and load / act / complete for each NFTask. {!Rtc},
    {!Batch_rtc} and {!Scheduler} keep only their slot policy — the order
    in which NFTasks are loaded, run and retired, and the cycles that order
    costs (dispatch, fetch, switch). The same compiled {!Program} runs
    under each, so comparisons isolate the execution model (§II).

    Containment is always on: without a [fault] plane a fresh empty one is
    used, which is byte-identical to a plane-less run. Telemetry hooks
    never charge cycles, so traced and untraced runs are cycle-identical.
    With a {!Specialize}d program, dispatch is the dense table always and
    actions run as fused runners while untraced; a traced run keeps the
    interpreted action body so span hooks and error ordering are untouched
    (the runner is guard-equivalent, so observations match either way). *)

(** One run's kernel: dispatch, fault plane, tracer, taps and accounting. *)
type t

(** [run ~name ~label worker program body] brackets one measured run:
    worker snapshot, fault plane, tracer attached for the duration of
    [body] (detached even when it raises), dispatch selection, and
    {!Worker.finish} over the kernel's accounting. [body] returns the
    number of task switches it charged. *)
val run :
  name:string -> label:string -> ?quiesce:(unit -> bool) -> ?fault:Fault.t ->
  ?telemetry:Trace.t -> ?on_complete:(Nftask.t -> unit) -> Worker.t ->
  Program.t -> (t -> int) -> Metrics.run

(** Δ: the dense table of a specialized program, else the interpreted FSM. *)
val step : t -> int -> Event.t -> int

val telemetry : t -> Trace.t option

(** Poll the run's [quiesce] hook at a quiescent pull boundary; [false]
    without one. *)
val want_pause : t -> bool

(** [stashed e n]: the executor's hazard stash now holds [n] items. The
    run reports the high-water mark as {!Metrics.run.stash_max}. *)
val stashed : t -> int -> unit

(** Load [item] into [task] at the program's start state, stamp its start
    clock and its pull clock ([pulled_at], default now: an item loaded as
    it is pulled), charge packet I/O, record the pull and parse spans, and
    consult the fault plane: a task quarantined at load leaves with a
    [Faulted] event ({!is_faulted}) and must not execute. *)
val load : t -> ?pulled_at:int -> Nftask.t -> Workload.item -> unit

(** Whether [cs] has an action. *)
val has_action : t -> int -> bool

(** Run the action of [task]'s control state, setting [task]'s event:
    the fused runner, or the interpreted action under the fault barrier
    inside action spans. No dispatch cycles are charged here.
    @raise Invalid_argument ["<name>: control state <q> has no action"]
    when the state has none. *)
val act : t -> Nftask.t -> unit

(** Finish [task]: fault disposition, drop / wire-byte / latency
    (from the pull clock) accounting, the completion span, the [on_complete] tap, then
    {!Nftask.retire}. *)
val complete : t -> Nftask.t -> unit

val is_faulted : Nftask.t -> bool
