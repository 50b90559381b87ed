(** The interleaved function-stream executor — Algorithm 1 of the paper.

    A fixed set of NFTasks is multiplexed round-robin on one core. The
    Fetch step resolves the next action's NFState targets and issues their
    prefetches immediately, overlapping the fills with the other streams'
    execution; a task whose fills are still in flight is skipped (its
    P-state says so) until they land. Finished NFTasks are re-initialised
    in place, and per-flow ordering is preserved: two packets of one flow
    are never in flight concurrently. A packet whose flow is busy waits in
    a stash of at most [n_tasks] items (one per task slot); no pull starts
    while it is full. Latency counts from the pull, stash wait included. *)

(** Task-selection policy: the paper's round-robin, or a ready-first scan
    that skips tasks whose fills are still in flight (charging one cycle
    per skipped slot). *)
type policy = Round_robin | Ready_first

(** Run until the source drains; returns the measured run. [on_complete]
    observes each finished task just before it is retired — the
    differential oracle's tap. [fault] supplies the run's fault-injection
    plane (a fresh empty plane when omitted). [telemetry] attaches the span
    tracer for the duration of the run; its hooks never charge cycles, so
    traced and untraced runs are cycle-identical.

    [prefetch_distance] (default 1, the paper's policy) tunes the Fetch
    step: 0 issues nothing (every access demand-fetches), and [d >= 2] also
    speculatively issues the resolvable targets of FSM successor states up
    to [d - 1] transitions ahead (fire-and-forget; readiness is tracked on
    the current state's blocks only).

    [quiesce] is polled at pull boundaries; once it answers [true] the run
    stops pulling, drains every in-flight task and stashed item, and
    returns with pulled = completed — the adaptive driver's observation-safe
    reconfiguration point. A hook that never answers [true] leaves the run
    byte-identical to one without it.
    @raise Invalid_argument when [n_tasks <= 0] or [prefetch_distance < 0]. *)
val run :
  ?label:string -> ?policy:policy -> ?prefetch_distance:int ->
  ?quiesce:(unit -> bool) -> ?fault:Fault.t -> ?telemetry:Trace.t ->
  ?on_complete:(Nftask.t -> unit) -> Worker.t -> Program.t -> n_tasks:int ->
  Workload.source -> Metrics.run
