(** Execution context: the virtual clock, the cost constants, the
    observability sinks and the global counters shared by all operators
    of one query execution.

    The counters live in the metrics registry (as [adp_*_total] counter
    cells) rather than as plain record fields, so a metrics dump sees
    exactly what the engine counted and `Report.run` can be derived from
    the registry — one source of truth, no hand-threaded duplicates. *)

(** The per-node observer: the one span registry, and the wall-clock/GC
    recorder (if any) that writes the wall columns of its spans. *)
type observer = {
  profile : Adp_obs.Profile.t;
  wall : Adp_obs.Wallclock.t option;
}

type t = {
  clock : Clock.t;
  costs : Cost_model.t;
  trace : Adp_obs.Trace.t;
  metrics : Adp_obs.Metrics.t;
  observer : observer option;
      (** [None] = no per-node observation: {!charge_span} only charges
          the clock *)
  tuples_read : Adp_obs.Metrics.counter;  (** source tuples consumed *)
  tuples_output : Adp_obs.Metrics.counter;  (** result tuples emitted *)
  retries : Adp_obs.Metrics.counter;
      (** source reconnect attempts issued *)
  failovers : Adp_obs.Metrics.counter;  (** mirror failovers performed *)
  sources_failed : Adp_obs.Metrics.counter;
      (** sources permanently lost (all mirrors exhausted) *)
  checkpoints : Adp_obs.Metrics.counter;
      (** checkpoint files written by this run *)
  checkpoint_bytes : Adp_obs.Metrics.counter;
      (** bytes of checkpoint data written *)
  paged_out : Adp_obs.Metrics.counter;
      (** state structures paged out by memory pressure *)
  breaker_trips : Adp_obs.Metrics.counter;
      (** circuit breakers tripped open *)
  breaker_transitions : Adp_obs.Metrics.counter;
      (** circuit breaker state transitions, any direction *)
  degraded : Adp_obs.Metrics.counter;
      (** queries deliberately degraded by deadline/memory governance *)
}

(** [trace] defaults to {!Adp_obs.Trace.null} (tracing disabled);
    [metrics] defaults to a fresh private registry.  [profile] and
    [wall] make up the {!observer}: a recorder is attached to the
    profile, and wall capture without a profiler gets a private one
    (this is the only place that rule lives). *)
val create :
  ?costs:Cost_model.t ->
  ?trace:Adp_obs.Trace.t ->
  ?metrics:Adp_obs.Metrics.t ->
  ?profile:Adp_obs.Profile.t ->
  ?wall:Adp_obs.Wallclock.t ->
  unit ->
  t

(** Charge CPU cost.  With wall capture on, also stamps the hardware
    clock into the "(unattributed)" bucket — a read-only sidecar that
    never perturbs the virtual clock. *)
val charge : t -> float -> unit

(** Is an observer attached (profiling or wall capture)? *)
val profiled : t -> bool

(** [wall_attribute t sp] stamps the wall time since the last stamp
    against span [sp] without charging the virtual clock — for work
    (a re-optimizer poll) that runs after its virtual charge.  No-op
    without wall capture. *)
val wall_attribute : t -> Adp_obs.Profile.span option -> unit

(** Bucket the wall time of a blocking wait (e.g. ["(driver wait)"]) so
    it never pollutes the next operator's span.  No-op without wall
    capture. *)
val wall_wait : t -> string -> unit

(** [charge_span t sp c]: {!charge}, plus attribute the same [c] virtual
    microseconds to span [sp], and the wall time since the last stamp to
    its wall columns (when observing).  The attribution re-uses the
    float being charged — it never reads the virtual clock — so an
    observed run stays bit-identical to a bare one.  Without an observer
    this is one branch after the clock charge. *)
val charge_span : t -> Adp_obs.Profile.span option -> float -> unit

(** The current-phase span for [node], or [None] when not profiling. *)
val span : t -> ?depth:int -> string -> Adp_obs.Profile.span option

(** Name the profiler's current phase ("phase 1", "stitch-up", ...).
    No-op when not profiling. *)
val set_profile_phase : t -> string -> unit

val now : t -> float

(** Is tracing enabled?  Guard every {!emit} with this so event payloads
    are never constructed against the null sink. *)
val traced : t -> bool

(** Emit a trace event stamped with the current virtual time.  The clock
    is read, never advanced: tracing cannot perturb virtual time. *)
val emit : t -> Adp_obs.Trace.event -> unit

(** Refresh the clock gauges ([adp_clock_*_seconds]) in the metrics
    registry from the virtual clock.  Called once at the end of a run. *)
val sync_metrics : t -> unit
