module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Wallclock = Adp_obs.Wallclock

type observer = { profile : Profile.t; wall : Wallclock.t option }

type t = {
  clock : Clock.t;
  costs : Cost_model.t;
  trace : Trace.t;
  metrics : Metrics.t;
  observer : observer option;
  tuples_read : Metrics.counter;
  tuples_output : Metrics.counter;
  retries : Metrics.counter;
  failovers : Metrics.counter;
  sources_failed : Metrics.counter;
  checkpoints : Metrics.counter;
  checkpoint_bytes : Metrics.counter;
  paged_out : Metrics.counter;
  breaker_trips : Metrics.counter;
  breaker_transitions : Metrics.counter;
  degraded : Metrics.counter;
}

let create ?(costs = Cost_model.default) ?(trace = Trace.null) ?metrics
    ?profile ?wall () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  (* The wall recorder writes into profile spans, so wall capture without
     a profiler gets a private one.  Attaching a profiler is itself
     perturbation-free. *)
  let observer =
    match profile, wall with
    | None, None -> None
    | _ ->
      let profile =
        match profile with Some p -> p | None -> Profile.create ()
      in
      Option.iter (fun w -> Wallclock.attach w profile) wall;
      Some { profile; wall }
  in
  let c name help = Metrics.counter metrics ~help name in
  { clock = Clock.create (); costs; trace; metrics; observer;
    tuples_read = c "adp_tuples_read_total" "source tuples consumed";
    tuples_output = c "adp_tuples_output_total" "result tuples emitted";
    retries = c "adp_retries_total" "source reconnect attempts issued";
    failovers = c "adp_failovers_total" "mirror failovers performed";
    sources_failed =
      c "adp_sources_failed_total"
        "sources permanently lost (all mirrors exhausted)";
    checkpoints = c "adp_checkpoints_total" "checkpoint files written";
    checkpoint_bytes =
      c "adp_checkpoint_bytes_total" "bytes of checkpoint data written";
    paged_out =
      c "adp_paged_out_total"
        "state structures paged out by memory pressure";
    breaker_trips =
      c "adp_breaker_trips_total" "circuit breakers tripped open";
    breaker_transitions =
      c "adp_breaker_transitions_total"
        "circuit breaker state transitions (any direction)";
    degraded =
      c "adp_degraded_total"
        "queries deliberately degraded by deadline or memory governance" }

(* The observer (profile spans, plus the wall recorder writing into
   them) is a read-only sidecar: it is handed the float being charged
   and stamps hardware time at the same choke points, and nothing it
   computes flows back — so observing preserves the zero-perturbation
   contract the same way tracing does. *)
let wall t = match t.observer with Some { wall; _ } -> wall | None -> None

let wall_attribute t sp =
  match wall t with None -> () | Some w -> Wallclock.attribute w sp

let charge t c =
  Clock.charge t.clock c;
  wall_attribute t None

let now t = Clock.now t.clock
let traced t = Trace.enabled t.trace

let emit t ev =
  if traced t then begin
    (match wall t with
     | None -> ()
     | Some w -> Wallclock.note_event w (Trace.event_name ev));
    Trace.emit t.trace ~at:(Clock.now t.clock) ev
  end

let profiled t = Option.is_some t.observer

(* [charge_span t sp c] is [charge t c] that also attributes the same
   amount to span [sp] — the attribution adds the float it was handed,
   it never reads the clock, so a profiled run's virtual time is
   bit-identical to an unprofiled one's.  The wall recorder stamps
   hardware elapsed time against the same span. *)
let observe o sp c =
  (match sp with None -> () | Some sp -> Profile.add_time sp c);
  match o.wall with None -> () | Some w -> Wallclock.attribute w sp

(* The observed path lives in [observe] so that the bare one stays small
   enough to inline at the charge sites. *)
let charge_span t sp c =
  Clock.charge t.clock c;
  match t.observer with None -> () | Some o -> observe o sp c

(* Bucket the wall time of a blocking wait (source arrival, retry
   backoff) so it never pollutes the next operator's span. *)
let wall_wait t name =
  match wall t with None -> () | Some w -> Wallclock.note_wait w name

let span t ?depth node =
  match t.observer with
  | None -> None
  | Some o -> Some (Profile.span o.profile ?depth node)

let set_profile_phase t phase =
  match t.observer with
  | None -> ()
  | Some o -> Profile.set_phase o.profile phase

let sync_metrics t =
  let g name help = Metrics.gauge t.metrics ~help name in
  Metrics.set
    (g "adp_clock_virtual_seconds" "virtual completion time of the run")
    (Clock.now t.clock /. 1e6);
  Metrics.set
    (g "adp_clock_cpu_seconds" "virtual time charged as computation")
    (Clock.cpu t.clock /. 1e6);
  Metrics.set
    (g "adp_clock_idle_seconds" "virtual time spent waiting on sources")
    (Clock.idle t.clock /. 1e6);
  Metrics.set
    (g "adp_clock_retry_idle_seconds"
       "virtual idle time attributable to retry backoff")
    (Clock.retry_idle t.clock /. 1e6);
  match wall t with
  | None -> ()
  | Some w -> Wallclock.sync_metrics w t.metrics
