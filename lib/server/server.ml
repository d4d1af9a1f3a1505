open Adp_relation
open Adp_exec
open Adp_optimizer
module Corrective = Adp_core.Corrective
module Diagnostic = Adp_analysis.Diagnostic
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Json = Adp_obs.Json
module Selectivity = Adp_stats.Selectivity
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash
module Workload = Adp_query.Workload
module Sql_parser = Adp_query.Sql_parser
module Tpch = Adp_datagen.Tpch

type config = {
  workers : int;
  queue_capacity : int;
  poll : Poll_controller.config;
  heartbeat_interval : float;
  heartbeat_timeout : float;
  max_retries : int;
  retry_backoff : float;
  checkpoint_dir : string;
  checkpoint_every : int;
  class_quotas : (string * int) list;
  memory_budget : int option;
  corrective : Corrective.config;
  trace : Trace.t;
  metrics : Metrics.t option;
}

let default_config ~checkpoint_dir =
  { workers = 2; queue_capacity = 16; poll = Poll_controller.default;
    heartbeat_interval = 5e4; heartbeat_timeout = 2e5; max_retries = 3;
    retry_backoff = 1e5; checkpoint_dir; checkpoint_every = 500;
    class_quotas = []; memory_budget = None;
    corrective =
      { Corrective.default_config with poll_interval = 2e4;
        min_leaf_seen = 200; switch_threshold = 0.8 };
    trace = Trace.null; metrics = None }

let validate cfg =
  let bad fmt = Diagnostic.errorf ~path:"server" fmt in
  Poll_controller.validate cfg.poll
  @ List.concat
      [ (if cfg.workers >= 1 then []
         else [ bad ~code:"server-bad-workers" "workers must be >= 1 (got %d)"
                  cfg.workers ]);
        (if cfg.queue_capacity >= 1 then []
         else
           [ bad ~code:"server-bad-capacity"
               "queue_capacity must be >= 1 (got %d)" cfg.queue_capacity ]);
        (if cfg.heartbeat_interval > 0.0 then []
         else
           [ bad ~code:"server-bad-heartbeat"
               "heartbeat_interval must be > 0 (got %g)" cfg.heartbeat_interval
           ]);
        (if cfg.heartbeat_timeout >= cfg.heartbeat_interval then []
         else
           [ bad ~code:"server-bad-heartbeat"
               "heartbeat_timeout must be >= heartbeat_interval (got %g < %g)"
               cfg.heartbeat_timeout cfg.heartbeat_interval ]);
        (if cfg.max_retries >= 0 then []
         else [ bad ~code:"server-bad-retries"
                  "max_retries must be >= 0 (got %d)" cfg.max_retries ]);
        (if cfg.retry_backoff >= 0.0 then []
         else [ bad ~code:"server-bad-backoff"
                  "retry_backoff must be >= 0 (got %g)" cfg.retry_backoff ]);
        (if cfg.checkpoint_every >= 0 then []
         else
           [ bad ~code:"server-bad-checkpoint-every"
               "checkpoint_every must be >= 0 (got %d)" cfg.checkpoint_every ]);
        (if cfg.checkpoint_dir <> "" then []
         else [ bad ~code:"server-bad-checkpoint-dir"
                  "checkpoint_dir must not be empty" ]);
        List.concat_map
          (fun (name, quota) ->
            (if name <> "" then []
             else [ bad ~code:"server-bad-class"
                      "priority class names must not be empty" ])
            @
            if quota >= 1 then []
            else
              [ bad ~code:"server-bad-class"
                  "class %S quota must be >= 1 (got %d)" name quota ])
          cfg.class_quotas;
        (let names = List.map fst cfg.class_quotas in
         if List.length (List.sort_uniq String.compare names)
            = List.length names
         then []
         else [ bad ~code:"server-bad-class"
                  "priority class names must be distinct" ]);
        (match cfg.memory_budget with
         | Some b when b < cfg.workers ->
           [ bad ~code:"server-bad-memory"
               "global memory budget %d cannot be partitioned across %d \
                workers (need at least one tuple per worker)"
               b cfg.workers ]
         | Some _ | None -> []) ]

type resolved = {
  r_query : Logical.query;
  r_catalog : Catalog.t;
  r_sources : unit -> Source.t list;
}

type resolver = string -> resolved

type outcome =
  | Done of { result : Relation.t; stats : Corrective.stats }
  | Failed of string
  | Cancelled
  | Rejected of string

type query_report = {
  qr_id : string;
  qr_spec : string;
  qr_class : string option;
  qr_deadline_s : float option;
  qr_outcome : outcome;
  qr_submitted_s : float;
  qr_finished_s : float;
  qr_attempts : int;
  qr_warm_signatures : int;
  qr_warm_plan_changed : bool;
}

type report = {
  r_queries : query_report list;
  r_done : int;
  r_failed : int;
  r_cancelled : int;
  r_rejected : int;
  r_shed : int;
  r_workers_spawned : int;
  r_workers_died : int;
  r_reclaims : int;
  r_polls : int;
  r_busy_polls : int;
  r_min_interval_s : float;
  r_max_interval_s : float;
  r_finished_s : float;
  r_shared_signatures : int;
}

(* ------------------------------------------------------------------ *)
(* Run state                                                          *)
(* ------------------------------------------------------------------ *)

(* Everything an in-flight attempt needs to be re-executed bit-identically
   (a kill directive landing mid-attempt replays it with the crash armed)
   and to map the inner run's virtual clock onto the server clock. *)
type attempt = {
  a_worker : int;
  a_t0 : float;  (* server time the attempt started *)
  a_base : float;  (* inner clock at start (resume point), µs *)
  a_resume : string option;
  a_seed : Selectivity.dump;  (* shared-store snapshot the attempt saw *)
  a_snapshot : string list;  (* checkpoint files present at start *)
}

(* What the eagerly-executed attempt produced, held until the server
   clock reaches the completion (or supervisor-detection) event. *)
type pending =
  | P_done of Relation.t * Corrective.stats * Trace.stamped list
  | P_error of string * Trace.stamped list
  | P_crashed of { last_hb : float; msg : string; events : Trace.stamped list }

type jstate = Queued | Running | Terminal

type job = {
  j_id : string;
  j_spec : string;
  j_class : string option;
  j_deadline : float option;  (* absolute server µs *)
  j_resolved : resolved option;
  j_submitted : float;
  mutable j_state : jstate;
  mutable j_attempts : int;  (* executions started *)
  mutable j_failures : int;  (* attempts reclaimed after a worker death *)
  mutable j_not_before : float;
  mutable j_armed : Crash.point list;  (* kills waiting for an attempt *)
  mutable j_gen : int;  (* invalidates stale completion/death events *)
  mutable j_params : attempt option;
  mutable j_pending : pending option;
  mutable j_outcome : outcome option;
  mutable j_finished : float;
  mutable j_warm_sigs : int;
  mutable j_warm_changed : bool;
}

type ev =
  | E_submit of string * string * string option * float option
  | E_kill of string * Crash.point
  | E_cancel of string
  | E_drain
  | E_poll
  | E_complete of job * int
  | E_death of job * int

(* What a serve fixes before its first event: the knobs, the resolver
   and the server's own metric cells. *)
type env = {
  config : config;
  resolver : resolver;
  metrics : Metrics.t;
  depth_g : Metrics.gauge;
  interval_g : Metrics.gauge;
  alive_g : Metrics.gauge;
  done_c : Metrics.counter;
  failed_c : Metrics.counter;
  cancelled_c : Metrics.counter;
  rejected_c : Metrics.counter;
  polls_c : Metrics.counter;
  reclaims_c : Metrics.counter;
  shed_c : Metrics.counter;
}

(* The state the named steps advance. *)
type t = {
  env : env;
  pc : Poll_controller.t;
  jobs : (string, job) Hashtbl.t;
  workers : (int, string option) Hashtbl.t;  (* worker -> running query *)
  shared : Selectivity.t;  (* cross-query selectivity store *)
  mutable heap : (float * int * ev) list;  (* sorted by (time, seq) *)
  mutable seq : int;
  mutable order : job list;  (* newest submission first *)
  mutable waiting : job list;  (* queued jobs, submission order *)
  mutable draining : bool;
  mutable next_worker : int;  (* workers spawned so far *)
  mutable died : int;  (* each death reclaims its query *)
  mutable sheds : int;
  mutable polls : int;
  mutable busy_polls : int;
  mutable min_seen : float;
  mutable max_seen : float;
  mutable now : float;
}

(* Remove a query's checkpoint files, except those named in [keep]. *)
let clear_checkpoints ?(keep = []) dir =
  List.iter
    (fun f -> if not (List.mem f keep) then Sys.remove (Filename.concat dir f))
    (Checkpoint.files ~dir)

let latest_clock dir ~base =
  match Checkpoint.latest ~dir with
  | None -> None
  | Some path -> (
    match Checkpoint.load path with
    | Ok ck -> Some (Float.max base ck.Checkpoint.clock.Clock.s_now)
    | Error _ -> None)

let rec subsets = function
  | [] -> [ [] ]
  | x :: tl ->
    let s = subsets tl in
    s @ List.map (fun y -> x :: y) s

let plan_desc spec = Format.asprintf "%a" Plan.pp_spec spec

let failure_msg where diags =
  Printf.sprintf "%s: %s" where (String.trim (Diagnostic.to_string diags))

let job_dir st job = Filename.concat st.env.config.checkpoint_dir job.j_id
let traced st = Trace.enabled st.env.config.trace

let emit st ?(at = st.now) ev =
  if traced st then Trace.emit st.env.config.trace ~at ev

(* Event heap: a sorted association list is plenty at workload scale;
   the sequence number keeps equal-time events in insertion order. *)
let schedule st at ev =
  st.seq <- st.seq + 1;
  let seq = st.seq in
  let rec ins = function
    | [] -> [ (at, seq, ev) ]
    | ((t, s, _) as hd) :: tl ->
      if t < at || (t = at && s < seq) then hd :: ins tl
      else (at, seq, ev) :: hd :: tl
  in
  st.heap <- ins st.heap

let set_depth st =
  Metrics.set st.env.depth_g (float_of_int (List.length st.waiting))

let enqueue st job =
  st.waiting <- st.waiting @ [ job ];
  set_depth st

let dequeue st job =
  st.waiting <- List.filter (fun j -> j != job) st.waiting;
  set_depth st

let set_alive st =
  Metrics.set st.env.alive_g (float_of_int (Hashtbl.length st.workers))

let spawn_worker st =
  st.next_worker <- st.next_worker + 1;
  Hashtbl.replace st.workers st.next_worker None;
  set_alive st;
  emit st (Trace.Worker_spawned { worker = st.next_worker })

let finish st job outcome =
  job.j_state <- Terminal;
  job.j_outcome <- Some outcome;
  job.j_finished <- st.now;
  job.j_params <- None;
  job.j_pending <- None;
  Metrics.incr
    (match outcome with
     | Done _ -> st.env.done_c
     | Failed _ -> st.env.failed_c
     | Cancelled -> st.env.cancelled_c
     | Rejected _ -> st.env.rejected_c)

let admission st job ~accepted reason =
  emit st
    (Trace.Admission
       { query = job.j_id; accepted; queue_depth = List.length st.waiting;
         reason })

let reject st job reason =
  admission st job ~accepted:false reason;
  finish st job (Rejected reason)

(* Each re-stamped block is preceded by a [Query_attempt] marker
   carrying its length, which is what lets [tukwila explain] group a
   serve trace into per-query lanes. *)
let emit_shifted st job (params : attempt) events =
  if traced st && events <> [] then begin
    emit st ~at:params.a_t0
      (Trace.Query_attempt
         { query = job.j_id; attempt = job.j_attempts;
           worker = params.a_worker; events = List.length events });
    List.iter
      (fun (ts, ev) ->
        emit st ~at:(params.a_t0 +. Float.max 0.0 (ts -. params.a_base)) ev)
      events
  end

(* Priority rank of a class: its position in [class_quotas] (earlier =
   higher priority); unclassified work dispatches after every class. *)
let class_rank config klass =
  match klass with
  | None -> max_int
  | Some c ->
    let rec idx i = function
      | [] -> max_int
      | (n, _) :: tl -> if n = c then i else idx (i + 1) tl
    in
    idx 0 config.class_quotas

(* ------------------------------------------------------------------ *)
(* Steps                                                              *)
(* ------------------------------------------------------------------ *)

(* Bring the pool up at time zero, enqueue the script and start the
   dispatcher polling. *)
let boot config resolver script =
  Diagnostic.raise_if_errors ~where:"server" (validate config);
  let metrics =
    match config.metrics with Some m -> m | None -> Metrics.create ()
  in
  let gauge help name = Metrics.gauge metrics ~help name in
  let counter help name = Metrics.counter metrics ~help name in
  let outcome_c name =
    Metrics.counter metrics
      ~labels:[ ("outcome", name) ]
      ~help:"queries by final outcome" "adp_server_queries_total"
  in
  let depth_g = gauge "waiting queries" "adp_server_queue_depth" in
  let interval_g =
    gauge "dispatcher poll interval (virtual s)"
      "adp_server_poll_interval_seconds"
  in
  let alive_g = gauge "live pool workers" "adp_server_workers_alive" in
  let done_c = outcome_c "done" in
  let failed_c = outcome_c "failed" in
  let cancelled_c = outcome_c "cancelled" in
  let rejected_c = outcome_c "rejected" in
  let polls_c = counter "dispatcher polls" "adp_server_polls_total" in
  let reclaims_c =
    counter "queries reclaimed from dead workers" "adp_server_reclaims_total"
  in
  let shed_c =
    counter "queued queries shed because their deadline passed"
      "adp_server_shed_total"
  in
  let st =
    { env =
        { config; resolver; metrics; depth_g; interval_g; alive_g; done_c;
          failed_c; cancelled_c; rejected_c; polls_c; reclaims_c; shed_c };
      pc = Poll_controller.create config.poll; jobs = Hashtbl.create 32;
      workers = Hashtbl.create 8; shared = Selectivity.create (); heap = [];
      seq = 0; order = []; waiting = []; draining = false; next_worker = 0;
      died = 0; sheds = 0; polls = 0; busy_polls = 0; min_seen = infinity;
      max_seen = 0.0; now = 0.0 }
  in
  for _ = 1 to config.workers do
    spawn_worker st
  done;
  List.iter
    (fun (at_s, d) ->
      let at = at_s *. 1e6 in
      match d with
      | Script.Submit { qid; spec; klass; deadline_s } ->
        schedule st at (E_submit (qid, spec, klass, deadline_s))
      | Script.Kill { qid; point } -> schedule st at (E_kill (qid, point))
      | Script.Cancel qid -> schedule st at (E_cancel qid)
      | Script.Drain -> schedule st at E_drain)
    script;
  schedule st 0.0 E_poll;
  st

(* [E_submit]: resolve the spec and admit the query to the waiting
   queue, or reject it (draining, unknown class, queue or class quota
   full).  A spec that does not resolve is admitted and failed at once. *)
let admit st qid spec klass deadline_s =
  let config = st.env.config in
  let resolved, resolve_error =
    match st.env.resolver spec with
    | r -> (Some r, None)
    | exception Diagnostic.Failed (where, diags) ->
      (None, Some (failure_msg where diags))
  in
  let job =
    { j_id = qid; j_spec = spec; j_class = klass;
      j_deadline = Option.map (fun d -> st.now +. (d *. 1e6)) deadline_s;
      j_resolved = resolved; j_submitted = st.now; j_state = Queued;
      j_attempts = 0; j_failures = 0; j_not_before = st.now; j_armed = [];
      j_gen = 0; j_params = None; j_pending = None; j_outcome = None;
      j_finished = st.now; j_warm_sigs = 0; j_warm_changed = false }
  in
  Hashtbl.replace st.jobs qid job;
  st.order <- job :: st.order;
  let quota_full c =
    match List.assoc_opt c config.class_quotas with
    | Some quota ->
      List.length (List.filter (fun j -> j.j_class = Some c) st.waiting)
      >= quota
    | None -> false
  in
  match klass with
  | _ when st.draining -> reject st job "draining"
  | Some c when not (List.mem_assoc c config.class_quotas) ->
    reject st job ("unknown-class:" ^ c)
  | _ when List.length st.waiting >= config.queue_capacity ->
    reject st job "queue-full"
  | Some c when quota_full c -> reject st job ("class-quota:" ^ c)
  | _ -> (
    match resolve_error with
    | Some msg ->
      admission st job ~accepted:true "";
      finish st job (Failed msg)
    | None ->
      enqueue st job;
      admission st job ~accepted:true "")

(* Warm-start evidence: how many of the shared store's selectivity
   signatures match a connected subexpression of this query, and
   whether that evidence flips the optimizer's initial plan.  Both go
   through the estimator only, which never touches any clock. *)
let warm_start config job (r : resolved) seed =
  let names = Logical.source_names r.r_query in
  let known sg =
    List.mem_assoc sg seed.Selectivity.d_sels
    || List.mem_assoc sg seed.Selectivity.d_outs
  in
  job.j_warm_sigs <-
    subsets names
    |> List.filter (fun s -> s <> [] && Logical.connected r.r_query s)
    |> List.map (Logical.signature_of_set r.r_query)
    |> List.sort_uniq String.compare
    |> List.filter known |> List.length;
  if job.j_warm_sigs > 0 then begin
    let cc = config.corrective in
    let plan_under sels =
      plan_desc
        (Optimizer.optimize ~preagg:cc.Corrective.preagg
           ~costs:cc.Corrective.costs r.r_query r.r_catalog sels)
          .Optimizer.spec
    in
    match
      plan_under (Selectivity.create ()) <> plan_under (Selectivity.load seed)
    with
    | changed -> job.j_warm_changed <- changed
    | exception _ -> job.j_warm_changed <- false
  end

(* The corrective configuration of one attempt: the server's template
   plus its checkpoint, resume point, crash, stats seed, and the job's
   deadline and the worker's memory slice. *)
let attempt_config config job (params : attempt) ~dir ~crash =
  let cc = config.corrective in
  let policy =
    Checkpoint.policy
      ?every_tuples:
        (if config.checkpoint_every > 0 then Some config.checkpoint_every
         else None)
      ~dir ()
  in
  (* Map the job's absolute server-clock deadline onto the attempt's
     inner clock (which starts at the resume point [a_base]): the run
     must stop when server time reaches the deadline, i.e. when its own
     clock reaches [a_base + (deadline - a_t0)]. *)
  let deadline =
    match job.j_deadline with
    | Some dl -> Some (params.a_base +. Float.max 0.0 (dl -. params.a_t0))
    | None -> cc.Corrective.deadline
  in
  (* The global memory budget is partitioned evenly across the pool:
     every worker pages under its slice regardless of what its
     neighbours run, so one heavy query cannot starve the others. *)
  let memory_budget =
    match config.memory_budget with
    | Some b -> Some (max 1 (b / config.workers))
    | None -> cc.Corrective.memory_budget
  in
  { cc with
    Corrective.checkpoint = Some policy; resume_from = params.a_resume;
    crash; stats_seed = Some params.a_seed; deadline; memory_budget }

(* One attempt, run eagerly through [Corrective.run]; the outcome is
   parked on the job and surfaces when the server clock reaches its
   completion or supervisor-detection event. *)
let execute st job (params : attempt) ~crash =
  let config = st.env.config in
  let r = Option.get job.j_resolved in
  let dir = job_dir st job in
  let qm = Metrics.with_labels st.env.metrics [ ("query", job.j_id) ] in
  (* Drop cells of a discarded or reclaimed prior attempt: the cells
     left behind equal what a single fresh process would have
     produced, and the store stays bounded per query. *)
  Metrics.prune qm;
  let inner = if traced st then Trace.memory () else Trace.null in
  let cc = attempt_config config job params ~dir ~crash in
  match
    Corrective.run ~config:cc ~trace:inner ~metrics:qm r.r_query r.r_catalog
      (r.r_sources ())
  with
  | result, stats ->
    (* determinism-ok: draining the job's own capture trace ([] when
       tracing is off) into the reply, not back into execution *)
    job.j_pending <- Some (P_done (result, stats, Trace.events inner));
    schedule st
      (params.a_t0
      +. Float.max 0.0 (stats.Corrective.total_time -. params.a_base))
      (E_complete (job, job.j_gen))
  | exception Crash.Crashed msg ->
    (* The worker died at the virtual moment of its last checkpoint (the
       best deterministic anchor the survivors can ever learn); its last
       heartbeat is the latest beat before that, and the supervisor
       notices one heartbeat-timeout later. *)
    let death_off =
      match latest_clock dir ~base:params.a_base with
      | Some s_now -> s_now -. params.a_base
      | None -> 0.0
    in
    let hb = config.heartbeat_interval in
    let beats = Float.of_int (int_of_float (death_off /. hb)) in
    let last_hb = params.a_t0 +. (beats *. hb) in
    job.j_pending <-
      (* determinism-ok: draining the job's own capture trace into the
         crash record, not back into execution *)
      Some (P_crashed { last_hb; msg; events = Trace.events inner });
    schedule st (last_hb +. config.heartbeat_timeout)
      (E_death (job, job.j_gen))
  | exception Diagnostic.Failed (where, diags) ->
    job.j_pending <-
      Some
        (P_error
           ( failure_msg where diags,
             (* determinism-ok: draining the job's own capture trace into
                the error record, not back into execution *)
             Trace.events inner ));
    schedule st params.a_t0 (E_complete (job, job.j_gen))

(* Start the job's next attempt on [worker].  The first attempt sweeps
   a previous server run's checkpoints and computes the warm start; a
   retry after a reclaim resumes from the newest checkpoint. *)
let start_attempt st job worker =
  let dir = job_dir st job in
  if job.j_attempts = 0 then clear_checkpoints dir;
  let resume =
    if job.j_failures > 0 && Checkpoint.latest ~dir <> None then Some dir
    else None
  in
  let base =
    match resume with
    | None -> 0.0
    | Some _ -> Option.value ~default:0.0 (latest_clock dir ~base:0.0)
  in
  let seed = Selectivity.dump st.shared in
  if job.j_attempts = 0 then
    Option.iter (fun r -> warm_start st.env.config job r seed) job.j_resolved;
  job.j_attempts <- job.j_attempts + 1;
  job.j_gen <- job.j_gen + 1;
  job.j_state <- Running;
  Hashtbl.replace st.workers worker (Some job.j_id);
  let params =
    { a_worker = worker; a_t0 = st.now; a_base = base; a_resume = resume;
      a_seed = seed; a_snapshot = Checkpoint.files ~dir }
  in
  job.j_params <- Some params;
  let crash =
    match job.j_armed with
    | [] -> []
    | p :: tl ->
      job.j_armed <- tl;
      [ p ]
  in
  execute st job params ~crash

(* [E_kill]: arm a crash for the job's next attempt — or, when the
   in-flight attempt would have completed, replay it with the crash
   armed.  Same seed, same resume point, same checkpoint-directory state
   (the replay's sweep keeps only the files present when the attempt
   started): deterministic. *)
let arm_kill st job point =
  match (job.j_state, job.j_pending, job.j_params) with
  | Terminal, _, _ -> ()
  | Running, Some (P_done _), Some params ->
    job.j_gen <- job.j_gen + 1;
    clear_checkpoints ~keep:params.a_snapshot (job_dir st job);
    execute st job params ~crash:[ point ]
  | (Queued | Running), _, _ ->
    (* queued, or already failing or dying: arm for a later attempt *)
    job.j_armed <- job.j_armed @ [ point ]

(* [E_cancel]: only a queued query can be cancelled. *)
let cancel st job =
  if job.j_state = Queued then begin
    dequeue st job;
    finish st job Cancelled
  end

(* [E_complete]: free the worker and surface the attempt's outcome; a
   done run publishes what it learned to the shared store only now, so
   a later-starting attempt never sees statistics from a run that (on
   the server clock) had not finished yet. *)
let complete st job =
  let params = Option.get job.j_params in
  Hashtbl.replace st.workers params.a_worker None;
  match job.j_pending with
  | Some (P_done (result, stats, events)) ->
    emit_shifted st job params events;
    Selectivity.absorb st.shared stats.Corrective.learned;
    finish st job (Done { result; stats })
  | Some (P_error (msg, events)) ->
    emit_shifted st job params events;
    finish st job (Failed msg)
  | Some (P_crashed _) | None -> ()

(* [E_death]: the supervisor declares the attempt's worker dead,
   reclaims the query, spawns a replacement and requeues the query with
   exponential backoff — or fails it once the retry budget is spent. *)
let reclaim st job =
  match (job.j_pending, job.j_params) with
  | Some (P_crashed { last_hb; msg; events }), Some params ->
    let config = st.env.config in
    emit_shifted st job params events;
    let w = params.a_worker in
    Hashtbl.remove st.workers w;
    st.died <- st.died + 1;
    set_alive st;
    emit st
      (Trace.Worker_died
         { worker = w; query = job.j_id; last_heartbeat_s = last_hb /. 1e6 });
    let dir = job_dir st job in
    let resume_from =
      match Checkpoint.latest ~dir with Some _ -> dir | None -> ""
    in
    emit st
      (Trace.Worker_reclaimed
         { worker = w; query = job.j_id; attempt = job.j_attempts;
           resume_from });
    Metrics.incr st.env.reclaims_c;
    spawn_worker st;
    job.j_failures <- job.j_failures + 1;
    job.j_params <- None;
    job.j_pending <- None;
    if job.j_failures > config.max_retries then
      finish st job
        (Failed
           (Printf.sprintf "retry budget exhausted after %d attempts (last: %s)"
              job.j_attempts msg))
    else begin
      job.j_state <- Queued;
      job.j_not_before <-
        st.now
        +. (config.retry_backoff *. (2.0 ** float_of_int (job.j_failures - 1)));
      enqueue st job
    end
  | _ -> ()

(* [E_poll]: shed queued work whose deadline already passed (it can
   only waste a worker), hand ready jobs to idle workers in class
   priority order (FIFO within a class: the sort is stable and
   [waiting] is in submission order), and re-time the next poll. *)
let dispatch st =
  let config = st.env.config in
  List.iter
    (fun job ->
      match job.j_deadline with
      | Some dl when dl <= st.now ->
        dequeue st job;
        st.sheds <- st.sheds + 1;
        Metrics.incr st.env.shed_c;
        reject st job "deadline-shed"
      | Some _ | None -> ())
    st.waiting;
  let ready =
    List.filter (fun job -> job.j_not_before <= st.now) st.waiting
    |> List.stable_sort (fun a b ->
           compare (class_rank config a.j_class) (class_rank config b.j_class))
  in
  let idle =
    Hashtbl.fold (fun w s acc -> if s = None then w :: acc else acc)
      st.workers []
    |> List.sort compare
  in
  let rec assign ws jobs =
    match (ws, jobs) with
    | w :: ws, job :: jobs ->
      dequeue st job;
      start_attempt st job w;
      assign ws jobs
    | _ -> ()
  in
  assign idle ready;
  let found = List.length ready in
  st.polls <- st.polls + 1;
  if found > 0 then st.busy_polls <- st.busy_polls + 1;
  Metrics.incr st.env.polls_c;
  let before = Poll_controller.interval st.pc in
  let interval = Poll_controller.record st.pc ~found in
  st.min_seen <- Float.min st.min_seen interval;
  st.max_seen <- Float.max st.max_seen interval;
  Metrics.set st.env.interval_g (interval /. 1e6);
  if interval <> before then
    emit st
      (Trace.Poll_interval_changed
         { from_s = before /. 1e6; to_s = interval /. 1e6; found });
  let busy_worker =
    Hashtbl.fold (fun _ s acc -> acc || s <> None) st.workers false
  in
  if st.waiting <> [] || busy_worker || st.heap <> [] then
    schedule st (st.now +. interval) E_poll

let handle st = function
  | E_submit (qid, spec, klass, deadline_s) ->
    admit st qid spec klass deadline_s
  | E_kill (qid, point) ->
    Option.iter (fun j -> arm_kill st j point) (Hashtbl.find_opt st.jobs qid)
  | E_cancel qid -> Option.iter (cancel st) (Hashtbl.find_opt st.jobs qid)
  | E_drain -> st.draining <- true
  | E_complete (job, gen) -> if job.j_gen = gen then complete st job
  | E_death (job, gen) -> if job.j_gen = gen then reclaim st job
  | E_poll -> dispatch st

let rec loop st =
  match st.heap with
  | [] -> ()
  | (at, _, ev) :: rest ->
    st.heap <- rest;
    st.now <- Float.max st.now at;
    handle st ev;
    loop st

let report st =
  let queries =
    List.rev_map
      (fun j ->
        { qr_id = j.j_id; qr_spec = j.j_spec; qr_class = j.j_class;
          qr_deadline_s = Option.map (fun d -> d /. 1e6) j.j_deadline;
          qr_outcome =
            (match j.j_outcome with
             | Some o -> o
             | None -> Failed "server stopped before the query finished");
          qr_submitted_s = j.j_submitted /. 1e6;
          qr_finished_s = j.j_finished /. 1e6; qr_attempts = j.j_attempts;
          qr_warm_signatures = j.j_warm_sigs;
          qr_warm_plan_changed = j.j_warm_changed })
      st.order
  in
  let count f = List.length (List.filter f queries) in
  let interval_s seen =
    (if st.polls = 0 then st.env.config.poll.Poll_controller.max_interval
     else seen)
    /. 1e6
  in
  { r_queries = queries;
    r_done =
      count (fun q -> match q.qr_outcome with Done _ -> true | _ -> false);
    r_failed =
      count (fun q -> match q.qr_outcome with Failed _ -> true | _ -> false);
    r_cancelled = count (fun q -> q.qr_outcome = Cancelled);
    r_rejected =
      count (fun q -> match q.qr_outcome with Rejected _ -> true | _ -> false);
    r_shed = st.sheds; r_workers_spawned = st.next_worker;
    r_workers_died = st.died; r_reclaims = st.died; r_polls = st.polls;
    r_busy_polls = st.busy_polls; r_min_interval_s = interval_s st.min_seen;
    r_max_interval_s = interval_s st.max_seen; r_finished_s = st.now /. 1e6;
    r_shared_signatures = Selectivity.size st.shared }

let run config resolver script =
  let st = boot config resolver script in
  loop st;
  report st

(* ------------------------------------------------------------------ *)
(* Resolver                                                           *)
(* ------------------------------------------------------------------ *)

let tpch_resolver ?(with_cardinalities = false) ?seed ds spec =
  let spec = String.trim spec in
  let bundled =
    List.find_opt
      (fun wq ->
        String.lowercase_ascii (Workload.name wq)
        = String.lowercase_ascii spec)
      [ Workload.Q3; Workload.Q3A; Workload.Q10; Workload.Q10A; Workload.Q5 ]
  in
  let q =
    match bundled with
    | Some wq -> Workload.query wq
    | None -> (
      try Sql_parser.parse ~schema_of:Tpch.schema_of spec
      with Sql_parser.Parse_error m ->
        raise
          (Diagnostic.Failed
             ( "server.resolve",
               [ Diagnostic.error ~code:"server-bad-query" ~path:spec m ] )))
  in
  { r_query = q; r_catalog = Workload.catalog ~with_cardinalities ds q;
    r_sources = Workload.sources ?seed ds q }

(* ------------------------------------------------------------------ *)
(* Report views                                                       *)
(* ------------------------------------------------------------------ *)

type query_view = {
  v_id : string;
  v_spec : string;
  v_class : string;
  v_deadline_s : float;
  v_outcome : string;
  v_reason : string;
  v_submitted_s : float;
  v_finished_s : float;
  v_attempts : int;
  v_result_card : int;
  v_time_s : float;
  v_coverage : float;
  v_degraded : string;
  v_breaker_trips : int;
  v_resumed_phases : int;
  v_checkpoints : int;
  v_warm_signatures : int;
  v_warm_plan_changed : bool;
}

type view = {
  vr_queries : query_view list;
  vr_done : int;
  vr_failed : int;
  vr_cancelled : int;
  vr_rejected : int;
  vr_shed : int;
  vr_workers_spawned : int;
  vr_workers_died : int;
  vr_reclaims : int;
  vr_polls : int;
  vr_busy_polls : int;
  vr_min_interval_s : float;
  vr_max_interval_s : float;
  vr_finished_s : float;
  vr_shared_signatures : int;
}

let view r =
  let qv (q : query_report) =
    let outcome, reason =
      match q.qr_outcome with
      | Done _ -> ("done", "")
      | Failed m -> ("failed", m)
      | Cancelled -> ("cancelled", "")
      | Rejected m -> ("rejected", m)
    in
    let card, time_s, coverage, resumed, ckpts, degraded, trips =
      match q.qr_outcome with
      | Done { stats; _ } ->
        ( stats.Corrective.result_card,
          stats.Corrective.total_time /. 1e6, stats.Corrective.coverage,
          stats.Corrective.resumed_phases, stats.Corrective.checkpoints,
          Option.value ~default:"" stats.Corrective.degraded_reason,
          stats.Corrective.breaker_trips )
      | _ -> (0, 0.0, 0.0, 0, 0, "", 0)
    in
    { v_id = q.qr_id; v_spec = q.qr_spec;
      v_class = Option.value ~default:"" q.qr_class;
      v_deadline_s = Option.value ~default:0.0 q.qr_deadline_s;
      v_outcome = outcome;
      v_reason = reason; v_submitted_s = q.qr_submitted_s;
      v_finished_s = q.qr_finished_s; v_attempts = q.qr_attempts;
      v_result_card = card; v_time_s = time_s; v_coverage = coverage;
      v_degraded = degraded; v_breaker_trips = trips;
      v_resumed_phases = resumed; v_checkpoints = ckpts;
      v_warm_signatures = q.qr_warm_signatures;
      v_warm_plan_changed = q.qr_warm_plan_changed }
  in
  { vr_queries = List.map qv r.r_queries; vr_done = r.r_done;
    vr_failed = r.r_failed; vr_cancelled = r.r_cancelled;
    vr_rejected = r.r_rejected; vr_shed = r.r_shed;
    vr_workers_spawned = r.r_workers_spawned;
    vr_workers_died = r.r_workers_died; vr_reclaims = r.r_reclaims;
    vr_polls = r.r_polls; vr_busy_polls = r.r_busy_polls;
    vr_min_interval_s = r.r_min_interval_s;
    vr_max_interval_s = r.r_max_interval_s; vr_finished_s = r.r_finished_s;
    vr_shared_signatures = r.r_shared_signatures }

let view_to_json v =
  let num f = Json.Num f in
  let int i = Json.Num (float_of_int i) in
  let str s = Json.Str s in
  let q (x : query_view) =
    Json.Obj
      [ ("id", str x.v_id); ("spec", str x.v_spec);
        ("class", str x.v_class); ("deadline_s", num x.v_deadline_s);
        ("outcome", str x.v_outcome); ("reason", str x.v_reason);
        ("submitted_s", num x.v_submitted_s);
        ("finished_s", num x.v_finished_s); ("attempts", int x.v_attempts);
        ("result_card", int x.v_result_card); ("time_s", num x.v_time_s);
        ("coverage", num x.v_coverage); ("degraded", str x.v_degraded);
        ("breaker_trips", int x.v_breaker_trips);
        ("resumed_phases", int x.v_resumed_phases);
        ("checkpoints", int x.v_checkpoints);
        ("warm_signatures", int x.v_warm_signatures);
        ("warm_plan_changed", Json.Bool x.v_warm_plan_changed) ]
  in
  Json.Obj
    [ ("schema", int 2); ("kind", str "tukwila-server-report");
      ("queries", Json.List (List.map q v.vr_queries));
      ("done", int v.vr_done); ("failed", int v.vr_failed);
      ("cancelled", int v.vr_cancelled); ("rejected", int v.vr_rejected);
      ("shed", int v.vr_shed);
      ("workers_spawned", int v.vr_workers_spawned);
      ("workers_died", int v.vr_workers_died);
      ("reclaims", int v.vr_reclaims); ("polls", int v.vr_polls);
      ("busy_polls", int v.vr_busy_polls);
      ("min_interval_s", num v.vr_min_interval_s);
      ("max_interval_s", num v.vr_max_interval_s);
      ("finished_s", num v.vr_finished_s);
      ("shared_signatures", int v.vr_shared_signatures) ]

let view_of_json j =
  let get j k f =
    match Option.bind (Json.member k j) f with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or malformed field %S" k)
  in
  (* Governance fields arrived with schema 2; defaulting keeps schema-1
     reports loadable. *)
  let opt j k f ~default =
    match Option.bind (Json.member k j) f with Some v -> v | None -> default
  in
  let ( let* ) = Result.bind in
  let* kind = get j "kind" Json.get_str in
  if kind <> "tukwila-server-report" then
    Error "not a tukwila server report"
  else
    let* qs = get j "queries" Json.get_list in
    let* queries =
      List.fold_left
        (fun acc qj ->
          let* acc = acc in
          let* v_id = get qj "id" Json.get_str in
          let* v_spec = get qj "spec" Json.get_str in
          let v_class = opt qj "class" Json.get_str ~default:"" in
          let v_deadline_s = opt qj "deadline_s" Json.get_num ~default:0.0 in
          let v_degraded = opt qj "degraded" Json.get_str ~default:"" in
          let v_breaker_trips =
            opt qj "breaker_trips" Json.get_int ~default:0
          in
          let* v_outcome = get qj "outcome" Json.get_str in
          let* v_reason = get qj "reason" Json.get_str in
          let* v_submitted_s = get qj "submitted_s" Json.get_num in
          let* v_finished_s = get qj "finished_s" Json.get_num in
          let* v_attempts = get qj "attempts" Json.get_int in
          let* v_result_card = get qj "result_card" Json.get_int in
          let* v_time_s = get qj "time_s" Json.get_num in
          let* v_coverage = get qj "coverage" Json.get_num in
          let* v_resumed_phases = get qj "resumed_phases" Json.get_int in
          let* v_checkpoints = get qj "checkpoints" Json.get_int in
          let* v_warm_signatures = get qj "warm_signatures" Json.get_int in
          let* v_warm_plan_changed =
            get qj "warm_plan_changed" Json.get_bool
          in
          Ok
            ({ v_id; v_spec; v_class; v_deadline_s; v_outcome; v_reason;
               v_submitted_s; v_finished_s; v_attempts; v_result_card;
               v_time_s; v_coverage; v_degraded; v_breaker_trips;
               v_resumed_phases; v_checkpoints; v_warm_signatures;
               v_warm_plan_changed }
            :: acc))
        (Ok []) qs
    in
    let* vr_done = get j "done" Json.get_int in
    let* vr_failed = get j "failed" Json.get_int in
    let* vr_cancelled = get j "cancelled" Json.get_int in
    let* vr_rejected = get j "rejected" Json.get_int in
    let vr_shed = opt j "shed" Json.get_int ~default:0 in
    let* vr_workers_spawned = get j "workers_spawned" Json.get_int in
    let* vr_workers_died = get j "workers_died" Json.get_int in
    let* vr_reclaims = get j "reclaims" Json.get_int in
    let* vr_polls = get j "polls" Json.get_int in
    let* vr_busy_polls = get j "busy_polls" Json.get_int in
    let* vr_min_interval_s = get j "min_interval_s" Json.get_num in
    let* vr_max_interval_s = get j "max_interval_s" Json.get_num in
    let* vr_finished_s = get j "finished_s" Json.get_num in
    let* vr_shared_signatures = get j "shared_signatures" Json.get_int in
    Ok
      { vr_queries = List.rev queries; vr_done; vr_failed; vr_cancelled;
        vr_rejected; vr_shed; vr_workers_spawned; vr_workers_died;
        vr_reclaims; vr_polls; vr_busy_polls; vr_min_interval_s;
        vr_max_interval_s; vr_finished_s; vr_shared_signatures }

let pp_view ppf v =
  let fnum = Json.float_str in
  Format.fprintf ppf "server report:@.";
  List.iter
    (fun (q : query_view) ->
      let status =
        match q.v_outcome with
        | "done" ->
          Printf.sprintf "done: %d rows in %s virtual s, coverage %.1f%%"
            q.v_result_card (fnum q.v_time_s) (100.0 *. q.v_coverage)
        | o when q.v_reason <> "" -> Printf.sprintf "%s: %s" o q.v_reason
        | o -> o
      in
      Format.fprintf ppf "  %-8s [%s]  %s@." q.v_id q.v_spec status;
      if q.v_class <> "" || q.v_deadline_s > 0.0 then
        Format.fprintf ppf "           %s%s%s@."
          (if q.v_class <> "" then "class " ^ q.v_class else "")
          (if q.v_class <> "" && q.v_deadline_s > 0.0 then ", " else "")
          (if q.v_deadline_s > 0.0 then
             Printf.sprintf "deadline %s s" (fnum q.v_deadline_s)
           else "");
      if q.v_degraded <> "" then
        Format.fprintf ppf
          "           DEGRADED (%s): partial answer, coverage %.1f%%@."
          q.v_degraded (100.0 *. q.v_coverage);
      if q.v_breaker_trips > 0 then
        Format.fprintf ppf "           circuit breaker tripped %d time%s@."
          q.v_breaker_trips (if q.v_breaker_trips = 1 then "" else "s");
      if q.v_attempts > 1 || q.v_resumed_phases > 0 then
        Format.fprintf ppf
          "           attempts %d, resumed phases %d, checkpoints %d@."
          q.v_attempts q.v_resumed_phases q.v_checkpoints;
      if q.v_warm_signatures > 0 then
        Format.fprintf ppf
          "           warm start: %d inherited signature%s%s@."
          q.v_warm_signatures
          (if q.v_warm_signatures = 1 then "" else "s")
          (if q.v_warm_plan_changed then " (initial plan changed)" else ""))
    v.vr_queries;
  Format.fprintf ppf
    "outcomes: %d done, %d failed, %d cancelled, %d rejected@." v.vr_done
    v.vr_failed v.vr_cancelled v.vr_rejected;
  if v.vr_shed > 0 then
    Format.fprintf ppf
      "deadline shedding: %d queued quer%s dropped past deadline@."
      v.vr_shed
      (if v.vr_shed = 1 then "y" else "ies");
  Format.fprintf ppf
    "workers: %d spawned, %d died, %d queries reclaimed@."
    v.vr_workers_spawned v.vr_workers_died v.vr_reclaims;
  Format.fprintf ppf
    "dispatcher: %d polls (%d busy), interval %s..%s s@." v.vr_polls
    v.vr_busy_polls (fnum v.vr_min_interval_s) (fnum v.vr_max_interval_s);
  Format.fprintf ppf
    "shared statistics: %d selectivity signature%s; finished at %s virtual \
     s@."
    v.vr_shared_signatures
    (if v.vr_shared_signatures = 1 then "" else "s")
    (fnum v.vr_finished_s)
