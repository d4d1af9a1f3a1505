open Adp_exec
open Adp_storage
open Adp_optimizer
module Analyzer = Adp_analysis.Analyzer
module Diagnostic = Adp_analysis.Diagnostic
module Checkpoint = Adp_recovery.Checkpoint
module Crash = Adp_recovery.Crash
module Trace = Adp_obs.Trace
module Metrics = Adp_obs.Metrics
module Profile = Adp_obs.Profile
module Calibrate = Adp_obs.Calibrate
module Selectivity = Adp_stats.Selectivity

type config = {
  poll_interval : float;
  switch_threshold : float;
  max_phases : int;
  min_leaf_seen : int;
  preagg : Optimizer.preagg_strategy;
  costs : Cost_model.t;
  reuse_intermediates : bool;
  initial_plan : Plan.spec option;
  memory_budget : int option;
  min_remaining_fraction : float;
  use_histograms : bool;
  retry : Retry.policy;
  deadline : float option;
  memory_ceiling : int option;
  breaker : Breaker.policy option;
  checkpoint : Checkpoint.policy option;
  resume_from : string option;
  crash : Crash.point list;
  stats_seed : Selectivity.dump option;
}

let default_config =
  { poll_interval = 1e6; switch_threshold = 0.7; max_phases = 8;
    min_leaf_seen = 100; preagg = Optimizer.No_preagg;
    costs = Cost_model.default; reuse_intermediates = true;
    initial_plan = None; memory_budget = None;
    min_remaining_fraction = 0.25; use_histograms = false;
    retry = Retry.default_policy; deadline = None; memory_ceiling = None;
    breaker = None; checkpoint = None; resume_from = None;
    crash = []; stats_seed = None }

type phase_info = {
  id : int;
  plan_desc : string;
  emitted : int;
  read : int;
}

type stats = {
  phases : int;
  stitch : Stitchup.stats;
  total_time : float;
  cpu : float;
  idle : float;
  result_card : int;
  reused_tuples : int;
  discarded_tuples : int;
  phase_log : phase_info list;
  coverage : float;
  retries : int;
  failovers : int;
  sources_failed : int;
  checkpoints : int;
  paged_out : int;
  resumed_phases : int;
  degraded_reason : string option;
  breaker_trips : int;
  learned : Selectivity.dump;
}

(* A closed phase, what it read, and where its region ends per source —
   the ledger entry a checkpoint records for it. *)
type closed = {
  cl_phase : Phase.t;
  cl_read : int;
  cl_ends : (string * int) list;
}

(* Order detection (plus a distinct sketch and the value range) on every
   join attribute is always on: it costs a comparison and a hash per tuple
   (the paper found such per-operator bookkeeping had no measurable
   penalty), and §4.5 shows it is what makes join sizes predictable on
   sorted sources: a sorted prefix reveals the key density and
   multiplicity, and the full range extrapolates from the fraction
   consumed. *)
type col_tracker = {
  t_order : Adp_stats.Order_detector.t;
  t_distinct : Adp_stats.Distinct.t;
  mutable t_lo : float;
  mutable t_hi : float;
  mutable t_count : int;
}

(* §4.5 extension: incremental histograms + order detectors on every join
   attribute of every source.  At poll time they predict *two-way* join
   outputs — including joins the running plan is not executing, which pure
   monitoring can never observe. *)
type hist_attr = {
  h_relation : string;
  h_column : string;
  h_side : Adp_stats.Join_estimator.side;
}

(* What a run fixes before its first tuple flows. *)
type env = {
  cfg : config;
  query : Logical.query;
  catalog : Catalog.t;
  sources : Source.t list;
  ctx : Ctx.t;
  sels : Selectivity.t;
  calibrate : Calibrate.t option;
  priors : (string, float) Hashtbl.t;
      (* per-node cardinality belief frozen when a phase opens *)
  registry : Registry.t;
  breakers : Breaker.t array option;
  order_detectors : (string * col_tracker) list;
  hist_attrs : hist_attr list;
  fingerprint : string;
  crash : Crash.injector;
  record_outputs : bool;
}

(* The run state the named steps advance. *)
type t = {
  env : env;
  sink : Sink.t;
  resumed : int;  (* phases restored from a checkpoint *)
  mutable current : Phase.t;
  mutable completed : closed list;  (* newest first *)
  mutable next_spec : Plan.spec option;  (* set by a poll that switches *)
  mutable reads_before : int;  (* tuples read before [current] opened *)
  mutable ckpt_seq : int;
  mutable last_ckpt_read : int;
  mutable degraded : string option;
}

let plan_desc spec = Format.asprintf "%a" Plan.pp_spec spec
let phase_label id = Printf.sprintf "phase %d" id
let tuples_read env = Metrics.count env.ctx.Ctx.tuples_read
let positions env =
  List.map (fun s -> Source.name s, Source.consumed s) env.sources

let lookup catalog r =
  try Some (Catalog.schema_of catalog r) with Not_found -> None

(* The query's join columns that belong to source [name]. *)
let join_columns (query : Logical.query) name =
  List.concat_map
    (fun (a, b) ->
      List.filter (fun c -> Logical.relation_of_column c = name) [ a; b ])
    query.join_preds
  |> List.sort_uniq String.compare

let attach_order_detectors query sources =
  List.concat_map
    (fun src ->
      List.map
        (fun col ->
          let tr =
            { t_order = Adp_stats.Order_detector.create ();
              t_distinct = Adp_stats.Distinct.create ();
              t_lo = infinity; t_hi = neg_infinity; t_count = 0 }
          in
          let idx = Adp_relation.Schema.index (Source.schema src) col in
          Source.observe src (fun t ->
              let v = t.(idx) in
              Adp_stats.Order_detector.add tr.t_order v;
              Adp_stats.Distinct.add tr.t_distinct v;
              tr.t_count <- tr.t_count + 1;
              match v with
              | Adp_relation.Value.Int _ | Adp_relation.Value.Float _
              | Adp_relation.Value.Date _ ->
                let x = Adp_relation.Value.to_float v in
                if x < tr.t_lo then tr.t_lo <- x;
                if x > tr.t_hi then tr.t_hi <- x
              | Adp_relation.Value.Null | Adp_relation.Value.Str _ -> ());
          (col, tr))
        (join_columns query (Source.name src)))
    sources

let attach_histograms ctx query sources =
  List.concat_map
    (fun src ->
      let name = Source.name src in
      List.map
        (fun col ->
          let side = Adp_stats.Join_estimator.side () in
          let idx = Adp_relation.Schema.index (Source.schema src) col in
          Source.observe src (fun t ->
              Ctx.charge ctx ctx.Ctx.costs.histogram_add;
              Adp_stats.Join_estimator.observe side t.(idx));
          { h_relation = name; h_column = col; h_side = side })
        (join_columns query name))
    sources

(* A leaf's selection pass rate: observed, else the estimator's guess.
   Histograms and order trackers see the raw streams, so their
   predictions are scaled by it. *)
let filter_sel env r =
  let query = env.query in
  match Selectivity.lookup env.sels (Logical.signature_of_set query [ r ]) with
  | Some sel -> sel
  | None ->
    let s = List.find (fun s -> s.Logical.name = r) query.Logical.sources in
    Cardinality.filter_selectivity s.Logical.filter

let seen_of seen r = Option.value ~default:0 (List.assoc_opt r seen)

(* Expected total cardinality of a source: exact after exhaustion,
   otherwise the catalog floored by what was read. *)
let expected_total env seen r =
  match Selectivity.final_cardinality env.sels r with
  | Some total -> float_of_int (max 1 total)
  | None ->
    (* Growth prior for an unexhausted source: once it has outgrown the
       catalog's guess, assume at least as much again is still coming —
       otherwise estimates go stale and declare the query nearly done. *)
    max (Catalog.cardinality env.catalog r)
      (2.0 *. float_of_int (seen_of seen r))

(* Extrapolating a subexpression's final output from a prefix: the
   product form (selectivity times the product of remaining input
   ratios) over-predicts badly when sources are sorted on the join key —
   aligned prefixes over-match (cf. §4.5) — while the linear form
   (output grows with the largest input, the key-FK behaviour §4.2
   leans on) under-predicts when more matching mass lies ahead.  Their
   geometric mean hedges both failure modes, in the same averaging
   spirit as the paper's estimator. *)
let predict_output env seen ?(aligned = false) out rels =
  let ratios =
    List.filter_map
      (fun r ->
        let n = seen_of seen r in
        if n = 0 then None
        else Some (max 1.0 (expected_total env seen r /. float_of_int n)))
      rels
  in
  let linear = List.fold_left max 1.0 ratios in
  let product = List.fold_left ( *. ) 1.0 ratios in
  (* Sorted-aligned inputs: the prefixes over-match, so the product form
     is invalid and output grows linearly with the dominant input. *)
  if aligned then float_of_int out *. linear
  else float_of_int out *. sqrt (linear *. product)

let sorted_col env col =
  match List.assoc_opt col env.order_detectors with
  | Some tr ->
    Adp_stats.Order_detector.count tr.t_order >= 2
    && Adp_stats.Order_detector.perfectly_sorted tr.t_order
    && Adp_stats.Order_detector.ascending_fraction tr.t_order >= 0.5
  | None -> false

let canon a b = if String.compare a b <= 0 then a ^ "=" ^ b else b ^ "=" ^ a

let aligned_pred env p =
  List.exists
    (fun (a, b) -> canon a b = p && sorted_col env a && sorted_col env b)
    env.query.Logical.join_preds

(* Sorted-aligned two-way joins are predictable from the prefix alone
   (§4.5): each side's prefix reveals its value density and average
   multiplicity, and the full key range extrapolates from the fraction
   consumed. *)
let sorted_pair_estimate env seen (a, b) =
  let tracker c = List.assoc_opt c env.order_detectors in
  match tracker a, tracker b with
  | Some ta, Some tb
    when sorted_col env a && sorted_col env b && ta.t_count > 0
         && tb.t_count > 0 && ta.t_hi > ta.t_lo && tb.t_hi > tb.t_lo ->
    let ra = Logical.relation_of_column a
    and rb = Logical.relation_of_column b in
    let range tr r =
      let frac =
        min 1.0 (float_of_int (seen_of seen r) /. expected_total env seen r)
      in
      tr.t_lo, tr.t_lo +. ((tr.t_hi -. tr.t_lo) /. max frac 1e-6)
    in
    let lo_a, hi_a = range ta ra and lo_b, hi_b = range tb rb in
    let lo = max lo_a lo_b and hi = min hi_a hi_b in
    if hi < lo then Some 0.0
    else begin
      let mult tr =
        let d = Adp_stats.Distinct.estimate tr.t_distinct in
        if d <= 0.0 then 1.0 else float_of_int tr.t_count /. d
      in
      let density r (lo_r, hi_r) =
        expected_total env seen r /. max 1.0 (hi_r -. lo_r)
      in
      let ma = mult ta and mb = mult tb in
      let da = density ra (lo_a, hi_a)
      and db = density rb (lo_b, hi_b) in
      let key_density = min (da /. ma) (db /. mb) in
      Some
        ((hi -. lo) *. key_density *. ma *. mb *. filter_sel env ra
        *. filter_sel env rb)
    end
  | _ -> None

(* Fold the monitor's counters for the running phase into the selectivity
   registry: per-leaf filter pass rates, per-join-subexpression
   selectivities (out over the product of raw leaf reads), and
   multiplicative-join flags (§4.2).  Reads counters only, never the
   materialized outputs, so it costs O(sources + plan nodes) and counts
   the same whether or not the phase records its outputs. *)
let update_observations env plan =
  let sels = env.sels and min_seen = env.cfg.min_leaf_seen in
  (* Source cardinalities: the consumed count is a sound lower bound, and
     an exhausted sequential source reveals its exact cardinality; a
     permanently failed one will never deliver more, so for planning
     purposes its final cardinality is whatever got through. *)
  List.iter
    (fun src ->
      let name = Source.name src in
      Selectivity.observe_cardinality sels ~relation:name
        ~seen:(Source.consumed src);
      if Source.finished src then
        Selectivity.observe_final_cardinality sels ~relation:name
          ~total:(Source.consumed src))
    env.sources;
  let seen = Plan.leaf_seen plan in
  List.iter
    (fun (name, passed, signature) ->
      let leaf_sig = Logical.signature_of_set env.query [ name ] in
      if signature = leaf_sig && seen_of seen name >= min_seen then begin
        Selectivity.observe sels ~signature:leaf_sig
          ~output:(float_of_int passed)
          ~input_product:(float_of_int (seen_of seen name));
        Selectivity.observe_output sels ~signature:leaf_sig
          ~cardinality:(predict_output env seen passed [ name ])
      end)
    (Plan.leaf_counts plan);
  List.iter
    (fun (info : Plan.join_info) ->
      if List.for_all (fun r -> seen_of seen r >= min_seen) info.relations
      then begin
        let product =
          List.fold_left
            (fun acc r -> acc *. float_of_int (seen_of seen r))
            1.0 info.relations
        in
        Selectivity.observe sels ~signature:info.signature
          ~output:(float_of_int info.out_count) ~input_product:product;
        let aligned = List.exists (aligned_pred env) info.predicate in
        Selectivity.observe_output sels ~signature:info.signature
          ~cardinality:
            (predict_output env seen ~aligned info.out_count info.relations);
        (* For a sorted-aligned two-way join, the range-extrapolated
           prediction sees the full output long before the monitor's
           counters do. *)
        (if List.length info.relations = 2 then
           let est =
             List.find_map
               (fun (a, b) ->
                 if List.mem (canon a b) info.predicate then
                   sorted_pair_estimate env seen (a, b)
                 else None)
               env.query.Logical.join_preds
           in
           match est with
           | Some est when est > 0.0 ->
             Selectivity.observe_output sels ~signature:info.signature
               ~cardinality:est
           | Some _ | None -> ());
        let biggest_input = max info.left_out info.right_out in
        if biggest_input >= min_seen && info.out_count > biggest_input
        then begin
          let factor =
            float_of_int info.out_count /. float_of_int biggest_input
          in
          List.iter
            (fun p -> Selectivity.flag_multiplicative sels ~predicate:p ~factor)
            info.predicate
        end
      end)
    (Plan.join_infos plan)

let feed_histogram_predictions env =
  let consumed r =
    match List.find_opt (fun s -> Source.name s = r) env.sources with
    | Some s -> Source.consumed s
    | None -> 0
  in
  let expected_total r =
    match Selectivity.final_cardinality env.sels r with
    | Some total -> float_of_int (max 1 total)
    | None ->
      max (Catalog.cardinality env.catalog r) (float_of_int (consumed r))
  in
  List.iter
    (fun (a, b) ->
      let ra = Logical.relation_of_column a
      and rb = Logical.relation_of_column b in
      let find r col =
        List.find_opt
          (fun h -> h.h_relation = r && h.h_column = col)
          env.hist_attrs
      in
      match find ra a, find rb b with
      | Some ha, Some hb
        when consumed ra >= env.cfg.min_leaf_seen
             && consumed rb >= env.cfg.min_leaf_seen ->
        let frac r =
          min 1.0 (float_of_int (consumed r) /. expected_total r)
        in
        let raw_est =
          Adp_stats.Join_estimator.estimate
            ~left:(ha.h_side, frac ra)
            ~right:(hb.h_side, frac rb)
        in
        Selectivity.observe_output env.sels
          ~signature:(Logical.signature_of_set env.query [ ra; rb ])
          ~cardinality:(raw_est *. filter_sel env ra *. filter_sel env rb)
      | _ -> ())
    env.query.Logical.join_preds

(* Calibration: freeze the optimizer's per-node cardinality belief when
   the phase that introduces the node opens, and at every recording
   point compare it against the refreshed §4.2 estimate.  All of it goes
   through the estimator, which never charges the virtual clock, so
   calibration is invisible to virtual time. *)
let rec calib_nodes spec =
  match spec with
  | Plan.Scan _ -> [ (plan_desc spec, Plan.relations spec) ]
  | Plan.Preagg { child; _ } -> calib_nodes child
  | Plan.Join { left; right; _ } ->
    (plan_desc spec, Plan.relations spec)
    :: (calib_nodes left @ calib_nodes right)

let node_estimate est = function
  | [ r ] -> Cardinality.leaf_cardinality est r
  | rels -> Cardinality.set_cardinality est rels

let freeze_priors env spec =
  if env.calibrate <> None then begin
    let est = Cardinality.create env.query env.catalog env.sels in
    List.iter
      (fun (node, rels) ->
        if not (Hashtbl.mem env.priors node) then
          Hashtbl.replace env.priors node (node_estimate est rels))
      (calib_nodes spec)
  end

let record_observations env ?est cal ~phase ~point spec =
  let est =
    match est with
    | Some e -> e
    | None -> Cardinality.create env.query env.catalog env.sels
  in
  List.iter
    (fun (node, rels) ->
      let actual = node_estimate est rels in
      let prior =
        match Hashtbl.find_opt env.priors node with
        | Some p -> p
        | None ->
          Hashtbl.replace env.priors node actual;
          actual
      in
      Calibrate.observe cal ~phase ~at:(Ctx.now env.ctx /. 1e6) ~point ~node
        ~est:prior ~actual)
    (calib_nodes spec)

let prepare cfg ?trace ?metrics ?profile ?calibrate ?wall query catalog
    sources =
  let sels = Selectivity.create () in
  (* Cross-query warm start: seed the monitor with statistics learned by
     earlier executions (a server's shared store).  Seeding happens before
     any checkpoint is absorbed, so on resume the interrupted run's own
     observations win over inherited ones. *)
  Option.iter (Selectivity.absorb sels) cfg.stats_seed;
  let ctx =
    Ctx.create ~costs:cfg.costs ?trace ?metrics ?profile ?wall ()
  in
  let order_detectors = attach_order_detectors query sources in
  let hist_attrs =
    if cfg.use_histograms then attach_histograms ctx query sources else []
  in
  (* Static analysis before any tuple flows: a bad knob, query, or plan
     fails here with every problem listed at once, instead of surfacing as
     an Invalid_argument somewhere mid-run. *)
  Diagnostic.raise_if_errors ~where:"corrective"
    (Analyzer.check_knobs ~poll_interval:cfg.poll_interval
       ~switch_threshold:cfg.switch_threshold ~max_phases:cfg.max_phases
       ~min_leaf_seen:cfg.min_leaf_seen
       ~min_remaining_fraction:cfg.min_remaining_fraction ~retry:cfg.retry
    @ Analyzer.check_governance ~deadline:cfg.deadline
        ~memory_budget:cfg.memory_budget ~memory_ceiling:cfg.memory_ceiling
        ~breaker:cfg.breaker
    @ Analyzer.check_query ~lookup:(lookup catalog) query);
  { cfg; query; catalog; sources; ctx; sels; calibrate;
    priors = Hashtbl.create 16; registry = Registry.create ();
    (* Circuit breakers persist across phases — unlike retry controllers,
       which every [Driver.run] call recreates — so a source that trips in
       phase 1 is still remembered open in phase 2. *)
    breakers =
      Option.map
        (fun policy ->
          Array.of_list
            (List.mapi (fun i _ -> Breaker.create ~salt:i policy) sources))
        cfg.breaker;
    order_detectors; hist_attrs;
    fingerprint = Checkpoint.fingerprint query;
    crash = Crash.injector cfg.crash;
    record_outputs =
      cfg.max_phases > 1 || cfg.checkpoint <> None || cfg.resume_from <> None }

(* Load the checkpoint, validate it against this query and these
   sources, and absorb its observed statistics so the initial plan of the
   resumed execution is re-optimized with everything the interrupted run
   had learned. *)
let load_checkpoint env =
  match env.cfg.resume_from with
  | None -> None
  | Some path ->
    let fail diags = raise (Diagnostic.Failed ("corrective.resume", diags)) in
    let path =
      if Sys.file_exists path && Sys.is_directory path then
        match Checkpoint.latest ~dir:path with
        | Some p -> p
        | None ->
          fail
            [ Diagnostic.errorf ~code:"ckpt-none-found" ~path
                "no checkpoint files in directory" ]
      else path
    in
    (match Checkpoint.load path with
     | Error diags -> fail diags
     | Ok ck ->
       let fp_diags =
         if ck.Checkpoint.fingerprint = env.fingerprint then []
         else
           [ Diagnostic.errorf ~code:"ckpt-fingerprint-mismatch" ~path
               "checkpoint was written by a different query" ]
       in
       let src_cards =
         List.map (fun s -> Source.name s, Source.cardinality s) env.sources
       in
       Diagnostic.raise_if_errors ~where:"corrective.resume"
         (fp_diags
         @ Analyzer.check_checkpoint_regions
             ~ledger:(Checkpoint.ledger ck) ~sources:src_cards);
       Selectivity.absorb env.sels ck.Checkpoint.stats;
       Some (path, ck))

let restored_phases = function
  | None -> []
  | Some (_, ck) -> Checkpoint.(ck.completed @ Option.to_list ck.current)

(* The first live phase's plan: the caller's (rewritten with this run's
   pre-aggregation treatment) or the optimizer's, checked against the
   query and, on resume, against every restored plan. *)
let initial_spec env restored =
  let cfg = env.cfg and lookup = lookup env.catalog in
  let spec =
    match cfg.initial_plan with
    | Some spec ->
      (* Every plan of one execution must carry the same pre-aggregation
         treatment so equivalent subexpressions share schemas (§3.2). *)
      let rewritten =
        Optimizer.apply_preagg_strategy cfg.preagg env.query spec
      in
      Diagnostic.raise_if_errors ~where:"corrective.initial-plan"
        (Analyzer.check_plan_for_query ~lookup env.query spec
        @ Analyzer.check_equivalent ~before:spec ~after:rewritten);
      rewritten
    | None ->
      let spec =
        (Optimizer.optimize ~preagg:cfg.preagg ~costs:cfg.costs env.query
           env.catalog env.sels)
          .spec
      in
      Diagnostic.raise_if_errors ~where:"corrective.optimizer"
        (Analyzer.check_plan_for_query ~lookup env.query spec);
      spec
  in
  (* Every restored plan plus the new phase's plan must share the same
     effective leaves and output schema — the standard cross-phase
     conformance invariant, now spanning the crash. *)
  if restored <> [] then
    Diagnostic.raise_if_errors ~where:"corrective.resume"
      (Analyzer.check_conformance
         (List.map (fun pr -> pr.Checkpoint.pr_spec) restored @ [ spec ]));
  spec

(* Open phase [id] on [spec]: the profiler attributes to it from now on,
   calibration freezes the optimizer's belief about each node it
   introduces, and a fresh plan instance starts empty. *)
let open_phase env ~id spec =
  Ctx.set_profile_phase env.ctx (phase_label id);
  freeze_priors env spec;
  Phase.create ~record_outputs:env.record_outputs ~id env.ctx spec
    ~schema_of:(Catalog.schema_of env.catalog)

let emit_outputs st (ph : Phase.t) outs =
  if outs <> [] then begin
    ph.Phase.emitted <- ph.Phase.emitted + List.length outs;
    Sink.feed st.sink ~from:(Plan.schema ph.Phase.plan) outs
  end

(* Recovery is a forced phase switch: close every checkpointed phase at
   its recorded positions.  Re-feed the outputs each had already emitted
   (the sink's state died with the crash), flush the one interrupted
   mid-phase to a consistent state, and register partitions so stitch-up
   can reuse them.  Tuples below the checkpointed positions belong to
   these phases' regions; the residual input belongs to the new phase —
   that partition of the streams is what makes the resumed answer
   exactly-once. *)
let resume st restored (path, ck) =
  let env = st.env and ctx = st.env.ctx in
  List.iter
    (fun (pr : Checkpoint.phase_record) ->
      let ph = open_phase env ~id:pr.Checkpoint.pr_id pr.Checkpoint.pr_spec in
      Plan.restore ph.Phase.plan pr.Checkpoint.pr_state;
      ph.Phase.emitted <- pr.Checkpoint.pr_emitted;
      let sch, outs = Plan.root_results ph.Phase.plan in
      Sink.feed st.sink ~from:sch outs;
      emit_outputs st ph (Plan.flush ph.Phase.plan);
      Phase.register ph env.registry;
      st.completed <-
        { cl_phase = ph; cl_read = pr.Checkpoint.pr_read;
          cl_ends = pr.Checkpoint.pr_ends }
        :: st.completed)
    restored;
  if restored <> [] then
    Ctx.set_profile_phase ctx (phase_label st.current.Phase.id);
  (* Rebuilding state charged the (fresh) virtual clock; the run proper
     continues from the checkpointed instant and counters. *)
  Clock.restore ctx.Ctx.clock ck.Checkpoint.clock;
  Metrics.set_count ctx.Ctx.tuples_read ck.Checkpoint.tuples_read;
  Metrics.set_count ctx.Ctx.tuples_output ck.Checkpoint.tuples_output;
  Metrics.set_count ctx.Ctx.retries ck.Checkpoint.retries;
  Metrics.set_count ctx.Ctx.failovers ck.Checkpoint.failovers;
  Metrics.set_count ctx.Ctx.sources_failed ck.Checkpoint.sources_failed;
  let at = Ctx.now ctx in
  List.iter
    (fun src ->
      match List.assoc_opt (Source.name src) ck.Checkpoint.positions with
      | Some pos -> Source.resume_at src ~pos ~at
      | None -> ())
    env.sources;
  if Ctx.traced ctx then
    Ctx.emit ctx
      (Trace.Checkpoint_resumed
         { seq = ck.Checkpoint.seq; path; phases = List.length restored });
  st.reads_before <- tuples_read env;
  st.last_ckpt_read <- tuples_read env;
  st.ckpt_seq <- ck.Checkpoint.seq

(* Build the run state around the first live phase, restoring any
   checkpointed phases behind it. *)
let start env ck =
  let restored = restored_phases ck in
  let first =
    open_phase env ~id:(List.length restored) (initial_spec env restored)
  in
  let st =
    { env;
      sink =
        Sink.create env.ctx env.query
          ~canonical:(Plan.schema first.Phase.plan);
      resumed = List.length restored; current = first; completed = [];
      next_spec = None; reads_before = tuples_read env; ckpt_seq = 0;
      last_ckpt_read = tuples_read env; degraded = None }
  in
  Option.iter (resume st restored) ck;
  st

let phase_record (ph : Phase.t) ~read ~ends =
  { Checkpoint.pr_id = ph.Phase.id; pr_spec = ph.Phase.spec;
    pr_state = Plan.capture ph.Phase.plan; pr_emitted = ph.Phase.emitted;
    pr_read = read; pr_ends = ends }

let write_checkpoint st (policy : Checkpoint.policy) ~include_current =
  let env = st.env and ctx = st.env.ctx in
  st.ckpt_seq <- st.ckpt_seq + 1;
  let ck =
    { Checkpoint.seq = st.ckpt_seq; fingerprint = env.fingerprint;
      clock = Clock.capture ctx.Ctx.clock;
      tuples_read = tuples_read env;
      tuples_output = Metrics.count ctx.Ctx.tuples_output;
      retries = Metrics.count ctx.Ctx.retries;
      failovers = Metrics.count ctx.Ctx.failovers;
      sources_failed = Metrics.count ctx.Ctx.sources_failed;
      positions = positions env;
      stats = Selectivity.dump env.sels;
      completed =
        List.rev_map
          (fun c -> phase_record c.cl_phase ~read:c.cl_read ~ends:c.cl_ends)
          st.completed;
      current =
        (if include_current then
           Some
             (phase_record st.current
                ~read:(tuples_read env - st.reads_before)
                ~ends:(positions env))
         else None) }
  in
  let path = Checkpoint.save ~dir:policy.Checkpoint.dir ck in
  Metrics.incr ctx.Ctx.checkpoints;
  let bytes = Int64.to_int (In_channel.with_open_bin path In_channel.length) in
  Metrics.incr ~by:bytes ctx.Ctx.checkpoint_bytes;
  if Ctx.traced ctx then
    Ctx.emit ctx (Trace.Checkpoint_written { seq = st.ckpt_seq; path; bytes });
  st.last_ckpt_read <- tuples_read env

let consume st src tuple =
  let ph = st.current in
  emit_outputs st ph (Plan.push ph.Phase.plan ~source:(Source.name src) tuple);
  (match st.env.cfg.checkpoint with
   | Some ({ Checkpoint.every_tuples = Some n; _ } as p)
     when n > 0 && tuples_read st.env - st.last_ckpt_read >= n ->
     write_checkpoint st p ~include_current:true
   | Some _ | None -> ());
  Crash.tuple_consumed st.env.crash ~total:(tuples_read st.env)

(* Graceful degradation: record why, count it, and answer [`Stop] so the
   driver ends the phase — stitch-up then assembles what arrived and the
   report carries the reason, instead of the run timing out with
   nothing. *)
let degrade st (ph : Phase.t) reason =
  if st.degraded = None then begin
    st.degraded <- Some reason;
    Metrics.incr st.env.ctx.Ctx.degraded;
    if Ctx.traced st.env.ctx then
      Ctx.emit st.env.ctx
        (Trace.Query_degraded
           { reason; phase = ph.Phase.id;
             coverage = Source.coverage st.env.sources })
  end;
  `Stop

let emit_deadline_exceeded st dl ~finish =
  let now = Ctx.now st.env.ctx in
  if st.degraded = None && Ctx.traced st.env.ctx then
    Ctx.emit st.env.ctx
      (Trace.Deadline_exceeded
         { deadline_s = dl /. 1e6; now_s = now /. 1e6;
           est_finish_s = finish /. 1e6 })

let breaker_open env i =
  match env.breakers with
  | Some bks -> Breaker.state bks.(i) = Breaker.Open
  | None -> false

(* The optimizer's view of source properties: a source whose breaker is
   open is planned as if it had no more data — its observed cardinality
   becomes final — so the re-optimizer reorders joins away from it (and
   [remaining_fraction] stops expecting its missing tuples).  The
   override lives in a transient copy: if the breaker later closes and
   tuples flow again, the real registry was never poisoned. *)
let planning_sels env =
  match env.breakers with
  | Some bks when Array.exists (fun b -> Breaker.state b = Breaker.Open) bks ->
    let s = Selectivity.create () in
    Selectivity.absorb s (Selectivity.dump env.sels);
    List.iteri
      (fun i src ->
        if breaker_open env i then
          Selectivity.observe_final_cardinality s ~relation:(Source.name src)
            ~total:(Source.consumed src))
      env.sources;
    s
  | Some _ | None -> env.sels

(* §4.3: factor in work already performed — late in the input there is
   not enough left for a better plan to amortize the stitch-up. *)
let remaining_fraction env =
  let read, expected =
    List.fold_left
      (fun (r, e) (i, src) ->
        let consumed = float_of_int (Source.consumed src) in
        let total =
          (* An open breaker is a source property: plan as if no more
             data is coming from it. *)
          if Source.finished src || breaker_open env i then consumed
          else
            max (Catalog.cardinality env.catalog (Source.name src))
              (2.0 *. consumed)
        in
        r +. consumed, e +. total)
      (0.0, 0.0)
      (List.mapi (fun i s -> (i, s)) env.sources)
  in
  if expected <= 0.0 then 0.0 else 1.0 -. (read /. expected)

(* Refresh what the poll knows: histogram predictions, memory pressure
   (with its page-out checkpoint) and the monitor's counters. *)
let observe st (ph : Phase.t) =
  let env = st.env in
  if env.cfg.use_histograms then feed_histogram_predictions env;
  (match env.cfg.memory_budget with
   | Some budget ->
     (* Page-outs are counted and traced inside
        [Plan.apply_memory_pressure]. *)
     if Plan.apply_memory_pressure ph.Phase.plan ~budget <> [] then begin
       (* Paged-out state is the state most expensive to lose: it is
          about to leave memory anyway, so snapshotting it now is the
          cheapest moment to make it durable. *)
       match env.cfg.checkpoint with
       | Some p when p.Checkpoint.on_page_out ->
         write_checkpoint st p ~include_current:true
       | Some _ | None -> ()
     end
   | None -> ());
  update_observations env ph.Phase.plan

(* Governance comes first: a crossed hard ceiling or an already-passed
   deadline degrades before any re-optimization work is priced. *)
let governance st (ph : Phase.t) =
  let env = st.env and now = Ctx.now st.env.ctx in
  let over_ceiling =
    match env.cfg.memory_ceiling with
    | Some ceiling ->
      let in_use = Plan.memory_footprint ph.Phase.plan in
      if in_use > ceiling && st.degraded = None && Ctx.traced env.ctx then
        Ctx.emit env.ctx (Trace.Budget_exhausted { in_use; ceiling });
      in_use > ceiling
    | None -> false
  in
  if over_ceiling then Some "memory"
  else
    match env.cfg.deadline with
    | Some dl when now >= dl ->
      emit_deadline_exceeded st dl ~finish:now;
      Some "deadline"
    | Some _ | None -> None

(* A poll's pricing: the running plan's cost-to-go against the best plan
   under the refreshed estimates, with any open-breaker source pinned at
   its observed cardinality. *)
type price = {
  est : Cardinality.t;
  current_cost : float;
  best : Optimizer.result;
  switch_cost : float;
}

let price env (ph : Phase.t) ~remaining_fraction =
  let psels = planning_sels env in
  let est = Cardinality.create env.query env.catalog psels in
  let current_cost = Cost.query_cost env.cfg.costs est ph.Phase.spec in
  let best =
    Optimizer.optimize ~preagg:env.cfg.preagg ~costs:env.cfg.costs env.query
      env.catalog psels
  in
  (* Switching is not free: the regions already consumed must later be
     stitched against everything the new plan reads — work roughly
     proportional to the input fraction already processed.  Charging it
     here is the other half of §4.3's "factor in the amount of
     computation already performed". *)
  { est; current_cost; best;
    switch_cost = best.est_cost *. (1.0 +. (1.0 -. remaining_fraction)) }

(* Calibration evidence for one priced poll.  Observations first, so the
   decision's blame reflects this poll's freshly refreshed estimates. *)
let record_decision env (ph : Phase.t) p verdict =
  match env.calibrate with
  | None -> ()
  | Some cal ->
    let phase = phase_label ph.Phase.id in
    record_observations env ~est:p.est cal ~phase ~point:Calibrate.Poll
      ph.Phase.spec;
    Calibrate.decide cal ~phase ~at:(Ctx.now env.ctx /. 1e6) ~verdict
      ~current_cost:p.current_cost ~best_cost:p.best.est_cost
      ~switch_cost:p.switch_cost ~threshold:env.cfg.switch_threshold

(* Take the switch: the re-optimized plan joins a running ADP execution —
   its regions will be stitched against those of every earlier phase, so
   it must cover the same base set with the same effective leaves. *)
let switch st (ph : Phase.t) p ~remaining_fraction =
  let env = st.env in
  Diagnostic.raise_if_errors ~where:"corrective.switch"
    (Analyzer.check_plan_for_query ~lookup:(lookup env.catalog) env.query
       p.best.spec
    @ Analyzer.check_conformance
        (List.rev_map (fun c -> c.cl_phase.Phase.spec) st.completed
        @ [ ph.Phase.spec; p.best.spec ]));
  if Ctx.traced env.ctx then
    Ctx.emit env.ctx
      (Trace.Plan_switch
         { from_plan = plan_desc ph.Phase.spec;
           to_plan = plan_desc p.best.spec;
           reason =
             Printf.sprintf
               "switch cost %.0f < %.2f x cost-to-go %.0f with %.0f%% of \
                input remaining"
               p.switch_cost env.cfg.switch_threshold p.current_cost
               (100.0 *. remaining_fraction) });
  st.next_spec <- Some p.best.spec;
  `Switch

(* The poll's verdict on a priced plan.  A fired guard keeps the plan; a
   cost-to-go that no longer fits the deadline degrades (§4.3 against
   the clock: no switch can save this run, so close it deliberately and
   report what arrived); otherwise the threshold decides. *)
let decide st (ph : Phase.t) ~remaining_fraction guard p =
  let env = st.env in
  match guard with
  | Some reason ->
    record_decision env ph p (Calibrate.Kept_guard reason);
    `Continue
  | None -> (
    let now = Ctx.now env.ctx in
    match env.cfg.deadline with
    | Some dl when now +. p.current_cost > dl ->
      emit_deadline_exceeded st dl ~finish:(now +. p.current_cost);
      degrade st ph "deadline"
    | Some _ | None ->
      let switching =
        p.best.spec <> ph.Phase.spec
        && p.switch_cost < env.cfg.switch_threshold *. p.current_cost
      in
      if Ctx.traced env.ctx then
        Ctx.emit env.ctx
          (Trace.Reopt_poll
             { phase = ph.Phase.id; est_cost = p.current_cost;
               best_cost = p.best.est_cost; best_plan = plan_desc p.best.spec;
               switch_cost = p.switch_cost; remaining_fraction;
               observed_sel = Selectivity.entries env.sels;
               decision = (if switching then Trace.Switch else Trace.Keep) });
      record_decision env ph p
        (if switching then Calibrate.Switched
         else if p.best.spec = ph.Phase.spec then Calibrate.Kept_same_plan
         else Calibrate.Kept_cost);
      if switching then switch st ph p ~remaining_fraction else `Continue)

(* The background poll.  Every read it makes is bounded by the query
   and the plan, never by the input consumed so far:
   - [update_observations]: O(sources + plan nodes) counters
     ([Plan.leaf_seen], [Plan.leaf_counts], [Plan.join_infos]) plus
     the per-column order trackers, which are O(1) each;
   - [feed_histogram_predictions]: per join predicate, two histograms
     of at most 5x their bucket count entries;
   - [Plan.apply_memory_pressure], [Plan.memory_footprint]: table and
     group-buffer sizes, O(plan nodes);
   - [planning_sels], costing and [Optimizer.optimize]: the
     selectivity registry, O(subexpressions of the query).
   The one exception is deliberate: a page-out checkpoint
   ([on_page_out]) serializes the plan state.  Materialized outputs
   are for stitch-up and checkpoints only. *)
let poll st =
  let env = st.env and ph = st.current in
  observe st ph;
  match governance st ph with
  | Some reason -> degrade st ph reason
  | None ->
    let remaining_fraction = remaining_fraction env in
    let guard =
      if List.length st.completed + 1 >= env.cfg.max_phases then
        Some "max-phases"
      else if remaining_fraction < env.cfg.min_remaining_fraction then
        Some "min-remaining"
      else None
    in
    (* The guard fires before costing; a calibrating run still prices the
       poll — estimator and optimizer never charge the clock — so a
       declined switch (the Q3A guarded-rule case) carries the same
       evidence as a taken one. *)
    if guard <> None && env.calibrate = None then `Continue
    else
      decide st ph ~remaining_fraction guard (price env ph ~remaining_fraction)

let finish_phase st =
  let env = st.env and ph = st.current in
  emit_outputs st ph (Plan.flush ph.Phase.plan);
  update_observations env ph.Phase.plan;
  Option.iter
    (fun cal ->
      record_observations env cal ~phase:(phase_label ph.Phase.id)
        ~point:Calibrate.Phase_close ph.Phase.spec)
    env.calibrate;
  Phase.register ph env.registry;
  let read = tuples_read env - st.reads_before in
  st.reads_before <- tuples_read env;
  if Ctx.traced env.ctx then
    Ctx.emit env.ctx
      (Trace.Phase_closed
         { id = ph.Phase.id; read; emitted = ph.Phase.emitted });
  st.completed <-
    { cl_phase = ph; cl_read = read; cl_ends = positions env } :: st.completed;
  (match env.cfg.checkpoint with
   | Some p when p.Checkpoint.at_phase_boundary ->
     write_checkpoint st p ~include_current:false
   | Some _ | None -> ());
  Crash.phase_closed env.crash ~id:ph.Phase.id

(* Announce the current phase and drive it until the input runs out,
   governance stops it, or a poll switches — then close it, and on a
   switch open the re-optimized plan as the next phase. *)
let rec drive st =
  let env = st.env in
  if Ctx.traced env.ctx then
    Ctx.emit env.ctx
      (Trace.Phase_opened
         { id = st.current.Phase.id; plan = plan_desc st.current.Phase.spec });
  match
    Driver.run env.ctx ~sources:env.sources
      ~consume:(fun src tuple -> consume st src tuple)
      ~poll:(env.cfg.poll_interval, fun () -> poll st) ~retry:env.cfg.retry
      ?deadline:env.cfg.deadline ?breakers:env.breakers ()
  with
  | Driver.Switched ->
    finish_phase st;
    let spec =
      match st.next_spec with
      | Some s -> s
      | None -> invalid_arg "Corrective: switch without a plan"
    in
    st.next_spec <- None;
    st.current <- open_phase env ~id:(List.length st.completed) spec;
    drive st
  | Driver.Exhausted -> finish_phase st
  | Driver.Stopped ->
    (* Deliberate governance stop: close the phase normally so what
       arrived participates in stitch-up like any other phase. *)
    finish_phase st

(* §3.4.2: the stitch-up plan is chosen taking existing state structures
   into account — for every candidate tree, the cost of producing the
   *unavailable* intermediate results is its estimated cost minus a
   credit for every registered subexpression its shape can reuse.
   Candidates: the re-optimizer's choice and each phase's own shape. *)
let stitch_tree st =
  let env = st.env and cfg = st.env.cfg in
  let optimized =
    (Optimizer.optimize ~preagg:cfg.preagg ~costs:cfg.costs env.query
       env.catalog env.sels)
      .spec
  in
  if not cfg.reuse_intermediates then optimized
  else begin
    let est = Cardinality.create env.query env.catalog env.sels in
    let total = List.length (Logical.source_names env.query) in
    let rec signatures s =
      match s with
      | Plan.Scan _ -> []
      | Plan.Preagg { child; _ } -> signatures child
      | Plan.Join { left; right; _ } ->
        let own =
          if List.length (Plan.relations s) < total then [ Plan.signature_of s ]
          else []
        in
        own @ signatures left @ signatures right
    in
    let reuse_credit spec =
      List.fold_left
        (fun acc signature ->
          List.fold_left
            (fun acc phase ->
              match Registry.find env.registry ~signature ~phase with
              | Some e ->
                acc
                +. (float_of_int e.Registry.cardinality
                   *. (cfg.costs.hash_build +. cfg.costs.per_match))
              | None -> acc)
            acc
            (Registry.phases_with env.registry ~signature))
        0.0 (signatures spec)
    in
    let score spec = Cost.query_cost cfg.costs est spec -. reuse_credit spec in
    List.fold_left
      (fun best cand -> if score cand < score best then cand else best)
      optimized
      (List.map (fun c -> c.cl_phase.Phase.spec) st.completed)
  end

let stitch_up st =
  let env = st.env in
  Crash.stitchup_started env.crash;
  let phases = List.rev_map (fun c -> c.cl_phase) st.completed in
  if List.length phases <= 1 then
    { Stitchup.combos_possible = 0; output = 0; reused = 0;
      recomputed_uniform = 0; time = 0.0 }
  else begin
    let join_tree = stitch_tree st in
    (* Before paying for stitch-up, verify the chosen tree symbolically:
       legal pre-aggregation placement and an exactly-covered nᵐ − n
       combination matrix. *)
    Diagnostic.raise_if_errors ~where:"corrective.stitchup"
      (Analyzer.check_stitch_tree ~phases:(List.length phases) env.query
         join_tree);
    let registry =
      if env.cfg.reuse_intermediates then env.registry else Registry.create ()
    in
    let stats =
      Stitchup.run env.ctx env.query ~join_tree ~phases ~registry ~sink:st.sink
    in
    Option.iter
      (fun cal ->
        record_observations env cal ~phase:"stitch-up" ~point:Calibrate.Stitchup
          join_tree)
      env.calibrate;
    stats
  end

(* Fold the profiler and the calibration ledger into the trace so
   [tukwila explain] can replay them.  Bounded: one event per span, one
   per node's latest observation — the full ledger stays in the
   in-memory [Calibrate.t] the caller passed in. *)
let trace_ledgers env =
  let ctx = env.ctx in
  if Ctx.traced ctx then begin
    (match ctx.Ctx.observer with
     | None -> ()
     | Some { Ctx.profile = p; _ } ->
       List.iter
         (fun (i : Profile.info) ->
           Ctx.emit ctx
             (Trace.Node_profile
                { phase = i.Profile.phase; node = i.Profile.node;
                  depth = i.Profile.depth; self_us = i.Profile.self_us;
                  tuples_in = i.Profile.tuples_in;
                  tuples_out = i.Profile.tuples_out;
                  probes = i.Profile.probes; builds = i.Profile.builds;
                  mem_hw = i.Profile.mem_hw }))
         (Profile.spans p));
    match env.calibrate with
    | None -> ()
    | Some cal ->
      let blame = Option.map fst (Calibrate.worst cal) in
      List.iter
        (fun (node, (o : Calibrate.observation)) ->
          Ctx.emit ctx
            (Trace.Calibration
               { phase = o.Calibrate.o_phase;
                 point = Calibrate.point_name o.Calibrate.o_point; node;
                 est = o.Calibrate.o_est; actual = o.Calibrate.o_actual;
                 q_error = o.Calibrate.o_q; blame = Some node = blame }))
        (Calibrate.latest_by_node cal)
  end

let summarize st stitch =
  let env = st.env and ctx = st.env.ctx in
  let result = Sink.result st.sink in
  let phases = List.length st.completed in
  Ctx.sync_metrics ctx;
  trace_ledgers env;
  (* The fault/checkpoint/page-out numbers come straight out of the
     metrics registry — the same cells the engine incremented — instead
     of hand-threaded shadow counters. *)
  ( result,
    { phases; stitch; total_time = Ctx.now ctx; cpu = Clock.cpu ctx.Ctx.clock;
      idle = Clock.idle ctx.Ctx.clock;
      result_card = Adp_relation.Relation.cardinality result;
      reused_tuples =
        (if phases <= 1 then 0 else Registry.reused_tuples env.registry);
      discarded_tuples =
        (if phases <= 1 then 0 else Registry.discarded_tuples env.registry);
      phase_log =
        List.rev_map
          (fun c ->
            let ph = c.cl_phase in
            { id = ph.Phase.id; plan_desc = plan_desc ph.Phase.spec;
              emitted = ph.Phase.emitted; read = c.cl_read })
          st.completed;
      coverage = Source.coverage env.sources;
      retries = Metrics.count ctx.Ctx.retries;
      failovers = Metrics.count ctx.Ctx.failovers;
      sources_failed = Metrics.count ctx.Ctx.sources_failed;
      checkpoints = Metrics.count ctx.Ctx.checkpoints;
      paged_out = Metrics.count ctx.Ctx.paged_out;
      resumed_phases = st.resumed; degraded_reason = st.degraded;
      breaker_trips = Metrics.count ctx.Ctx.breaker_trips;
      learned = Selectivity.dump env.sels } )

let run ?(config = default_config) ?trace ?metrics ?profile ?calibrate ?wall
    query catalog sources =
  let env =
    prepare config ?trace ?metrics ?profile ?calibrate ?wall query catalog
      sources
  in
  let st = start env (load_checkpoint env) in
  drive st;
  summarize st (stitch_up st)
