(* Per-layer probes shared by the workloads.  Each probe times one layer
   from outside through its public functions on the workload's own
   queries and data: source delivery, driver scheduling, leaf filters,
   push-based plan execution, the shared sink and the optimizer. *)

open Adp_relation
open Adp_exec
open Adp_optimizer
open Adp_core
open Util

(* One query of a workload as the probes see it. *)
type query = {
  name : string;
  q : Logical.query;
  catalog : Catalog.t;
  table : string -> Relation.t;
  sources : unit -> Source.t list;
  specs : (string * Plan.spec) list;  (** plans replayed by the push probe *)
}

let reps = 3

let tuples srcs = List.fold_left (fun n s -> n + Source.cardinality s) 0 srcs

(* Median over [reps] repetitions of the summed cost of [f] over all
   queries, and the tuples one repetition touches.  The heap is compacted
   once per probe: these calls allocate little next to a compaction. *)
let probe name queries f =
  Gc.compact ();
  let one () =
    List.fold_left
      (fun (acc, n) qy ->
        let srcs = qy.sources () in
        let n' = tuples srcs in
        let (), c =
          timed ~compact:false (fun () -> Spans.with_ name (fun () -> f qy srcs))
        in
        { wall = acc.wall +. c.wall; words = acc.words +. c.words }, n + n')
      ({ wall = 0.0; words = 0.0 }, 0)
      queries
  in
  let runs = List.init reps (fun _ -> one ()) in
  let n = snd (List.hd runs) in
  ( median (List.map (fun (c, _) -> c.wall) runs),
    median (List.map (fun (c, _) -> c.words) runs),
    float_of_int n )

let drain _ srcs =
  List.iter
    (fun s ->
      let rec go () = match Source.next s with Some _ -> go () | None -> () in
      go ())
    srcs

let drive _ srcs =
  ignore (Driver.run (Ctx.create ()) ~sources:srcs ~consume:(fun _ _ -> ()) ())

(* Compile and apply every non-trivial leaf filter of the query. *)
let filters queries =
  let work =
    List.concat_map
      (fun qy ->
        List.filter_map
          (fun (s : Logical.source) ->
            if s.filter = Predicate.True then None
            else Some (s.filter, qy.table s.name))
          qy.q.sources)
      queries
  in
  Gc.compact ();
  let one () =
    timed ~compact:false (fun () ->
        Spans.with_ "relation/predicate" (fun () ->
            List.fold_left
              (fun n (p, rel) ->
                let f = Predicate.compile p (Relation.schema rel) in
                Relation.iter (fun t -> ignore (Sys.opaque_identity (f t))) rel;
                n + Relation.cardinality rel)
              0 work))
  in
  let runs = List.init reps (fun _ -> one ()) in
  let n = float_of_int (fst (List.hd runs)) in
  ratio (median (List.map (fun (_, c) -> c.wall) runs)) n *. 1e9

(* What one replay leaves behind; the plan itself is dropped at once so
   replays never hold two plans' hash tables in memory together. *)
type replay = {
  r_label : string;
  r_cost : cost;
  r_tuples : int;
  r_builds : int;
  r_probes : int;
  r_join_out : int;
  r_resident : int;
  r_preagg : (string * int * int * int) list;
  r_sink_wall : float;
  r_sink_tuples : int;
}

(* Push every source tuple through a single-phase instantiation of
   [spec], as a static run does, then feed the root output to a fresh
   shared sink. *)
let replay qy (label, spec) =
  let metrics = Adp_obs.Metrics.create () in
  let srcs = qy.sources () in
  let (plan, outs), c =
    timed (fun () ->
        Spans.with_ "exec/plan" (fun () ->
            let ctx = Ctx.create ~metrics () in
            let plan =
              Plan.instantiate ~record_outputs:false ctx spec
                ~schema_of:(Catalog.schema_of qy.catalog)
            in
            let outs = ref [] in
            let consume src t =
              outs := List.rev_append (Plan.push plan ~source:(Source.name src) t) !outs
            in
            ignore (Driver.run ctx ~sources:srcs ~consume ());
            outs := List.rev_append (Plan.flush plan) !outs;
            plan, !outs))
  in
  let schema = Plan.schema plan in
  let (), sink =
    timed ~compact:false (fun () ->
        Spans.with_ "core/sink" (fun () ->
            let s = Sink.create (Ctx.create ()) qy.q ~canonical:schema in
            Sink.feed s ~from:schema outs;
            ignore (Sys.opaque_identity (Sink.result s))))
  in
  let counter name = Adp_obs.Metrics.counter_total metrics name in
  { r_label = label; r_cost = c; r_tuples = tuples srcs;
    r_builds = counter "adp_node_hash_builds_total";
    r_probes = counter "adp_node_hash_probes_total";
    r_join_out =
      List.fold_left (fun a (j : Plan.join_info) -> a + j.out_count) 0
        (Plan.join_infos plan);
    r_resident = Plan.memory_in_use plan;
    r_preagg = Plan.preagg_stats plan;
    r_sink_wall = sink.wall; r_sink_tuples = List.length outs }

(* Median µs of one [Optimizer.optimize] call, in batches of at least
   20 ms so the clock's resolution does not matter. *)
let optimize_us qy =
  let call () =
    ignore
      (Sys.opaque_identity
         (Optimizer.optimize qy.q qy.catalog (Adp_stats.Selectivity.create ())))
  in
  Gc.compact ();
  let (), c = timed ~compact:false call in
  let batch = max 1 (int_of_float (0.02 /. max c.wall 1e-6)) in
  let one () =
    snd
      (timed ~compact:false (fun () ->
           Spans.with_ "optimizer" (fun () ->
               for _ = 1 to batch do call () done)))
  in
  median (List.init 5 (fun _ -> (one ()).wall)) /. float_of_int batch *. 1e6

(* All the shared probes, and the µs of one optimizer call per query.
   [preagg] names the replay labels of a pre-aggregated spec and of its
   [No_preagg] baseline, when the workload has them. *)
let run ?preagg queries =
  let src_wall, src_words, n = probe "exec/source" queries drain in
  let drv_wall, drv_words, _ = probe "exec/driver" queries drive in
  let filter_ns = filters queries in
  let replays =
    List.concat_map (fun qy -> List.map (replay qy) qy.specs) queries
  in
  let total f = List.fold_left (fun a r -> a + f r) 0 replays in
  let push_tuples = float_of_int (total (fun r -> r.r_tuples)) in
  let per_push f = ratio (sum (List.map f replays)) push_tuples in
  let opt_us = List.map (fun qy -> qy.name, optimize_us qy) queries in
  let preagg_metrics =
    match preagg with
    | None -> []
    | Some (with_label, base_label) ->
      let pick l = List.filter (fun r -> r.r_label = l) replays in
      let walls l = sum (List.map (fun r -> r.r_cost.wall) (pick l)) in
      let n = List.fold_left (fun a r -> a + r.r_tuples) 0 (pick base_label) in
      let stats = List.concat_map (fun r -> r.r_preagg) (pick with_label) in
      let pin = List.fold_left (fun a (_, i, _, _) -> a + i) 0 stats in
      let pout = List.fold_left (fun a (_, _, o, _) -> a + o) 0 stats in
      let window = List.fold_left (fun a (_, _, _, w) -> max a w) 0 stats in
      [ "preagg.ns_per_tuple",
        ratio (walls with_label -. walls base_label) (float_of_int n) *. 1e9;
        "preagg.collapse_ratio", ratio (float_of_int pin) (float_of_int pout);
        "preagg.final_window", float_of_int window ]
  in
  (* Push cost is the replay's cost beyond what the driver alone costs
     on the same tuples. *)
  [ "source.ns_per_tuple", ratio src_wall n *. 1e9;
    "source.words_per_tuple", ratio src_words n;
    "driver.ns_per_tuple", ratio drv_wall n *. 1e9;
    "driver.words_per_tuple", ratio drv_words n;
    "filter.ns_per_tuple", filter_ns;
    "plan.push_ns_per_tuple",
    (per_push (fun r -> r.r_cost.wall) -. ratio drv_wall n) *. 1e9;
    "plan.push_words_per_tuple",
    per_push (fun r -> r.r_cost.words) -. ratio drv_words n;
    "plan.hash_builds", float_of_int (total (fun r -> r.r_builds));
    "plan.hash_probes", float_of_int (total (fun r -> r.r_probes));
    "plan.join_out", float_of_int (total (fun r -> r.r_join_out));
    "plan.resident_tuples", float_of_int (total (fun r -> r.r_resident));
    "sink.ns_per_tuple",
    ratio (sum (List.map (fun r -> r.r_sink_wall) replays))
      (float_of_int (total (fun r -> r.r_sink_tuples)))
    *. 1e9;
    "optimizer.optimize_us", sum (List.map snd opt_us) ]
  @ preagg_metrics,
  opt_us
