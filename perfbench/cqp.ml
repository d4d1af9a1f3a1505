(* Workload cqp-sf0.1: the paper's Figure 2 core at the paper's scale.
   TPC-H SF 0.1, uniform distribution, local sources; Q5, Q10A and Q3A
   each under a static and a corrective strategy, starting from the
   optimizer's plan or from the documented poor plan.  Join build/probe,
   leaf filters, registry materialization, stitch-up and re-optimizer
   polls do nearly all the work here. *)

open Adp_datagen
open Adp_optimizer
open Adp_core
open Adp_query
open Util

let scale = 0.1
let queries = [ Workload.Q5; Workload.Q10A; Workload.Q3A ]

(* The corrective knobs of the figure reproductions: polls every 20 ms of
   virtual time, a 200-tuple observation guard, switch at 0.8. *)
let corrective_config =
  { Corrective.default_config with
    poll_interval = 2e4; min_leaf_seen = 200; switch_threshold = 0.8 }

type variant = Static_cards | Static_pessimal | Corrective_pessimal | Corrective_cards

let variants =
  [ Static_cards, "static-cards"; Static_pessimal, "static-pessimal";
    Corrective_pessimal, "corrective-pessimal";
    Corrective_cards, "corrective-cards" ]

let is_corrective = function
  | Corrective_pessimal | Corrective_cards -> true
  | Static_cards | Static_pessimal -> false

type query_input = {
  qid : Workload.tpch_query;
  q : Logical.query;
  cards : Catalog.t;
  nocards : Catalog.t;
  pessimal : Adp_exec.Plan.spec;
      (** the costliest cross-product-free plan under true statistics *)
  tuples : int;
}

type input = { ds : Tpch.t; items : query_input list }

let setup ~scale ~seed =
  let ds =
    Spans.with_ "datagen" (fun () ->
        Tpch.generate { Tpch.scale; distribution = Tpch.Uniform; seed })
  in
  let item qid =
    let q = Workload.query qid in
    let cards = Workload.catalog ~with_cardinalities:true ds q in
    { qid; q; cards; nocards = Workload.catalog ~with_cardinalities:false ds q;
      pessimal =
        (Optimizer.pessimal q cards (Adp_stats.Selectivity.create ())).spec;
      tuples = Layers.tuples (Workload.sources ds q ()) }
  in
  { ds; items = List.map item queries }

let digest inp = relation_digest inp.ds.Tpch.lineitem

let prepare _ = ()

let run_one ?sc inp it v =
  let strategy, catalog, initial_plan =
    match v with
    | Static_cards -> Strategy.Static, it.cards, None
    | Static_pessimal -> Strategy.Static, it.nocards, Some it.pessimal
    | Corrective_pessimal ->
      Strategy.Corrective corrective_config, it.nocards, Some it.pessimal
    | Corrective_cards -> Strategy.Corrective corrective_config, it.cards, None
  in
  let trace = Option.map (fun s -> s.trace) sc in
  let profile = Option.map (fun s -> s.profile) sc in
  let wall = Option.map (fun s -> s.wallc) sc in
  Strategy.run ?initial_plan ?trace ?profile ?wall strategy it.q catalog
    ~sources:(fun () -> Workload.sources inp.ds it.q ())

type run = {
  it : query_input;
  variant : variant;
  label : string;
  cost : cost;
  outcome : (Strategy.outcome, exn) result;
  sc : sidecars option;
}

let stats r =
  match r.outcome with
  | Ok { Strategy.corrective_stats = Some st; _ } -> Some st
  | Ok _ | Error _ -> None

(* One pass in the fixed order query by query, variant by variant.  The
   four variants of a query must return the same result multiset;
   [corrupt] drops a row from the first query's static-pessimal result to
   prove the check trips. *)
let pass ?(traced = false) ~corrupt inp =
  let runs =
    List.concat_map
      (fun it ->
        List.map
          (fun (variant, label) ->
            let sc = if traced then Some (sidecars ()) else None in
            let outcome, cost =
              timed_result (fun () ->
                  Spans.with_
                    (Printf.sprintf "query %s %s" (Workload.name it.qid) label)
                    (fun () -> run_one ?sc inp it variant))
            in
            let r = { it; variant; label; cost; outcome; sc } in
            Printf.printf "# %s %s: %.3f s wall, %.3f s virtual\n%!"
              (Workload.name it.qid) label cost.wall
              (match stats r with Some st -> st.total_time /. 1e6 | None -> nan);
            r)
          variants)
      inp.items
  in
  let result r =
    match r.outcome with
    | Ok o ->
      if corrupt && r.variant = Static_pessimal && r.it == List.hd inp.items
      then Some (drop_row o.Strategy.result)
      else Some o.Strategy.result
    | Error _ -> None
  in
  let failed =
    List.fold_left
      (fun acc it ->
        let mine = List.filter (fun r -> r.it == it) runs in
        let results = List.filter_map result mine in
        let errors = List.length mine - List.length results in
        acc + errors + disagreements approx_same_bag results)
      0 inp.items
  in
  let identity =
    List.map
      (fun r ->
        match r.outcome, stats r with
        | Ok o, Some st ->
          Printf.sprintf "%s %s %s %s" (Workload.name r.it.qid) r.label
            (corrective_identity st) (bag_digest o.Strategy.result)
        | _ -> Printf.sprintf "%s %s error" (Workload.name r.it.qid) r.label)
      runs
  in
  ( pass_of
      ~costs:(List.map (fun r -> r.cost) runs)
      ~tuples:(List.fold_left (fun a r -> a + r.it.tuples) 0 runs)
      ~attempted:(List.length runs) ~failed ~identity,
    runs )

(* Wall time of Q5 corrective-pessimal with one observability sink
   attached, over the same run bare, run back to back: the budget a sink
   is held to. *)
let obs_overheads inp =
  let it = List.find (fun it -> it.qid = Workload.Q5) inp.items in
  let run ?trace ?profile ?wall () =
    snd
      (timed (fun () ->
           Strategy.run ~initial_plan:it.pessimal ?trace ?profile ?wall
             (Strategy.Corrective corrective_config) it.q it.nocards
             ~sources:(fun () -> Workload.sources inp.ds it.q ())))
  in
  let bare = (run ()).wall in
  let trace = (run ~trace:(Adp_obs.Trace.memory ()) ()).wall in
  let profile = (run ~profile:(Adp_obs.Profile.create ()) ()).wall in
  let wall = (run ~wall:(Adp_obs.Wallclock.create ()) ()).wall in
  [ "obs.trace_overhead", ratio trace bare;
    "obs.profile_overhead", ratio profile bare;
    "obs.wall_overhead", ratio wall bare ]

(* Per-layer metrics from the traced pass's runs and the layer probes. *)
let layer_metrics inp runs =
  let walls pred =
    sum (List.map (fun r -> r.cost.wall) (List.filter pred runs))
  in
  let of_variant v r = r.variant = v in
  let corrective_run r = is_corrective r.variant in
  let corrective = List.filter corrective_run runs in
  let virt r = match stats r with Some st -> st.total_time | None -> 0.0 in
  let over_corrective f = sum (List.map f corrective) in
  let stitch f =
    over_corrective (fun r ->
        match stats r with Some st -> f st.Corrective.stitch | None -> 0.0)
  in
  let events count r =
    match r.sc with Some sc -> float_of_int (count sc.trace) | None -> 0.0
  in
  let probes, opt_us =
    Layers.run
      (List.map
         (fun it ->
           let cards =
             Optimizer.optimize it.q it.cards (Adp_stats.Selectivity.create ())
           in
           { Layers.name = Workload.name it.qid; q = it.q; catalog = it.cards;
             table = Tpch.table inp.ds;
             sources = (fun () -> Workload.sources inp.ds it.q ());
             specs = [ "cards", cards.spec; "pessimal", it.pessimal ] })
         inp.items)
  in
  let reopt_s =
    over_corrective (fun r ->
        events polls r *. List.assoc (Workload.name r.it.qid) opt_us /. 1e6)
  in
  let corrective_wall = walls corrective_run in
  let stitch_wall =
    over_corrective (fun r ->
        match r.sc with Some sc -> stitchup_wall sc | None -> 0.0)
  in
  let stitch_virtual = stitch (fun s -> s.Stitchup.time) in
  (* Pairs of variants of one query whose virtual order matches their
     wall order. *)
  let pairs =
    List.concat_map
      (fun it ->
        let mine = List.filter (fun r -> r.it == it) runs in
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b -> if a.label < b.label then Some (a, b) else None)
              mine)
          mine)
      inp.items
  in
  let agree =
    List.filter
      (fun (a, b) -> compare (virt a) (virt b) = compare a.cost.wall b.cost.wall)
      pairs
  in
  probes
  @ obs_overheads inp
  @ [ "static_wall_s", walls (fun r -> not (corrective_run r));
      "corrective_wall_s", corrective_wall;
      "corrective.noswitch_ratio",
      ratio (walls (of_variant Corrective_cards)) (walls (of_variant Static_cards));
      "corrective.adaptive_speedup",
      ratio (walls (of_variant Static_pessimal))
        (walls (of_variant Corrective_pessimal));
      "optimizer.polls", over_corrective (events polls);
      "optimizer.switches", over_corrective (events switches);
      "optimizer.reopt_share", ratio reopt_s corrective_wall;
      "stitchup.wall_s", stitch_wall;
      "stitchup.virtual_s", stitch_virtual /. 1e6;
      "stitchup.reused", stitch (fun s -> float_of_int s.Stitchup.reused);
      "stitchup.output", stitch (fun s -> float_of_int s.Stitchup.output);
      "cost_model.virtual_s", sum (List.map virt runs) /. 1e6;
      "cost_model.rank_agreement",
      ratio (float_of_int (List.length agree)) (float_of_int (List.length pairs));
      "cost_model.stitchup_fidelity",
      ratio
        (ratio stitch_wall stitch_virtual)
        (ratio corrective_wall (over_corrective virt)) ]
  @ List.map
      (fun r ->
        ( Printf.sprintf "cost_model.virtual_s.%s.%s" (Workload.name r.it.qid)
            r.label,
          virt r /. 1e6 ))
      runs
