(* Workload ordered-stream: the paper's §5 and §6 operators on a skewed
   (Zipf z = 0.5) SF 0.1 dataset.  LINEITEM ⋈ ORDERS with 1 % of each
   input reordered runs through the pipelined hash join and the naive and
   priority-queue complementary join pairs; Q10A and Q3A stream from
   bandwidth-limited sources under no, adjustable-window and traditional
   pre-aggregation.  Nothing here switches plans, so stitch-up, the
   registry and re-optimization are bypassed. *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_optimizer
open Adp_core
open Adp_query
open Util

let scale = 0.1
let reordered = 0.01
let stream_model = Source.Bandwidth 600_000.0

let preaggs =
  [ "none", Optimizer.No_preagg;
    "windowed", Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 });
    "traditional", Optimizer.Force Plan.Traditional ]

type input = {
  ds : Tpch.t;
  lineitem : Relation.t;  (** 1 % reordered *)
  orders : Relation.t;  (** 1 % reordered *)
  queries : (Workload.tpch_query * Logical.query * Catalog.t) list;
}

let setup ~scale ~seed =
  let ds =
    Spans.with_ "datagen" (fun () ->
        Tpch.generate { Tpch.scale; distribution = Tpch.Skewed 0.5; seed })
  in
  let rng = Prng.create seed in
  let lineitem = Perturb.swap_fraction rng ds.lineitem reordered in
  let orders = Perturb.swap_fraction rng ds.orders reordered in
  let queries =
    List.map
      (fun qid ->
        let q = Workload.query qid in
        qid, q, Workload.catalog ~with_cardinalities:true ds q)
      [ Workload.Q10A; Workload.Q3A ]
  in
  { ds; lineitem; orders; queries }

let digest inp = relation_digest inp.lineitem

let prepare _ = ()

let sources inp q () = Workload.sources ~model:stream_model inp.ds q ()

type join = Hash | Comp of Comp_join.variant

let joins =
  [ Hash, "hash"; Comp Comp_join.Naive, "naive";
    Comp (Comp_join.Priority_queue 1024), "pq" ]

type outcome =
  | Joined of { fp : fingerprint; stats : Comp_join.stats option; virt : float }
  | Aggregated of Strategy.outcome

type kind = Join | Preagg

type run = {
  label : string;
  kind : kind;
  cost : cost;
  tuples : int;
  outcome : (outcome, exn) result;
}

let ctx_of sc =
  match sc with
  | None -> Ctx.create ()
  | Some sc ->
    Ctx.create ~trace:sc.trace ~profile:sc.profile ~wall:sc.wallc ()

(* LINEITEM ⋈ ORDERS on the order key, every output folded into a
   fingerprint. *)
let run_join ?sc inp j =
  let ctx = ctx_of sc in
  let fp = fingerprint () in
  let lkey = [ "lineitem.l_orderkey" ] and rkey = [ "orders.o_orderkey" ] in
  let left_schema = Relation.schema inp.lineitem in
  let right_schema = Relation.schema inp.orders in
  let l_src = Source.create ~name:"l" inp.lineitem Source.Local in
  let o_src = Source.create ~name:"o" inp.orders Source.Local in
  let is_left src = Source.name src = "l" in
  let stats =
    match j with
    | Hash ->
      let sj =
        Sym_join.create ctx ~mode:`Hash ~left_schema ~right_schema ~left_key:lkey
          ~right_key:rkey
      in
      let consume src t =
        let side = if is_left src then Sym_join.L else Sym_join.R in
        List.iter (fp_add fp) (Sym_join.insert sj side t)
      in
      ignore (Driver.run ctx ~sources:[ l_src; o_src ] ~consume ());
      None
    | Comp variant ->
      let cj =
        Comp_join.create ctx ~variant ~left_schema ~right_schema ~left_key:lkey
          ~right_key:rkey
      in
      let consume src t =
        let side = if is_left src then Comp_join.L else Comp_join.R in
        List.iter (fp_add fp) (Comp_join.insert cj side t)
      in
      ignore (Driver.run ctx ~sources:[ l_src; o_src ] ~consume ());
      List.iter (fp_add fp) (Comp_join.finish cj);
      Some (Comp_join.stats cj)
  in
  Joined { fp; stats; virt = Ctx.now ctx }

let run_preagg ?sc inp (q, catalog) preagg =
  let trace = Option.map (fun s -> s.trace) sc in
  let profile = Option.map (fun s -> s.profile) sc in
  let wall = Option.map (fun s -> s.wallc) sc in
  Aggregated
    (Strategy.run ~preagg ?trace ?profile ?wall Strategy.Static q catalog
       ~sources:(sources inp q))

(* One pass: the three joins, then each query under the three
   pre-aggregation strategies.  The joins must agree on their output
   fingerprint and the strategies of one query on their result multiset;
   [corrupt] drops a row from the first query's windowed result. *)
let pass ?(traced = false) ~corrupt inp =
  let timed_run ~label ~kind ~tuples f =
    let sc = if traced then Some (sidecars ()) else None in
    let outcome, cost =
      timed_result (fun () -> Spans.with_ ("run " ^ label) (fun () -> f sc))
    in
    Printf.printf "# %s: %.3f s wall\n%!" label cost.wall;
    { label; kind; cost; tuples; outcome }
  in
  let join_tuples =
    Relation.cardinality inp.lineitem + Relation.cardinality inp.orders
  in
  let join_runs =
    List.map
      (fun (j, name) ->
        let layer = if j = Hash then "exec/sym_join" else "exec/comp_join" in
        timed_run ~label:("join " ^ name) ~kind:Join ~tuples:join_tuples
          (fun sc -> Spans.with_ layer (fun () -> run_join ?sc inp j)))
      joins
  in
  let preagg_runs =
    List.map
      (fun (qid, q, catalog) ->
        let tuples = Layers.tuples (sources inp q ()) in
        List.map
          (fun (name, preagg) ->
            timed_run
              ~label:(Printf.sprintf "%s %s" (Workload.name qid) name)
              ~kind:Preagg ~tuples
              (fun sc -> run_preagg ?sc inp (q, catalog) preagg))
          preaggs)
      inp.queries
  in
  let fps =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Ok (Joined j) -> Some (fp_to_string j.fp)
        | _ -> None)
      join_runs
  in
  let result_of r =
    match r.outcome with
    | Ok (Aggregated o) ->
      Some
        (if corrupt && r.label = "Q10A windowed" then drop_row o.Strategy.result
         else o.Strategy.result)
    | _ -> None
  in
  let failed =
    List.length join_runs - List.length fps
    + disagreements ( = ) fps
    + List.fold_left
        (fun acc runs ->
          let results = List.filter_map result_of runs in
          acc + List.length runs - List.length results
          + disagreements approx_same_bag results)
        0 preagg_runs
  in
  let runs = join_runs @ List.concat preagg_runs in
  let identity =
    List.map
      (fun r ->
        r.label ^ " "
        ^
        match r.outcome with
        | Ok (Joined j) -> Printf.sprintf "t=%h %s" j.virt (fp_to_string j.fp)
        | Ok (Aggregated o) ->
          (match o.Strategy.corrective_stats with
           | Some st -> corrective_identity st
           | None -> "")
          ^ " " ^ bag_digest o.Strategy.result
        | Error _ -> "error")
      runs
  in
  ( pass_of
      ~costs:(List.map (fun r -> r.cost) runs)
      ~tuples:(List.fold_left (fun a r -> a + r.tuples) 0 runs)
      ~attempted:(List.length runs) ~failed ~identity,
    runs )

let layer_metrics inp runs =
  let find label = List.find (fun r -> r.label = label) runs in
  let ns_per_tuple label =
    let r = find label in
    ratio r.cost.wall (float_of_int r.tuples) *. 1e9
  in
  let comp_stats =
    List.filter_map
      (fun r ->
        match r.outcome with
        | Ok (Joined { stats = Some st; _ }) -> Some st
        | _ -> None)
      runs
  in
  let routed f =
    sum (List.map (fun st -> let l, r = f st in float_of_int (l + r)) comp_stats)
  in
  let merged = routed (fun st -> st.Comp_join.merge_routed) in
  let hashed = routed (fun st -> st.Comp_join.hash_routed) in
  let virt r =
    match r.outcome with
    | Ok (Joined j) -> j.virt
    | Ok (Aggregated o) -> o.Strategy.report.Report.time_s *. 1e6
    | Error _ -> 0.0
  in
  let walls kind =
    sum (List.map (fun r -> r.cost.wall) (List.filter (fun r -> r.kind = kind) runs))
  in
  let probes, _ =
    Layers.run ~preagg:("windowed", "none")
      (List.map
         (fun (qid, q, catalog) ->
           { Layers.name = Workload.name qid; q; catalog;
             table = Tpch.table inp.ds; sources = sources inp q;
             specs =
               List.map
                 (fun (name, preagg) ->
                   let sels = Adp_stats.Selectivity.create () in
                   name, (Optimizer.optimize ~preagg q catalog sels).spec)
                 preaggs })
         inp.queries)
  in
  probes
  @ [ "compjoin_wall_s", walls Join;
      "preagg_wall_s", walls Preagg;
      "symjoin.ns_per_tuple", ns_per_tuple "join hash";
      "compjoin.naive_ns_per_tuple", ns_per_tuple "join naive";
      "compjoin.pq_ns_per_tuple", ns_per_tuple "join pq";
      "compjoin.merge_share", ratio merged (merged +. hashed);
      "compjoin.stitch_out",
      sum (List.map (fun st -> float_of_int st.Comp_join.stitch_out) comp_stats);
      "cost_model.virtual_s", sum (List.map virt runs) /. 1e6 ]
