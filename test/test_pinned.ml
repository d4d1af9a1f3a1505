(* Pinned virtual-time bits.  Each case runs one engine path at SF 0.004
   and renders its total virtual time as raw float bits, next to a digest
   of its result bag with every float printed exactly.  Any change that
   reorders a virtual charge, moves a decision or perturbs an aggregate
   shows up here as a different line; a change to the push path must
   leave every line as it is. *)

open Adp_relation
open Adp_datagen
open Adp_exec
open Adp_optimizer
open Adp_core
open Adp_query

let scale = 0.004

let ds =
  lazy (Tpch.generate { Tpch.scale; distribution = Tpch.Uniform; seed = 1 })

let exact_value = function
  | Value.Float f -> Printf.sprintf "%h" f
  | v -> Value.to_string v

let bag_digest tuples =
  tuples
  |> List.map (fun t ->
         String.concat "|" (Array.to_list (Array.map exact_value t)))
  |> List.sort String.compare
  |> String.concat "\n"
  |> Digest.string |> Digest.to_hex

let line ~virt ~card tuples =
  Printf.sprintf "t=%Lx card=%d bag=%s" (Int64.bits_of_float virt) card
    (bag_digest tuples)

(* The corrective knobs of the figure reproductions: polls every 20 ms of
   virtual time, a 200-tuple observation guard, switch at 0.8. *)
let corrective_config =
  { Corrective.default_config with
    poll_interval = 2e4; min_leaf_seen = 200; switch_threshold = 0.8 }

let strategy_run qid ~pessimal ~corrective =
  let ds = Lazy.force ds in
  let q = Workload.query qid in
  let cards = Workload.catalog ~with_cardinalities:true ds q in
  let catalog, initial_plan =
    if pessimal then
      ( Workload.catalog ~with_cardinalities:false ds q,
        let sels = Adp_stats.Selectivity.create () in
        Some (Optimizer.pessimal q cards sels).spec )
    else cards, None
  in
  let strategy =
    if corrective then Strategy.Corrective corrective_config
    else Strategy.Static
  in
  let o =
    Strategy.run ?initial_plan strategy q catalog
      ~sources:(fun () -> Workload.sources ds q ())
  in
  let extra =
    match o.Strategy.corrective_stats with
    | Some st ->
      Printf.sprintf " phases=%d stitched=%d" st.Corrective.phases
        st.Corrective.stitch.Stitchup.output
    | None -> ""
  in
  line ~virt:o.Strategy.report.Report.time_s
    ~card:(Relation.cardinality o.Strategy.result)
    (Relation.to_list o.Strategy.result)
  ^ extra

(* LINEITEM ⋈ ORDERS with 1 % of each input reordered, through the
   priority-queue complementary join pair; [budget] forces overflow
   regions to spill. *)
let comp_join_run ?budget () =
  let ds = Lazy.force ds in
  let rng = Prng.create 7 in
  let li = Perturb.swap_fraction rng ds.Tpch.lineitem 0.01 in
  let od = Perturb.swap_fraction rng ds.Tpch.orders 0.01 in
  let ctx = Ctx.create () in
  let cj =
    Comp_join.create ?memory_budget:budget ctx
      ~variant:(Comp_join.Priority_queue 64) ~left_schema:(Relation.schema li)
      ~right_schema:(Relation.schema od) ~left_key:[ "lineitem.l_orderkey" ]
      ~right_key:[ "orders.o_orderkey" ]
  in
  let outs = ref [] in
  let consume src t =
    let side = if Source.name src = "l" then Comp_join.L else Comp_join.R in
    outs := List.rev_append (Comp_join.insert cj side t) !outs
  in
  ignore
    (Driver.run ctx
       ~sources:
         [ Source.create ~name:"l" li Source.Local;
           Source.create ~name:"o" od Source.Local ]
       ~consume ());
  outs := List.rev_append (Comp_join.finish cj) !outs;
  line ~virt:(Ctx.now ctx) ~card:(List.length !outs) !outs

let windowed_run () =
  let ds = Lazy.force ds in
  let q = Workload.query Workload.Q10A in
  let o =
    Strategy.run
      ~preagg:
        (Optimizer.Force (Plan.Windowed { initial = 64; max_window = 65536 }))
      Strategy.Static q
      (Workload.catalog ~with_cardinalities:true ds q)
      ~sources:(fun () -> Workload.sources ds q ())
  in
  line ~virt:o.Strategy.report.Report.time_s
    ~card:(Relation.cardinality o.Strategy.result)
    (Relation.to_list o.Strategy.result)

let cases =
  List.concat_map
    (fun qid ->
      List.map
        (fun (variant, pessimal, corrective) ->
          ( Workload.name qid ^ " " ^ variant,
            fun () -> strategy_run qid ~pessimal ~corrective ))
        [ "static-cards", false, false; "static-pessimal", true, false;
          "corrective-cards", false, true; "corrective-pessimal", true, true ])
    [ Workload.Q5; Workload.Q10A; Workload.Q3A ]
  @ [ "comp-join pq", (fun () -> comp_join_run ());
      "comp-join pq spilling", (fun () -> comp_join_run ~budget:2000 ());
      "Q10A windowed preagg", windowed_run ]

(* Recorded on the engine as it stood before the join hash table and the
   push path were rewritten; the rewrite reproduces every line. *)
let pinned =
  [ ("Q5 static-cards",
      "t=3fadfff79c843d1b card=3 bag=87cf2867f0c0c4def92e7b2706dd36c7 phases=1 stitched=0");
    ("Q5 static-pessimal",
      "t=3fc1094a2b9d33d9 card=3 bag=87cf2867f0c0c4def92e7b2706dd36c7 phases=1 stitched=0");
    ("Q5 corrective-cards",
      "t=3fae830a0b1bca6b card=3 bag=87cf2867f0c0c4def92e7b2706dd36c7 phases=1 stitched=0");
    ("Q5 corrective-pessimal",
      "t=3fb90ea9e6eebbb0 card=3 bag=87cf2867f0c0c4def92e7b2706dd36c7 phases=2 stitched=44");
    ("Q10A static-cards",
      "t=3fac2cecc814edb6 card=558 bag=c001a6eca5ed9576050d2d470598f763 phases=1 stitched=0");
    ("Q10A static-pessimal",
      "t=3fb187c200c0f61d card=558 bag=c001a6eca5ed9576050d2d470598f763 phases=1 stitched=0");
    ("Q10A corrective-cards",
      "t=3facafff36ac7b06 card=558 bag=c001a6eca5ed9576050d2d470598f763 phases=1 stitched=0");
    ("Q10A corrective-pessimal",
      "t=3fb74ca4f440b13a card=558 bag=dfacbca1605ad64c33767ea24443e2f6 phases=2 stitched=5404");
    ("Q3A static-cards",
      "t=3fb3181b7fb84a03 card=1164 bag=c88dc940f58df68f56addc688279c78b phases=1 stitched=0");
    ("Q3A static-pessimal",
      "t=3fc0d8284aa1d853 card=1164 bag=c88dc940f58df68f56addc688279c78b phases=1 stitched=0");
    ("Q3A corrective-cards",
      "t=3fb37a6952a9f273 card=1164 bag=c88dc940f58df68f56addc688279c78b phases=1 stitched=0");
    ("Q3A corrective-pessimal",
      "t=3fc13a761d9381f2 card=1164 bag=c88dc940f58df68f56addc688279c78b phases=1 stitched=0");
    ("comp-join pq",
      "t=40ebeebfffffb639 card=23968 bag=0b3f75cee1d3c474ce86a5bc41cc3e8f");
    ("comp-join pq spilling",
      "t=410375a7fffffb8a card=23968 bag=0b3f75cee1d3c474ce86a5bc41cc3e8f");
    ("Q10A windowed preagg",
      "t=3fa0be2a729a631d card=558 bag=934e1aba75319d2bb146958867cbda62") ]

let test_case (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      let got = run () in
      match List.assoc_opt name pinned with
      | Some want -> Alcotest.(check string) name want got
      | None -> Alcotest.failf "no pinned line for %s: got %S" name got)

let suite = List.map test_case cases
