open Adp_relation
open Adp_exec
open Helpers

(* ---------------- Clock & Ctx ---------------- *)

let test_clock () =
  let c = Clock.create () in
  Clock.charge c 5.0;
  Alcotest.(check (float 1e-9)) "cpu" 5.0 (Clock.cpu c);
  Clock.wait_until c 12.0;
  Alcotest.(check (float 1e-9)) "idle" 7.0 (Clock.idle c);
  Clock.wait_until c 3.0;
  Alcotest.(check (float 1e-9)) "no time travel" 12.0 (Clock.now c);
  Clock.reset c;
  Alcotest.(check (float 1e-9)) "reset" 0.0 (Clock.now c)

(* ---------------- Heap ---------------- *)

let test_heap () =
  let h = Heap.create compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 9; 0 ];
  Alcotest.(check int) "length" 6 (Heap.length h);
  Alcotest.(check bool) "peek min" true (Heap.peek h = Some 0);
  let drained = List.init 6 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "heap-sort" [ 0; 1; 1; 4; 5; 9 ] drained;
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty")
    (fun () -> ignore (Heap.pop h))

let heap_sort_prop =
  QCheck2.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck2.Gen.(list_size (int_bound 100) int)
    (fun l ->
      let h = Heap.create compare in
      List.iter (Heap.push h) l;
      let drained = List.init (List.length l) (fun _ -> Heap.pop h) in
      drained = List.sort compare l)

(* ---------------- Source ---------------- *)

let mk_rel n = rel [ "t.k"; "t.p" ] (List.init n (fun i -> [ vi i; vi 0 ]))

let test_source_local () =
  let s = Source.create ~name:"r" (mk_rel 3) Source.Local in
  Alcotest.(check bool) "arrival zero" true (Source.next_arrival s = 0.0);
  Alcotest.(check int) "cardinality" 3 (Source.cardinality s);
  let rec drain n =
    match Source.next s with
    | Some (_, a) ->
      Alcotest.(check (float 0.0)) "local arrivals are 0" 0.0 a;
      drain (n + 1)
    | None -> n
  in
  Alcotest.(check int) "drained all" 3 (drain 0);
  Alcotest.(check bool) "exhausted" true (Source.exhausted s)

let test_source_bandwidth () =
  let s = Source.create ~name:"r" (mk_rel 5) (Source.Bandwidth 2.0) in
  let arrivals =
    List.init 5 (fun _ ->
        match Source.next s with Some (_, a) -> a | None -> -1.0)
  in
  (* 2 tuples/sec => 0.5s = 5e5 µs apart. *)
  Alcotest.(check bool) "spacing" true
    (arrivals = [ 0.0; 5e5; 1e6; 1.5e6; 2e6 ])

let test_source_bursty () =
  let s =
    Source.create ~seed:4 ~name:"r" (mk_rel 200)
      (Source.Bursty { rate = 100.0; mean_burst = 10; mean_gap = 0.5 })
  in
  let prev = ref (-1.0) in
  let gaps = ref 0 in
  let rec go () =
    match Source.next s with
    | None -> ()
    | Some (_, a) ->
      if a < !prev then Alcotest.fail "arrivals must be monotone";
      if a -. !prev > 1e5 then incr gaps;
      prev := a;
      go ()
  in
  go ();
  Alcotest.(check bool) "bursts produce gaps" true (!gaps > 3)

let test_source_observe_rewind () =
  let s = Source.create ~name:"r" (mk_rel 4) Source.Local in
  let count = ref 0 in
  Source.observe s (fun _ -> incr count);
  let rec drain () =
    match Source.next s with Some _ -> drain () | None -> ()
  in
  drain ();
  Alcotest.(check int) "observer saw all" 4 !count;
  Source.rewind s;
  Alcotest.(check int) "rewound" 0 (Source.consumed s);
  drain ();
  Alcotest.(check int) "observer saw again" 8 !count

(* ---------------- Driver ---------------- *)

let test_driver_order_and_idle () =
  let ctx = Ctx.create () in
  let fast = Source.create ~name:"fast" (mk_rel 3) (Source.Bandwidth 10.0) in
  let slow = Source.create ~name:"slow" (mk_rel 2) (Source.Bandwidth 1.0) in
  let log = ref [] in
  let consume src _ = log := Source.name src :: !log in
  (match Driver.run ctx ~sources:[ slow; fast ] ~consume () with
   | Driver.Exhausted -> ()
   | Driver.Switched | Driver.Stopped -> Alcotest.fail "no poll: cannot switch");
  (* fast arrivals: 0, 1e5, 2e5; slow: 0, 1e6 -> slow's second tuple last *)
  Alcotest.(check (list string)) "arrival-ordered"
    [ "slow"; "fast"; "fast"; "fast"; "slow" ]
    (List.rev !log);
  Alcotest.(check bool) "idle time accrued" true (Clock.idle ctx.Ctx.clock > 0.0)

let test_driver_poll_switch () =
  let ctx = Ctx.create () in
  let src = Source.create ~name:"r" (mk_rel 100) Source.Local in
  let consume _ _ = Ctx.charge ctx 10.0 in
  let polls = ref 0 in
  let poll () =
    incr polls;
    if !polls >= 2 then `Switch else `Continue
  in
  (match Driver.run ctx ~sources:[ src ] ~consume ~poll:(100.0, poll) () with
   | Driver.Switched -> ()
   | Driver.Exhausted | Driver.Stopped -> Alcotest.fail "should have switched");
  Alcotest.(check int) "polled twice" 2 !polls;
  Alcotest.(check bool) "source partially consumed" true
    (Source.consumed src > 0 && not (Source.exhausted src))

(* ---------------- Aggregate ---------------- *)

let agg_schema = Schema.make [ "t.g"; "t.v" ]

let specs =
  [ Aggregate.sum ~name:"s" (Expr.col "t.v");
    Aggregate.count_all ~name:"c";
    Aggregate.min_of ~name:"lo" (Expr.col "t.v");
    Aggregate.max_of ~name:"hi" (Expr.col "t.v");
    Aggregate.avg ~name:"m" (Expr.col "t.v") ]

let test_aggregate_raw () =
  let c = Aggregate.compile specs agg_schema in
  let acc = Aggregate.init c in
  List.iter
    (fun v -> Aggregate.update c acc [| vi 1; vi v |])
    [ 4; 2; 6 ];
  let final = Aggregate.finalize c acc in
  Alcotest.(check bool) "sum" true (Value.equal final.(0) (vi 12));
  Alcotest.(check bool) "count" true (Value.equal final.(1) (vi 3));
  Alcotest.(check bool) "min" true (Value.equal final.(2) (vi 2));
  Alcotest.(check bool) "max" true (Value.equal final.(3) (vi 6));
  Alcotest.(check bool) "avg" true (Value.equal final.(4) (vf 4.0))

let test_aggregate_partial_merge () =
  let raw = Aggregate.compile specs agg_schema in
  let partial_schema = Aggregate.partial_schema ~group_cols:[ "t.g" ] specs in
  let pc = Aggregate.compile_partial specs partial_schema in
  (* Two partitions aggregated separately, merged as partials. *)
  let acc1 = Aggregate.init raw and acc2 = Aggregate.init raw in
  List.iter (fun v -> Aggregate.update raw acc1 [| vi 1; vi v |]) [ 4; 2 ];
  List.iter (fun v -> Aggregate.update raw acc2 [| vi 1; vi v |]) [ 6 ];
  let p1 = Array.append [| vi 1 |] (Aggregate.to_partial raw acc1) in
  let p2 = Array.append [| vi 1 |] (Aggregate.to_partial raw acc2) in
  let merged = Aggregate.init pc in
  Aggregate.update pc merged p1;
  Aggregate.update pc merged p2;
  (* Direct aggregation over everything. *)
  let direct = Aggregate.init raw in
  List.iter (fun v -> Aggregate.update raw direct [| vi 1; vi v |]) [ 4; 2; 6 ];
  let a = Aggregate.finalize pc merged and b = Aggregate.finalize raw direct in
  Alcotest.(check bool) "merge of partials = direct" true
    (Array.for_all2 Value.equal a b)

let test_partial_names () =
  Alcotest.(check (list string)) "layout"
    [ "pa.s_sum"; "pa.c_cnt"; "pa.lo_min"; "pa.hi_max"; "pa.m_sum"; "pa.m_cnt" ]
    (Aggregate.partial_names specs)

let aggregate_distributes =
  QCheck2.Test.make ~name:"aggregation distributes over union (qcheck)"
    ~count:150
    QCheck2.Gen.(
      pair
        (list_size (int_bound 30) (pair (int_bound 3) (int_bound 100)))
        (list_size (int_bound 30) (pair (int_bound 3) (int_bound 100))))
    (fun (xs, ys) ->
      QCheck2.assume (xs <> [] || ys <> []);
      let raw = Aggregate.compile specs agg_schema in
      let partial_schema = Aggregate.partial_schema ~group_cols:[ "t.g" ] specs in
      let pc = Aggregate.compile_partial specs partial_schema in
      let fold_part part =
        let acc = Aggregate.init raw in
        List.iter (fun (g, v) -> Aggregate.update raw acc [| vi g; vi v |]) part;
        Array.append [| vi 0 |] (Aggregate.to_partial raw acc)
      in
      (* Single group (g projected out of the key here): merge two partial
         windows vs aggregate everything at once. *)
      let merged = Aggregate.init pc in
      if xs <> [] then Aggregate.update pc merged (fold_part xs);
      if ys <> [] then Aggregate.update pc merged (fold_part ys);
      let direct = Aggregate.init raw in
      List.iter
        (fun (g, v) -> Aggregate.update raw direct [| vi g; vi v |])
        (xs @ ys);
      let a = Aggregate.finalize pc merged in
      let b = Aggregate.finalize raw direct in
      Array.for_all2 value_approx a b)

(* ---------------- Agg sink ---------------- *)

let test_agg_groups () =
  let ctx = Ctx.create () in
  let agg =
    Agg.create ctx ~group_cols:[ "t.g" ]
      ~aggs:[ Aggregate.sum ~name:"s" (Expr.col "t.v") ]
      ~input:Agg.Raw agg_schema
  in
  List.iter (Agg.add agg)
    [ [| vi 1; vi 10 |]; [| vi 2; vi 5 |]; [| vi 1; vi 3 |] ];
  Alcotest.(check int) "groups" 2 (Agg.groups agg);
  Alcotest.(check int) "consumed" 3 (Agg.consumed agg);
  let out = Agg.result agg in
  Alcotest.(check bool) "schema" true
    (Schema.mem (Agg.out_schema agg) "s");
  check_bag "grouped sums"
    (Relation.to_list out)
    [ [| vi 1; vi 13 |]; [| vi 2; vi 5 |] ]

let suite =
  [ Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "heap" `Quick test_heap;
    qtest heap_sort_prop;
    Alcotest.test_case "source local" `Quick test_source_local;
    Alcotest.test_case "source bandwidth" `Quick test_source_bandwidth;
    Alcotest.test_case "source bursty" `Quick test_source_bursty;
    Alcotest.test_case "source observe/rewind" `Quick test_source_observe_rewind;
    Alcotest.test_case "driver arrival order" `Quick test_driver_order_and_idle;
    Alcotest.test_case "driver poll switch" `Quick test_driver_poll_switch;
    Alcotest.test_case "aggregate raw" `Quick test_aggregate_raw;
    Alcotest.test_case "aggregate partial merge" `Quick test_aggregate_partial_merge;
    Alcotest.test_case "partial column layout" `Quick test_partial_names;
    qtest aggregate_distributes;
    Alcotest.test_case "agg sink groups" `Quick test_agg_groups ]
