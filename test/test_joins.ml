(* Symmetric joins (hash and merge modes) and the complementary join pair. *)

open Adp_relation
open Adp_exec
open Helpers

let lsch = keyed_schema "l"
let rsch = keyed_schema "r"

let mk_sym ctx mode =
  Sym_join.create ctx ~mode ~left_schema:lsch ~right_schema:rsch
    ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]

let sorted_tuples keys = List.map (fun k -> [| vi k; vi (k * 10) |]) keys

let test_hash_mode () =
  let ctx = Ctx.create () in
  let j = mk_sym ctx `Hash in
  let l = sorted_tuples [ 1; 2; 2 ] and r = sorted_tuples [ 2; 3 ] in
  let outs =
    List.concat_map (Sym_join.insert j Sym_join.L) l
    @ List.concat_map (Sym_join.insert j Sym_join.R) r
  in
  check_bag "hash join" outs (oracle_join l r ~on:[ 0, 0 ]);
  Alcotest.(check int) "out_count" 2 (Sym_join.out_count j);
  Alcotest.(check bool) "accepts anything" true
    (Sym_join.accepts j Sym_join.L [| vi 0; vi 0 |])

let test_merge_mode_equivalence () =
  let ctx = Ctx.create () in
  let j = mk_sym ctx `Merge in
  let l = sorted_tuples [ 1; 2; 2; 5 ] and r = sorted_tuples [ 2; 2; 5; 9 ] in
  let outs =
    List.concat_map (Sym_join.insert j Sym_join.L) l
    @ List.concat_map (Sym_join.insert j Sym_join.R) r
  in
  check_bag "merge join = oracle on sorted" outs (oracle_join l r ~on:[ 0, 0 ])

let test_merge_rejects_out_of_order () =
  let ctx = Ctx.create () in
  let j = mk_sym ctx `Merge in
  ignore (Sym_join.insert j Sym_join.L [| vi 5; vi 0 |]);
  Alcotest.(check bool) "accepts equal" true
    (Sym_join.accepts j Sym_join.L [| vi 5; vi 1 |]);
  Alcotest.(check bool) "rejects smaller" false
    (Sym_join.accepts j Sym_join.L [| vi 4; vi 0 |]);
  (* The right side has its own ordering state. *)
  Alcotest.(check bool) "right side independent" true
    (Sym_join.accepts j Sym_join.R [| vi 0; vi 0 |]);
  Alcotest.check_raises "insert raises"
    (Invalid_argument "Sym_join.insert: out-of-order merge insertion")
    (fun () -> ignore (Sym_join.insert j Sym_join.L [| vi 1; vi 0 |]))

let test_merge_cheaper_than_hash () =
  let run mode =
    let ctx = Ctx.create () in
    let j = mk_sym ctx mode in
    let l = sorted_tuples (List.init 500 Fun.id) in
    let r = sorted_tuples (List.init 500 Fun.id) in
    List.iter (fun t -> ignore (Sym_join.insert j Sym_join.L t)) l;
    List.iter (fun t -> ignore (Sym_join.insert j Sym_join.R t)) r;
    Clock.cpu ctx.Ctx.clock
  in
  Alcotest.(check bool) "merge charges less CPU" true (run `Merge < run `Hash)

(* An [Int] key on one side joins [Float] keys on the other, including
   ints beyond 2^53 and a -0.0 against [Int 0].  Outputs (in order) and
   the clock must equal a nested-loop replay that charges the same
   amounts in the same order. *)
let test_int_float_keys () =
  let big = 1 lsl 53 in
  let l = List.map (fun k -> [| vi k; vi 1 |]) [ 3; 0; big; big + 1; 3; 7 ] in
  let r =
    List.map
      (fun k -> [| vf k; vi 2 |])
      [ 3.0; -0.0; Float.of_int big; 3.5; 3.0; Float.nan ]
  in
  let arrivals =
    List.concat (List.map2 (fun a b -> [ `L, a; `R, b ]) l r)
  in
  let ctx = Ctx.create () in
  let j = mk_sym ctx `Hash in
  let outs =
    List.concat_map
      (fun (side, t) ->
        Sym_join.insert j (if side = `L then Sym_join.L else Sym_join.R) t)
      arrivals
  in
  let c = ctx.Ctx.costs in
  let clock = ref 0.0 and seen_l = ref [] and seen_r = ref [] in
  let want =
    List.concat_map
      (fun (side, t) ->
        clock := !clock +. c.Cost_model.hash_build;
        let others = if side = `L then !seen_r else !seen_l in
        let matches =
          List.filter (fun o -> Value.compare o.(0) t.(0) = 0) (List.rev others)
        in
        (if side = `L then seen_l := t :: !seen_l else seen_r := t :: !seen_r);
        clock :=
          !clock
          +. (c.hash_probe +. 0.0
             +. (c.per_match *. float_of_int (List.length matches)));
        List.map
          (fun m -> if side = `L then Tuple.concat t m else Tuple.concat m t)
          matches)
      arrivals
  in
  Alcotest.(check int) "output count" (List.length want) (List.length outs);
  Alcotest.(check bool) "outputs in order" true
    (List.for_all2 Tuple.equal want outs);
  Alcotest.(check bool) "int/float keys matched" true (List.length want >= 5);
  Alcotest.(check int64) "clock bits"
    (Int64.bits_of_float !clock)
    (Int64.bits_of_float (Ctx.now ctx))

(* ---------------- Complementary join pair ---------------- *)

let comp_outputs variant l r =
  let ctx = Ctx.create () in
  let cj =
    Comp_join.create ctx ~variant ~left_schema:lsch ~right_schema:rsch
      ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]
  in
  let outs =
    List.concat_map (Comp_join.insert cj Comp_join.L) l
    @ List.concat_map (Comp_join.insert cj Comp_join.R) r
  in
  let outs = outs @ Comp_join.finish cj in
  outs, Comp_join.stats cj

let test_comp_sorted_all_merge () =
  let l = sorted_tuples (List.init 50 Fun.id) in
  let r = sorted_tuples (List.init 50 (fun i -> i * 2)) in
  let outs, stats = comp_outputs Comp_join.Naive l r in
  check_bag "complementary = oracle" outs (oracle_join l r ~on:[ 0, 0 ]);
  Alcotest.(check (pair int int)) "all routed to merge" (50, 50)
    stats.Comp_join.merge_routed;
  Alcotest.(check (pair int int)) "none to hash" (0, 0)
    stats.Comp_join.hash_routed;
  Alcotest.(check int) "no stitch needed" 0 stats.Comp_join.stitch_out

let test_comp_naive_poisoned_by_early_high_key () =
  (* One huge key arriving early forces everything after it to the hash
     join under naive routing — the §5 degradation. *)
  let l = [| vi 1000; vi 0 |] :: sorted_tuples (List.init 50 Fun.id) in
  let r = sorted_tuples (List.init 50 Fun.id) in
  let outs, stats = comp_outputs Comp_join.Naive l r in
  check_bag "still correct" outs (oracle_join l r ~on:[ 0, 0 ]);
  let ml, _ = stats.Comp_join.merge_routed in
  let hl, _ = stats.Comp_join.hash_routed in
  Alcotest.(check int) "only the poison tuple merged" 1 ml;
  Alcotest.(check int) "rest went to hash" 50 hl

let test_comp_priority_queue_recovers () =
  let rng = Adp_datagen.Prng.create 5 in
  let base = List.init 400 Fun.id in
  let arr = Array.of_list base in
  (* Swap a few elements: "mostly sorted". *)
  for _ = 1 to 8 do
    let i = Adp_datagen.Prng.int rng 400 and j = Adp_datagen.Prng.int rng 400 in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let l = sorted_tuples (Array.to_list arr) in
  let r = sorted_tuples base in
  let outs_n, stats_n = comp_outputs Comp_join.Naive l r in
  let outs_p, stats_p = comp_outputs (Comp_join.Priority_queue 64) l r in
  let oracle = oracle_join l r ~on:[ 0, 0 ] in
  check_bag "naive correct" outs_n oracle;
  check_bag "pq correct" outs_p oracle;
  let merged (a, b) = a + b in
  Alcotest.(check bool) "pq routes more to merge" true
    (merged stats_p.Comp_join.merge_routed
     > merged stats_n.Comp_join.merge_routed)

let test_comp_stats_account_everything () =
  let l = sorted_tuples [ 3; 1; 2; 2 ] and r = sorted_tuples [ 2; 1; 3 ] in
  let outs, stats = comp_outputs (Comp_join.Priority_queue 2) l r in
  Alcotest.(check int) "outputs = component sum"
    (List.length outs)
    (stats.Comp_join.merge_out + stats.Comp_join.hash_out
    + stats.Comp_join.stitch_out);
  let routed (a, b) = a + b in
  Alcotest.(check int) "all inputs routed" 7
    (routed stats.Comp_join.merge_routed + routed stats.Comp_join.hash_routed)

let test_comp_finish_once () =
  let ctx = Ctx.create () in
  let cj =
    Comp_join.create ctx ~variant:Comp_join.Naive ~left_schema:lsch
      ~right_schema:rsch ~left_key:[ "l.k" ] ~right_key:[ "r.k" ]
  in
  ignore (Comp_join.finish cj);
  (try
     ignore (Comp_join.finish cj);
     Alcotest.fail "double finish"
   with Invalid_argument _ -> ());
  (try
     ignore (Comp_join.insert cj Comp_join.L [| vi 1; vi 0 |]);
     Alcotest.fail "insert after finish"
   with Invalid_argument _ -> ())

(* ---------------- Overflow (§5 memory handling) ---------------- *)

let comp_overflow_outputs variant budget l r =
  let ctx = Ctx.create () in
  let cj =
    Comp_join.create ?memory_budget:budget ~regions:8 ctx ~variant
      ~left_schema:lsch ~right_schema:rsch ~left_key:[ "l.k" ]
      ~right_key:[ "r.k" ]
  in
  let outs =
    List.concat_map (Comp_join.insert cj Comp_join.L) l
    @ List.concat_map (Comp_join.insert cj Comp_join.R) r
  in
  let outs = outs @ Comp_join.finish cj in
  outs, Comp_join.stats cj, ctx

let test_overflow_exact_under_pressure () =
  let rng = Adp_datagen.Prng.create 12 in
  let l =
    List.init 400 (fun _ -> [| vi (Adp_datagen.Prng.int rng 50); vi 1 |])
  in
  let r =
    List.init 400 (fun _ -> [| vi (Adp_datagen.Prng.int rng 50); vi 2 |])
  in
  let oracle = oracle_join l r ~on:[ 0, 0 ] in
  List.iter
    (fun budget ->
      let outs, stats, _ = comp_overflow_outputs Comp_join.Naive budget l r in
      check_bag
        (Printf.sprintf "overflow budget %s exact"
           (match budget with None -> "none" | Some b -> string_of_int b))
        outs oracle;
      (match budget with
       | Some _ ->
         Alcotest.(check bool) "spilled something" true
           (stats.Comp_join.spilled_tuples > 0
           && stats.Comp_join.spilled_regions > 0)
       | None ->
         Alcotest.(check int) "no spill unbounded" 0
           stats.Comp_join.spilled_tuples))
    [ None; Some 400; Some 100; Some 10 ]

let test_overflow_with_priority_queue () =
  (* Mostly-sorted input under memory pressure: merge routing and overflow
     resolution must compose. *)
  let base = List.init 300 (fun i -> [| vi i; vi 0 |]) in
  let rng = Adp_datagen.Prng.create 9 in
  let arr = Array.of_list base in
  for _ = 1 to 6 do
    let i = Adp_datagen.Prng.int rng 300 and j = Adp_datagen.Prng.int rng 300 in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let l = Array.to_list arr in
  let r = base in
  let outs, stats, _ =
    comp_overflow_outputs (Comp_join.Priority_queue 32) (Some 150) l r
  in
  check_bag "pq + overflow exact" outs (oracle_join l r ~on:[ 0, 0 ]);
  Alcotest.(check bool) "overflow produced results" true
    (stats.Comp_join.overflow_out > 0)

let test_overflow_charges_io () =
  let l = List.init 200 (fun i -> [| vi i; vi 0 |]) in
  let r = List.init 200 (fun i -> [| vi i; vi 0 |]) in
  let _, _, ctx_spill = comp_overflow_outputs Comp_join.Naive (Some 50) l r in
  let _, _, ctx_mem = comp_overflow_outputs Comp_join.Naive None l r in
  Alcotest.(check bool) "spilling costs more" true
    (Clock.cpu ctx_spill.Ctx.clock > Clock.cpu ctx_mem.Ctx.clock)

let comp_overflow_prop =
  QCheck2.Test.make
    ~name:"complementary join exact under any memory budget (qcheck)"
    ~count:60
    QCheck2.Gen.(
      tup4
        (gen_keyed_tuples ~key_range:10 ~max_len:60)
        (gen_keyed_tuples ~key_range:10 ~max_len:60)
        (int_bound 80)
        (int_bound 16))
    (fun (l, r, budget, qlen) ->
      let variant =
        if qlen = 0 then Comp_join.Naive else Comp_join.Priority_queue qlen
      in
      let outs, _, _ =
        comp_overflow_outputs variant (Some (budget + 1)) l r
      in
      same_bag outs (oracle_join l r ~on:[ 0, 0 ]))

let comp_budget_matches_unbounded =
  (* Stronger than comparing against the oracle: a budgeted run must
     produce exactly what the *unbounded-memory* run produces — spilling
     and overflow resolution may reorder the output but never change the
     multiset, tuple for tuple.  Inputs arrive interleaved so the budget
     bites while both sides are still growing. *)
  QCheck2.Test.make
    ~name:"overflow resolution = unbounded-memory run exactly (qcheck)"
    ~count:60
    QCheck2.Gen.(
      tup4
        (gen_keyed_tuples ~key_range:10 ~max_len:60)
        (gen_keyed_tuples ~key_range:10 ~max_len:60)
        (int_bound 100)
        (int_bound 16))
    (fun (l, r, budget, qlen) ->
      let variant =
        if qlen = 0 then Comp_join.Naive else Comp_join.Priority_queue qlen
      in
      let run budget =
        let ctx = Ctx.create () in
        let cj =
          Comp_join.create ?memory_budget:budget ~regions:8 ctx ~variant
            ~left_schema:lsch ~right_schema:rsch ~left_key:[ "l.k" ]
            ~right_key:[ "r.k" ]
        in
        let rec feed acc ls rs =
          match ls, rs with
          | [], [] -> acc
          | x :: ls', y :: rs' ->
            let acc = acc @ Comp_join.insert cj Comp_join.L x in
            let acc = acc @ Comp_join.insert cj Comp_join.R y in
            feed acc ls' rs'
          | x :: ls', [] ->
            feed (acc @ Comp_join.insert cj Comp_join.L x) ls' []
          | [], y :: rs' ->
            feed (acc @ Comp_join.insert cj Comp_join.R y) [] rs'
        in
        let outs = feed [] l r in
        outs @ Comp_join.finish cj
      in
      same_bag (run (Some (budget + 1))) (run None))

let comp_join_equivalence =
  QCheck2.Test.make
    ~name:"complementary join pair = hash join on arbitrary inputs (qcheck)"
    ~count:80
    QCheck2.Gen.(
      triple
        (gen_keyed_tuples ~key_range:12 ~max_len:50)
        (gen_keyed_tuples ~key_range:12 ~max_len:50)
        (int_bound 32))
    (fun (l, r, qlen) ->
      let variant =
        if qlen = 0 then Comp_join.Naive else Comp_join.Priority_queue qlen
      in
      (* Re-key: generator yields "t.*" columns; rebuild under l/r schemas. *)
      let outs, _ = comp_outputs variant l r in
      same_bag outs (oracle_join l r ~on:[ 0, 0 ]))

let suite =
  [ Alcotest.test_case "hash mode" `Quick test_hash_mode;
    Alcotest.test_case "merge equivalence on sorted" `Quick
      test_merge_mode_equivalence;
    Alcotest.test_case "merge order enforcement" `Quick
      test_merge_rejects_out_of_order;
    Alcotest.test_case "merge cheaper than hash" `Quick
      test_merge_cheaper_than_hash;
    Alcotest.test_case "int keys join float keys" `Quick test_int_float_keys;
    Alcotest.test_case "comp join: sorted → all merge" `Quick
      test_comp_sorted_all_merge;
    Alcotest.test_case "comp join: naive poisoning" `Quick
      test_comp_naive_poisoned_by_early_high_key;
    Alcotest.test_case "comp join: priority queue recovers" `Quick
      test_comp_priority_queue_recovers;
    Alcotest.test_case "comp join: stats account everything" `Quick
      test_comp_stats_account_everything;
    Alcotest.test_case "comp join: finish exactly once" `Quick
      test_comp_finish_once;
    Alcotest.test_case "overflow: exact under pressure" `Quick
      test_overflow_exact_under_pressure;
    Alcotest.test_case "overflow: with priority queue" `Quick
      test_overflow_with_priority_queue;
    Alcotest.test_case "overflow: charges I/O" `Quick test_overflow_charges_io;
    qtest comp_overflow_prop;
    qtest comp_budget_matches_unbounded;
    qtest comp_join_equivalence ]
