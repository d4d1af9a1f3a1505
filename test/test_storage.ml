open Adp_relation
open Adp_storage
open Helpers

let ks = keyed_schema "t"

(* ---------------- Hash table ---------------- *)

let test_hash_basic () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert h [| vi 1; vi 10 |];
  Hash_table.insert h [| vi 1; vi 11 |];
  Hash_table.insert h [| vi 2; vi 20 |];
  Alcotest.(check int) "length" 3 (Hash_table.length h);
  Alcotest.(check int) "distinct" 2 (Hash_table.distinct_keys h);
  Alcotest.(check int) "probe multi" 2 (List.length (Hash_table.probe h [| vi 1 |]));
  Alcotest.(check int) "probe miss" 0 (List.length (Hash_table.probe h [| vi 9 |]))

let test_hash_rehash () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Hash_table.insert h [| vi 1; vi 10 |];
  Hash_table.insert h [| vi 2; vi 10 |];
  let r = Hash_table.rehash h ~key_cols:[ "t.p" ] in
  Alcotest.(check int) "contents kept" 2 (Hash_table.length r);
  Alcotest.(check int) "new key works" 2
    (List.length (Hash_table.probe r [| vi 10 |]))

let test_hash_swap () =
  let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
  Alcotest.(check bool) "in memory" false (Hash_table.swapped h);
  Hash_table.swap_out h;
  Alcotest.(check bool) "swapped" true (Hash_table.swapped h);
  Hash_table.swap_in h;
  Alcotest.(check bool) "back in" false (Hash_table.swapped h)

let hash_model =
  QCheck2.Test.make ~name:"hash table matches assoc model" ~count:100
    (gen_keyed_tuples ~key_range:10 ~max_len:60)
    (fun tuples ->
      let h = Hash_table.create ks ~key_cols:[ "t.k" ] in
      List.iter (Hash_table.insert h) tuples;
      List.for_all
        (fun k ->
          let got = Hash_table.probe h [| vi k |] in
          let want =
            List.filter (fun t -> Value.equal t.(0) (vi k)) tuples
          in
          same_bag got want)
        (List.init 10 Fun.id)
      && Hash_table.length h = List.length tuples
      && same_bag (Hash_table.to_list h) tuples)

(* ---------------- Tuple adapter ---------------- *)

let test_adapter () =
  let from = Schema.make [ "t.a"; "t.b"; "t.c" ] in
  let into = Schema.make [ "t.c"; "t.a"; "t.b" ] in
  let ad = Tuple_adapter.create ~from ~into in
  Alcotest.(check bool) "not identity" false (Tuple_adapter.is_identity ad);
  let t = Tuple_adapter.adapt ad [| vi 1; vi 2; vi 3 |] in
  Alcotest.(check bool) "permuted" true (t = [| vi 3; vi 1; vi 2 |]);
  let idad = Tuple_adapter.create ~from ~into:from in
  Alcotest.(check bool) "identity" true (Tuple_adapter.is_identity idad);
  Alcotest.check_raises "different columns"
    (Invalid_argument
       "Tuple_adapter.create: (t.a, t.b, t.c) vs (t.a, t.b)") (fun () ->
      ignore (Tuple_adapter.create ~from ~into:(Schema.make [ "t.a"; "t.b" ])))

let adapter_roundtrip =
  QCheck2.Test.make ~name:"adapter there-and-back is identity" ~count:100
    QCheck2.Gen.(list_size (int_bound 6) small_int)
    (fun payload ->
      let n = List.length payload in
      QCheck2.assume (n > 0);
      let cols = List.init n (fun i -> Printf.sprintf "t.c%d" i) in
      let from = Schema.make cols in
      let into = Schema.make (List.rev cols) in
      let t = Array.of_list (List.map vi payload) in
      let there = Tuple_adapter.adapt (Tuple_adapter.create ~from ~into) t in
      let back =
        Tuple_adapter.adapt (Tuple_adapter.create ~from:into ~into:from) there
      in
      back = t)

(* ---------------- Registry ---------------- *)

let test_registry () =
  let r = Registry.create () in
  let sch = keyed_schema "e" in
  Registry.register r ~signature:"e1" ~phase:0 ~schema:sch ~complexity:2
    [ [| vi 1; vi 2 |]; [| vi 3; vi 4 |] ];
  Registry.register r ~signature:"e1" ~phase:1 ~schema:sch ~complexity:2
    [ [| vi 5; vi 6 |] ];
  Registry.register r ~signature:"e2" ~phase:0 ~schema:sch ~complexity:3 [];
  Alcotest.(check (list int)) "phases_with" [ 0; 1 ]
    (Registry.phases_with r ~signature:"e1");
  (match Registry.find r ~signature:"e1" ~phase:0 with
   | None -> Alcotest.fail "entry missing"
   | Some e ->
     Alcotest.(check int) "cardinality" 2 e.Registry.cardinality;
     Registry.mark_reused e);
  Alcotest.(check int) "reused" 2 (Registry.reused_tuples r);
  Alcotest.(check int) "discarded" 1 (Registry.discarded_tuples r);
  (match Registry.page_out_order r with
   | first :: _ ->
     Alcotest.(check int) "most complex paged first" 3 first.Registry.complexity
   | [] -> Alcotest.fail "empty page-out order");
  Registry.clear r;
  Alcotest.(check int) "cleared" 0 (List.length (Registry.entries r))

let test_registry_complexity_filter () =
  let r = Registry.create () in
  let sch = keyed_schema "e" in
  (* Base-relation buffers (complexity 1) never count as reused/discarded. *)
  Registry.register r ~signature:"leaf" ~phase:0 ~schema:sch ~complexity:1
    [ [| vi 1; vi 2 |] ];
  Alcotest.(check int) "leaf not discarded" 0 (Registry.discarded_tuples r)

let suite =
  [ Alcotest.test_case "hash basics" `Quick test_hash_basic;
    Alcotest.test_case "hash rehash" `Quick test_hash_rehash;
    Alcotest.test_case "hash swap flags" `Quick test_hash_swap;
    qtest hash_model;
    Alcotest.test_case "tuple adapter" `Quick test_adapter;
    qtest adapter_roundtrip;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "registry complexity filter" `Quick
      test_registry_complexity_filter ]
