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

(* The table against a reference multimap: an insertion-ordered list
   matched with [Value.compare], as a nested loop would.  Key values mix
   the cases the bucket hash must collapse ([Int 3] / [Float 3.0], ints
   beyond 2^53, 0.0 / -0.0, NaNs, [Null]s) with ones it must keep apart;
   bulk inserts carry tables across chunk and rebucket boundaries. *)
let interesting =
  [| vi 3; vf 3.0; vf 3.5; vi (-3); vi 0; vf 0.0; vf (-0.0); vf Float.nan;
     vf (-.Float.nan); vi (1 lsl 53); vi ((1 lsl 53) + 1);
     vf (Float.of_int (1 lsl 53)); vi max_int; vf (Float.of_int max_int);
     Value.Null; vs "a"; vs "b"; Value.Date 3; Value.Date 0 |]

type op =
  | Insert of int * int * int  (* key values, by index into [interesting] *)
  | Bulk of int * int  (* count, stride *)
  | Probe of int * int * int
  | Clear
  | Rehash

let gen_op =
  let v = QCheck2.Gen.int_bound (Array.length interesting - 1) in
  QCheck2.Gen.(
    frequency
      [ 6, map3 (fun a b c -> Insert (a, b, c)) v v v;
        1, map2 (fun n k -> Bulk (n, k)) (int_bound 5000) (int_range 1 7);
        5, map3 (fun a b c -> Probe (a, b, c)) v v v;
        1, return Clear;
        1, return Rehash ])

let model_cols = [| "m.a"; "m.b"; "m.c" |]
let model_schema = Schema.make (Array.to_list model_cols @ [ "m.seq" ])

(* Key columns of arity [n], rotated by [r]. *)
let key_at ~arity ~rot = List.init arity (fun i -> model_cols.((i + rot) mod 3))

let hash_vs_reference =
  QCheck2.Test.make ~name:"hash table matches reference multimap in order"
    ~count:60
    QCheck2.Gen.(pair (int_range 1 3) (list_size (int_bound 60) gen_op))
    (fun (arity, ops) ->
      let rot = ref 0 in
      let cols () = key_at ~arity ~rot:!rot in
      let idx () =
        Array.of_list (List.map (Schema.index model_schema) (cols ()))
      in
      let h = ref (Hash_table.create model_schema ~key_cols:(cols ())) in
      let model = ref [] (* newest first *) and seq = ref 0 in
      let add a b c =
        let v = interesting in
        let t = [| v.(a); v.(b); v.(c); vi !seq |] in
        incr seq;
        Hash_table.insert !h t;
        model := t :: !model
      in
      let same l1 l2 =
        List.length l1 = List.length l2 && List.for_all2 ( == ) l1 l2
      in
      let probe_ok a b c =
        let v = interesting in
        let k = Array.sub [| v.(a); v.(b); v.(c) |] 0 arity in
        let ki = idx () in
        let want =
          List.filter
            (fun t ->
              Array.for_all Fun.id
                (Array.mapi (fun i v -> Value.compare t.(ki.(i)) v = 0) k))
            !model
        in
        (* The tuple-keyed path: the key sits in other columns of a
           differently laid-out probe tuple. *)
        let probe_tuple = Array.append [| vi (-1) |] k in
        let pcols = Array.init arity (fun i -> i + 1) in
        let folded =
          Hash_table.fold_matches (fun m acc -> m :: acc) !h
            (Hash_table.hash probe_tuple pcols) probe_tuple pcols []
        in
        same (Hash_table.probe !h k) want && same (List.rev folded) want
      in
      List.for_all
        (fun op ->
          match op with
          | Insert (a, b, c) -> add a b c; true
          | Bulk (n, k) ->
            for i = 0 to n - 1 do
              let m = Array.length interesting in
              add (i * k mod m) (i mod m) ((i / m) mod m)
            done;
            true
          | Probe (a, b, c) -> probe_ok a b c
          | Clear -> Hash_table.clear !h; model := []; true
          | Rehash ->
            rot := (!rot + 1) mod 3;
            h := Hash_table.rehash !h ~key_cols:(cols ());
            true)
        ops
      && Hash_table.length !h = List.length !model
      && same (Hash_table.to_list !h) (List.rev !model)
      &&
      let seen = ref [] in
      Hash_table.iter (fun t -> seen := t :: !seen) !h;
      same !seen !model)

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
    qtest hash_vs_reference;
    Alcotest.test_case "tuple adapter" `Quick test_adapter;
    qtest adapter_roundtrip;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "registry complexity filter" `Quick
      test_registry_complexity_filter ]
