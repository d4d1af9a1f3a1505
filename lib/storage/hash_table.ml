open Adp_relation

module Ktbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal = Tuple.equal_key
  let hash = Tuple.hash_key
end)

type t = {
  schema : Schema.t;
  key_cols : string list;
  key_idx : int array;
  table : Tuple.t list ref Ktbl.t;
  mutable size : int;
  mutable swapped : bool;
}

let create schema ~key_cols =
  let key_idx = Array.of_list (List.map (Schema.index schema) key_cols) in
  { schema; key_cols; key_idx; table = Ktbl.create 256; size = 0;
    swapped = false }

let schema t = t.schema
let key_columns t = t.key_cols
let length t = t.size

let key_of t tuple = Tuple.key tuple t.key_idx

let add t k tuple =
  (match Ktbl.find_opt t.table k with
   | Some cell -> cell := tuple :: !cell
   | None -> Ktbl.replace t.table k (ref [ tuple ]));
  t.size <- t.size + 1

let insert t tuple = add t (key_of t tuple) tuple

let probe t k =
  match Ktbl.find_opt t.table k with Some cell -> !cell | None -> []

let iter f t = Ktbl.iter (fun _ cell -> List.iter f !cell) t.table

let to_list t =
  (* determinism-ok: multiset semantics — callers must not depend on order *)
  Ktbl.fold (fun _ cell acc -> List.rev_append !cell acc) t.table []

let distinct_keys t = Ktbl.length t.table

let rehash t ~key_cols =
  let fresh = create t.schema ~key_cols in
  iter (insert fresh) t;
  fresh.swapped <- t.swapped;
  fresh

let swap_out t = t.swapped <- true
let swap_in t = t.swapped <- false
let swapped t = t.swapped

let clear t =
  Ktbl.reset t.table;
  t.size <- 0
