open Adp_relation
open Adp_storage

type side = L | R

type t = {
  ctx : Ctx.t;
  mode : [ `Hash | `Merge ];
  span : Adp_obs.Profile.span option;
  schema : Schema.t;
  ltbl : Hash_table.t;
  rtbl : Hash_table.t;
  mutable last_l : Value.t array option;
  mutable last_r : Value.t array option;
  mutable out : int;
  mutable in_l : int;
  mutable in_r : int;
}

let create ?span ctx ~mode ~left_schema ~right_schema ~left_key ~right_key =
  { ctx; mode; span; schema = Schema.concat left_schema right_schema;
    ltbl = Hash_table.create left_schema ~key_cols:left_key;
    rtbl = Hash_table.create right_schema ~key_cols:right_key;
    last_l = None; last_r = None; out = 0; in_l = 0; in_r = 0 }

let schema t = t.schema

let accepts t side tuple =
  match t.mode with
  | `Hash -> true
  | `Merge ->
    let tbl, last = match side with L -> t.ltbl, t.last_l | R -> t.rtbl, t.last_r in
    (match last with
     | None -> true
     | Some k -> Tuple.compare_key k (Hash_table.key_of tbl tuple) <= 0)

(* One hash of the tuple's key columns serves both the insert into its
   own table and the probe of the other: both tables bucket with
   [Hash_table.hash], and the probe compares the same columns. *)
let insert t side tuple =
  let hash = match t.mode with `Hash -> true | `Merge -> false in
  if not (hash || accepts t side tuple) then
    invalid_arg "Sym_join.insert: out-of-order merge insertion";
  let c = t.ctx.Ctx.costs in
  Ctx.charge_span t.ctx t.span (if hash then c.hash_build else c.merge_append);
  let own = match side with L -> t.ltbl | R -> t.rtbl in
  let other = match side with L -> t.rtbl | R -> t.ltbl in
  (match side with
   | L -> t.in_l <- t.in_l + 1
   | R -> t.in_r <- t.in_r + 1);
  let cols = Hash_table.key_indices own in
  let h = Hash_table.hash tuple cols in
  Hash_table.insert_hashed own h tuple;
  if not hash then begin
    let k = Some (Hash_table.key_of own tuple) in
    match side with L -> t.last_l <- k | R -> t.last_r <- k
  end;
  (* Matches arrive newest first, so consing their concatenations yields
     the outputs oldest match first. *)
  let outs =
    match side with
    | L ->
      Hash_table.fold_matches
        (fun m acc -> Tuple.concat tuple m :: acc)
        other h tuple cols []
    | R ->
      Hash_table.fold_matches
        (fun m acc -> Tuple.concat m tuple :: acc)
        other h tuple cols []
  in
  let n = List.length outs in
  (* A probe against a paged-out table pays the cost model's I/O penalty
     (§3.4.2); with the table resident, [probe +. 0.0] is [probe] bit for
     bit. *)
  let io = if Hash_table.swapped other then c.swap_penalty else 0.0 in
  Ctx.charge_span t.ctx t.span
    ((if hash then c.hash_probe else c.merge_probe)
    +. io
    +. (c.per_match *. float_of_int n));
  t.out <- t.out + n;
  outs

let left_table t = t.ltbl
let right_table t = t.rtbl
let out_count t = t.out
let inserted t = t.in_l, t.in_r
