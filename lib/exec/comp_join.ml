open Adp_relation
open Adp_storage

type variant = Naive | Priority_queue of int

type side = L | R

(* Overflow-partition entries: epoch 0 = was memory-resident (and joined
   within its operator) before the spill; epoch 1 = arrived after its
   region spilled and was never probed.  The operator tag matters only for
   epoch 0: same-operator epoch-0 pairs were already joined in memory,
   while cross-operator epoch-0 pairs were still awaiting the mini
   stitch-up when they were spilled. *)
type op_tag = Merge_op | Hash_op

type disk_entry = { d_epoch : int; d_op : op_tag; d_tuple : Tuple.t }

type t = {
  ctx : Ctx.t;
  variant : variant;
  merge : Sym_join.t;
  hash : Sym_join.t;
  schema : Schema.t;
  (* Priority queues buffer (key, tuple) pairs per side. *)
  pq_l : (Value.t array * Tuple.t) Heap.t;
  pq_r : (Value.t array * Tuple.t) Heap.t;
  lkey : int array;
  rkey : int array;
  (* Overflow state. *)
  budget : int option;
  n_regions : int;
  spilled : bool array;
  disk_l : disk_entry list array;
  disk_r : disk_entry list array;
  mutable next_spill : int;
  mutable mem_count : int;
  mutable spilled_tuples : int;
  mutable overflow_out : int;
  mutable merge_l : int;
  mutable merge_r : int;
  mutable hash_l : int;
  mutable hash_r : int;
  mutable stitch_out : int;
  mutable finished : bool;
  (* Last routing target per side, to trace only the flips. *)
  mutable last_route_l : op_tag option;
  mutable last_route_r : op_tag option;
  (* Profiler spans per component; the inner merge and hash joins charge
     their own spans. *)
  sp_router : Adp_obs.Profile.span option;
  sp_merge : Adp_obs.Profile.span option;
  sp_hash : Adp_obs.Profile.span option;
  sp_pq : Adp_obs.Profile.span option;
  sp_overflow : Adp_obs.Profile.span option;
  sp_stitch : Adp_obs.Profile.span option;
}

let create ?memory_budget ?(regions = 8) ctx ~variant ~left_schema
    ~right_schema ~left_key ~right_key =
  let mk span mode =
    Sym_join.create ?span ctx ~mode ~left_schema ~right_schema ~left_key
      ~right_key
  in
  let cmp (k1, _) (k2, _) = Tuple.compare_key k1 k2 in
  let sub name =
    if Ctx.profiled ctx then begin
      ignore (Ctx.span ctx ~depth:0 "comp-join");
      Ctx.span ctx ~depth:1 ("comp-join/" ^ name)
    end
    else None
  in
  (* Explicit registration order, so the profile lists the components
     the same way run after run. *)
  let sp_stitch = sub "stitch" in
  let sp_overflow = sub "overflow" in
  let sp_pq = sub "pq" in
  let sp_hash = sub "hash" in
  let sp_merge = sub "merge" in
  let sp_router = sub "router" in
  { ctx; variant; merge = mk sp_merge `Merge; hash = mk sp_hash `Hash;
    sp_router; sp_merge; sp_hash; sp_pq; sp_overflow; sp_stitch;
    schema = Schema.concat left_schema right_schema;
    pq_l = Heap.create cmp; pq_r = Heap.create cmp;
    lkey = Array.of_list (List.map (Schema.index left_schema) left_key);
    rkey = Array.of_list (List.map (Schema.index right_schema) right_key);
    budget = memory_budget; n_regions = max 1 regions;
    spilled = Array.make (max 1 regions) false;
    disk_l = Array.make (max 1 regions) [];
    disk_r = Array.make (max 1 regions) [];
    next_spill = 0; mem_count = 0; spilled_tuples = 0; overflow_out = 0;
    merge_l = 0; merge_r = 0; hash_l = 0; hash_r = 0; stitch_out = 0;
    finished = false; last_route_l = None; last_route_r = None }

let schema t = t.schema

let sym_side = function L -> Sym_join.L | R -> Sym_join.R

let key_of t side tuple =
  match side with
  | L -> Tuple.key tuple t.lkey
  | R -> Tuple.key tuple t.rkey

let region_of t side tuple =
  Tuple.hash_key (key_of t side tuple) land max_int mod t.n_regions

let to_disk t side entry =
  let arr = match side with L -> t.disk_l | R -> t.disk_r in
  let r = region_of t side entry.d_tuple in
  arr.(r) <- entry :: arr.(r);
  t.spilled_tuples <- t.spilled_tuples + 1;
  Ctx.charge_span t.ctx t.sp_overflow t.ctx.Ctx.costs.spill_write

(* Spill one more region: extract its tuples from all four hash tables
   (same boundaries everywhere), write them to the overflow partitions,
   and rebuild the tables with what remains. *)
let spill_next_region t =
  if t.next_spill < t.n_regions then begin
    let region = t.next_spill in
    t.next_spill <- t.next_spill + 1;
    t.spilled.(region) <- true;
    let split side op tbl =
      let all = Hash_table.to_list tbl in
      Hash_table.clear tbl;
      List.iter
        (fun tuple ->
          if region_of t side tuple = region then begin
            t.mem_count <- t.mem_count - 1;
            to_disk t side { d_epoch = 0; d_op = op; d_tuple = tuple }
          end
          else begin
            Ctx.charge_span t.ctx t.sp_overflow t.ctx.Ctx.costs.hash_build;
            Hash_table.insert tbl tuple
          end)
        all
    in
    split L Merge_op (Sym_join.left_table t.merge);
    split R Merge_op (Sym_join.right_table t.merge);
    split L Hash_op (Sym_join.left_table t.hash);
    split R Hash_op (Sym_join.right_table t.hash);
    if Ctx.traced t.ctx then
      Ctx.emit t.ctx
        (Adp_obs.Trace.Page_out
           { node = Printf.sprintf "comp-join/region-%d" region })
  end

let maybe_spill t =
  match t.budget with
  | None -> ()
  | Some budget ->
    while t.mem_count > budget && t.next_spill < t.n_regions do
      spill_next_region t
    done

(* Route a tuple that has passed (or bypassed) the priority queue. *)
let route t side tuple =
  Ctx.charge_span t.ctx t.sp_router t.ctx.Ctx.costs.route;
  if t.spilled.(region_of t side tuple) then begin
    (* Its region lives on disk: defer entirely (epoch 1). *)
    to_disk t side { d_epoch = 1; d_op = Hash_op; d_tuple = tuple };
    []
  end
  else begin
    t.mem_count <- t.mem_count + 1;
    let target =
      if Sym_join.accepts t.merge (sym_side side) tuple then Merge_op
      else Hash_op
    in
    (if Ctx.traced t.ctx then begin
       let last = match side with L -> t.last_route_l | R -> t.last_route_r in
       if last <> Some target then
         Ctx.emit t.ctx
           (Adp_obs.Trace.Comp_join_route
              { side = (match side with L -> "L" | R -> "R");
                routed_to =
                  (match target with Merge_op -> "merge" | Hash_op -> "hash");
                routed =
                  (match side with
                   | L -> t.merge_l + t.hash_l
                   | R -> t.merge_r + t.hash_r) })
     end);
    (match side with
     | L -> t.last_route_l <- Some target
     | R -> t.last_route_r <- Some target);
    (* The inner join charges its own span; the tuple counts and memory
       high-water are the router's to record. *)
    let join sp op =
      let outs = Sym_join.insert op (sym_side side) tuple in
      (match sp with
       | None -> ()
       | Some sp ->
         Adp_obs.Profile.add_in sp 1;
         Adp_obs.Profile.add_out sp (List.length outs);
         Adp_obs.Profile.note_mem sp
           (Hash_table.length (Sym_join.left_table op)
           + Hash_table.length (Sym_join.right_table op)));
      outs
    in
    let outs =
      match target with
      | Merge_op ->
        (match side with
         | L -> t.merge_l <- t.merge_l + 1
         | R -> t.merge_r <- t.merge_r + 1);
        join t.sp_merge t.merge
      | Hash_op ->
        (match side with
         | L -> t.hash_l <- t.hash_l + 1
         | R -> t.hash_r <- t.hash_r + 1);
        join t.sp_hash t.hash
    in
    maybe_spill t;
    outs
  end

let insert t side tuple =
  if t.finished then invalid_arg "Comp_join.insert: already finished";
  match t.variant with
  | Naive -> route t side tuple
  | Priority_queue cap ->
    let pq = match side with L -> t.pq_l | R -> t.pq_r in
    Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
    Heap.push pq (key_of t side tuple, tuple);
    if Heap.length pq <= cap then []
    else begin
      Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
      let _, oldest = Heap.pop pq in
      route t side oldest
    end

(* Interleaved drain: always advance the queue whose head key is smaller,
   so the merge join sees one globally re-ordered tail per side. *)
let drain t =
  let outs = ref [] in
  let pop side pq =
    Ctx.charge_span t.ctx t.sp_pq t.ctx.Ctx.costs.pq_op;
    let _, tuple = Heap.pop pq in
    outs := List.rev_append (route t side tuple) !outs
  in
  let rec go () =
    match Heap.peek t.pq_l, Heap.peek t.pq_r with
    | None, None -> ()
    | Some _, None ->
      pop L t.pq_l;
      go ()
    | None, Some _ ->
      pop R t.pq_r;
      go ()
    | Some (kl, _), Some (kr, _) ->
      if Tuple.compare_key kl kr <= 0 then pop L t.pq_l else pop R t.pq_r;
      go ()
  in
  go ();
  List.rev !outs

module Ktbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal = Tuple.equal_key
  let hash = Tuple.hash_key
end)

(* Join one spilled region: all left/right pairs except those already
   joined in memory (both epoch 0 within the same operator). *)
let resolve_region t region =
  let c = t.ctx.Ctx.costs in
  let ls = t.disk_l.(region) and rs = t.disk_r.(region) in
  if ls = [] || rs = [] then []
  else begin
    Ctx.charge_span t.ctx t.sp_overflow
      (c.spill_read *. float_of_int (List.length ls + List.length rs));
    let table = Ktbl.create 64 in
    List.iter
      (fun e ->
        Ctx.charge_span t.ctx t.sp_overflow c.hash_build;
        let k = key_of t R e.d_tuple in
        let prev = Option.value ~default:[] (Ktbl.find_opt table k) in
        Ktbl.replace table k (e :: prev))
      rs;
    let acc = ref [] in
    List.iter
      (fun le ->
        let k = key_of t L le.d_tuple in
        let matches = Option.value ~default:[] (Ktbl.find_opt table k) in
        Ctx.charge_span t.ctx t.sp_overflow
          (c.hash_probe +. (c.per_match *. float_of_int (List.length matches)));
        List.iter
          (fun re ->
            let already_joined =
              le.d_epoch = 0 && re.d_epoch = 0 && le.d_op = re.d_op
            in
            if not already_joined then
              acc := Tuple.concat le.d_tuple re.d_tuple :: !acc)
          matches)
      ls;
    !acc
  end

let finish t =
  if t.finished then invalid_arg "Comp_join.finish: already finished";
  t.finished <- true;
  let drained = drain t in
  (* Mini stitch-up: merge.h(R) ⋈ hash.h(S) and hash.h(R) ⋈ merge.h(S). *)
  let c = t.ctx.Ctx.costs in
  (* Structure-to-structure decisions (§3.4.3): skip empty combinations
     outright, and scan the smaller structure while probing the larger. *)
  let cross ltbl rtbl =
    if Hash_table.length ltbl = 0 || Hash_table.length rtbl = 0 then []
    else begin
      let scan_left = Hash_table.length ltbl <= Hash_table.length rtbl in
      let scan, probe_tbl =
        if scan_left then ltbl, rtbl else rtbl, ltbl
      in
      let cols = Hash_table.key_indices scan in
      let out = ref [] in
      Hash_table.iter
        (fun s ->
          let n = ref 0 in
          out :=
            Hash_table.fold_matches
              (fun m acc ->
                incr n;
                (if scan_left then Tuple.concat s m else Tuple.concat m s)
                :: acc)
              probe_tbl (Hash_table.hash s cols) s cols !out;
          Ctx.charge_span t.ctx t.sp_stitch
            (c.hash_probe +. (c.per_match *. float_of_int !n)))
        scan;
      (* Sorting the combination gives stitch-up output a deterministic
         key order independent of insertion history. *)
      List.sort Tuple.compare !out
    end
  in
  let s1 = cross (Sym_join.left_table t.merge) (Sym_join.right_table t.hash) in
  let s2 = cross (Sym_join.left_table t.hash) (Sym_join.right_table t.merge) in
  t.stitch_out <- List.length s1 + List.length s2;
  (* Overflow resolution for the spilled regions. *)
  let overflow = ref [] in
  for region = 0 to t.n_regions - 1 do
    if t.spilled.(region) then
      overflow := List.rev_append (resolve_region t region) !overflow
  done;
  t.overflow_out <- List.length !overflow;
  drained @ s1 @ s2 @ List.rev !overflow

type stats = {
  merge_routed : int * int;
  hash_routed : int * int;
  merge_out : int;
  hash_out : int;
  stitch_out : int;
  spilled_regions : int;
  spilled_tuples : int;
  overflow_out : int;
}

let stats t =
  { merge_routed = t.merge_l, t.merge_r;
    hash_routed = t.hash_l, t.hash_r;
    merge_out = Sym_join.out_count t.merge;
    hash_out = Sym_join.out_count t.hash;
    stitch_out = t.stitch_out;
    spilled_regions =
      Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 t.spilled;
    spilled_tuples = t.spilled_tuples;
    overflow_out = t.overflow_out }
