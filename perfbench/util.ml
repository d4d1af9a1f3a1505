(* Shared machinery of the wall-clock benchmark: timing and allocation
   accounting around one call, the benchmark's own span recorder, the
   result checks, and the observability sidecars of the traced pass. *)

open Adp_relation

let now = Adp_obs.Wallclock.monotonic_s

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list (List.sort compare xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Words the program allocated so far: minor + major - promoted (a
   promoted word is counted in both heaps). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type cost = { wall : float; words : float }

(* Run [f] and measure its wall time and allocation.  By default the heap
   is compacted first, so the GC state each call starts from does not
   depend on what ran before it. *)
let timed ?(compact = true) f =
  if compact then Gc.compact ();
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = words () in
  r, { wall = t1 -. t0; words = w1 -. w0 }

(* Like [timed], but an exception is a result, not an escape: a query
   that raises counts as failed and the pass goes on. *)
let timed_result f = timed (fun () -> try Ok (f ()) with e -> Error e)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

(* ---------------- spans ---------------- *)

(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end and the enclosing span.  Kept in memory and written
   out when the run ends.  Recording is off outside the traced pass. *)
module Spans = struct
  type t = { id : int; parent : int; name : string; start : float; stop : float }

  let recording = ref false
  let all : t list ref = ref []
  let stack = ref [ 0 ]
  let next = ref 1

  let with_ name f =
    if not !recording then f ()
    else begin
      let id = !next in
      incr next;
      let parent = List.hd !stack in
      stack := id :: !stack;
      let start = now () in
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          all := { id; parent; name; start; stop = now () } :: !all)
        f
    end

  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
      0.0 !all

  let write file =
    let dir = Filename.dirname file in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let oc = open_out file in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f}\n"
          s.id s.parent s.name s.start s.stop)
      (List.rev !all);
    close_out oc
end

(* ---------------- sidecars ---------------- *)

(* The observability sinks the traced pass attaches to every engine run. *)
type sidecars = {
  trace : Adp_obs.Trace.t;
  profile : Adp_obs.Profile.t;
  wallc : Adp_obs.Wallclock.t;
}

let sidecars () =
  { trace = Adp_obs.Trace.memory (); profile = Adp_obs.Profile.create ();
    wallc = Adp_obs.Wallclock.create () }

let count_events pred tr =
  List.length (List.filter (fun (_, e) -> pred e) (Adp_obs.Trace.events tr))

let polls = count_events (function Adp_obs.Trace.Reopt_poll _ -> true | _ -> false)
let switches = count_events (function Adp_obs.Trace.Plan_switch _ -> true | _ -> false)

(* Wall seconds the Wallclock recorder attributed to the stitch-up phase. *)
let stitchup_wall sc =
  List.fold_left
    (fun acc (i : Adp_obs.Wallclock.info) ->
      if i.phase = "stitch-up" then acc +. i.self_s else acc)
    0.0
    (Adp_obs.Wallclock.spans sc.wallc)

(* ---------------- result checks ---------------- *)

(* Bag equality with a relative tolerance on floats, as the test suite
   compares engine results: float aggregates depend on summation order. *)
let value_approx a b =
  match a, b with
  | Value.Float x, Value.Float y ->
    let scale = max 1.0 (max (Float.abs x) (Float.abs y)) in
    Float.abs (x -. y) /. scale < 1e-9
  | _ -> Value.equal a b

let tuple_approx a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri (fun i v -> if not (value_approx v b.(i)) then ok := false) a;
  !ok

let approx_same_bag a b =
  let sort r = List.sort Tuple.compare (Relation.to_list r) in
  Relation.cardinality a = Relation.cardinality b
  && List.for_all2 tuple_approx (sort a) (sort b)

(* Exact, order-independent digest of a result multiset, for the
   zero-perturbation comparison (traced and untraced results must be
   bit-identical, not merely close). *)
let bag_digest r =
  let rows = List.sort Tuple.compare (Relation.to_list r) in
  Digest.to_hex (Digest.string (Marshal.to_string rows []))

(* How many results differ from the first one. *)
let disagreements same = function
  | [] -> 0
  | reference :: rest -> List.length (List.filter (fun r -> not (same reference r)) rest)

(* Digest of a relation's first rows: the self-test's evidence that the
   seed changed the generated inputs. *)
let relation_digest r =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (List.filteri (fun i _ -> i < 200) (Relation.to_list r)) []))

(* The self-test's deliberately corrupted result: one row dropped. *)
let drop_row r =
  match Relation.to_list r with
  | [] -> r
  | _ :: rest -> Relation.of_list (Relation.schema r) rest

(* Count and hash sum of a streamed join output: the outputs of the three
   join operators are too large to keep, but a dropped, duplicated or
   altered row changes this fingerprint. *)
type fingerprint = { mutable rows : int; mutable hsum : int }

let fingerprint () = { rows = 0; hsum = 0 }

let fp_add fp t =
  fp.rows <- fp.rows + 1;
  fp.hsum <- fp.hsum + Hashtbl.hash_param 64 256 t

let fp_to_string fp = Printf.sprintf "%d/%x" fp.rows fp.hsum

(* ---------------- passes ---------------- *)

(* What one pass over a workload's runs yields for the end-to-end
   metrics and the zero-perturbation comparison. *)
type pass = {
  total : cost;  (** summed over the timed calls *)
  tuples : int;  (** source tuples the timed calls consumed *)
  attempted : int;
  failed : int;
  identity : string list;
      (** virtual times, switch decisions and result digests, in run order *)
}

let pass_of ~costs ~tuples ~attempted ~failed ~identity =
  { total =
      { wall = sum (List.map (fun c -> c.wall) costs);
        words = sum (List.map (fun c -> c.words) costs) };
    tuples; attempted; failed; identity }

(* The decisions and virtual outcome of one engine run, exactly. *)
let corrective_identity (st : Adp_core.Corrective.stats) =
  Printf.sprintf "t=%h phases=%d [%s] stitch=%d/%d" st.total_time st.phases
    (String.concat "; "
       (List.map
          (fun (p : Adp_core.Corrective.phase_info) ->
            Printf.sprintf "%d:%s:%d:%d" p.id p.plan_desc p.emitted p.read)
          st.phase_log))
    st.stitch.Adp_core.Stitchup.output st.stitch.Adp_core.Stitchup.reused
