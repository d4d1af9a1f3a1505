open Adp_relation
open Adp_storage

(** Symmetric streaming binary equi-join.

    In [`Hash] mode this is the pipelined (symmetric) hash join: each
    arriving tuple is buffered in its side's hash table and probed against
    the opposite table, so every matching pair is emitted exactly once, by
    whichever tuple arrives later.

    In [`Merge] mode it is the streaming merge join of §5: both inputs
    must arrive in key order ({!accepts} tells the router whether a tuple
    conforms); tuples are stored in hash tables over sorted data, and
    probes are charged at the merge join's (cheaper) rate.

    This is the engine's one join: every [Plan] join node runs on a
    [`Hash] instance, and [Comp_join] pairs a [`Merge] with a [`Hash]
    one.  Both modes expose their side tables so that complementary join
    pairs can run their mini stitch-up across operators, plans can share
    state structures (§3.1), and the memory-pressure heuristic can page
    them out (§3.4.2).

    Every charge goes through [Ctx.charge_span] against the [span] given
    at creation, so the profiler (and a wall recorder attached to it)
    attributes the join's work to its owner.  A probe against a
    paged-out table also pays the cost model's [swap_penalty]. *)

type side = L | R

type t

(** [span] is the profiler span charged for this join's work (default:
    none, i.e. charged to the clock only). *)
val create :
  ?span:Adp_obs.Profile.span ->
  Ctx.t ->
  mode:[ `Hash | `Merge ] ->
  left_schema:Schema.t ->
  right_schema:Schema.t ->
  left_key:string list ->
  right_key:string list ->
  t

val schema : t -> Schema.t

(** Whether inserting the tuple on that side is legal (always true in
    [`Hash] mode; in-order check in [`Merge] mode). *)
val accepts : t -> side -> Tuple.t -> bool

(** Insert and return the join outputs produced.
    @raise Invalid_argument on out-of-order [`Merge] insertion. *)
val insert : t -> side -> Tuple.t -> Tuple.t list

val left_table : t -> Hash_table.t
val right_table : t -> Hash_table.t

(** Join output count so far. *)
val out_count : t -> int

(** Tuples inserted on each side. *)
val inserted : t -> int * int
