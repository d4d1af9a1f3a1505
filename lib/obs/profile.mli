(** Per-node span profiler over the virtual clock.

    A span is one plan node (or engine component) within one phase.  The
    engine attributes work to spans at the exact points where it charges
    the virtual clock — the amount added to a span is the same float that
    was charged — so attribution is exact and profiling never reads or
    perturbs the clock.  Alongside self time, spans accumulate tuples
    in/out, hash-table probes and builds, and a memory high-water mark.

    Spans are registered in pre-order within each phase (the engine walks
    the plan tree top-down), each carrying its depth; that is enough to
    render an indented EXPLAIN-ANALYZE-style tree where the cumulative
    time of a node is its own self time plus that of the contiguous
    deeper spans that follow it.

    The same registry lives across phase switches: [set_phase] names the
    current phase ("phase 0", "phase 1", "stitch-up", ...), and
    [totals] aggregates the same node across all phases — mirroring how
    the metrics registry keeps per-signature cells across re-planning.

    This is the one per-node span registry.  Each span also carries wall
    columns — hardware self seconds, sampler ticks, and the minor/major
    words allocated under it — which only a {!Wallclock} recorder
    attached to the profile writes.  Without a recorder they stay zero;
    with one, the virtual columns are unchanged. *)

type t
type span

(** Immutable view of a span's accumulated numbers. *)
type info = {
  phase : string;
  node : string;
  depth : int;
  order : int;  (** registration order within the whole profile *)
  self_us : float;  (** virtual microseconds attributed to this span *)
  tuples_in : int;
  tuples_out : int;
  probes : int;
  builds : int;
  mem_hw : int;  (** high-water resident tuple count *)
  wall_s : float;  (** wall seconds a recorder attributed to this span *)
  samples : int;  (** recorder sampler ticks that landed in this span *)
  minor_words : float;  (** minor-heap words allocated under this span *)
  major_words : float;
}

val create : unit -> t

(** Name the phase under which subsequent [span] calls register.
    Defaults to ["phase 0"]. *)
val set_phase : t -> string -> unit

val phase : t -> string

(** [span t ~depth node] returns the span for [node] in the current
    phase, registering it (at the current phase's next pre-order slot)
    on first use.  Idempotent per (phase, node). *)
val span : t -> ?depth:int -> string -> span

(** A span outside any registry, for the wall recorder's wait and
    "(unattributed)" buckets: it never appears in {!spans}. *)
val detached : phase:string -> string -> span

val span_phase : span -> string
val span_node : span -> string

(** {2 Accumulation} — all O(1), no clock access. *)

val add_time : span -> float -> unit
(** [add_time sp us] adds virtual microseconds; call with the same value
    passed to [Ctx.charge]. *)

val add_in : span -> int -> unit
val add_out : span -> int -> unit
val add_probes : span -> int -> unit
val add_builds : span -> int -> unit

val note_mem : span -> int -> unit
(** Raise the high-water mark to [n] if larger. *)

(** {2 Wall columns} — written only by {!Wallclock}. *)

val add_wall : span -> float -> unit
(** [add_wall sp s] adds [s] wall seconds of self time. *)

val add_sample : span -> minor_words:float -> major_words:float -> unit
(** Count one sampler tick and the allocation since the previous one. *)

(** {2 Reads} *)

val info : span -> info

(** All spans in registration order (pre-order within each phase). *)
val spans : t -> info list

(** Aggregate across phases, keyed by node, ordered by first
    registration.  The [phase] field of each entry is ["*"]. *)
val totals : t -> info list

(** {!totals} over any span list. *)
val aggregate : info list -> info list

(** Spans grouped by phase, phases in first-appearance order, each
    group in registration (pre-)order. *)
val by_phase : info list -> (string * info list) list

(** Self time plus the contiguous run of deeper spans that follows [i]
    in [l] — the cumulative virtual microseconds of the subtree rooted
    at the [i]th span of a pre-order phase listing [l]. *)
val cumulative_us : info list -> int -> float

(** {2 Rendering} *)

val render : ?annot:(info -> string option) -> Format.formatter -> t -> unit
(** Indented per-phase tree: self and cumulative virtual seconds, tuple
    and hash counts, memory high-water.  [annot] may append extra text
    (est-vs-actual, blame marker, wall columns) after a span's line. *)

(** The virtual columns of {!spans} and {!totals}. *)
val to_json : t -> Json.t
