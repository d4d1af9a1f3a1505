open Adp_relation

(** Simulated autonomous data sources.

    Data-integration sources are sequential-access only and deliver tuples
    over a network whose bandwidth and burstiness the engine does not
    control.  A source pairs a relation with an arrival model that assigns
    each tuple a virtual arrival time:

    - [Local]: all tuples available immediately (the paper's local
      experiments, which isolate computation cost);
    - [Bandwidth r]: steady stream at [r] tuples per virtual second;
    - [Bursty]: 802.11b-style on/off behaviour — during a burst, tuples
      arrive at [rate]; between bursts the stream goes silent for an
      exponentially distributed gap (Figure 3's wireless network).

    Sources are also unreliable.  A composable, seeded fault specification
    makes a source stall, drop its connection mid-stream, or never answer
    at all, and a list of mirrors (same relation, possibly lagging
    replicas) gives the engine somewhere to fail over when the primary is
    declared permanently dead.  All fault behaviour is deterministic in
    virtual time, so every faulty run is exactly reproducible.

    Observers may be attached (e.g. §4.5's incremental histograms); they
    see every tuple as it is consumed and their cost is the caller's to
    charge. *)

type model =
  | Local
  | Bandwidth of float  (** tuples per virtual second *)
  | Bursty of { rate : float; mean_burst : int; mean_gap : float }
      (** [rate] tuples/s while on; bursts of ~[mean_burst] tuples
          separated by exponential gaps of mean [mean_gap] virtual
          seconds *)

(** Injected failures.  [after_tuples] counts tuples delivered over the
    current connection: from the start of the stream on the primary, from
    the failover point on a mirror. *)
type fault =
  | Stall of { after_tuples : int; duration_s : float }
      (** transient silence: the link stays up but the next tuple is
          delayed by [duration_s] virtual seconds *)
  | Disconnect of { after_tuples : int; rejoin_after_s : float option }
      (** mid-stream drop.  With [Some s], a reconnect attempt issued
          [s] virtual seconds after the drop succeeds and the stream
          resumes from the same position; with [None] the connection is
          gone for good and only a mirror can continue the stream. *)
  | Dead_on_arrival  (** the source never answers the first connection *)

(** A mirror: the same relation behind an alternate (possibly slower)
    link.  A lagging replica resumes [lag_tuples] before the primary's
    last delivered position and streams that overlap again — the
    re-delivered prefix costs transfer time but is never handed to the
    consumer twice, because positions below the consumption cursor
    already belong to some phase's region. *)
type mirror

val mirror :
  ?model:model -> ?lag_tuples:int -> ?faults:fault list -> unit -> mirror

(** Engine-observable connection state.  [Down] is recoverable (by a
    reconnect or a failover); [Failed] means every mirror is exhausted
    and the remainder of this source is permanently lost. *)
type status = Up | Down | Failed

type t

(** [create ?seed ?name ?faults ?mirrors relation model] — [name]
    defaults to a fresh label; [seed] controls burst randomness; [faults]
    are injected on the primary connection, and [mirrors] are tried in
    order when it permanently fails. *)
val create :
  ?seed:int ->
  ?name:string ->
  ?faults:fault list ->
  ?mirrors:mirror list ->
  Relation.t ->
  model ->
  t

val name : t -> string
val schema : t -> Schema.t

(** Total tuples in the underlying relation. *)
val cardinality : t -> int

(** Tuples consumed so far. *)
val consumed : t -> int

(** Fraction of the sources' tuples delivered so far, over all of them
    ([1.0] when they hold none). *)
val coverage : t list -> float

val exhausted : t -> bool

(** Connection state of the current (primary or mirror) link. *)
val status : t -> status

(** [exhausted t || status t = Failed]: no further tuples will ever be
    delivered. *)
val finished : t -> bool

(** Mirror failovers performed so far. *)
val failovers : t -> int

(** Overlap tuples re-streamed by lagging mirrors (paid for on the wire,
    skipped before the consumer). *)
val redelivered : t -> int

(** Arrival time of the next tuple; [infinity] when exhausted or the link
    is not up. *)
val next_arrival : t -> float

(** Consume the next tuple; returns it with its arrival time and feeds
    observers.  [None] when exhausted or the link is not up. *)
val next : t -> (Tuple.t * float) option

(** Append a fault to the current connection's pending set (fires
    immediately if its trigger point has already passed). *)
val inject : t -> fault -> unit

(** Append a failover target. *)
val add_mirror : t -> mirror -> unit

(** Mirrors not yet consumed by failovers. *)
val mirrors_remaining : t -> int

(** [try_reconnect t ~at] — a reconnect attempt issued at virtual time
    [at].  Succeeds on an up link (the source was merely silent) or on a
    recoverable disconnect whose rejoin time has passed; the stream then
    resumes from the same position with arrivals rebased to [at]. *)
val try_reconnect : t -> at:float -> bool

(** [failover t ~at] — abandon the current connection for the next
    mirror.  Returns [false] (and marks the source [Failed]) when no
    mirror remains. *)
val failover : t -> at:float -> bool

(** Attach an observer called on every consumed tuple. *)
val observe : t -> (Tuple.t -> unit) -> unit

(** [resume_at t ~pos ~at] fast-forwards a fresh source to stream
    position [pos] at virtual time [at] — the crash-recovery path: the
    tuples below [pos] belong to regions of checkpointed phases and are
    never re-delivered.  The link comes up, arrivals are rebased to [at],
    and injected faults whose trigger point lies below [pos] (already
    fired and survived before the crash) are discarded; later triggers
    stay armed.  [pos] is clamped to the relation's cardinality. *)
val resume_at : t -> pos:int -> at:float -> unit

(** Reset consumption, fault and mirror state to the beginning
    (observers retained). *)
val rewind : t -> unit
