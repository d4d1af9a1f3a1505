open Adp_relation

(** Multimap hash table from composite keys to tuples — the state structure
    behind pipelined hash joins, hybrid hash joins, and stitch-up reuse.

    The table knows which columns of its tuples form the key, so it can be
    {!rehash}ed on a different key for stitch-up (§3.4.3 rehashes one
    structure "if necessary for performance") and exposes its contents for
    sharing across plans (§3.1 "exposing state").

    {b Layout.}  Entries are kept in insertion order in chunked arrays:
    for each entry, the tuple, the next (older) entry of its bucket, and
    its full bucket hash.  An [int array] holds the bucket heads; growing
    it relinks the entries from their stored hashes without rehashing a
    tuple.  The first chunk starts at a few slots and doubles up to the
    chunk size; after that the table appends chunks and never copies the
    entries, so small tables stay small and large ones grow without
    transient copies.  An insert allocates only when a chunk or the
    bucket array fills.

    {b Bucket hash.}  {!hash} agrees with [Value.compare] equality, which
    is what matching uses: [Int x] and [Float (float_of_int x)] hash alike
    (also beyond 2{^53}), so do [0.0] and [-0.0], and so do all NaNs;
    [Null] keys match each other.  It allocates nothing.  It is private
    to the engine's tables and differs from [Value.hash] /
    [Tuple.hash_key], which statistics and spill regions derive from.

    {b Order.}  {!iter} and {!to_list} walk in insertion order; probes
    visit matches newest first.  Re-inserting {!to_list} into an empty
    table (as [Plan.restore] does) therefore rebuilds identical chains.

    Overflow: {!swap_out}/{!swap_in} model spilling to disk.  Contents stay
    addressable (this is a simulation, not an actual spill); the flag is
    consulted by the cost model, which charges I/O for probes against
    swapped structures, and by the memory-pressure heuristic of §3.4.2. *)

type t

(** [create schema ~key_cols] with [key_cols] resolvable in [schema]. *)
val create : Schema.t -> key_cols:string list -> t

val schema : t -> Schema.t
val key_columns : t -> string list

(** Positions of the key columns in the table's schema. *)
val key_indices : t -> int array

val length : t -> int

(** [hash tuple cols] is the bucket hash of the tuple's columns [cols],
    in that order. *)
val hash : Tuple.t -> int array -> int

(** [key_hash k] is [hash k [|0; ...; n-1|]]: the bucket hash of a key
    array. *)
val key_hash : Value.t array -> int

val insert : t -> Tuple.t -> unit

(** [insert_hashed t h tuple] is [insert t tuple] for a caller that
    already holds [h = hash tuple (key_indices t)]. *)
val insert_hashed : t -> int -> Tuple.t -> unit

(** [fold_matches f t h probe cols acc] folds [f] over the entries whose
    key equals the columns [cols] of [probe], newest first; [h] must be
    [hash probe cols].  Builds no key array. *)
val fold_matches :
  (Tuple.t -> 'a -> 'a) -> t -> int -> Tuple.t -> int array -> 'a -> 'a

(** Matches for the probe key, most recently inserted first. *)
val probe : t -> Value.t array -> Tuple.t list

(** Key of a tuple under this table's key columns. *)
val key_of : t -> Tuple.t -> Value.t array

(** Insertion order. *)
val iter : (Tuple.t -> unit) -> t -> unit

(** Insertion order. *)
val to_list : t -> Tuple.t list

(** Rebuild on different key columns (contents preserved). *)
val rehash : t -> key_cols:string list -> t

val swap_out : t -> unit
val swap_in : t -> unit
val swapped : t -> bool

(** Empty the table and shrink it back to its initial size. *)
val clear : t -> unit
