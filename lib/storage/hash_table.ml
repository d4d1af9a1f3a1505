open Adp_relation

(* Entry [i] lives in chunk [i lsr chunk_bits], slot [i land chunk_mask].
   Chunk 0 starts at [initial] slots and doubles up to [chunk_size];
   later chunks are allocated full-size, so growth never copies more than
   one chunk. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let initial = 8

type t = {
  schema : Schema.t;
  key_cols : string list;
  key_idx : int array;
  ident : int array;  (* [0 .. arity-1]: the key columns of a key array *)
  mutable tuples : Tuple.t array array;
  mutable links : int array array;
      (* per entry, at [2 * slot]: the next (older) entry of its bucket or
         -1; at [2 * slot + 1]: its full hash *)
  mutable heads : int array;  (* bucket -> newest entry, or -1 *)
  mutable size : int;
  mutable swapped : bool;
}

(* ---------------- the bucket hash ---------------- *)

(* [Value.compare] equates [Int x] with [Float (float_of_int x)], 0.0
   with -0.0 and every NaN with every other, so numbers hash through
   their float image with those classes collapsed.  Nothing here
   allocates: the int64 stays unboxed. *)
let[@inline] float_code f =
  if f = 0.0 then 0
  else if Float.is_nan f then 0x7ff8
  else
    let b = Int64.bits_of_float f in
    Int64.to_int (Int64.logxor b (Int64.shift_right_logical b 31))

let value_code = function
  | Value.Null -> 0x5bd1e995
  | Value.Int x -> float_code (float_of_int x)
  | Value.Float f -> float_code f
  | Value.Str s -> Hashtbl.hash s
  | Value.Date d -> d lxor 0x2d358dcc

let mix h code = (h lxor code) * 0x100000001b3

let finish h =
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let hash tuple cols =
  let h = ref 0xcbf29ce4 in
  for i = 0 to Array.length cols - 1 do
    h := mix !h (value_code tuple.(cols.(i)))
  done;
  finish !h

let key_hash k =
  let h = ref 0xcbf29ce4 in
  for i = 0 to Array.length k - 1 do
    h := mix !h (value_code (Array.unsafe_get k i))
  done;
  finish !h

(* ---------------- layout ---------------- *)

let clear t =
  t.tuples <- [| Array.make initial [||] |];
  t.links <- [| Array.make (2 * initial) 0 |];
  t.heads <- Array.make initial (-1);
  t.size <- 0

let create schema ~key_cols =
  let key_idx = Array.of_list (List.map (Schema.index schema) key_cols) in
  let t =
    { schema; key_cols; key_idx;
      ident = Array.init (Array.length key_idx) Fun.id; tuples = [||];
      links = [||]; heads = [||]; size = 0; swapped = false }
  in
  clear t;
  t

let schema t = t.schema
let key_columns t = t.key_cols
let key_indices t = t.key_idx
let length t = t.size

let key_of t tuple = Tuple.key tuple t.key_idx

let tuple_at t i =
  Array.unsafe_get
    (Array.unsafe_get t.tuples (i lsr chunk_bits))
    (i land chunk_mask)

(* Room for entry [t.size]: append a full chunk, or double chunk 0. *)
let reserve t =
  let i = t.size in
  let c = i lsr chunk_bits in
  if c = Array.length t.tuples then begin
    t.tuples <- Array.append t.tuples [| Array.make chunk_size [||] |];
    t.links <- Array.append t.links [| Array.make (2 * chunk_size) 0 |]
  end
  else if i = Array.length t.tuples.(0) then begin
    let cap = 2 * i in
    let tu = Array.make cap [||] and li = Array.make (2 * cap) 0 in
    Array.blit t.tuples.(0) 0 tu 0 i;
    Array.blit t.links.(0) 0 li 0 (2 * i);
    t.tuples.(0) <- tu;
    t.links.(0) <- li
  end

(* Double the bucket array, relinking entries oldest first so that every
   chain stays newest-first. *)
let rebucket t =
  let nb = 2 * Array.length t.heads in
  let heads = Array.make nb (-1) in
  let mask = nb - 1 in
  for i = 0 to t.size - 1 do
    let l = Array.unsafe_get t.links (i lsr chunk_bits) in
    let s = 2 * (i land chunk_mask) in
    let b = Array.unsafe_get l (s + 1) land mask in
    Array.unsafe_set l s (Array.unsafe_get heads b);
    Array.unsafe_set heads b i
  done;
  t.heads <- heads

let insert_hashed t h tuple =
  reserve t;
  let i = t.size in
  let c = i lsr chunk_bits and s = i land chunk_mask in
  let b = h land (Array.length t.heads - 1) in
  t.tuples.(c).(s) <- tuple;
  let l = t.links.(c) in
  l.(2 * s) <- t.heads.(b);
  l.((2 * s) + 1) <- h;
  t.heads.(b) <- i;
  t.size <- i + 1;
  if t.size > 2 * Array.length t.heads then rebucket t

let insert t tuple = insert_hashed t (hash tuple t.key_idx) tuple

let key_eq t entry probe cols =
  let ki = t.key_idx in
  let rec go i =
    i < 0
    || Value.compare entry.(ki.(i)) probe.(cols.(i)) = 0 && go (i - 1)
  in
  go (Array.length ki - 1)

let fold_matches f t h probe cols acc =
  if Array.length cols <> Array.length t.key_idx then acc
  else
    let rec walk e acc =
      if e < 0 then acc
      else
        let l = Array.unsafe_get t.links (e lsr chunk_bits) in
        let s = 2 * (e land chunk_mask) in
        let next = Array.unsafe_get l s in
        if Array.unsafe_get l (s + 1) = h then
          let entry = tuple_at t e in
          walk next (if key_eq t entry probe cols then f entry acc else acc)
        else walk next acc
    in
    walk t.heads.(h land (Array.length t.heads - 1)) acc

let probe t k =
  List.rev
    (fold_matches (fun m acc -> m :: acc) t (key_hash k) k t.ident [])

let iter f t =
  for i = 0 to t.size - 1 do
    f (tuple_at t i)
  done

let to_list t =
  let acc = ref [] in
  for i = t.size - 1 downto 0 do
    acc := tuple_at t i :: !acc
  done;
  !acc

let rehash t ~key_cols =
  let fresh = create t.schema ~key_cols in
  iter (insert fresh) t;
  fresh.swapped <- t.swapped;
  fresh

let swap_out t = t.swapped <- true
let swap_in t = t.swapped <- false
let swapped t = t.swapped
