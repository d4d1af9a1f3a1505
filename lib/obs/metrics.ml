type counter = { mutable c : int }
type gauge = { mutable g : float }

type histogram = {
  h_le : float array;  (* ascending upper bounds, +Inf excluded *)
  h_counts : int array;  (* one slot per bound, non-cumulative *)
  mutable h_inf : int;  (* observations above the last bound *)
  mutable h_sum : float;
  mutable h_n : int;
  mutable h_max : float;  (* exact largest observation *)
}

type cell =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type entry = {
  name : string;
  labels : (string * string) list;
  help : string;
  cell : cell;
}

(* The shared store behind every view of a registry.  [entries] keeps
   reversed registration order for the dumps; [index] makes registration
   O(1) — before it, every [Plan.build] of a multi-query server rescanned
   a list that grows with (queries × nodes). *)
type store = {
  mutable entries : entry list;  (* reversed registration order *)
  index : (string * (string * string) list, entry) Hashtbl.t;
}

(* A registry handle is a view: the shared store plus a label scope that
   is prepended to every registration.  Two concurrent queries asking for
   the same per-node counter through differently-scoped views get two
   distinct cells instead of silently sharing (and clobbering) one. *)
type t = { store : store; scope : (string * string) list }

let create () =
  { store = { entries = []; index = Hashtbl.create 64 }; scope = [] }

let with_labels t extra = { t with scope = t.scope @ extra }
let scope t = t.scope

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find t name labels = Hashtbl.find_opt t.store.index (name, labels)

let register t ~labels ~help name make same =
  let labels = t.scope @ labels in
  match find t name labels with
  | Some e -> (
    match same e.cell with
    | Some h -> h
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %s re-registered as a different kind (%s)"
           name (kind_name e.cell)))
  | None ->
    let h, cell = make () in
    let e = { name; labels; help; cell } in
    t.store.entries <- e :: t.store.entries;
    Hashtbl.replace t.store.index (name, labels) e;
    h

(* Retire every cell whose labels carry all of the view's scope pairs —
   how a server drops a finished (or re-run) query's cells so the store
   stays bounded however many queries pass through.  On an unscoped view
   this clears the whole registry. *)
let prune t =
  let carries e =
    List.for_all (fun kv -> List.mem kv e.labels) t.scope
  in
  let keep, drop = List.partition (fun e -> not (carries e)) t.store.entries in
  List.iter (fun e -> Hashtbl.remove t.store.index (e.name, e.labels)) drop;
  t.store.entries <- keep

let cells t = List.length t.store.entries

let counter t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () ->
      let c = { c = 0 } in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () ->
      let g = { g = 0.0 } in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let default_buckets =
  [ 1.0; 4.0; 16.0; 64.0; 256.0; 1024.0; 4096.0; 16384.0 ]

let histogram t ?(labels = []) ?(help = "") ?(buckets = default_buckets) name
    =
  register t ~labels ~help name
    (fun () ->
      let le = Array.of_list (List.sort_uniq compare buckets) in
      let h =
        { h_le = le; h_counts = Array.make (Array.length le) 0; h_inf = 0;
          h_sum = 0.0; h_n = 0; h_max = 0.0 }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let incr ?(by = 1) c = c.c <- c.c + by
let count c = c.c
let set_count c n = c.c <- n
let set g v = g.g <- v
let value g = g.g

let observe h v =
  h.h_sum <- h.h_sum +. v;
  h.h_n <- h.h_n + 1;
  if h.h_n = 1 || v > h.h_max then h.h_max <- v;
  let rec slot i =
    if i >= Array.length h.h_le then h.h_inf <- h.h_inf + 1
    else if v <= h.h_le.(i) then h.h_counts.(i) <- h.h_counts.(i) + 1
    else slot (i + 1)
  in
  slot 0

let histogram_count h = h.h_n
let histogram_sum h = h.h_sum
let histogram_max h = if h.h_n = 0 then 0.0 else h.h_max

(* Prometheus-style bucket interpolation: find the bucket holding the
   q-rank, interpolate linearly inside it.  The +Inf bucket has no upper
   bound, so the exact tracked maximum stands in for it (which also caps
   the estimate at something actually observed). *)
let histogram_quantile h q =
  if h.h_n = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_n in
    let rec go i cum lower =
      if i >= Array.length h.h_le then h.h_max
      else begin
        let cum' = cum + h.h_counts.(i) in
        if float_of_int cum' >= rank then begin
          let upper = Float.min h.h_le.(i) h.h_max in
          if h.h_counts.(i) = 0 then upper
          else
            lower
            +. (upper -. lower)
               *. ((rank -. float_of_int cum) /. float_of_int h.h_counts.(i))
        end
        else go (i + 1) cum' h.h_le.(i)
      end
    in
    go 0 0 0.0
  end

let counter_total t name =
  List.fold_left
    (fun acc e ->
      match e.cell with
      | Counter c when e.name = name -> acc + c.c
      | _ -> acc)
    0 t.store.entries

(* Deterministic dump order: by name, then by labels. *)
let sorted t =
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    t.store.entries

let to_json t =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels)
  in
  let entry e =
    let base =
      [ ("name", Json.Str e.name); ("labels", labels_json e.labels);
        ("type", Json.Str (kind_name e.cell)) ]
    in
    let body =
      match e.cell with
      | Counter c -> [ ("value", Json.Num (float_of_int c.c)) ]
      | Gauge g -> [ ("value", Json.Num g.g) ]
      | Histogram h ->
        let cum = ref 0 in
        let buckets =
          Array.to_list
            (Array.mapi
               (fun i le ->
                 cum := !cum + h.h_counts.(i);
                 Json.Obj
                   [ ("le", Json.Num le);
                     ("count", Json.Num (float_of_int !cum)) ])
               h.h_le)
        in
        [ ("buckets", Json.List buckets);
          ("count", Json.Num (float_of_int h.h_n));
          ("sum", Json.Num h.h_sum) ]
    in
    Json.Obj (base @ body)
  in
  Json.Obj [ ("metrics", Json.List (List.map entry (sorted t))) ]

(* Prometheus text exposition format. *)

let prom_escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape_label v))
           labels)
    ^ "}"

let prom_num f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* Scrape-format discipline: every family gets exactly one HELP and one
   TYPE line (a synthesized HELP when none was registered), and all of a
   family's samples stay contiguous — which is why the p50/p95/max
   quantile estimates of a histogram cannot ride inline next to its
   buckets.  A {quantile=...} label would clash with the histogram TYPE
   declaration, so they are exported as sibling gauge families
   (name_p50, ...) appended after every primary family. *)
let to_prometheus t =
  let b = Buffer.create 4096 in
  let siblings = Buffer.create 512 in
  let header buf name kind help =
    let help = if help = "" then name else help in
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let rec families = function
    | [] -> []
    | e :: rest ->
      let same, rest = List.partition (fun e' -> e'.name = e.name) rest in
      (e :: same) :: families rest
  in
  List.iter
    (fun family ->
      let first = List.hd family in
      let help =
        match List.find_opt (fun e -> e.help <> "") family with
        | Some e -> e.help
        | None -> ""
      in
      header b first.name (kind_name first.cell) help;
      List.iter
        (fun e ->
          match e.cell with
          | Counter c ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" e.name (prom_labels e.labels) c.c)
          | Gauge g ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" e.name (prom_labels e.labels)
                 (prom_num g.g))
          | Histogram h ->
            let cum = ref 0 in
            Array.iteri
              (fun i le ->
                cum := !cum + h.h_counts.(i);
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" e.name
                     (prom_labels (e.labels @ [ ("le", prom_num le) ]))
                     !cum))
              h.h_le;
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" e.name
                 (prom_labels (e.labels @ [ ("le", "+Inf") ]))
                 h.h_n);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" e.name (prom_labels e.labels)
                 (prom_num h.h_sum));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" e.name (prom_labels e.labels)
                 h.h_n))
        family;
      (match first.cell with
       | Histogram _ ->
         List.iter
           (fun (suffix, what, read) ->
             header siblings (first.name ^ "_" ^ suffix) "gauge"
               (Printf.sprintf "%s of %s." what first.name);
             List.iter
               (fun e ->
                 match e.cell with
                 | Histogram h ->
                   Buffer.add_string siblings
                     (Printf.sprintf "%s_%s%s %s\n" e.name suffix
                        (prom_labels e.labels) (prom_num (read h)))
                 | _ -> ())
               family)
           [ ("p50", "Estimated 0.5 quantile",
              fun h -> histogram_quantile h 0.5);
             ("p95", "Estimated 0.95 quantile",
              fun h -> histogram_quantile h 0.95);
             ("max", "Largest observation", histogram_max) ]
       | _ -> ()))
    (families (sorted t));
  Buffer.add_buffer b siblings;
  Buffer.contents b
