type span = {
  sp_phase : string;
  sp_node : string;
  sp_depth : int;
  sp_order : int;
  mutable sp_self_us : float;
  mutable sp_in : int;
  mutable sp_out : int;
  mutable sp_probes : int;
  mutable sp_builds : int;
  mutable sp_mem_hw : int;
  mutable sp_wall_s : float;
  mutable sp_samples : int;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
}

type t = {
  tbl : (string * string, span) Hashtbl.t;
  mutable rev : span list;  (* newest first *)
  mutable cur_phase : string;
  mutable next_order : int;
}

type info = {
  phase : string;
  node : string;
  depth : int;
  order : int;
  self_us : float;
  tuples_in : int;
  tuples_out : int;
  probes : int;
  builds : int;
  mem_hw : int;
  wall_s : float;
  samples : int;
  minor_words : float;
  major_words : float;
}

let create () =
  { tbl = Hashtbl.create 64; rev = []; cur_phase = "phase 0"; next_order = 0 }

let set_phase t phase = t.cur_phase <- phase
let phase t = t.cur_phase

let make ~phase ~depth ~order node =
  { sp_phase = phase; sp_node = node; sp_depth = depth; sp_order = order;
    sp_self_us = 0.0; sp_in = 0; sp_out = 0; sp_probes = 0; sp_builds = 0;
    sp_mem_hw = 0; sp_wall_s = 0.0; sp_samples = 0; sp_minor_words = 0.0;
    sp_major_words = 0.0 }

let span t ?(depth = 0) node =
  let key = (t.cur_phase, node) in
  match Hashtbl.find_opt t.tbl key with
  | Some sp -> sp
  | None ->
    let sp = make ~phase:t.cur_phase ~depth ~order:t.next_order node in
    t.next_order <- t.next_order + 1;
    Hashtbl.add t.tbl key sp;
    t.rev <- sp :: t.rev;
    sp

let detached ~phase node = make ~phase ~depth:0 ~order:(-1) node
let span_phase sp = sp.sp_phase
let span_node sp = sp.sp_node

let add_time sp us = sp.sp_self_us <- sp.sp_self_us +. us
let add_in sp n = sp.sp_in <- sp.sp_in + n
let add_out sp n = sp.sp_out <- sp.sp_out + n
let add_probes sp n = sp.sp_probes <- sp.sp_probes + n
let add_builds sp n = sp.sp_builds <- sp.sp_builds + n
let note_mem sp n = if n > sp.sp_mem_hw then sp.sp_mem_hw <- n
let add_wall sp s = sp.sp_wall_s <- sp.sp_wall_s +. s

let add_sample sp ~minor_words ~major_words =
  sp.sp_samples <- sp.sp_samples + 1;
  sp.sp_minor_words <- sp.sp_minor_words +. minor_words;
  sp.sp_major_words <- sp.sp_major_words +. major_words

let info sp =
  { phase = sp.sp_phase; node = sp.sp_node; depth = sp.sp_depth;
    order = sp.sp_order; self_us = sp.sp_self_us; tuples_in = sp.sp_in;
    tuples_out = sp.sp_out; probes = sp.sp_probes; builds = sp.sp_builds;
    mem_hw = sp.sp_mem_hw; wall_s = sp.sp_wall_s; samples = sp.sp_samples;
    minor_words = sp.sp_minor_words; major_words = sp.sp_major_words }

let spans t = List.rev_map info t.rev

let aggregate infos =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (i : info) ->
      match Hashtbl.find_opt tbl i.node with
      | None ->
        order := i.node :: !order;
        Hashtbl.add tbl i.node { i with phase = "*" }
      | Some acc ->
        Hashtbl.replace tbl i.node
          { acc with
            self_us = acc.self_us +. i.self_us;
            tuples_in = acc.tuples_in + i.tuples_in;
            tuples_out = acc.tuples_out + i.tuples_out;
            probes = acc.probes + i.probes;
            builds = acc.builds + i.builds;
            mem_hw = max acc.mem_hw i.mem_hw;
            wall_s = acc.wall_s +. i.wall_s;
            samples = acc.samples + i.samples;
            minor_words = acc.minor_words +. i.minor_words;
            major_words = acc.major_words +. i.major_words })
    infos;
  List.rev_map (Hashtbl.find tbl) !order

let totals t = aggregate (spans t)

let cumulative_us l i =
  let arr = Array.of_list l in
  if i < 0 || i >= Array.length arr then 0.0
  else begin
    let base = arr.(i).depth in
    let acc = ref arr.(i).self_us in
    let j = ref (i + 1) in
    while !j < Array.length arr && arr.(!j).depth > base do
      acc := !acc +. arr.(!j).self_us;
      incr j
    done;
    !acc
  end

let seconds us = us /. 1e6

let by_phase all =
  List.fold_left
    (fun acc (i : info) -> if List.mem i.phase acc then acc else i.phase :: acc)
    [] all
  |> List.rev_map (fun ph ->
         (ph, List.filter (fun (i : info) -> i.phase = ph) all))

let render ?annot ppf t =
  List.iter
    (fun (ph, l) ->
      Format.fprintf ppf "%s:@." ph;
      List.iteri
        (fun idx (i : info) ->
          let extra =
            match annot with
            | None -> ""
            | Some f -> (match f i with None -> "" | Some s -> " " ^ s)
          in
          Format.fprintf ppf
            "  %s%s  (self %.6fs, cum %.6fs, in %d, out %d, probes %d, \
             builds %d, mem %d)%s@."
            (String.make (2 * i.depth) ' ')
            i.node (seconds i.self_us)
            (seconds (cumulative_us l idx))
            i.tuples_in i.tuples_out i.probes i.builds i.mem_hw extra)
        l)
    (by_phase (spans t))

let info_to_json (i : info) =
  Json.Obj
    [ ("phase", Json.Str i.phase); ("node", Json.Str i.node);
      ("depth", Json.Num (float_of_int i.depth));
      ("self_us", Json.Num i.self_us);
      ("tuples_in", Json.Num (float_of_int i.tuples_in));
      ("tuples_out", Json.Num (float_of_int i.tuples_out));
      ("probes", Json.Num (float_of_int i.probes));
      ("builds", Json.Num (float_of_int i.builds));
      ("mem_hw", Json.Num (float_of_int i.mem_hw)) ]

let to_json t =
  Json.Obj
    [ ("spans", Json.List (List.map info_to_json (spans t)));
      ("totals", Json.List (List.map info_to_json (totals t))) ]
