(* The wall-clock benchmark.

     perfbench --workload W --seed N --seconds S --trace 0|1
               [--scale-mult F] [--corrupt]

   Sets the workload up several times (the median is setup_s), then:

   - with --trace 0, runs timed passes over the workload until the next
     one would end past S seconds (at least one) and reports the
     end-to-end metrics, medians over the passes;
   - with --trace 1, runs one plain pass, then a traced pass (the
     benchmark's own spans plus the engine's trace, profile and
     wall-clock sidecars) and the layer probes, and reports the
     per-layer metrics.  The traced pass must reproduce the plain pass's
     virtual times, switch decisions and result multisets bit for bit;
     otherwise no per-layer metric is published.

   Every pass checks its results.  The last line of standard output is
   one JSON object: correct, attempted, failed and metrics.  Spans are
   written to .bench_out/ when the run ends.  --scale-mult shrinks the
   data for the self-test; --corrupt drops one result row before the
   check, which must then fail. *)

open Util

module type WORKLOAD = sig
  type input
  type run

  val scale : float
  val setup : scale:float -> seed:int -> input
  val digest : input -> string
  val prepare : input -> unit
  val pass : ?traced:bool -> corrupt:bool -> input -> pass * run list
  val layer_metrics : input -> run list -> (string * float) list
end

let workloads : (string * (module WORKLOAD)) list =
  [ "cqp-sf0.1", (module Cqp); "ordered-stream", (module Stream);
    "serve-ckpt", (module Serve) ]

(* Set-up is repeated at least [setup_min] times and until it has taken
   [setup_budget_s] seconds, so a quick set-up still gets a steady
   median. *)
let setup_min = 3
let setup_max = 25
let setup_budget_s = 1.5

let json_result ~correct ~attempted ~failed metrics =
  let cell (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " (List.map cell metrics))

let publish catalog values =
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0.0 (List.assoc_opt name values) in
      name, unit, if Float.is_finite v then v else 0.0)
    catalog

let main ~workload ~seed ~seconds ~traced ~scale_mult ~corrupt =
  let (module W : WORKLOAD) = List.assoc workload workloads in
  let scale = W.scale *. scale_mult in
  Spans.recording := traced;
  let input = ref None in
  let rec set_up walls =
    input := None;
    let inp, c = timed (fun () -> W.setup ~scale ~seed) in
    input := Some inp;
    let walls = c.wall :: walls in
    let n = List.length walls in
    if n >= setup_max || (n >= setup_min && sum walls >= setup_budget_s) then walls
    else set_up walls
  in
  let setup_walls = set_up [] in
  let inp = Option.get !input in
  Printf.printf "# inputs %s\n%!" (W.digest inp);
  let setup_s = median setup_walls in
  W.prepare inp;
  if not traced then begin
    let deadline = now () +. seconds in
    let rec loop acc =
      let t0 = now () in
      let p, _ = W.pass ~corrupt inp in
      let took = now () -. t0 in
      Printf.printf "# pass %d: %.3f s timed, %d/%d failed\n%!"
        (List.length acc + 1) p.total.wall p.failed p.attempted;
      let acc = p :: acc in
      if now () +. took > deadline then acc else loop acc
    in
    let passes = loop [] in
    let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
    let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
    json_result ~correct:(failed = 0) ~attempted ~failed
      (publish Metric_names.end_to_end
         [ "setup_s", setup_s;
           "wall_s", median (List.map (fun p -> p.total.wall) passes);
           "alloc_words_per_tuple",
           median
             (List.map (fun p -> ratio p.total.words (float_of_int p.tuples)) passes);
           "peak_heap_mb", peak_heap_mb () ])
  end
  else begin
    Spans.recording := false;
    let plain, _ = W.pass ~corrupt inp in
    Spans.recording := true;
    let traced_pass, runs =
      Spans.with_ "traced pass" (fun () -> W.pass ~traced:true ~corrupt inp)
    in
    let layers = W.layer_metrics inp runs in
    Spans.recording := false;
    Spans.write
      (Printf.sprintf ".bench_out/spans-%s-seed%d.jsonl" workload seed);
    let attempted = plain.attempted + traced_pass.attempted in
    let failed = plain.failed + traced_pass.failed in
    let identical = plain.identity = traced_pass.identity in
    if not identical then
      List.iter
        (fun l -> print_endline ("# perturbed: " ^ l))
        (List.filter (fun l -> not (List.mem l plain.identity)) traced_pass.identity);
    let metrics =
      if identical then
        publish Metric_names.per_layer
          (layers
          @ [ "datagen.gen_s",
              Spans.total "datagen" /. float_of_int (List.length setup_walls);
              "obs.traced_pass_overhead", ratio traced_pass.total.wall plain.total.wall;
              "failed_frac", ratio (float_of_int failed) (float_of_int attempted) ])
      else []
    in
    json_result ~correct:(identical && failed = 0) ~attempted ~failed metrics;
    if not identical then exit 1
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and scale_mult = ref 1.0 and corrupt = ref false in
  let spec =
    [ "--workload", Arg.Set_string workload, "NAME workload to run";
      "--seed", Arg.Set_int seed, "N input seed";
      "--seconds", Arg.Set_float seconds, "S measuring time";
      "--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics";
      "--scale-mult", Arg.Set_float scale_mult, "F scale the data (self-test)";
      "--corrupt", Arg.Set corrupt, " drop a result row before the check (self-test)" ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline
      ("perfbench: --workload must be one of "
      ^ String.concat ", " (List.map fst workloads));
    exit 2
  end;
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1)
     || !scale_mult <= 0.0
  then begin
    prerr_endline usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
    ~scale_mult:!scale_mult ~corrupt:!corrupt
