(* Workload serve-ckpt: [Server.run] over a seeded script of eight
   queries drawn from Q3/Q3A/Q10/Q10A/Q5, submitted open-loop at
   staggered server-virtual times, two of them killed mid-run and resumed
   from checkpoints.  TPC-H SF 0.02, two simulated workers, a checkpoint
   every 20000 source tuples.  The write path: checkpoint encode/save,
   load on resume, and the per-query fixed costs (parse, analyze,
   optimize, warm start) of many small queries.  The wall time is the
   batch makespan. *)

open Adp_relation
open Adp_datagen
open Adp_optimizer
open Util
module Server = Adp_server.Server
module Script = Adp_server.Script
module Checkpoint = Adp_recovery.Checkpoint

let scale = 0.02
let ckpt_dir = Filename.concat ".bench_out" "serve-ckpt"
let scratch_dir = Filename.concat ".bench_out" "serve-resave"

(* The bundled demo script's queries and kills, so every seed asks for
   about the same work: the seed draws the data, the submission gaps
   (exponential, mean 50 ms of server time) and the kill points.  A kill
   point is at least [checkpoint_every] tuples in, so every killed query
   resumes from a checkpoint. *)
let mix = [| "Q3"; "Q10"; "Q3A"; "Q10A"; "Q5"; "Q3"; "Q10"; "Q3A" |]
let killed = [ 1; 5 ]
let checkpoint_every = 20000

let server_config ~traced =
  { (Server.default_config ~checkpoint_dir:ckpt_dir) with
    workers = 2; checkpoint_every;
    trace = (if traced then Adp_obs.Trace.memory () else Adp_obs.Trace.null) }

type input = {
  ds : Tpch.t;
  text : string;  (** the generated script *)
  script : Script.t;
  resolver : Server.resolver;
  oracle : (string * Relation.t) list Lazy.t;
      (** each spec's result from an uninterrupted run *)
}

let script_text rng =
  let t = ref 0.0 in
  String.concat ""
    (List.init (Array.length mix) (fun i ->
         let at = Printf.sprintf "%.3f" !t in
         t := !t +. Prng.exponential rng ~mean:0.05;
         let qid = Printf.sprintf "q%d" (i + 1) in
         Printf.sprintf "at %s submit %s %s\n" at qid mix.(i)
         ^
         if List.mem i killed then
           Printf.sprintf "at %s kill %s tuples:%d\n" at qid
             (Prng.range rng checkpoint_every (2 * checkpoint_every))
         else ""))

let submitted script =
  List.filter_map (function _, Script.Submit s -> Some s.spec | _ -> None) script

let setup ~scale ~seed =
  let ds =
    Spans.with_ "datagen" (fun () ->
        Tpch.generate { Tpch.scale; distribution = Tpch.Uniform; seed })
  in
  let text = script_text (Prng.create seed) in
  let script =
    match Script.parse ~file:"generated" text with
    | Ok s -> s
    | Error _ -> failwith ("perfbench: generated script does not parse:\n" ^ text)
  in
  let resolver = Server.tpch_resolver ds in
  let oracle =
    lazy
      (List.map
         (fun spec ->
           let r = resolver spec in
           let config = (server_config ~traced:false).corrective in
           ( spec,
             fst
               (Adp_core.Corrective.run ~config r.r_query r.r_catalog
                  (r.r_sources ())) ))
         (List.sort_uniq compare (submitted script)))
  in
  { ds; text; script; resolver; oracle }

let digest inp = Digest.to_hex (Digest.string inp.text)

(* The oracle is computed once, before anything is timed. *)
let prepare inp = ignore (Lazy.force inp.oracle)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec files path =
  if Sys.is_directory path then
    List.concat_map (fun f -> files (Filename.concat path f))
      (List.sort compare (Array.to_list (Sys.readdir path)))
  else [ path ]

let file_bytes f = (Unix.stat f).Unix.st_size

(* Load every checkpoint the serve wrote, then save each again into a
   scratch directory: ms per MB of checkpoint data for either way. *)
let recovery_probe paths mb =
  let loaded, load =
    timed (fun () ->
        Spans.with_ "recovery/checkpoint load" (fun () ->
            List.filter_map
              (fun p -> match Checkpoint.load p with Ok c -> Some c | Error _ -> None)
              paths))
  in
  let (), save =
    timed (fun () ->
        Spans.with_ "recovery/checkpoint save" (fun () ->
            List.iter (fun c -> ignore (Checkpoint.save ~dir:scratch_dir c)) loaded))
  in
  rm_rf scratch_dir;
  if List.length loaded <> List.length paths then
    failwith "perfbench: a checkpoint the serve wrote does not load";
  ratio (load.wall *. 1e3) mb, ratio (save.wall *. 1e3) mb

type run = {
  report : Server.report;
  trace : Adp_obs.Trace.t;
  cost : cost;
  ckpt_files : int;
  ckpt_mb : float;
  recovery : float * float;  (** load and save ms per MB, traced pass only *)
}

(* One serve of the script.  Every query must complete with its
   uninterrupted run's result multiset, the killed-and-resumed ones
   included; [corrupt] drops a row from the first completed query's
   result.  The checkpoint directory is measured, then wiped. *)
let pass ?(traced = false) ~corrupt inp =
  let oracle = Lazy.force inp.oracle in
  rm_rf ckpt_dir;
  let cfg = server_config ~traced in
  let outcome, cost =
    timed_result (fun () ->
        Spans.with_ "server" (fun () -> Server.run cfg inp.resolver inp.script))
  in
  let paths = if Sys.file_exists ckpt_dir then files ckpt_dir else [] in
  let bytes = List.fold_left (fun a f -> a + file_bytes f) 0 paths in
  let mb = float_of_int bytes /. 1048576.0 in
  let recovery = if traced then recovery_probe paths mb else 0.0, 0.0 in
  rm_rf ckpt_dir;
  let tuples spec = Layers.tuples ((inp.resolver spec).r_sources ()) in
  let submitted = submitted inp.script in
  let all_tuples = List.fold_left (fun a s -> a + tuples s) 0 submitted in
  match outcome with
  | Error e ->
    Printf.printf "# serve raised %s\n" (Printexc.to_string e);
    let n = List.length submitted in
    ( pass_of ~costs:[ cost ] ~tuples:all_tuples ~attempted:n ~failed:n
        ~identity:[ "error" ],
      [] )
  | Ok report ->
    let completed (qr : Server.query_report) =
      match qr.qr_outcome with
      | Server.Done { result; stats } -> Some (result, stats)
      | Server.Failed _ | Server.Cancelled | Server.Rejected _ -> None
    in
    let first_done =
      List.find_opt (fun qr -> Option.is_some (completed qr)) report.r_queries
    in
    let ok (qr : Server.query_report) =
      match qr.qr_outcome with
      | Server.Done { result; _ } ->
        let result =
          match first_done with
          | Some first when corrupt && first == qr -> drop_row result
          | _ -> result
        in
        approx_same_bag result (List.assoc qr.qr_spec oracle)
      | Server.Failed _ | Server.Cancelled | Server.Rejected _ -> false
    in
    let identity =
      List.map
        (fun (qr : Server.query_report) ->
          Printf.sprintf "%s %s finished=%h attempts=%d %s" qr.qr_id qr.qr_spec
            qr.qr_finished_s qr.qr_attempts
            (match qr.qr_outcome with
             | Server.Done { result; stats } ->
               corrective_identity stats ^ " " ^ bag_digest result
             | Server.Failed m -> "failed " ^ m
             | Server.Cancelled -> "cancelled"
             | Server.Rejected m -> "rejected " ^ m))
        report.r_queries
    in
    ( pass_of ~costs:[ cost ] ~tuples:all_tuples
        ~attempted:(List.length report.r_queries)
        ~failed:(List.length (List.filter (fun qr -> not (ok qr)) report.r_queries))
        ~identity,
      [ { report; trace = cfg.trace; cost; ckpt_files = List.length paths;
          ckpt_mb = mb; recovery } ] )

let layer_metrics inp runs =
  let distinct = List.sort_uniq compare (submitted inp.script) in
  let probes, _ =
    Layers.run
      (List.map
         (fun spec ->
           let r = inp.resolver spec in
           { Layers.name = spec; q = r.r_query; catalog = r.r_catalog;
             table = Tpch.table inp.ds; sources = r.r_sources;
             specs =
               [ ( "plan",
                   (Optimizer.optimize r.r_query r.r_catalog
                      (Adp_stats.Selectivity.create ()))
                     .spec ) ] })
         distinct)
  in
  match runs with
  | [] -> probes
  | r :: _ ->
    let done_stats =
      List.filter_map
        (fun qr ->
          match qr.Server.qr_outcome with
          | Server.Done { stats; _ } -> Some stats
          | _ -> None)
        r.report.r_queries
    in
    let over_done f = sum (List.map f done_stats) in
    let load, save = r.recovery in
    probes
    @ [ "ckpt_mb", r.ckpt_mb;
        "recovery.ckpt_files", float_of_int r.ckpt_files;
        "recovery.load_ms_per_mb", load;
        "recovery.save_ms_per_mb", save;
        "server.reclaims", float_of_int r.report.r_reclaims;
        "server.resumed_phases",
        over_done (fun st -> float_of_int st.Adp_core.Corrective.resumed_phases);
        "server.warm_signatures",
        sum
          (List.map
             (fun qr -> float_of_int qr.Server.qr_warm_signatures)
             r.report.r_queries);
        "optimizer.polls", float_of_int (polls r.trace);
        "optimizer.switches", float_of_int (switches r.trace);
        "cost_model.virtual_s",
        over_done (fun st -> st.Adp_core.Corrective.total_time) /. 1e6 ]
