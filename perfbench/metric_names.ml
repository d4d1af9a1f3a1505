(* Every metric the benchmark reports, with its unit, in print order.
   BENCHMARK.json lists the same names and units; the self-test checks
   that the two agree.  A workload reports 0 for a per-layer metric whose
   layer it does not exercise. *)

let end_to_end =
  [ "setup_s", "s";
    "wall_s", "s";
    "alloc_words_per_tuple", "words";
    "peak_heap_mb", "MB" ]

let cqp_runs =
  List.concat_map
    (fun q ->
      List.map
        (fun v -> Printf.sprintf "cost_model.virtual_s.%s.%s" q v, "s")
        [ "static-cards"; "static-pessimal"; "corrective-pessimal";
          "corrective-cards" ])
    [ "Q5"; "Q10A"; "Q3A" ]

let per_layer =
  [ "static_wall_s", "s";
    "corrective_wall_s", "s";
    "compjoin_wall_s", "s";
    "preagg_wall_s", "s";
    "ckpt_mb", "MB";
    "failed_frac", "ratio";
    "datagen.gen_s", "s";
    "source.ns_per_tuple", "ns";
    "source.words_per_tuple", "words";
    "driver.ns_per_tuple", "ns";
    "driver.words_per_tuple", "words";
    "filter.ns_per_tuple", "ns";
    "plan.push_ns_per_tuple", "ns";
    "plan.push_words_per_tuple", "words";
    "plan.hash_builds", "count";
    "plan.hash_probes", "count";
    "plan.join_out", "count";
    "plan.resident_tuples", "count";
    "sink.ns_per_tuple", "ns";
    "symjoin.ns_per_tuple", "ns";
    "compjoin.naive_ns_per_tuple", "ns";
    "compjoin.pq_ns_per_tuple", "ns";
    "compjoin.merge_share", "ratio";
    "compjoin.stitch_out", "count";
    "preagg.ns_per_tuple", "ns";
    "preagg.collapse_ratio", "ratio";
    "preagg.final_window", "count";
    "optimizer.optimize_us", "us";
    "optimizer.polls", "count";
    "optimizer.switches", "count";
    "optimizer.reopt_share", "ratio";
    "corrective.noswitch_ratio", "ratio";
    "corrective.adaptive_speedup", "ratio";
    "stitchup.wall_s", "s";
    "stitchup.virtual_s", "s";
    "stitchup.reused", "count";
    "stitchup.output", "count";
    "recovery.ckpt_files", "count";
    "recovery.save_ms_per_mb", "ms/MB";
    "recovery.load_ms_per_mb", "ms/MB";
    "server.reclaims", "count";
    "server.resumed_phases", "count";
    "server.warm_signatures", "count";
    "obs.trace_overhead", "ratio";
    "obs.profile_overhead", "ratio";
    "obs.wall_overhead", "ratio";
    "obs.traced_pass_overhead", "ratio";
    "cost_model.virtual_s", "s";
    "cost_model.rank_agreement", "ratio";
    "cost_model.stitchup_fidelity", "ratio" ]
  @ cqp_runs
