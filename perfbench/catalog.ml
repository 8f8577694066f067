(* Every metric the benchmark reports, with its unit.  BENCHMARK.json
   lists the same names; `cdbs_bench.exe --catalog` prints this table so
   the two can be compared. *)

type metric = { name : string; unit_ : string; better : string; bound : float option }

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Reported untraced, on every workload.  Each is nonzero everywhere. *)
let end_to_end =
  [
    m "setup_s" "s" "lower" ~bound:0.25;
    m "ops_per_s" "1/s" "higher" ~bound:0.25;
    m "peak_rss_mb" "MB" "lower" ~bound:0.2;
    m "scale" "ratio" "lower" ~bound:0.15;
    m "replication" "ratio" "lower" ~bound:0.15;
  ]

(* Reported by the traced run, on every workload; a layer the workload
   does not exercise reads 0. *)
let per_layer =
  [
    (* day: the whole simulated day *)
    m "events_per_s" "1/s" "higher";
    m "sim_p99_ms" "ms" "lower";
    m "simulator.events" "count" "lower";
    m "gc.minor_words_per_event" "words" "lower";
    m "gc.promoted_words_per_event" "words" "lower";
    (* day: the peak window replayed layer by layer *)
    m "workloads.gen_us_per_req" "us" "lower";
    m "workloads.gen_words_per_req" "words" "lower";
    m "simulator.us_per_req" "us" "lower";
    m "simulator.words_per_req" "words" "lower";
    m "resilience.us_per_req" "us" "lower";
    m "resilience.words_per_req" "words" "lower";
    m "telemetry.us_per_req" "us" "lower";
    m "telemetry.words_per_req" "words" "lower";
    m "monitor.us_per_event" "us" "lower";
    m "monitor.words_per_event" "words" "lower";
    m "scheduler.best_read_target_ns" "ns" "lower";
    m "cost_model.service_time_ns" "ns" "lower";
    m "histogram.record_ns" "ns" "lower";
    m "slo_report.of_histogram_us" "us" "lower";
    m "ksafety.allocate_ms" "ms" "lower";
    m "planner.make_ms" "ms" "lower";
    (* alloc-scale and alloc-evolve *)
    m "place_s" "s" "lower";
    m "improve_s" "s" "lower";
    m "repair_s" "s" "lower";
    m "moved_frac" "ratio" "lower";
    m "dense.synthetic_s" "s" "lower";
    m "dense.greedy_words_per_frag" "words" "lower";
    m "dense.copy_ms" "ms" "lower";
    m "dense.copy_words" "words" "lower";
    m "dense.mutate_us" "us" "lower";
    m "dense.mutate_words" "words" "lower";
    m "dense.cost_us" "us" "lower";
    m "incremental.deltas" "count" "lower";
    m "incremental.moved_fragments" "count" "lower";
    m "incremental.rebalance_fragments" "count" "lower";
    m "incremental.repair_words" "words" "lower";
    m "incremental.repair_over_place" "ratio" "lower";
    m "memetic_par.offspring" "count" "lower";
    m "memetic_par.scale_gain" "ratio" "higher";
    m "memetic_par.parallel_speedup" "ratio" "higher";
    m "pool.domains" "count" "higher";
    m "gc.promoted_words" "words" "lower";
    (* sql-tpch *)
    m "stmts_per_s" "1/s" "higher";
    m "read_p50_ms" "ms" "lower";
    m "read_p99_ms" "ms" "lower";
    m "write_p50_ms" "ms" "lower";
    m "write_p99_ms" "ms" "lower";
    m "datagen.populate_s" "s" "lower";
    m "classification.classify_ms" "ms" "lower";
    m "controller.reallocate_s" "s" "lower";
    m "parser.parse_us" "us" "lower";
    m "analyze.footprint_us" "us" "lower";
    m "executor.read_p50_ms" "ms" "lower";
    m "executor.read_p99_ms" "ms" "lower";
    m "executor.write_ms" "ms" "lower";
    m "table_stats.collect_ms" "ms" "lower";
    m "controller.overhead_us" "us" "lower";
    m "controller.rowa_fanout" "ratio" "lower";
    m "gc.words_per_stmt" "words" "lower";
    (* every workload *)
    m "gc.major_collections" "count" "lower";
    m "trace.overhead_frac" "ratio" "lower";
  ]
