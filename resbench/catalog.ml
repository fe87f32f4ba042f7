(* The metrics the benchmark reports: name, unit, and which direction is
   better.  BENCHMARK.json lists the same names; the self-tests check that
   the two agree.  Units prefixed [sim_] are on the simulated clock (the
   Table 2 cost model) and repeat exactly for a seed. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Measured with tracing off, on every workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "peak_rss_mb" "MB" Lower;
    m "success_rate" "ratio" Higher;
    m "job_p50_ms" "ms" Lower;
    m "job_p80_ms" "ms" Lower;
    m "jobs_per_s" "1/s" Higher;
    m "plan_latency_geomean_s" "sim_s" Lower;
    m "precision_bits_min" "bits" Higher;
  ]

(* Measured in the traced run; a layer a workload does not exercise reads 0. *)
let per_layer =
  [
    m "compile.span_ms" "ms" Lower;
    m "region.build_ms" "ms" Lower;
    m "region.count" "count" Lower;
    m "btsmgr.plan_ms" "ms" Lower;
    m "btsmgr.segment_evals" "count" Lower;
    m "btsmgr.candidates" "count" Lower;
    m "scalemgr.plans" "count" Lower;
    m "region_eval.computes" "count" Lower;
    m "region_eval.computes_per_region" "ratio" Lower;
    m "smoplc.cuts" "count" Lower;
    m "btsplc.cuts" "count" Lower;
    m "smoplc.call_us" "us" Lower;
    m "btsplc.call_us" "us" Lower;
    m "mincut.est_ms" "ms" Lower;
    m "maxflow.runs" "count" Lower;
    m "maxflow.bfs_phases" "count" Lower;
    m "maxflow.aug_paths" "count" Lower;
    m "maxflow.solve_us" "us" Lower;
    m "maxflow.est_share" "ratio" Lower;
    m "par.tasks" "count" Lower;
    m "par.busy_ms" "ms" Lower;
    m "par.idle_ms" "ms" Lower;
    m "par.queue_wait_ms" "ms" Lower;
    m "par.utilisation" "ratio" Higher;
    m "par.compile_j2_ms" "ms" Lower;
    m "plan.apply_ms" "ms" Lower;
    m "plan.repair_bootstraps" "count" Lower;
    m "certify.ms" "ms" Lower;
    m "certify.certificates" "count" Lower;
    m "driver.other_ms" "ms" Lower;
    m "plan_cache.hit_ms" "ms" Lower;
    m "plan_cache.hits" "count" Higher;
    m "plan_cache.misses" "count" Lower;
    m "interp.run_ms" "ms" Lower;
    m "evaluator.ops" "count" Lower;
    m "evaluator.ops_per_s" "1/s" Higher;
    m "recovery.run_ms" "ms" Lower;
    m "recovery.overhead_ratio" "ratio" Lower;
    m "recovery.retries" "count" Lower;
    m "recovery.checkpoints" "count" Lower;
    m "recovery.panic_refreshes" "count" Lower;
    m "faults.injected" "count" Lower;
    m "scheduler.batches" "count" Lower;
    m "scheduler.batch_retries" "count" Lower;
    m "batcher.mean_fill" "ratio" Higher;
    m "scheduler.shed_ratio" "ratio" Lower;
    m "serve.wall_ms_per_kreq" "ms" Lower;
    m "serve.goodput_rps" "1/sim_s" Higher;
    m "serve.slo_attainment" "ratio" Higher;
    m "serve.service_p99_ms" "sim_ms" Lower;
    m "gc.minor_mwords_per_op" "Mwords" Lower;
    m "gc.major_collections_per_op" "count" Lower;
    m "trace.overhead_pct" "%" Lower;
  ]

let better_name = function Lower -> "lower" | Higher -> "higher"
