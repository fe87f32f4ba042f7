(** Lightweight observability for the compile pipeline.

    Each kind of fact has one home.  Wall-clock {e spans} and monotonic
    {e counters} are collected into a {!Profile.t}; per-event values
    (min-cut sizes, latencies) are {!Metrics} histograms, constant space
    however long the run; {!Trace} and {!Log} are bounded flight
    recorders.  Everything serialises as JSON with no external
    dependencies, and every timeline exports to one Chrome trace-event
    dialect.  The compiler driver installs a profile as the ambient
    collector for the dynamic extent of one compile ({!with_profile});
    instrumentation sites deep in the pipeline (min-cut engine, planners)
    record through the module-level conveniences, which are no-ops when
    no collector is installed, so uninstrumented callers pay only an
    option check. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialisation.  Floats use the shortest representation that
      round-trips; non-finite floats become [null]. *)

  val pp : Format.formatter -> t -> unit

  val of_string : string -> (t, string) result
  (** Strict parser for the serialisation above (standard JSON; [\uXXXX]
      escapes decode to UTF-8). *)

  val member : string -> t -> t option
  (** [member key (Obj fields)] looks up [key]; [None] on non-objects. *)
end

module Timer : sig
  type t

  val start : unit -> t
  val elapsed_ms : t -> float
end

module Profile : sig
  type span = { name : string; depth : int; start_ms : float; dur_ms : float }
  (** A completed timed section.  [start_ms] is relative to profile
      creation; [depth] is the nesting depth at entry (0 = top level). *)

  type t

  val create : unit -> t

  val span : t -> string -> (unit -> 'a) -> 'a
  (** Time [f], recording a span even when [f] raises.  Nests. *)

  val incr : ?by:int -> t -> string -> unit
  val counter : t -> string -> int
  (** Current value of a counter; 0 when never incremented. *)

  val spans : t -> span list
  (** Completed spans in chronological (start time) order. *)

  val counters : t -> (string * int) list
  (** All counters, sorted by name. *)

  val to_json : t -> Json.t
  (** [{"spans": [{name, depth, start_ms, dur_ms}], "counters": {name: int}}] *)

  val pp : Format.formatter -> t -> unit
  (** Top-level phase durations and counters, one per line. *)
end

(** Runtime execution tracing — a ring-buffered flight recorder of per-op
    CKKS events on a {e simulated} timeline.

    The simulated evaluator ({!Ckks.Evaluator}) records the scheme-state
    facts of every Table 1 operation (level, scale, size, noise
    before/after); the DFG interpreter supplies attribution (node id,
    region id, loop frequency, freq-weighted Table 2 cost) through a
    mutable {!Trace.ctx} installed before each node executes.  The clock
    advances by each op's cost, so exported traces show where the modelled
    latency goes.  When the buffer wraps, the oldest events are dropped —
    the tail of a crashing run (e.g. the Figure 1a [Fhe_error]) always
    survives. *)
module Trace : sig
  type op_event = {
    seq : int;  (** Global event sequence number (0-based). *)
    op : string;  (** Evaluator operation, e.g. ["mul_cc"]. *)
    node : int;  (** DFG node id, [-1] outside an interpreter run. *)
    region : int;  (** Region id, [-1] when unattributed. *)
    freq : int;  (** Loop frequency charged for the node. *)
    level : int;  (** Result level. *)
    scale_bits : int;  (** Result scale, bits. *)
    size : int;  (** Result ciphertext size (3 before relin). *)
    noise_before : float;  (** Worst operand noise (absolute RMS). *)
    noise_after : float;  (** Result noise (absolute RMS). *)
    start_ms : float;  (** Simulated start time. *)
    dur_ms : float;  (** Freq-weighted simulated cost. *)
  }

  type instant = {
    iseq : int;
    iname : string;  (** ["rescale"], ["modswitch"], ["bootstrap"], ["fhe_error"]. *)
    inode : int;
    iregion : int;
    its_ms : float;
    detail : (string * Json.t) list;
  }

  type event = Op of op_event | Instant of instant

  type ctx = { node : int; region : int; freq : int; cost_ms : float }
  (** Attribution installed by the interpreter for the node being executed.
      [cost_ms] (freq-weighted {!Fhe_ir.Latency.node_cost}) overrides the
      evaluator's own per-op cost estimate. *)

  type t

  val create : ?capacity:int -> unit -> t
  (** Ring buffer of [capacity] events (default 65536); older events are
      overwritten once full. *)

  val set_ctx : t -> ctx option -> unit

  val record :
    t ->
    op:string ->
    ?cost_ms:float ->
    ?noise_before:float ->
    level:int ->
    scale_bits:int ->
    size:int ->
    noise:float ->
    unit ->
    unit
  (** Record one op event and advance the simulated clock.  [cost_ms] is
      used only when no {!ctx} is installed. *)

  val instant : t -> name:string -> ?node:int -> ?detail:(string * Json.t) list -> unit -> unit
  (** Record an instant marker at the current clock; [node] defaults to the
      ambient {!ctx}'s node. *)

  val events : t -> event list
  (** Surviving events, chronological. *)

  val op_events : t -> op_event list

  val recorded : t -> int
  (** Total events ever recorded, including overwritten ones. *)

  val dropped : t -> int
  (** Events lost to ring-buffer wrap-around. *)

  val clock_ms : t -> float
  (** Current simulated time — equals the accumulated cost of all recorded
      ops. *)

  val advance_clock : t -> float -> unit
  (** Move the simulated clock forward by [ms] without recording an event
      — recovery charges retry backoff this way so subsequent events land
      at the right simulated time. *)

  val headroom_bits : float -> float
  (** [-log2 err] clamped to [[0, 200]]: bits of precision left before the
      absolute error reaches magnitude 1. *)

  val chrome_events : ?pid:int -> ?name:string -> t -> Json.t list
  (** Chrome trace-event objects (Perfetto-loadable): ops as ["X"] duration
      events on per-region threads, [noise_headroom_bits] / [level] /
      [scale_bits] counter tracks, instants as ["i"] markers, plus
      process/thread metadata.  Wrap with {!chrome_trace}. *)

  val event_to_json : event -> Json.t

  val to_jsonl : t -> string list
  (** One compact JSON object per event, chronological. *)
end

(** Multi-trial measurement statistics.  Wall-clock timings are noisy;
    everything here is deterministic given the input sample and the seed
    (the bootstrap confidence interval uses its own splitmix64 stream), so
    two runs over the same data produce identical summaries. *)
module Stat : sig
  val median : float list -> float
  (** Midpoint-averaged median; [nan] on the empty list. *)

  val mean : float list -> float

  val mad : ?center:float -> float list -> float
  (** Median absolute deviation around [center] (default: the median).
      Unscaled — a tolerance band, not a sigma estimate. *)

  type summary = {
    trials : int;  (** Retained measurements (excludes warmup). *)
    warmup : int;  (** Discarded leading runs. *)
    mean : float;
    median : float;
    mad : float;
    min : float;
    max : float;
    ci95 : float * float;  (** Seeded percentile-bootstrap 95% CI of the median. *)
    values : float list;  (** The retained measurements, in run order. *)
  }

  val summarise : ?seed:int -> ?resamples:int -> ?warmup:int -> float list -> summary
  (** Summarise an existing sample.  [resamples] (default 200) bootstrap
      rounds seeded by [seed] (default 0x5EED); [warmup] is recorded in the
      summary but no values are dropped. *)

  val sample :
    ?warmup:int -> ?seed:int -> ?resamples:int -> trials:int -> (unit -> float) -> summary
  (** Run [f] [warmup] (default 1) + [trials] times and summarise the
      values it returns (e.g. a compile's self-reported wall time).
      Warmup runs are discarded.  Raises [Invalid_argument] when
      [trials < 1]. *)

  val time :
    ?warmup:int -> ?seed:int -> ?resamples:int -> trials:int -> (unit -> unit) -> summary
  (** Like {!sample} but measures each call of [f] with {!Timer}. *)

  val to_json : summary -> Json.t
  val of_json : Json.t -> (summary, string) result
end

(** Leveled structured logging — a ring-buffered flight recorder of log
    records, the narrative companion to {!Trace}'s op events.

    Records carry automatic context (compile id, pass, region, node,
    emitting domain) filled in by the ambient helpers ({!with_log},
    {!with_log_ctx}, {!log_info} …), free-form structured fields, and a
    simulated-clock stamp when a trace was ambient at emission time — so
    a record emitted mid-execution lands as an instant on the execution
    timeline, correlated with the op spans around it.  The sink is
    mutex-protected, so domains can share it the same way they share the
    metrics registry. *)
module Log : sig
  type level = Debug | Info | Warn | Error

  val level_name : level -> string
  (** ["debug"], ["info"], ["warn"], ["error"]. *)

  val level_of_name : string -> level option

  type record = {
    lseq : int;  (** Global record sequence number (0-based). *)
    level : level;
    event : string;  (** Stable machine-readable id, e.g. ["plan_cache.hit"]. *)
    msg : string;  (** Human-readable text; [""] when absent. *)
    ts_ms : float;  (** Host wall clock, relative to sink creation. *)
    sim_ms : float option;  (** Simulated trace clock at emission, if traced. *)
    compile_id : int;  (** [-1] outside any compile. *)
    pass : string;  (** [""] when no pass context. *)
    region : int;  (** [-1] when unattributed. *)
    node : int;  (** [-1] when unattributed. *)
    domain : int;  (** Emitting domain id. *)
    fields : (string * Json.t) list;  (** Free-form structured payload. *)
  }

  type t

  val create : ?capacity:int -> ?min_level:level -> unit -> t
  (** Ring buffer of [capacity] records (default 8192); older records are
      overwritten once full.  Records below [min_level] (default
      {!Debug}) are counted in {!filtered} and not stored.  Raises
      [Invalid_argument] when [capacity < 1]. *)

  val record :
    t ->
    level:level ->
    event:string ->
    ?msg:string ->
    ?sim_ms:float ->
    ?compile_id:int ->
    ?pass:string ->
    ?region:int ->
    ?node:int ->
    ?fields:(string * Json.t) list ->
    unit ->
    unit
  (** Append one record.  Thread-safe; prefer the ambient {!log_info} /
      {!log_warn} helpers, which attach context automatically. *)

  val records : t -> record list
  (** Surviving records, chronological. *)

  val recorded : t -> int
  (** Total records ever kept, including overwritten ones. *)

  val dropped : t -> int
  (** Records lost to ring-buffer wrap-around. *)

  val filtered : t -> int
  (** Records rejected below [min_level]. *)

  val record_to_json : record -> Json.t
  val record_of_json : Json.t -> (record, string) result

  val to_jsonl : t -> string list
  (** One compact JSON object per surviving record, chronological.
      Round-trips exactly through {!of_jsonl}. *)

  val of_jsonl : string list -> (record list, string) result
  (** Parse JSONL lines (blank lines skipped). *)

  val chrome_events : ?compile_pid:int -> ?exec_pid:int -> record list -> Json.t list
  (** Records as Perfetto ["i"] instants: a record with [sim_ms] lands on
      the execution process (default pid 1) at its simulated time on its
      region's thread; one without lands on the compile process (default
      pid 0) at its host timestamp.  Wrap with {!chrome_trace}. *)
end

(** Runtime telemetry: GC pressure deltas around a computation, and
    per-worker accounting for domain pools, exported as one Perfetto
    track per worker domain.  The planner is sequential and records no
    pools; the records stay for callers that run their own pools. *)
module Rt : sig
  type gc_delta = {
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    top_heap_words : int;  (** Absolute peak, not a delta. *)
  }

  val gc_sample : (unit -> 'a) -> 'a * gc_delta
  (** Run [f] between two [Gc.quick_stat] snapshots. *)

  type task_span = {
    t_index : int;  (** Task index within the pool run. *)
    t_start_ms : float;  (** Relative to pool start. *)
    t_dur_ms : float;
  }

  type worker = {
    w_id : int;  (** Slot in the pool, 0-based. *)
    w_domain : int;  (** OCaml domain id the worker ran on. *)
    w_tasks : int;
    w_busy_ms : float;
    w_idle_ms : float;  (** Pool wall time not spent inside tasks. *)
    w_queue_wait_ms : float;  (** Spawn-to-first-task latency. *)
    w_spans : task_span list;
  }

  type pool = {
    p_seq : int;
    p_label : string;
    p_jobs : int;
    p_tasks : int;
    p_start_ms : float;  (** Relative to collector creation. *)
    p_wall_ms : float;
    p_workers : worker list;
  }

  type t

  val create : unit -> t

  val now_ms : t -> float
  (** Milliseconds since collector creation. *)

  val record_pool :
    t -> label:string -> jobs:int -> tasks:int -> wall_ms:float -> worker list -> unit
  (** Append one completed pool run, after its workers have joined.
      Thread-safe. *)

  val pools : t -> pool list
  (** Recorded pool runs, in completion order. *)

  val to_json : t -> Json.t

  val chrome_events : ?pid:int -> ?name:string -> t -> Json.t list
  (** One Perfetto thread per (pool, worker) on its own process (default
      pid 2), task spans as ["X"] events — gaps show idle workers.  [[]]
      when no pools were recorded.  Wrap with {!chrome_trace}. *)
end

(** Aggregate metrics: a registry of counters, gauges and log-bucketed
    histograms with quantile estimation, exposable as Prometheus text or
    JSON.  Histograms are constant space — log2-spaced buckets with
    half-step resolution covering ~1e-6 .. ~5e11 — and quantiles are
    interpolated inside the covering bucket, clamped to the exact observed
    min/max. *)
module Metrics : sig
  type labels = (string * string) list
  (** Label order is irrelevant; keys are canonicalised by sorting. *)

  type t

  val create : unit -> t
  val incr : ?by:int -> ?labels:labels -> t -> string -> unit
  val set : ?labels:labels -> t -> string -> float -> unit
  (** Gauge assignment. *)

  val observe : ?labels:labels -> t -> string -> float -> unit
  (** Record one histogram observation. *)

  val counter_value : ?labels:labels -> t -> string -> int
  (** 0 when never incremented. *)

  val gauge : ?labels:labels -> t -> string -> float option

  type hstats = {
    hcount : int;
    hsum : float;
    hmin : float;
    hmax : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  val histogram : ?labels:labels -> t -> string -> hstats option
  (** Summary of one histogram; quantiles are [nan] when empty. *)

  val quantile : ?labels:labels -> t -> string -> float -> float option
  (** [quantile t name q] estimates the [q]-quantile ([0..1]); [None] for
      an unknown or empty histogram. *)

  val of_trace : ?into:t -> Trace.t -> t
  (** Fold a flight-recorded trace into per-op-kind and per-region latency
      and noise-headroom distributions ([trace_ops_total{op}],
      [op_latency_ms{op}], [region_latency_ms{region}],
      [noise_headroom_bits{op}], [trace_instants_total{kind}], plus
      [trace_clock_ms] / [trace_dropped_events] gauges). *)

  val of_profile : ?into:t -> Profile.t -> t
  (** Fold a compile profile: top-level phases into
      [compile_phase_ms{phase}], pipeline counters into
      [pipeline_events_total{counter}]. *)

  val all_counters : t -> (string * labels * int) list
  (** Every counter as (name, labels, value), sorted. *)

  val all_gauges : t -> (string * labels * float) list
  val all_histograms : t -> (string * labels * hstats) list

  val to_json : t -> Json.t
  (** Deterministically ordered; histogram entries carry count/sum/min/max,
      p50/p90/p99 and the non-empty cumulative buckets as [[le, count]]. *)

  val of_json : Json.t -> (t, string) result
  (** Rebuild a registry from its {!to_json} form — bucket indices are
      recovered from the serialised bounds, so
      [to_json (of_json (to_json m))] equals [to_json m].  Missing
      sections are tolerated (they load as empty). *)

  val to_prometheus : ?namespace:string -> t -> string
  (** Prometheus text exposition (default namespace ["resbm"]); metric and
      label names are sanitised, histograms expose [_bucket]/[_sum]/[_count]
      series with cumulative [le] labels ending at [+Inf]. *)
end

(** Generic explanation rendering: hierarchical cost waterfalls with
    deterministic top-k folding, a structural JSON diff, and a Perfetto
    overlay for diffs.  Pure presentation — the graph-aware producers
    (cost attribution, bootstrap rationale, plan digests) live in
    [Resbm.Explain] and feed this module, so any subsystem can reuse the
    same rendering. *)
module Explain : sig
  (** One attributed cost: a leaf at [group] / [bucket] / [label] in the
      hierarchy (e.g. region / op-kind / node). *)
  type row = { group : string; bucket : string; label : string; cost : float }

  type leaf = { leaf_label : string; leaf_cost : float }

  type bucket = {
    bucket_label : string;
    bucket_cost : float;
    bucket_count : int;
    leaves : leaf list;  (** Top-k leaves by cost. *)
    folded : int;  (** Leaves beyond the top-k, kept as a count... *)
    folded_cost : float;  (** ...and their summed cost, so nothing is dropped. *)
  }

  type group = {
    group_label : string;
    group_cost : float;
    group_count : int;
    buckets : bucket list;
  }

  type waterfall = {
    total : float;  (** The reference total costs are shown as a percent of. *)
    groups : group list;
    shares : (string * float) list;  (** Named headline shares (absolute). *)
  }

  val waterfall :
    ?top:int -> ?shares:(string * float) list -> total:float -> row list -> waterfall
  (** Deterministic fold of rows into a waterfall: groups, buckets and
      leaves ordered by descending cost (label as tie-break), the top
      [top] (default 5) leaves of each bucket kept individually and the
      rest folded into an explicit remainder — the waterfall always sums
      to the full attributed cost. *)

  val attributed : waterfall -> float
  (** Sum of all group costs (equals the sum over every leaf + remainder). *)

  val pp : ?title:string -> Format.formatter -> waterfall -> unit
  val to_json : waterfall -> Json.t

  (** One structural difference between two JSON documents. *)
  type change = {
    path : string list;
    before : Json.t option;  (** [None] = added in the candidate. *)
    after : Json.t option;  (** [None] = removed from the base. *)
  }

  val json_equal : Json.t -> Json.t -> bool
  (** Structural equality; [Int]/[Float] compare numerically, NaN equals
      NaN, object key order is irrelevant. *)

  val diff_json : Json.t -> Json.t -> change list
  (** Structural diff: objects align by key (order-insensitive), lists of
      equal length by index, everything else by {!json_equal}.  Empty iff
      the documents are structurally equal. *)

  val path_to_string : string list -> string
  val change_to_json : change -> Json.t
  val pp_change : Format.formatter -> change -> unit

  val perfetto_overlay : ?pid:int -> change list -> Json.t
  (** A Chrome/Perfetto trace with one instant event per change, loadable
      on top of an execution timeline (default pid 99 keeps the overlay on
      its own track). *)
end

(** Baseline regression gating over two bench JSON files: align rows by
    (model, manager), compare deterministic metrics exactly and wall-clock
    compile times within a MAD-derived noise band. *)
module Bench_diff : sig
  val schema_version : int
  (** The bench-file schema this build reads and writes. *)

  type row = {
    model : string;
    manager : string;
    metrics : (string * float) list;  (** Deterministic metric cells. *)
    compile : Stat.summary option;  (** Multi-trial wall-clock compile stats. *)
    warm : Stat.summary option;
        (** Warm (plan-cache hit) compile stats, when the bench recorded
            them ([compile_warm_stat]). *)
    digest : Json.t option;
        (** Structural plan digest ([plan_digest] cell field), when the
            bench recorded one.  Renumbering-stable (see [Resbm.Explain]);
            optional on both sides so old baselines diff cleanly. *)
  }

  type source = {
    version : int;
    git_rev : string;
    trials : int;
    l_max : int;
    rows : row list;
  }

  type verdict = Unchanged | Improved | Regressed | Within_noise | Incomparable

  val verdict_to_string : verdict -> string

  type cell = {
    cmodel : string;
    cmanager : string;
    metric : string;
    base : float;
    cand : float;
    wall_clock : bool;
    informational : bool;
        (** Reported but never gated (the {!informational_metrics} GC
            cells). *)
    tolerance : float;  (** 0 for exact comparisons. *)
    verdict : verdict;
  }

  type outcome = {
    cells : cell list;
    missing : (string * string) list;  (** Rows in base absent from candidate. *)
    added : (string * string) list;  (** Rows in candidate absent from base. *)
    plan_drift : ((string * string) * Explain.change list) list;
        (** Per (model, manager): structural plan-digest changes, computed
            when both sides carry a digest.  The plan-level explanation
            that accompanies a gated metric regression; non-empty drift
            fails the [`Changed] gate like any deterministic change. *)
  }

  val deterministic_metrics : (string * [ `Lower | `Higher ]) list
  (** The compared metrics and which direction counts as an improvement. *)

  val informational_metrics : string list
  (** GC cells sampled by the bench harness ([gc_minor_words],
      [gc_major_words], [gc_top_heap_words]): diffed when both sides
      carry them (missing on either side yields no cell, so old
      baselines diff cleanly), reported with [informational = true], and
      excluded from every gate. *)

  val load : string -> (source, string) result
  (** Parse a bench file's contents.  Refuses unversioned files, wrong
      [schema_version]s, and files that are not resbm bench output, each
      with a distinct diagnostic. *)

  val diff :
    ?noise_mult:float ->
    ?min_tolerance_ms:float ->
    ?warm_speedup_min:float ->
    base:source ->
    cand:source ->
    unit ->
    (outcome, string) result
  (** Compare candidate against base.  Deterministic metrics compare
      exactly (NaN on both sides is unchanged; NaN on one side is
      incomparable); compile medians — cold ([compile_ms]) and warm
      ([compile_warm_ms]) — compare within
      [max (noise_mult * (mad_base + mad_cand)) min_tolerance_ms]
      (defaults 4.0 and 0.5 ms).  When both candidate summaries exist, a
      non-wall-clock [warm_speedup] cell gates the plan-cache contract:
      the candidate's cold/warm median ratio must reach
      [warm_speedup_min] (default 5.0) or the cell is [Regressed].
      [Error] when the files' [l_max] differ. *)

  val deterministic_changes : outcome -> cell list
  val regressions : ?strict_wallclock:bool -> outcome -> cell list

  val exit_code :
    ?fail_on:[ `Changed | `Regressed | `Never ] -> ?strict_wallclock:bool -> outcome -> int
  (** 0 = pass, 2 = gate failure.  [`Changed] (default) fails on any
      deterministic drift — improvements included, since they invalidate
      the committed baseline — and on misaligned rows; [`Regressed] only on
      regressions/incomparable cells and misaligned rows.  Wall-clock cells
      participate only with [strict_wallclock]. *)

  val cell_to_json : cell -> Json.t
  val outcome_to_json : outcome -> Json.t

  val pp_outcome : ?all:bool -> Format.formatter -> outcome -> unit
  (** Changed cells (all cells with [all]) plus a one-line summary. *)
end

(** Rule-based health evaluation over a finished run's metrics registry
    and log records.  Each rule compares one aggregate against a
    threshold; the verdict is healthy iff no rule fails.  Rules whose
    signals the run did not produce (no traced execution, no chaos
    campaign, no GC telemetry) report [applicable = false] and pass
    vacuously, so one evaluator serves compile, trace and chaos flights
    alike.  Surfaced by the [resbm health] subcommand. *)
module Health : sig
  type severity = Pass | Warn | Fail

  val severity_name : severity -> string

  type thresholds = {
    headroom_floor_bits : float;
        (** Minimum traced noise headroom (default 4.0 bits). *)
    recovery_rate_floor : float;
        (** Minimum recovered/faulted chaos-trial ratio (default 0.9). *)
    slo_attainment_floor : float;
        (** Minimum completed/admitted serving-request ratio — requests
            finished within their deadline over requests admitted — read
            from the [serve_completed_total] / [serve_admitted_total]
            counters a serving campaign folds into the registry (default
            0.95; vacuous when nothing was admitted). *)
    max_fallbacks : int;  (** Planner tier fallbacks allowed (default 0). *)
    max_refutations : int;
        (** Certificate / plan-cache refutations allowed (default 0). *)
    gc_major_words_ceiling : float;
        (** Major-heap words promoted across all phases (default 2e9). *)
  }

  val default_thresholds : thresholds

  type check = {
    rule : string;
    severity : severity;
    applicable : bool;
    value : float;  (** NaN when not applicable. *)
    threshold : float;
    detail : string;
  }

  type verdict = { healthy : bool; checks : check list }

  val evaluate :
    ?thresholds:thresholds ->
    ?records:Log.record list ->
    ?bench:Bench_diff.source * Bench_diff.source ->
    Metrics.t ->
    verdict
  (** Run every rule.  [records] feed the refutation and error-log rules;
      [bench] (base, candidate) adds a wall-clock band rule reusing
      {!Bench_diff.diff}.  [Warn]-severity findings (error-level logs,
      ring overflow) never flip the verdict to unhealthy. *)

  val exit_code : verdict -> int
  (** 0 = healthy, 2 = unhealthy. *)

  val check_to_json : check -> Json.t
  val to_json : verdict -> Json.t

  val pp : Format.formatter -> verdict -> unit
  (** One line per check plus the verdict. *)
end

val profile_chrome_events : ?pid:int -> ?name:string -> Profile.t -> Json.t list
(** Compile-pipeline spans in the same Chrome trace-event dialect, so
    compile (one pid) and execution (another) land in one Perfetto
    timeline. *)

val chrome_trace : Json.t list -> Json.t
(** Wrap event objects as [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val with_profile : Profile.t -> (unit -> 'a) -> 'a
(** Install [p] as the ambient profile for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val current : unit -> Profile.t option

val incr : ?by:int -> string -> unit
(** Increment a counter on the ambient profile; no-op when none. *)

val span : string -> (unit -> 'a) -> 'a
(** Time [f] as a span on the ambient profile; just runs [f] when none. *)

val with_trace : Trace.t -> (unit -> 'a) -> 'a
(** Install [tr] as the ambient trace for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val current_trace : unit -> Trace.t option
(** The ambient trace, if any.  Instrumentation sites match on this so the
    trace-off path pays exactly one option check and allocates nothing. *)

val trace_instant :
  name:string -> ?node:int -> ?detail:(string * Json.t) list -> unit -> unit
(** Record an instant on the ambient trace; no-op when none. *)

val with_metrics : Metrics.t -> (unit -> 'a) -> 'a
(** Install [m] as the ambient metrics registry for the extent of the
    callback (restoring the previous one after, also on exceptions).
    Driver and evaluator hot paths publish into it through the
    conveniences below, which cost one option check when none is
    installed. *)

val current_metrics : unit -> Metrics.t option

val metric_incr : ?by:int -> ?labels:Metrics.labels -> string -> unit
(** Increment a counter on the ambient registry; no-op when none. *)

val metric_observe : ?labels:Metrics.labels -> string -> float -> unit
(** Record a histogram observation on the ambient registry; no-op when none. *)

val metric_set : ?labels:Metrics.labels -> string -> float -> unit
(** Set a gauge on the ambient registry; no-op when none. *)

val with_log : Log.t -> (unit -> 'a) -> 'a
(** Install [sink] as the ambient log sink for the extent of the callback
    (restoring the previous one after, also on exceptions). *)

val current_log : unit -> Log.t option

val with_log_ctx :
  ?compile_id:int -> ?pass:string -> ?region:int -> ?node:int -> (unit -> 'a) -> 'a
(** Attach context to every record emitted inside the callback.  Fields
    merge with the enclosing context (entering a pass keeps the compile
    id); when no sink is installed the callback runs directly and the
    context is never even read. *)

val log :
  level:Log.level ->
  event:string ->
  ?msg:string ->
  ?fields:(string * Json.t) list ->
  unit ->
  unit
(** Emit one record on the ambient sink with the ambient context and — if
    a trace is also ambient — the current simulated clock; no-op when no
    sink is installed. *)

val log_debug : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_info : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_warn : event:string -> ?fields:(string * Json.t) list -> string -> unit
val log_error : event:string -> ?fields:(string * Json.t) list -> string -> unit
(** [log_error ~event msg] = [log ~level:Error ~event ~msg ()]. *)

val with_rt : Rt.t -> (unit -> 'a) -> 'a
(** Install [rt] as the ambient runtime-telemetry collector for the
    extent of the callback. *)

val current_rt : unit -> Rt.t option

val gc_span : string -> (unit -> 'a) -> 'a
(** {!span}, plus — when a metrics registry is ambient — the phase's GC
    pressure published as [gc_minor_words{phase}] / [gc_major_words{phase}]
    observations, [gc_minor_collections_total{phase}] /
    [gc_major_collections_total{phase}] counters and a [gc_top_heap_words]
    gauge.  The deltas go to Metrics only, never to the Profile, so
    compile reports stay bit-identical with telemetry off or on. *)
