(** Deterministic simulated-clock request serving: arrivals, deadlines,
    admission control, slot-batched execution, retries, and a circuit
    breaker — the subsystem that turns one-shot inference into a service
    with an SLO.

    A campaign replays a seeded arrival trace (Poisson or recorded)
    through a bounded queue.  Each arrival is admitted or shed (breaker
    open, queue full, or predicted completion past its deadline); the
    {!Batcher} packs admitted requests into the unused CKKS slots of one
    inference, which executes under {!Resilience.Recovery} supervision —
    optionally with a per-dispatch {!Ckks.Fault} plan at [chaos_rate] —
    so mid-batch faults are rolled back and re-charged to the simulated
    clock.  A batch that still fails with a retryable error is retried
    with capped exponential backoff, shedding members whose deadlines
    cannot fit a clean re-execution; a bad recent window (faults or
    deadline misses) degrades the breaker from full batches to half-size
    batches to rejecting arrivals outright until a cooldown passes.

    Everything — arrivals, payloads, fault plans, evaluator noise,
    backoff — is deterministic in [seed] over the simulated clock, so a
    campaign report serialises byte-for-byte identically across runs.  Recovery latency is accounted {e per
    request}: each successful batch's recovery cost is split across its
    members (the per-request sum equals the batch total exactly), and
    every arrival terminates as completed, shed, or failed exactly
    once. *)

type arrival =
  | Poisson of float  (** Mean arrival rate, requests per second. *)
  | Replay of float list  (** Recorded arrival times (ms); unsorted ok. *)

type config = {
  seed : int64;  (** Master seed; every stream below is salted from it. *)
  model : string;  (** {!Nn.Model.by_name} name. *)
  l_max : int;  (** Scheme max level for compilation. *)
  dim : int;  (** Slots per request payload. *)
  arrival : arrival;
  duration_ms : float;  (** Arrival-window length (simulated). *)
  slo_ms : float;
      (** Per-request deadline after arrival; [<= 0] derives
          [3 * est_batch_ms] from the fault-free reference run. *)
  max_batch : int;  (** Requests per batch cap (also capped by slots). *)
  max_wait_ms : float;
      (** Batch fill wait bound; [<= 0] derives [slo / 4]. *)
  queue_depth : int;  (** Bounded queue: arrivals beyond it are shed. *)
  chaos_rate : float;  (** Per-op fault injection rate; 0 = no faults. *)
  chaos_budget : int;  (** Max injections per dispatch. *)
  recovery : Resilience.Recovery.config;
      (** Supervisor config for batch execution; its [max_backoff_ms]
          also caps the scheduler's own batch-retry backoff. *)
  max_retries : int;  (** Batch re-dispatches after a retryable failure. *)
  retry_backoff_ms : float;  (** Base batch-retry delay (doubles, capped). *)
  breaker_window : int;  (** Recent batches the breaker judges. *)
  breaker_threshold : float;
      (** Bad fraction of the window that trips the breaker a stage. *)
  breaker_cooldown_ms : float;  (** Open hold time; [<= 0] derives [2 * slo]. *)
}

val default : config
(** tiny model, l_max 9, dim 16, Poisson 40 rps for 1 s, derived SLO,
    max_batch 4, queue 16, no chaos, recovery defaults, 2 retries,
    breaker 6-window at 0.5. *)

type outcome =
  | Completed  (** Finished within its deadline. *)
  | Shed of string
      (** Never executed: ["breaker_open"], ["queue_full"],
          ["predicted_miss"], or ["retry_wont_fit"]. *)
  | Failed of string
      (** Executed but lost: ["deadline_missed"], or the structured
          error cause that exhausted its retries. *)

val outcome_name : outcome -> string

type request_report = {
  rid : int;
  arrival_ms : float;
  deadline_ms : float;
  outcome : outcome;
  completion_ms : float option;  (** Set iff a batch produced outputs. *)
  service_ms : float option;  (** [completion - arrival]. *)
  batch : int option;  (** Last batch that carried the request. *)
  attempts : int;  (** Dispatches the request rode (0 if shed unqueued). *)
  recovery_ms : float;
      (** This request's share of its batches' recovery latency; summing
          over a batch's members reproduces the batch total exactly. *)
}

type batch_report = {
  batch_id : int;
  formed_ms : float;
  size : int;
  attempt : int;  (** 1 for first dispatch, +1 per retry. *)
  members : int list;  (** Request ids, queue order. *)
  ok : bool;
  error : string option;
  exec_ms : float;  (** Simulated execution latency this attempt charged. *)
  injected_faults : int;
  retries : int;  (** In-batch supervisor rollbacks (not re-dispatches). *)
  panic_refreshes : int;
  recovery_ms_by_kind : (string * float) list;
  backoff_ms_total : float;
  capped_backoffs : int;
}

type report = {
  config_seed : int64;
  model : string;
  slot_capacity : int;  (** Requests one batch can pack. *)
  est_batch_ms : float;  (** Fault-free full-batch reference latency. *)
  slo_ms : float;  (** Resolved (possibly derived) SLO. *)
  max_wait_ms : float;  (** Resolved batch-fill wait. *)
  arrivals : int;
  admitted : int;
  completed : int;
  shed : int;
  failed : int;
  shed_by_reason : (string * int) list;  (** Sorted. *)
  failed_by_cause : (string * int) list;  (** Sorted. *)
  deadline_misses : int;
  goodput_rps : float;  (** Completed per second of campaign duration. *)
  slo_attainment : float;  (** completed / admitted; 1.0 when none. *)
  p50_service_ms : float;  (** Nearest-rank; [nan] with no completions. *)
  p99_service_ms : float;
  queue_depth_peak : int;
  batches_run : int;
  batch_retries : int;  (** Batches that were re-dispatches. *)
  mean_batch_fill : float;  (** Mean size/capacity; 1.0 with no batches. *)
  breaker_opens : int;
  recovery_ms_by_kind : (string * float) list;  (** Merged over batches. *)
  backoff_ms_total : float;
  capped_backoffs : int;
  requests : request_report list;  (** Every arrival, id order. *)
  batches : batch_report list;  (** Dispatch order. *)
}

val run : ?cache:Resbm.Plan_cache.t -> config -> report
(** Run a campaign.  [cache] feeds the planner
    ({!Resbm.Driver.compile_robust}), whose plans are bit-identical warm
    or cold — the report does not depend on it.  Metrics
    ([serve_*] counters, [service_latency_ms] / [serve_queue_depth] /
    [serve_batch_size] histograms, [serve_queue_depth_peak] gauge), log
    events ([serve.admit] / [serve.shed] / [serve.batch.formed] /
    [serve.deadline.missed] / [serve.breaker.open]) and trace instants
    go to the ambient {!Obs} collectors when installed; the report is
    computed from plain state, so it is identical either way.

    Invariants (asserted or test-enforced): every arrival terminates as
    completed, shed, or failed exactly once;
    [completed + failed + shed = arrivals]; the per-request recovery
    latency of a successful batch sums to that batch's recovery total.

    @raise Invalid_argument on an unknown model or degenerate config. *)

val to_json : report -> Obs.Json.t
(** Deterministic serialisation — byte-identical across runs with the
    same config (via {!Obs.Json.to_string}).  Batch and campaign levels
    carry ["recovery"] objects rendered through
    {!Resilience.Recovery.accounting_json}, the schema chaos reports
    share. *)
