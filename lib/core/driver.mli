(** The ReSBM compiler driver — Algorithm 1.

    [compile prm g] partitions the DFG of the FHE program [g] into regions
    ({!Region}), has {!Btsmgr} derive a rescaling and minimal-level
    bootstrapping plan with {!Scalemgr}, {!Smoplc} and {!Btsplc}, and
    applies the plan ({!Plan}), returning a managed graph that satisfies
    every RNS-CKKS scale and level constraint, plus a {!Report}.

    The input graph must contain no SMOs or bootstraps yet. *)

exception Verification_failed of string * Analysis.Diag.t list
(** Raised under [~verify_each:true] when a pass leaves the graph in an
    illegal state; carries the name of the offending pass
    ("region_build", "plan_apply" or "ms_opt") and the error-severity
    diagnostics that fired. *)

val certify_diags :
  Ckks.Params.t -> Fhe_ir.Dfg.t -> Report.t -> (string * Analysis.Diag.t list) list
(** Run the full certification battery on a compile result without
    raising: re-check every min-cut optimality certificate in
    {!Report.t.certificates} with {!Analysis.Certify} (group
    ["certify.cuts"]); check the managed graph against the strict Table 1
    rules with one {!Fhe_ir.Scale_check.analyse} pass, every violation an
    error under rule ["scale"] (["certify.levels"]); and run one
    {!Fhe_ir.Noise_check.analyse} over those scales (["certify.noise"]):
    a NaN estimate is an error (["absint-noise-nan"]), while ciphertexts
    that cannot be shown to fit the modulus chain (one summarising
    ["absint-noise-overflow"] warning) and outputs whose noise reaches
    their signal (["absint-precision"]) are warnings.  Returns the groups
    in that order; no error in any list means the plan is certified.
    Each group is timed as a [certify.*] span on the ambient profile. *)

val compile :
  ?config:Btsmgr.config ->
  ?name:string ->
  ?ms_opt:bool ->
  ?verify_each:bool ->
  ?certify:bool ->
  ?profile:Obs.Profile.t ->
  ?fuel:Fuel.t ->
  ?segment_scan:[ `Full | `Adjacent ] ->
  ?fallbacks:(string * string) list ->
  ?cache:Plan_cache.t ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** [ms_opt] (default false) runs {!Passes.Ms_opt} after legalisation —
    the modswitch optimisation the paper grants the max-level managers for
    lowering excessively bootstrapped ciphertexts; the number of hoists it
    performs lands in {!Report.t.ms_opt_hoists}.

    [certify] (default false) runs {!certify_diags} on the result —
    including warm {!Plan_cache} hits, whose stored certificates are
    re-checked before being served, and before a cold result is stored,
    so a refuted plan never persists — raising {!Verification_failed}
    with the failing group name (["certify.cuts"], ["certify.levels"] or
    ["certify.noise"]) on any error-severity refutation.

    [verify_each] (default false) runs the {!Analysis.Verify} invariant
    verifier after every pass — region build (structural and region
    invariants; the graph is not yet scale-legal there), plan application
    and [ms_opt] (full legality) — failing fast with
    {!Verification_failed} naming the offending pass instead of letting a
    planner bug surface as a confusing downstream failure or a silently
    wrong latency.  Each verification is timed as a [verify.<pass>] span
    (with per-rule [verify.<rule>] children) in the ambient profile.

    [fuel] and [segment_scan] are forwarded to {!Btsmgr.plan};
    [fallbacks] (default empty) is recorded verbatim in the report —
    {!compile_robust} uses both; plain callers leave them alone.

    Every phase (region build, plan, apply, ms_opt, latency, stats) is
    timed as a span, and the min-cut / planner counters are collected, in
    the ambient {!Obs} profile: a caller-supplied [?profile], or a fresh
    one otherwise.  Either way it is returned in {!Report.t.profile}.

    [cache] consults a {!Plan_cache} before planning and stores the
    result after: a hit returns a bit-identical plan and report (with
    [compile_ms] set to the lookup time, and [fallbacks] to this call's
    argument) without running any phase — including [verify_each] —
    while a miss plans against the cache's region-solution store
    ({!Plan_cache.memo}), the incremental tier: every region whose
    canonical shape an earlier compile already solved, such as the
    unchanged regions of an edited model, is not re-solved.
    @raise Btsmgr.No_plan when no feasible plan exists for [l_max].
    @raise Plan.Apply_error when plan materialisation fails.
    @raise Fuel.Exhausted when a caller-supplied step budget runs out.
    @raise Verification_failed under [~verify_each:true], see above. *)

(** One rung of a {!compile_robust} fallback chain. *)
type tier = {
  tier_name : string;  (** Lands in {!Report.t.manager} / [fallbacks]. *)
  tier_config : Btsmgr.config;
  tier_scan : [ `Full | `Adjacent ];
}

val waterline_config : Btsmgr.config
(** EVA-style degraded planning: waterline rescaling, region-end
    bootstraps at [l_max], no min-cuts, no transit pricing. *)

val default_chain : tier list
(** [resbm → waterline → eager]: the paper's full min-cut DP, then
    waterline planning over a full segment scan, then the linear eager
    strategy (one region per segment, [`Adjacent]). *)

val planner_steps : Obs.Profile.t -> int
(** The fuel-metered planning work a compile performed, read back from
    its {!Report.t.profile}: the sum of the [btsmgr.segment_evals],
    [smoplc.cuts] and [btsplc.cuts] counters — exactly the steps a
    {!Fuel} budget meters.  0 for a warm plan-cache hit (no planning
    ran). *)

val calibrated_fuel_steps :
  ?percentile:float -> ?headroom:float -> Report.t list -> int
(** [calibrated_fuel_steps reports] derives a [fuel_steps] budget for
    {!compile_robust} from the compile profiles of past runs:
    {!Fuel.calibrate} (nearest-rank [percentile], default 0.95, padded by
    [headroom], default 1.5) over {!planner_steps} of each report.
    Feed it cold-compile reports of the workload mix you expect; the
    returned budget admits the chosen fraction of them without
    degradation.  @raise Invalid_argument on an empty list. *)

val compile_robust :
  ?chain:tier list ->
  ?fuel_steps:int ->
  ?ms_opt:bool ->
  ?verify_each:bool ->
  ?profile:Obs.Profile.t ->
  ?cache:Plan_cache.t ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Fhe_ir.Dfg.t * Report.t
(** Graceful planner degradation: try each tier of [chain] (default
    {!default_chain}) in order; a tier failing with {!Btsmgr.No_plan},
    {!Plan.Apply_error}, {!Fuel.Exhausted}, {!Region_eval.Infeasible} or
    {!Verification_failed} falls through to the next instead of raising.
    [fuel_steps] bounds every non-terminal tier's planning steps
    (segment evaluations + min-cuts); the terminal tier always runs with
    unlimited fuel.  Each downgrade is recorded in
    {!Report.t.fallbacks} (tier name, reason), counted in the
    [planner_fallbacks_total{tier}] metric and marked as a
    ["planner_fallback"] trace instant.  Exceptions that indicate a
    broken input rather than a planner dead-end (e.g.
    [Invalid_argument]) are not caught; the terminal tier's failure, if
    any, escapes as-is.
    @raise Invalid_argument on an empty [chain]. *)
