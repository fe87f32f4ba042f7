exception Verification_failed of string * Analysis.Diag.t list

let () =
  Printexc.register_printer (function
    | Verification_failed (pass, diags) ->
        Some
          (Format.asprintf "Verification_failed after %s:@,%a" pass
             (Format.pp_print_list Analysis.Diag.pp_verbose)
             diags)
    | _ -> None)

(* Process-wide compile sequence: attached to every log record emitted
   during one compile so interleaved compiles (parallel sweeps, warm
   benches) stay separable in a merged log stream. *)
let compile_seq = Atomic.make 0

let compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel ~segment_scan
    ~fallbacks ~cache prm g =
  let profile = match profile with Some p -> p | None -> Obs.Profile.create () in
  Obs.with_profile profile @@ fun () ->
  Obs.with_log_ctx ~compile_id:(Atomic.fetch_and_add compile_seq 1) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (* A pipeline phase: timed span, pass context on every log record
     emitted inside, GC pressure published to the ambient metrics. *)
  let phase pname f = Obs.with_log_ctx ~pass:pname (fun () -> Obs.gc_span pname f) in
  Obs.log_info ~event:"compile.start"
    ~fields:
      [
        ("manager", Obs.Json.String name);
        ("nodes", Obs.Json.Int (Fhe_ir.Dfg.node_count g));
      ]
    "compiling";
  let verify pass ?regions ?(scale = true) graph =
    if verify_each then begin
      let diags =
        Obs.span ("verify." ^ pass) (fun () ->
            Analysis.Verify.run ?regions ~scale prm graph)
      in
      if Analysis.Diag.has_errors diags then begin
        Obs.log_error ~event:"verify.failed"
          ~fields:[ ("pass", Obs.Json.String pass) ]
          (Printf.sprintf "per-pass verification failed after %s" pass);
        raise (Verification_failed (pass, diags))
      end
    end
  in
  let regioned = phase "region_build" (fun () -> Region.build g) in
  Obs.incr ~by:regioned.Region.count "driver.regions";
  (* The input graph is legal only after management: check structure and
     the region invariants here, the scale rules after the plan lands. *)
  verify "region_build" ~scale:false
    ~regions:
      {
        Analysis.Verify.region_of = regioned.Region.region_of;
        count = regioned.Region.count;
      }
    g;
  let plan =
    phase "plan" (fun () ->
        (* The incremental tier: the cache's region-solution store. *)
        let memo = Option.map Plan_cache.memo cache in
        Btsmgr.plan ~config ~fuel ~segment_scan ?memo regioned prm)
  in
  let outcome = phase "apply" (fun () -> Plan.apply regioned prm plan) in
  let managed = outcome.Plan.dfg in
  verify "plan_apply" managed;
  let ms_opt_hoists =
    if ms_opt then phase "ms_opt" (fun () -> Passes.Ms_opt.run prm managed) else 0
  in
  if ms_opt then begin
    Obs.incr ~by:ms_opt_hoists "ms_opt.hoists";
    verify "ms_opt" managed
  end;
  let latency_ms =
    phase "latency" (fun () ->
        (* Legalisation's closing analysis is current unless ms_opt rewrote
           the graph afterwards. *)
        let info =
          if ms_opt_hoists > 0 then Fhe_ir.Scale_check.infer prm managed
          else outcome.Plan.final_info
        in
        Fhe_ir.Latency.total ~info prm managed)
  in
  let stats = phase "stats" (fun () -> Fhe_ir.Stats.collect managed) in
  (* Region attribution of the managed graph, for runtime traces and the
     trace summary: plan application copies the input graph (ids are
     preserved), so original nodes keep their partition assignment, and
     every inserted management node — created after its tail, hence with a
     larger id — inherits its tail's region in one increasing-id pass. *)
  let region_of =
    phase "region_attr" (fun () ->
        let attr = Array.make (Fhe_ir.Dfg.node_count managed) (-1) in
        let orig = Array.length regioned.Region.region_of in
        let live = Fhe_ir.Dfg.live_nodes managed in
        List.iter
          (fun (node : Fhe_ir.Dfg.node) ->
            if node.Fhe_ir.Dfg.id < orig then
              attr.(node.Fhe_ir.Dfg.id) <- regioned.Region.region_of.(node.Fhe_ir.Dfg.id))
          live;
        (* Inserted chains usually point backwards (a node is created after
           its tail), but retargeting can leave an inserted node reading a
           newer one, so iterate to a fixpoint; chains are short, two or
           three rounds settle everything. *)
        let changed = ref true in
        while !changed do
          changed := false;
          List.iter
            (fun (node : Fhe_ir.Dfg.node) ->
              if attr.(node.Fhe_ir.Dfg.id) < 0 then
                Array.iter
                  (fun a ->
                    if attr.(node.Fhe_ir.Dfg.id) < 0 && attr.(a) >= 0 then begin
                      attr.(node.Fhe_ir.Dfg.id) <- attr.(a);
                      changed := true
                    end)
                  node.Fhe_ir.Dfg.args)
            live
        done;
        attr)
  in
  let compile_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  (* Publish into the ambient aggregate-metrics registry, when one is
     installed: the whole compile profile (phase durations, pipeline
     counters) plus the headline planner outputs, labelled by manager so
     multi-manager sweeps keep their distributions apart. *)
  (match Obs.current_metrics () with
  | None -> ()
  | Some m ->
      let labels = [ ("manager", name) ] in
      ignore (Obs.Metrics.of_profile ~into:m profile);
      Obs.Metrics.observe m ~labels "compile_ms" compile_ms;
      Obs.Metrics.observe m ~labels "plan_latency_ms" latency_ms;
      Obs.Metrics.incr m ~labels ~by:stats.Fhe_ir.Stats.bootstrap_count
        "bootstraps_planned_total";
      Obs.Metrics.incr m ~labels ~by:stats.Fhe_ir.Stats.executed_rescales
        "rescales_planned_total";
      Obs.Metrics.incr m ~labels ~by:regioned.Region.count "regions_total");
  (* Harvest the min-cut optimality certificates the placements attached
     to their cuts, in region order: the checkable evidence behind the
     plan, preserved through the plan cache. *)
  let certificates =
    let acc = ref [] in
    let entry pass r (cut : Cut.t) c =
      {
        Report.ce_pass = pass;
        ce_region = r;
        ce_cert = c;
        ce_node_of = Array.copy cut.Cut.node_of;
      }
    in
    Array.iteri
      (fun r (a : Btsmgr.region_action) ->
        (match a.Btsmgr.smo_cut with
        | Some ({ Cut.cert = Some c; _ } as cut) ->
            acc := entry "smoplc" r cut c :: !acc
        | _ -> ());
        match a.Btsmgr.bts with
        | Some { Btsmgr.cut = Some ({ Cut.cert = Some c; _ } as cut); _ } ->
            acc := entry "btsplc" r cut c :: !acc
        | _ -> ())
      plan.Btsmgr.actions;
    List.rev !acc
  in
  let report =
    {
      Report.manager = name;
      compile_ms;
      latency_ms;
      stats;
      segments = plan.Btsmgr.segments;
      repair_bootstraps = outcome.Plan.repair_bootstraps;
      ms_opt_hoists;
      profile;
      region_count = regioned.Region.count;
      region_of;
      fallbacks;
      certificates;
    }
  in
  Obs.log_info ~event:"compile.done"
    ~fields:
      [
        ("manager", Obs.Json.String name);
        ("compile_ms", Obs.Json.Float compile_ms);
        ("latency_ms", Obs.Json.Float latency_ms);
        ("bootstraps", Obs.Json.Int stats.Fhe_ir.Stats.bootstrap_count);
        ("regions", Obs.Json.Int regioned.Region.count);
      ]
    "compiled";
  (managed, report)

(* --- Certification -------------------------------------------------------- *)

(* Headroom the encoding needs on top of the scaled signal: sign bit plus
   rounding conventions — small, but not zero (a full-capacity scale with
   magnitude exactly 1.0 is legal for the evaluator). *)
let encoding_slack_bits = 2.0

(* Noise findings from one static estimate.  A NaN estimate is an error.
   Modulus fit is a cannot-prove warning, not a refutation: magnitudes are
   worst-case bounds (on deep circuits far above the run, see
   {!Fhe_ir.Noise_check.check_trace}'s tolerance), and scale-capacity fit
   is already proven by certify.levels.  It is summarised as one
   graph-level warning naming the worst node. *)
let noise_diags ~scales prm managed =
  let per_node = (Fhe_ir.Noise_check.analyse ~scales prm managed).Fhe_ir.Noise_check.per_node in
  let q = prm.Ckks.Params.scale_bits and q0 = prm.Ckks.Params.q0_bits in
  let ds = ref [] in
  let is_output = Array.make (Fhe_ir.Dfg.node_count managed) false in
  List.iter (fun o -> is_output.(o) <- true) (Fhe_ir.Dfg.outputs managed);
  let unproven = ref 0 and worst_node = ref (-1) and worst_bits = ref neg_infinity in
  let worst_modulus = ref 0 in
  List.iter
    (fun (n : Fhe_ir.Dfg.node) ->
      let id = n.Fhe_ir.Dfg.id in
      if Fhe_ir.Op.produces_ct n.Fhe_ir.Dfg.kind then begin
        let { Fhe_ir.Noise_check.magnitude = mag; noise } = per_node.(id) in
        let s = scales.(id).Fhe_ir.Scale_check.scale_bits
        and l = scales.(id).Fhe_ir.Scale_check.level in
        if Float.is_nan mag || Float.is_nan noise then
          ds :=
            Analysis.Diag.error ~node:id "absint-noise-nan"
              "noise bound is NaN (mag %g, noise %g)" mag noise
            :: !ds
        else begin
          (* Scaled signal plus noise fitting the RNS modulus chain
             q0 * q^level at this level. *)
          let modulus_bits = float_of_int (q0 + (l * q)) in
          let signal_bits =
            if mag +. noise <= 0.0 then neg_infinity
            else Float.log2 (mag +. noise) +. float_of_int s
          in
          if signal_bits > modulus_bits +. encoding_slack_bits then begin
            incr unproven;
            if signal_bits -. modulus_bits > !worst_bits then begin
              worst_bits := signal_bits -. modulus_bits;
              worst_node := id;
              worst_modulus := q0 + (l * q)
            end
          end
        end;
        if is_output.(id) && noise >= mag && mag > 0.0 then
          ds :=
            Analysis.Diag.warning ~node:id "absint-precision"
              "output noise bound %g reaches the signal bound %g" noise mag
            :: !ds
      end)
    (Fhe_ir.Dfg.live_nodes managed);
  if !unproven > 0 then
    ds :=
      Analysis.Diag.warning ~node:!worst_node "absint-noise-overflow"
        "cannot prove modulus fit for %d ciphertext%s under the worst-case noise bound \
         (worst: node %d needs %.1f bits over its %d-bit modulus, slack %.0f)"
        !unproven
        (if !unproven = 1 then "" else "s")
        !worst_node !worst_bits !worst_modulus encoding_slack_bits
      :: !ds;
  Analysis.Diag.sort !ds

let certify_diags prm managed (report : Report.t) =
  Obs.span "certify" @@ fun () ->
  let cuts =
    Obs.span "certify.cuts" @@ fun () ->
    List.concat_map
      (fun (e : Report.certificate_entry) ->
        (* The cut value the placement recorded IS the certificate value
           (the cut is built from it), so the internal duality check is
           the value cross-check. *)
        Analysis.Certify.check ~pass:e.Report.ce_pass ~region:e.Report.ce_region
          e.Report.ce_cert)
      report.Report.certificates
  in
  (* One strict Table 1 pass: its violations refute the plan (capacity
     overflow, level underflow, mismatches, bootstrap targets), and its
     scales feed the noise estimate. *)
  let scales, levels =
    Obs.span "certify.levels" @@ fun () ->
    let scales, violations = Fhe_ir.Scale_check.analyse ~strict:true prm managed in
    ( scales,
      Analysis.Diag.sort
        (List.map
           (fun (v : Fhe_ir.Scale_check.violation) ->
             Analysis.Diag.error ~node:v.Fhe_ir.Scale_check.node "scale" "%s"
               v.Fhe_ir.Scale_check.message)
           violations) )
  in
  let noise = Obs.span "certify.noise" (fun () -> noise_diags ~scales prm managed) in
  [ ("certify.cuts", cuts); ("certify.levels", levels); ("certify.noise", noise) ]

let run_certify prm managed (report : Report.t) =
  (* Re-enter the compile's profile so certification cost shows up as
     [certify.*] spans next to the phases it is measured against. *)
  Obs.with_profile report.Report.profile @@ fun () ->
  List.iter
    (fun (pass, diags) ->
      if Analysis.Diag.has_errors diags then begin
        Obs.metric_incr ~labels:[ ("pass", pass) ] "plan_refutations_total";
        Obs.log_error ~event:"certify.refuted"
          ~fields:
            [
              ("pass", Obs.Json.String pass);
              ("manager", Obs.Json.String report.Report.manager);
            ]
          (Printf.sprintf "certification refuted the %s evidence" pass);
        raise (Verification_failed (pass, diags))
      end)
    (certify_diags prm managed report)

let compile ?(config = Btsmgr.resbm_config) ?(name = "ReSBM") ?(ms_opt = false)
    ?(verify_each = false) ?(certify = false) ?profile ?(fuel = Fuel.unlimited)
    ?(segment_scan = `Full) ?(fallbacks = []) ?cache prm g =
  let certified (managed, report) =
    if certify then run_certify prm managed report;
    (managed, report)
  in
  match cache with
  | None ->
      certified
        (compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel ~segment_scan
           ~fallbacks ~cache:None prm g)
  | Some c -> (
      let ckey = Plan_cache.key ~config ~name ~ms_opt ~segment_scan prm g in
      match Plan_cache.find c ckey with
      | Some (managed, report) -> (
          (* Warm hit: the stored plan and report are bit-identical to
             what the cold path would produce (fallbacks belong to this
             call, compile_ms was already replaced by the lookup time).
             Certification re-runs on the cached certificates — a corrupt
             or stale cache entry is refuted, not served. *)
          Obs.log_info ~event:"plan_cache.hit"
            ~fields:[ ("manager", Obs.Json.String name) ]
            "serving plan from cache";
          try certified (managed, { report with Report.fallbacks })
          with Verification_failed _ as e ->
            Obs.metric_incr "plan_cache_refutations_total";
            Obs.log_error ~event:"plan_cache.refuted"
              ~fields:[ ("manager", Obs.Json.String name) ]
              "cached plan failed re-certification";
            raise e)
      | None ->
          Obs.log_info ~event:"plan_cache.miss"
            ~fields:[ ("manager", Obs.Json.String name) ]
            "plan not cached, compiling cold";
          let managed, report =
            compile_cold ~config ~name ~ms_opt ~verify_each ~profile ~fuel
              ~segment_scan ~fallbacks ~cache:(Some c) prm g
          in
          (* Certify before storing so a refuted plan never persists. *)
          let managed, report = certified (managed, report) in
          Plan_cache.store c ckey managed report;
          (managed, report))

(* --- Graceful degradation ------------------------------------------------- *)

(* The fuel-metered work a compile performed, read back from its profile:
   exactly the counters incremented alongside each [Fuel.spend] (DP
   segment evaluations and the two placement solvers' min-cuts). *)
let planner_steps profile =
  List.fold_left
    (fun acc -> function
      | ("btsmgr.segment_evals" | "smoplc.cuts" | "btsplc.cuts"), v -> acc + v
      | _ -> acc)
    0
    (Obs.Profile.counters profile)

let calibrated_fuel_steps ?percentile ?headroom reports =
  Fuel.calibrate ?percentile ?headroom
    (List.map (fun (r : Report.t) -> planner_steps r.Report.profile) reports)

type tier = {
  tier_name : string;
  tier_config : Btsmgr.config;
  tier_scan : [ `Full | `Adjacent ];
}

let waterline_config =
  {
    Btsmgr.min_level_bts = false;
    smo_mode = Region_eval.Smo_eva;
    bts_mode = Region_eval.Bts_region_end;
    price_transits = false;
  }

(* resbm → waterline → eager: from the paper's full min-cut DP down to
   EVA-style waterline rescaling with region-end bootstraps (no min-cut,
   still a full segment scan), down to the linear eager strategy (one
   region per segment, a full-elevation bootstrap at every boundary) —
   each tier strictly cheaper and more conservative than the previous. *)
let default_chain =
  [
    { tier_name = "resbm"; tier_config = Btsmgr.resbm_config; tier_scan = `Full };
    { tier_name = "waterline"; tier_config = waterline_config; tier_scan = `Full };
    { tier_name = "eager"; tier_config = waterline_config; tier_scan = `Adjacent };
  ]

(* Exceptions that mean "this tier failed" rather than "the input is
   broken": planning dead-ends, budget exhaustion, plan application bugs
   and per-stage verification failures all degrade; anything else (e.g.
   Invalid_argument from a malformed graph) escapes untouched. *)
let degrade_reason = function
  | Btsmgr.No_plan msg -> Some ("no plan: " ^ msg)
  | Plan.Apply_error msg -> Some ("apply error: " ^ msg)
  | Fuel.Exhausted stage -> Some ("fuel exhausted in " ^ stage)
  | Region_eval.Infeasible msg -> Some ("infeasible region: " ^ msg)
  | Verification_failed (pass, _) -> Some ("verification failed after " ^ pass)
  | _ -> None

let compile_robust ?(chain = default_chain) ?fuel_steps ?(ms_opt = false)
    ?(verify_each = false) ?profile ?cache prm g =
  if chain = [] then invalid_arg "Driver.compile_robust: empty chain";
  let rec go fallbacks = function
    | [] -> assert false
    | [ tier ] ->
        (* Terminal tier: unlimited fuel — it must either plan or raise
           the real failure for the caller. *)
        compile ~config:tier.tier_config ~name:tier.tier_name ~ms_opt ~verify_each
          ?profile ~segment_scan:tier.tier_scan ~fallbacks:(List.rev fallbacks)
          ?cache prm g
    | tier :: rest -> (
        let fuel =
          match fuel_steps with
          | None -> Fuel.unlimited
          | Some n -> Fuel.create ~stage:tier.tier_name n
        in
        match
          compile ~config:tier.tier_config ~name:tier.tier_name ~ms_opt ~verify_each
            ?profile ~fuel ~segment_scan:tier.tier_scan
            ~fallbacks:(List.rev fallbacks) ?cache prm g
        with
        | result -> result
        | exception e -> (
            match degrade_reason e with
            | None -> raise e
            | Some reason ->
                Obs.metric_incr
                  ~labels:[ ("tier", tier.tier_name) ]
                  "planner_fallbacks_total";
                Obs.log_warn ~event:"planner.degraded"
                  ~fields:
                    [
                      ("tier", Obs.Json.String tier.tier_name);
                      ("reason", Obs.Json.String reason);
                    ]
                  (Printf.sprintf "tier %s failed (%s), degrading" tier.tier_name reason);
                Obs.trace_instant ~name:"planner_fallback"
                  ~detail:
                    [
                      ("tier", Obs.Json.String tier.tier_name);
                      ("reason", Obs.Json.String reason);
                    ]
                  ();
                go ((tier.tier_name, reason) :: fallbacks) rest))
  in
  go [] chain
