(* The flight-deck observability tier: the Log ring buffer (overflow,
   filtering, ambient context, JSONL round-trip), Rt pool telemetry and
   its Perfetto export, Health verdicts and exit codes, gc_span metric
   publication, the stdout-in-lib source lint, the informational GC
   bench columns — and the headline contract that installing all of it
   changes no compile result bit. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* Same deterministic snapshot as test_parallel_cache: everything a
   compile promises to reproduce bit-for-bit. *)
let fingerprint ((g : Dfg.t), (r : Resbm.Report.t)) =
  ( Dfg.export g,
    r.Resbm.Report.manager,
    r.Resbm.Report.latency_ms,
    r.Resbm.Report.stats,
    r.Resbm.Report.segments,
    r.Resbm.Report.repair_bootstraps,
    r.Resbm.Report.ms_opt_hoists,
    r.Resbm.Report.region_count,
    Array.to_list r.Resbm.Report.region_of,
    r.Resbm.Report.fallbacks )

(* --- the log ring --------------------------------------------------------- *)

let ring_overflow_drops_oldest () =
  let sink = Obs.Log.create ~capacity:4 () in
  for i = 0 to 9 do
    Obs.Log.record sink ~level:Obs.Log.Info ~event:(Printf.sprintf "e%d" i) ()
  done;
  checki "every record counted" 10 (Obs.Log.recorded sink);
  checki "overflow counted" 6 (Obs.Log.dropped sink);
  checki "nothing filtered" 0 (Obs.Log.filtered sink);
  let survivors = Obs.Log.records sink in
  checki "capacity survivors" 4 (List.length survivors);
  checkb "newest records survive, chronological" true
    (List.map (fun r -> r.Obs.Log.lseq) survivors = [ 6; 7; 8; 9 ]);
  checkb "events match sequence" true
    (List.map (fun r -> r.Obs.Log.event) survivors = [ "e6"; "e7"; "e8"; "e9" ])

let min_level_filters () =
  let sink = Obs.Log.create ~min_level:Obs.Log.Warn () in
  List.iter
    (fun level -> Obs.Log.record sink ~level ~event:"e" ())
    [ Obs.Log.Debug; Obs.Log.Info; Obs.Log.Warn; Obs.Log.Error ];
  checki "below-threshold records rejected" 2 (Obs.Log.filtered sink);
  checki "warn and error kept" 2 (Obs.Log.recorded sink);
  checkb "kept levels" true
    (List.map (fun r -> r.Obs.Log.level) (Obs.Log.records sink)
    = [ Obs.Log.Warn; Obs.Log.Error ])

let ambient_context_attribution () =
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () ->
      Obs.log_info ~event:"outer" "before any context";
      Obs.with_log_ctx ~compile_id:7 ~pass:"plan" (fun () ->
          Obs.with_log_ctx ~region:3 ~node:11 (fun () ->
              Obs.log_warn ~event:"inner"
                ~fields:[ ("k", Obs.Json.Int 1) ]
                "nested context")));
  (* outside the callback the sink is gone: emission is a no-op *)
  Obs.log_error ~event:"orphan" "no ambient sink";
  match Obs.Log.records sink with
  | [ outer; inner ] ->
      checki "no context: compile_id unattributed" (-1) outer.Obs.Log.compile_id;
      check Alcotest.string "no context: pass empty" "" outer.Obs.Log.pass;
      checki "nested: compile id from the outer frame" 7 inner.Obs.Log.compile_id;
      check Alcotest.string "nested: pass from the outer frame" "plan"
        inner.Obs.Log.pass;
      checki "nested: region from the inner frame" 3 inner.Obs.Log.region;
      checki "nested: node from the inner frame" 11 inner.Obs.Log.node;
      checki "emitting domain recorded" ((Domain.self () :> int)) inner.Obs.Log.domain;
      checkb "structured fields kept" true
        (inner.Obs.Log.fields = [ ("k", Obs.Json.Int 1) ]);
      checkb "level helper sets the level" true (inner.Obs.Log.level = Obs.Log.Warn)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)

let jsonl_round_trip () =
  let sink = Obs.Log.create () in
  Obs.Log.record sink ~level:Obs.Log.Info ~event:"a" ~msg:"plain" ();
  Obs.Log.record sink ~level:Obs.Log.Error ~event:"b" ~sim_ms:12.5 ~compile_id:3
    ~pass:"verify" ~region:1 ~node:42
    ~fields:[ ("ratio", Obs.Json.Float 1.5); ("tag", Obs.Json.String "x\"y") ]
    ();
  let records = Obs.Log.records sink in
  (match Obs.Log.of_jsonl (Obs.Log.to_jsonl sink) with
  | Error m -> Alcotest.failf "of_jsonl failed: %s" m
  | Ok back -> checkb "to_jsonl/of_jsonl is the identity" true (back = records));
  List.iter
    (fun r ->
      match Obs.Log.record_of_json (Obs.Log.record_to_json r) with
      | Error m -> Alcotest.failf "record_of_json failed: %s" m
      | Ok r' -> checkb "record json round-trip" true (r' = r))
    records;
  (* blank lines are tolerated between records *)
  match Obs.Log.of_jsonl ("" :: Obs.Log.to_jsonl sink @ [ "" ]) with
  | Error m -> Alcotest.failf "blank-line of_jsonl failed: %s" m
  | Ok back -> checki "blank lines skipped" 2 (List.length back)

let log_instants_land_on_the_right_process () =
  let sink = Obs.Log.create () in
  Obs.Log.record sink ~level:Obs.Log.Info ~event:"compile.side" ();
  Obs.Log.record sink ~level:Obs.Log.Warn ~event:"exec.side" ~sim_ms:3.0 ~region:2 ();
  match Obs.Log.chrome_events (Obs.Log.records sink) with
  | [ a; b ] ->
      let member k j = Obs.Json.member k j in
      checkb "instant phase" true
        (member "ph" a = Some (Obs.Json.String "i")
        && member "ph" b = Some (Obs.Json.String "i"));
      checkb "untimed record on the compile process" true
        (member "pid" a = Some (Obs.Json.Int 0));
      checkb "timed record on the execution process" true
        (member "pid" b = Some (Obs.Json.Int 1));
      checkb "category encodes the level" true
        (member "cat" a = Some (Obs.Json.String "log.info")
        && member "cat" b = Some (Obs.Json.String "log.warn"))
  | es -> Alcotest.failf "expected 2 instants, got %d" (List.length es)

(* --- telemetry off = bit-identity ----------------------------------------- *)

let flight_off_identity =
  qcheck ~count:30 "full flight instrumentation changes no compile bit"
    (random_dfg_gen ~max_nodes:40 ~max_depth:8)
    (fun params ->
      let mgr =
        let all = Resbm.Variants.all in
        List.nth all (Hashtbl.hash params mod List.length all)
      in
      let compile g =
        match Resbm.Variants.compile mgr prm g with
        | r -> Some (fingerprint r)
        | exception Resbm.Btsmgr.No_plan _ -> None
      in
      let plain = compile (build_random_dfg params) in
      let flown =
        Obs.with_log (Obs.Log.create ()) @@ fun () ->
        Obs.with_metrics (Obs.Metrics.create ()) @@ fun () ->
        Obs.with_rt (Obs.Rt.create ()) @@ fun () ->
        compile (build_random_dfg params)
      in
      plain = flown)

(* --- Rt pool telemetry ----------------------------------------------------- *)

let sequential_pool_records_nothing () =
  (* Planning is sequential: a compile under a collector records no pool
     and so exports no worker track. *)
  let rt = Obs.Rt.create () in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  Obs.with_rt rt (fun () ->
      ignore (Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg));
  checkb "a compile records no pool" true (Obs.Rt.pools rt = []);
  checkb "no pools means no perfetto track" true (Obs.Rt.chrome_events rt = [])

let gc_span_publishes_pressure () =
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      Obs.gc_span "flight_phase" (fun () ->
          ignore (Sys.opaque_identity (Array.init 4096 float_of_int))));
  (match
     Obs.Metrics.histogram ~labels:[ ("phase", "flight_phase") ] m "gc_minor_words"
   with
  | None -> Alcotest.fail "gc_minor_words{flight_phase} not published"
  | Some h -> checkb "one observation, non-negative" true
        (h.Obs.Metrics.hcount = 1 && h.Obs.Metrics.hsum >= 0.0));
  checkb "peak heap gauge set" true (Obs.Metrics.gauge m "gc_top_heap_words" <> None);
  (* without an ambient registry the span publishes nowhere *)
  let m' = Obs.Metrics.create () in
  Obs.gc_span "orphan" (fun () -> ());
  checkb "no ambient registry, no metrics" true (Obs.Metrics.all_histograms m' = [])

let metrics_json_round_trip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:3 ~labels:[ ("model", "tiny") ] m "chaos_trials_total";
  Obs.Metrics.set m "log_dropped_records" 6.0;
  List.iter
    (Obs.Metrics.observe ~labels:[ ("op", "mul_cc") ] m "noise_headroom_bits")
    [ 5.5; 7.25; 12.0 ];
  let dump m = Obs.Json.to_string (Obs.Metrics.to_json m) in
  match Obs.Metrics.of_json (Obs.Metrics.to_json m) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok m' -> check Alcotest.string "to_json . of_json . to_json is stable"
        (dump m) (dump m')

(* --- health --------------------------------------------------------------- *)

let find_check rule (v : Obs.Health.verdict) =
  match List.find_opt (fun c -> c.Obs.Health.rule = rule) v.Obs.Health.checks with
  | Some c -> c
  | None -> Alcotest.failf "rule %s missing from the verdict" rule

let health_vacuous_run_is_healthy () =
  let v = Obs.Health.evaluate (Obs.Metrics.create ()) in
  checkb "nothing measured, nothing failed" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v);
  List.iter
    (fun rule ->
      let c = find_check rule v in
      checkb (rule ^ " inapplicable") false c.Obs.Health.applicable;
      checkb (rule ^ " passes vacuously") true (c.Obs.Health.severity = Obs.Health.Pass))
    [ "noise-headroom"; "recovery-rate"; "gc-pressure" ]

let health_recovery_floor_fails () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:10 ~labels:[ ("model", "tiny") ] m "chaos_faulted_total";
  Obs.Metrics.incr ~by:5 ~labels:[ ("model", "tiny") ] m "chaos_recovered_total";
  let v = Obs.Health.evaluate m in
  let c = find_check "recovery-rate" v in
  checkb "applicable once trials faulted" true c.Obs.Health.applicable;
  check_float "measured rate" 0.5 c.Obs.Health.value;
  checkb "0.5 < 0.9 floor fails" true (c.Obs.Health.severity = Obs.Health.Fail);
  checkb "verdict unhealthy" false v.Obs.Health.healthy;
  checki "exit code" 2 (Obs.Health.exit_code v);
  (* a relaxed floor flips the same registry back to healthy *)
  let relaxed =
    { Obs.Health.default_thresholds with Obs.Health.recovery_rate_floor = 0.4 }
  in
  let v' = Obs.Health.evaluate ~thresholds:relaxed m in
  checkb "relaxed floor passes" true v'.Obs.Health.healthy

let health_warn_rules_never_flip () =
  (* Error-level logs and ring overflow are anomalies worth surfacing but
     not gating: severity Warn, verdict stays healthy. *)
  let m = Obs.Metrics.create () in
  Obs.Metrics.set m "log_dropped_records" 3.0;
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () -> Obs.log_error ~event:"run.failed" "boom");
  let v = Obs.Health.evaluate ~records:(Obs.Log.records sink) m in
  checkb "error-logs warns" true
    ((find_check "error-logs" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "ring-overflow warns" true
    ((find_check "ring-overflow" v).Obs.Health.severity = Obs.Health.Warn);
  checkb "warn-only rules keep the verdict healthy" true v.Obs.Health.healthy;
  checki "exit code" 0 (Obs.Health.exit_code v)

let health_refutations_fail_from_logs () =
  (* The refutation rule reads both the metrics counters and the log
     stream, so a flight file with records but no counters still gates. *)
  let sink = Obs.Log.create () in
  Obs.with_log sink (fun () ->
      Obs.log_error ~event:"certify.refuted" "certificate mismatch");
  let v =
    Obs.Health.evaluate ~records:(Obs.Log.records sink) (Obs.Metrics.create ())
  in
  let c = find_check "refutations" v in
  checkb "refutation seen through the log stream" true
    (c.Obs.Health.severity = Obs.Health.Fail);
  checkb "verdict unhealthy" false v.Obs.Health.healthy;
  (* and the json export carries the verdict for --json consumers *)
  checkb "json verdict field" true
    (Obs.Json.member "healthy" (Obs.Health.to_json v) = Some (Obs.Json.Bool false))

(* --- stdout-in-lib lint ---------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "resbm_lint" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let lint_flags_raw_stdout () =
  with_temp_dir (fun dir ->
      let lines =
        [
          "let a () = print_endline \"x\"";
          "let b () = print_endline \"y\" (* log-ok: CLI surface *)";
          "let c ppf = Format.pp_print_string ppf \"z\"";
          "let d () = Printf.printf \"%d\" 3";
          "let pretty_print_endline = 1";
        ]
      in
      let oc = open_out (Filename.concat dir "offender.ml") in
      List.iter (fun l -> output_string oc (l ^ "\n")) lines;
      close_out oc;
      let diags =
        List.filter
          (fun d -> d.Analysis.Diag.rule = "stdout-in-lib")
          (Analysis.Lint.scan_planner_sources ~dir)
      in
      checki "two offenders flagged" 2 (List.length diags);
      let flagged_lines =
        List.map
          (fun d ->
            Scanf.sscanf
              (String.concat ":"
                 (List.tl (String.split_on_char ':' d.Analysis.Diag.message)))
              "%d" Fun.id)
          diags
        |> List.sort compare
      in
      checkb "only the raw print and printf lines flagged" true
        (flagged_lines = [ 1; 4 ]);
      checkb "warning severity" true
        (List.for_all
           (fun d -> d.Analysis.Diag.severity = Analysis.Diag.Warning)
           diags))

(* --- informational bench columns ------------------------------------------- *)

let bench_source ?(latency = 100.0) ?gc_minor () =
  let gc =
    match gc_minor with
    | None -> ""
    | Some w -> Printf.sprintf {|, "gc_minor_words": %f|} w
  in
  Printf.sprintf
    {|{"bench": "resbm", "schema_version": 2, "git_rev": "test", "trials": 1,
       "l_max": 9,
       "models": [{"model": "tiny", "managers": [
         {"manager": "resbm", "latency_ms": %f, "bootstrap_count": 3.0,
          "executed_rescales": 5.0, "nodes": 40.0,
          "predicted_precision_bits": 20.0%s}]}]}|}
    latency gc

let load_source s =
  match Obs.Bench_diff.load s with
  | Ok src -> src
  | Error e -> Alcotest.failf "bench load failed: %s" e

let bench_gc_columns_are_informational () =
  let base = load_source (bench_source ~gc_minor:1000.0 ()) in
  let cand = load_source (bench_source ~gc_minor:5000.0 ()) in
  match Obs.Bench_diff.diff ~base ~cand () with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok o ->
      let gc =
        match
          List.find_opt (fun c -> c.Obs.Bench_diff.metric = "gc_minor_words")
            o.Obs.Bench_diff.cells
        with
        | Some c -> c
        | None -> Alcotest.fail "gc cell missing"
      in
      checkb "reported as informational" true gc.Obs.Bench_diff.informational;
      checkb "5x allocation shows as regressed" true
        (gc.Obs.Bench_diff.verdict = Obs.Bench_diff.Regressed);
      checkb "excluded from deterministic changes" true
        (Obs.Bench_diff.deterministic_changes o = []);
      checkb "excluded from regressions" true (Obs.Bench_diff.regressions o = []);
      checki "never gates" 0 (Obs.Bench_diff.exit_code o)

let bench_missing_gc_column_tolerated () =
  (* An old baseline without the GC columns diffs cleanly against a new
     candidate that has them: no cell, no gate. *)
  let base = load_source (bench_source ()) in
  let cand = load_source (bench_source ~gc_minor:5000.0 ()) in
  (match Obs.Bench_diff.diff ~base ~cand () with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok o ->
      checkb "one-sided column yields no cell" true
        (not
           (List.exists (fun c -> c.Obs.Bench_diff.informational)
              o.Obs.Bench_diff.cells));
      checki "old baseline still passes" 0 (Obs.Bench_diff.exit_code o));
  (* while deterministic drift still gates as before *)
  let faster = load_source (bench_source ~latency:90.0 ()) in
  match Obs.Bench_diff.diff ~base ~cand:faster () with
  | Error e -> Alcotest.failf "diff failed: %s" e
  | Ok o ->
      checkb "deterministic drift detected" true
        (Obs.Bench_diff.deterministic_changes o <> []);
      checki "deterministic drift gates" 2 (Obs.Bench_diff.exit_code o)

let suite =
  [
    case "log ring drops oldest records on overflow" ring_overflow_drops_oldest;
    case "log min-level filtering" min_level_filters;
    case "ambient context attributes records" ambient_context_attribution;
    case "log jsonl round-trip is exact" jsonl_round_trip;
    case "log instants land on the right process" log_instants_land_on_the_right_process;
    flight_off_identity;
    case "rt: sequential pool records nothing" sequential_pool_records_nothing;
    case "gc_span publishes pressure to ambient metrics" gc_span_publishes_pressure;
    case "metrics json round-trip is stable" metrics_json_round_trip;
    case "health: vacuous run is healthy" health_vacuous_run_is_healthy;
    case "health: recovery floor breach fails" health_recovery_floor_fails;
    case "health: warn-only rules never flip the verdict" health_warn_rules_never_flip;
    case "health: refutations gate from the log stream" health_refutations_fail_from_logs;
    case "lint: stdout-in-lib flags raw prints" lint_flags_raw_stdout;
    case "bench: gc columns diff informationally" bench_gc_columns_are_informational;
    case "bench: missing gc columns tolerated" bench_missing_gc_column_tolerated;
  ]
