(* Obs: timers, counters, spans, JSON round-trip, and the compile-pipeline
   profile regression. *)
open Test_util

(* --- Timer -------------------------------------------------------------- *)

let timer_monotone () =
  let t = Obs.Timer.start () in
  let a = Obs.Timer.elapsed_ms t in
  let b = Obs.Timer.elapsed_ms t in
  checkb "non-negative" true (a >= 0.0);
  checkb "monotone" true (b >= a)

(* --- Counters ------------------------------------------------------------ *)

let counter_semantics () =
  let p = Obs.Profile.create () in
  checki "absent counter reads 0" 0 (Obs.Profile.counter p "x");
  Obs.Profile.incr p "x";
  Obs.Profile.incr ~by:41 p "x";
  Obs.Profile.incr p "y";
  checki "accumulates" 42 (Obs.Profile.counter p "x");
  checki "independent" 1 (Obs.Profile.counter p "y");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "sorted listing"
    [ ("x", 42); ("y", 1) ]
    (Obs.Profile.counters p)

(* --- Spans --------------------------------------------------------------- *)

let span_semantics () =
  let p = Obs.Profile.create () in
  let v = Obs.Profile.span p "outer" (fun () -> Obs.Profile.span p "inner" (fun () -> 7)) in
  checki "returns the callback result" 7 v;
  match Obs.Profile.spans p with
  | [ outer; inner ] ->
      check Alcotest.string "outer first (start order)" "outer" outer.Obs.Profile.name;
      checki "outer at depth 0" 0 outer.Obs.Profile.depth;
      check Alcotest.string "inner second" "inner" inner.Obs.Profile.name;
      checki "inner at depth 1" 1 inner.Obs.Profile.depth;
      checkb "inner no longer than outer" true
        (inner.Obs.Profile.dur_ms <= outer.Obs.Profile.dur_ms +. 1e-6);
      checkb "inner starts after outer" true
        (inner.Obs.Profile.start_ms >= outer.Obs.Profile.start_ms)
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let span_records_on_exception () =
  let p = Obs.Profile.create () in
  (try Obs.Profile.span p "boom" (fun () -> failwith "x") with Failure _ -> ());
  match Obs.Profile.spans p with
  | [ s ] ->
      check Alcotest.string "recorded despite raise" "boom" s.Obs.Profile.name;
      checki "depth popped back to 0" 0 s.Obs.Profile.depth
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* --- Ambient profile ------------------------------------------------------ *)

let ambient_noop_and_install () =
  checkb "no ambient profile by default" true (Obs.current () = None);
  (* conveniences must be harmless without a profile *)
  Obs.incr "nope";
  checki "span passes through" 3 (Obs.span "s" (fun () -> 3));
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      Obs.incr "hit";
      ignore (Obs.span "timed" (fun () -> ()));
      checkb "installed" true
        (match Obs.current () with Some q -> q == p | None -> false));
  checkb "restored after" true (Obs.current () = None);
  checki "counter recorded" 1 (Obs.Profile.counter p "hit");
  checki "span recorded" 1 (List.length (Obs.Profile.spans p))

let ambient_maxflow_counters () =
  let p = Obs.Profile.create () in
  Obs.with_profile p (fun () ->
      let net = Graphlib.Maxflow.create 2 in
      Graphlib.Maxflow.add_edge net ~src:0 ~dst:1 ~cap:1.0;
      ignore (Graphlib.Maxflow.max_flow net ~source:0 ~sink:1));
  checki "maxflow.runs" 1 (Obs.Profile.counter p "maxflow.runs");
  checkb "maxflow.bfs_phases nonzero" true (Obs.Profile.counter p "maxflow.bfs_phases" > 0)

(* --- JSON ----------------------------------------------------------------- *)

let json_roundtrip_handwritten () =
  let v =
    Obs.Json.(
      Obj
        [
          ("a", Int 1);
          ("neg", Int (-42));
          ("f", Float 0.1);
          ("whole", Float 7.0);
          ("big", Float 1e22);
          ("list", List [ Null; Bool true; Bool false; String "x\"\\\n\tesc" ]);
          ("empty_obj", Obj []);
          ("empty_list", List []);
          ("nested", Obj [ ("k", List [ Obj [ ("deep", Int 3) ] ]) ]);
        ])
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> checkb "round-trips exactly" true (v = v')
  | Error m -> Alcotest.fail m

let json_parse_foreign () =
  (* whitespace, \u escapes, and number forms we don't emit ourselves *)
  match Obs.Json.of_string "  { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" , null ] }  " with
  | Ok v ->
      checkb "parsed" true
        (v
        = Obs.Json.Obj
            [ ("k", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float (-25.0); Obs.Json.String "A"; Obs.Json.Null ]) ])
  | Error m -> Alcotest.fail m

let json_rejects_garbage () =
  checkb "trailing garbage" true (Result.is_error (Obs.Json.of_string "{} x"));
  checkb "unterminated string" true (Result.is_error (Obs.Json.of_string "\"abc"));
  checkb "bare word" true (Result.is_error (Obs.Json.of_string "bogus"))

let json_float_roundtrip =
  qcheck ~count:300 "every float round-trips through JSON (or degrades to null)"
    QCheck2.Gen.float
    (fun f ->
      match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
      | Ok (Obs.Json.Float f') -> Float.equal f' f
      | Ok Obs.Json.Null -> Float.is_nan f || Float.abs f = infinity
      | _ -> false)

let json_profile_serialisation () =
  let p = Obs.Profile.create () in
  Obs.Profile.incr ~by:3 p "c";
  ignore (Obs.Profile.span p "phase" (fun () -> ()));
  let json = Obs.Profile.to_json p in
  (match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok v -> checkb "profile JSON round-trips" true (v = json)
  | Error m -> Alcotest.fail m);
  match Obs.Json.member "counters" json with
  | Some (Obs.Json.Obj [ ("c", Obs.Json.Int 3) ]) -> ()
  | _ -> Alcotest.fail "counters object malformed"

(* --- Compile-pipeline profile regression ----------------------------------- *)

let compile_profile_regression () =
  let prm = Ckks.Params.default in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let _, report = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  let p = report.Resbm.Report.profile in
  let top = List.filter (fun s -> s.Obs.Profile.depth = 0) (Obs.Profile.spans p) in
  let names = List.map (fun s -> s.Obs.Profile.name) top in
  List.iter
    (fun phase -> checkb (phase ^ " phase present") true (List.mem phase names))
    [ "region_build"; "plan"; "apply"; "latency"; "stats" ];
  let sum = List.fold_left (fun acc s -> acc +. s.Obs.Profile.dur_ms) 0.0 top in
  checkb "phase durations sum <= compile_ms" true
    (sum <= report.Resbm.Report.compile_ms +. 0.5);
  checkb "maxflow ran" true (Obs.Profile.counter p "maxflow.runs" > 0);
  checkb "bfs phases counted" true (Obs.Profile.counter p "maxflow.bfs_phases" > 0);
  checkb "augmenting paths counted" true (Obs.Profile.counter p "maxflow.aug_paths" > 0);
  (* the full report serialises and parses back identically *)
  let json = Resbm.Report.to_json report in
  match Obs.Json.of_string (Obs.Json.to_string json) with
  | Ok v -> checkb "report JSON round-trips" true (Obs.Json.to_string v = Obs.Json.to_string json)
  | Error m -> Alcotest.fail m

let ms_opt_hoists_reported () =
  (* ReSBM_max runs the modswitch hoist pass; the count must land in the
     report instead of being dropped on the floor. *)
  let prm = Ckks.Params.default in
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let _, plain = Resbm.Variants.(compile resbm) prm lowered.Nn.Lowering.dfg in
  checki "ms_opt off reports 0 hoists" 0 plain.Resbm.Report.ms_opt_hoists;
  let _, maxed = Resbm.Variants.(compile resbm_max) prm lowered.Nn.Lowering.dfg in
  checkb "ms_opt hoist count non-negative" true (maxed.Resbm.Report.ms_opt_hoists >= 0);
  checki "hoist count matches profile counter"
    maxed.Resbm.Report.ms_opt_hoists
    (Obs.Profile.counter maxed.Resbm.Report.profile "ms_opt.hoists")

(* --- Cut values live in Metrics histograms ----------------------------------- *)

let cut_histograms_count_every_cut () =
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let m = Obs.Metrics.create () in
  let _, report =
    Obs.with_metrics m (fun () ->
        Resbm.Variants.compile Resbm.Variants.resbm Ckks.Params.default
          lowered.Nn.Lowering.dfg)
  in
  let cuts name = Obs.Profile.counter report.Resbm.Report.profile name in
  let observed name =
    match Obs.Metrics.histogram m name with Some h -> h.Obs.Metrics.hcount | None -> 0
  in
  checkb "smoplc cut" true (cuts "smoplc.cuts" > 0);
  checki "one smoplc_cut_value per cut" (cuts "smoplc.cuts") (observed "smoplc_cut_value");
  checki "one smoplc_region_nodes per cut" (cuts "smoplc.cuts")
    (observed "smoplc_region_nodes");
  checki "one btsplc_cut_value per cut" (cuts "btsplc.cuts") (observed "btsplc_cut_value");
  checki "one btsplc_subgraph_nodes per cut" (cuts "btsplc.cuts")
    (observed "btsplc_subgraph_nodes")

(* The profile keeps spans and counters only, so its size tracks the
   number of phases, not the number of min-cuts (ResNet20 runs ~7,000). *)
let resnet20_profile_is_bounded () =
  let lowered = Nn.Lowering.lower Nn.Model.resnet20 in
  let _, report =
    Resbm.Variants.(compile resbm) Ckks.Params.default lowered.Nn.Lowering.dfg
  in
  match Obs.Json.member "profile" (Resbm.Report.to_json report) with
  | Some profile ->
      let bytes = String.length (Obs.Json.to_string profile) in
      checkb (Printf.sprintf "profile JSON is %d bytes, bound 4096" bytes) true (bytes < 4096)
  | None -> Alcotest.fail "report JSON has no profile"

(* --- Chrome exporters ---------------------------------------------------------- *)

(* Hand-built inputs on fixed clocks; the expected strings pin every
   exporter byte for byte, field order included. *)
let chrome_trace_input () =
  let tr = Obs.Trace.create ~capacity:16 () in
  Obs.Trace.record tr ~op:"encode" ~cost_ms:0.25 ~level:9 ~scale_bits:40 ~size:2 ~noise:1e-7 ();
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 3; region = 0; freq = 2; cost_ms = 1.5 });
  Obs.Trace.record tr ~op:"mul_cc" ~noise_before:1e-7 ~level:8 ~scale_bits:80 ~size:3
    ~noise:3e-6 ();
  Obs.Trace.instant tr ~name:"rescale" ~detail:[ ("to_level", Obs.Json.Int 7) ] ();
  Obs.Trace.set_ctx tr (Some { Obs.Trace.node = 5; region = 2; freq = 1; cost_ms = 0.125 });
  Obs.Trace.record tr ~op:"bootstrap" ~level:12 ~scale_bits:40 ~size:2 ~noise:0.0 ();
  Obs.Trace.instant tr ~name:"bootstrap" ~node:9 ();
  Obs.Trace.set_ctx tr None;
  Obs.Trace.instant tr ~name:"fhe_error" ~detail:[ ("cause", Obs.Json.String "level") ] ();
  tr

let chrome_log_input =
  let r lseq level event msg ts_ms sim_ms compile_id pass region node domain fields =
    { Obs.Log.lseq; level; event; msg; ts_ms; sim_ms; compile_id; pass; region; node; domain;
      fields }
  in
  [
    r 0 Obs.Log.Info "plan_cache.miss" "plan not cached" 1.25 None 4 "" (-1) (-1) 0
      [ ("manager", Obs.Json.String "ReSBM") ];
    r 1 Obs.Log.Debug "pass.enter" "" 2.5 None 4 "region_build" (-1) (-1) 1 [];
    r 2 Obs.Log.Warn "recovery.retry" "retrying" 3.75 (Some 12.0625) (-1) "" 3 17 0
      [ ("attempt", Obs.Json.Int 2) ];
    r 3 Obs.Log.Error "fhe.error" "level underflow" 4.0 (Some 0.5) (-1) "" (-1) 2 0 [];
  ]

(* Host-clock exporters are pinned with every "ts"/"dur" masked to null. *)
let rec mask_clocks = function
  | Obs.Json.Obj fs ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) -> (k, if k = "ts" || k = "dur" then Obs.Json.Null else mask_clocks v))
           fs)
  | Obs.Json.List l -> Obs.Json.List (List.map mask_clocks l)
  | j -> j

let check_events label expected events =
  check Alcotest.(list string) label expected (List.map Obs.Json.to_string events)

let chrome_simulated_clock_exporters () =
  check_events "Trace.chrome_events"
    [
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"resbm execute\"}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"(unattributed)\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"sort_index\":1}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"region 0\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"sort_index\":2}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":4,\"args\":{\"name\":\"region 2\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":4,\"args\":{\"sort_index\":4}}";
      "{\"name\":\"encode\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":0.0,\"dur\":2.5e+02,\"pid\":1,\"tid\":1,\"args\":{\"node\":-1,\"region\":-1,\"freq\":1,\"level\":9,\"scale_bits\":40,\"size\":2,\"noise_before_bits\":2e+02,\"noise_after_bits\":23.253496664211536}}";
      "{\"name\":\"noise_headroom_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":2.5e+02,\"pid\":1,\"args\":{\"noise_headroom_bits\":23.253496664211536}}";
      "{\"name\":\"level\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":2.5e+02,\"pid\":1,\"args\":{\"level\":9}}";
      "{\"name\":\"scale_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":2.5e+02,\"pid\":1,\"args\":{\"scale_bits\":40}}";
      "{\"name\":\"mul_cc\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":2.5e+02,\"dur\":1.5e+03,\"pid\":1,\"tid\":2,\"args\":{\"node\":3,\"region\":0,\"freq\":2,\"level\":8,\"scale_bits\":80,\"size\":3,\"noise_before_bits\":23.253496664211536,\"noise_after_bits\":18.346606068603016}}";
      "{\"name\":\"noise_headroom_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1.75e+03,\"pid\":1,\"args\":{\"noise_headroom_bits\":18.346606068603016}}";
      "{\"name\":\"level\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1.75e+03,\"pid\":1,\"args\":{\"level\":8}}";
      "{\"name\":\"scale_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1.75e+03,\"pid\":1,\"args\":{\"scale_bits\":80}}";
      "{\"name\":\"rescale\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":1.75e+03,\"pid\":1,\"tid\":2,\"s\":\"t\",\"args\":{\"node\":3,\"to_level\":7}}";
      "{\"name\":\"bootstrap\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":1.75e+03,\"dur\":125.0,\"pid\":1,\"tid\":4,\"args\":{\"node\":5,\"region\":2,\"freq\":1,\"level\":12,\"scale_bits\":40,\"size\":2,\"noise_before_bits\":2e+02,\"noise_after_bits\":2e+02}}";
      "{\"name\":\"noise_headroom_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1875.0,\"pid\":1,\"args\":{\"noise_headroom_bits\":2e+02}}";
      "{\"name\":\"level\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1875.0,\"pid\":1,\"args\":{\"level\":12}}";
      "{\"name\":\"scale_bits\",\"cat\":\"state\",\"ph\":\"C\",\"ts\":1875.0,\"pid\":1,\"args\":{\"scale_bits\":40}}";
      "{\"name\":\"bootstrap\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":1875.0,\"pid\":1,\"tid\":4,\"s\":\"t\",\"args\":{\"node\":9}}";
      "{\"name\":\"fhe_error\",\"cat\":\"instant\",\"ph\":\"i\",\"ts\":1875.0,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"node\":-1,\"cause\":\"level\"}}";
    ]
    (Obs.Trace.chrome_events (chrome_trace_input ()));
  check_events "Trace.chrome_events ~pid ~name on an empty trace"
    [
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":7,\"tid\":0,\"args\":{\"name\":\"x\"}}";
    ]
    (Obs.Trace.chrome_events ~pid:7 ~name:"x" (Obs.Trace.create ()));
  check_events "Log.chrome_events"
    [
      "{\"name\":\"plan_cache.miss\",\"cat\":\"log.info\",\"ph\":\"i\",\"ts\":1.25e+03,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"level\":\"info\",\"msg\":\"plan not cached\",\"seq\":0,\"domain\":0,\"compile_id\":4,\"manager\":\"ReSBM\"}}";
      "{\"name\":\"pass.enter\",\"cat\":\"log.debug\",\"ph\":\"i\",\"ts\":2.5e+03,\"pid\":0,\"tid\":0,\"s\":\"t\",\"args\":{\"level\":\"debug\",\"seq\":1,\"domain\":1,\"compile_id\":4,\"pass\":\"region_build\"}}";
      "{\"name\":\"recovery.retry\",\"cat\":\"log.warn\",\"ph\":\"i\",\"ts\":12063.0,\"pid\":1,\"tid\":5,\"s\":\"t\",\"args\":{\"level\":\"warn\",\"msg\":\"retrying\",\"seq\":2,\"domain\":0,\"region\":3,\"node\":17,\"attempt\":2}}";
      "{\"name\":\"fhe.error\",\"cat\":\"log.error\",\"ph\":\"i\",\"ts\":5e+02,\"pid\":1,\"tid\":1,\"s\":\"t\",\"args\":{\"level\":\"error\",\"msg\":\"level underflow\",\"seq\":3,\"domain\":0,\"node\":2}}";
    ]
    (Obs.Log.chrome_events chrome_log_input);
  check_events "Log.chrome_events ~compile_pid ~exec_pid"
    [
      "{\"name\":\"plan_cache.miss\",\"cat\":\"log.info\",\"ph\":\"i\",\"ts\":1.25e+03,\"pid\":5,\"tid\":0,\"s\":\"t\",\"args\":{\"level\":\"info\",\"msg\":\"plan not cached\",\"seq\":0,\"domain\":0,\"compile_id\":4,\"manager\":\"ReSBM\"}}";
      "{\"name\":\"pass.enter\",\"cat\":\"log.debug\",\"ph\":\"i\",\"ts\":2.5e+03,\"pid\":5,\"tid\":0,\"s\":\"t\",\"args\":{\"level\":\"debug\",\"seq\":1,\"domain\":1,\"compile_id\":4,\"pass\":\"region_build\"}}";
      "{\"name\":\"recovery.retry\",\"cat\":\"log.warn\",\"ph\":\"i\",\"ts\":12063.0,\"pid\":6,\"tid\":5,\"s\":\"t\",\"args\":{\"level\":\"warn\",\"msg\":\"retrying\",\"seq\":2,\"domain\":0,\"region\":3,\"node\":17,\"attempt\":2}}";
      "{\"name\":\"fhe.error\",\"cat\":\"log.error\",\"ph\":\"i\",\"ts\":5e+02,\"pid\":6,\"tid\":1,\"s\":\"t\",\"args\":{\"level\":\"error\",\"msg\":\"level underflow\",\"seq\":3,\"domain\":0,\"node\":2}}";
    ]
    (Obs.Log.chrome_events ~compile_pid:5 ~exec_pid:6 chrome_log_input);
  let change path before after = { Obs.Explain.path; before; after } in
  check_events "Explain.perfetto_overlay"
    [
      "{\"traceEvents\":[{\"name\":\"a/0\",\"ph\":\"i\",\"ts\":0,\"pid\":99,\"tid\":1,\"s\":\"g\",\"args\":{\"before\":1,\"after\":2}},{\"name\":\"b\",\"ph\":\"i\",\"ts\":10,\"pid\":99,\"tid\":1,\"s\":\"g\",\"args\":{\"before\":null,\"after\":\"x\"}}],\"displayTimeUnit\":\"ms\"}";
    ]
    [
      Obs.Explain.perfetto_overlay
        [
          change [ "a"; "0" ] (Some (Obs.Json.Int 1)) (Some (Obs.Json.Int 2));
          change [ "b" ] None (Some (Obs.Json.String "x"));
        ];
    ]

let chrome_host_clock_exporters () =
  (* Nested spans only: siblings could share a start microsecond and
     swap places. *)
  let p = Obs.Profile.create () in
  Obs.Profile.span p "plan" (fun () -> Obs.Profile.span p "plan.dp" (fun () -> ()));
  check_events "profile_chrome_events"
    [
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"resbm compile\"}}";
      "{\"name\":\"plan\",\"cat\":\"compile\",\"ph\":\"X\",\"ts\":null,\"dur\":null,\"pid\":0,\"tid\":0,\"args\":{\"depth\":0}}";
      "{\"name\":\"plan.dp\",\"cat\":\"compile\",\"ph\":\"X\",\"ts\":null,\"dur\":null,\"pid\":0,\"tid\":0,\"args\":{\"depth\":1}}";
    ]
    (List.map mask_clocks (Obs.profile_chrome_events p));
  let rt = Obs.Rt.create () in
  check_events "Rt.chrome_events with no pools" [] (Obs.Rt.chrome_events rt);
  let worker id domain spans =
    {
      Obs.Rt.w_id = id;
      w_domain = domain;
      w_tasks = List.length spans;
      w_busy_ms = 1.0;
      w_idle_ms = 0.5;
      w_queue_wait_ms = 0.25;
      w_spans =
        List.map (fun (i, s, d) -> { Obs.Rt.t_index = i; t_start_ms = s; t_dur_ms = d }) spans;
    }
  in
  Obs.Rt.record_pool rt ~label:"btsmgr" ~jobs:2 ~tasks:3 ~wall_ms:2.0
    [ worker 0 1 [ (0, 0.0, 0.5); (2, 0.75, 0.25) ]; worker 1 2 [ (1, 0.125, 0.625) ] ];
  Obs.Rt.record_pool rt ~label:"smoplc" ~jobs:1 ~tasks:0 ~wall_ms:0.0 [ worker 0 1 [] ];
  check_events "Rt.chrome_events"
    [
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"resbm planner pool\"}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"btsmgr#0 w0 (domain 1)\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"sort_index\":1}}";
      "{\"name\":\"task 0\",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":null,\"dur\":null,\"pid\":2,\"tid\":1,\"args\":{\"index\":0,\"pool\":\"btsmgr\"}}";
      "{\"name\":\"task 2\",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":null,\"dur\":null,\"pid\":2,\"tid\":1,\"args\":{\"index\":2,\"pool\":\"btsmgr\"}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":2,\"args\":{\"name\":\"btsmgr#0 w1 (domain 2)\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":2,\"tid\":2,\"args\":{\"sort_index\":2}}";
      "{\"name\":\"task 1\",\"cat\":\"pool\",\"ph\":\"X\",\"ts\":null,\"dur\":null,\"pid\":2,\"tid\":2,\"args\":{\"index\":1,\"pool\":\"btsmgr\"}}";
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":65,\"args\":{\"name\":\"smoplc#1 w0 (domain 1)\"}}";
      "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":2,\"tid\":65,\"args\":{\"sort_index\":65}}";
    ]
    (List.map mask_clocks (Obs.Rt.chrome_events rt))

let suite =
  [
    case "timer: monotone" timer_monotone;
    case "counter: semantics" counter_semantics;
    case "span: nesting and results" span_semantics;
    case "span: recorded on exception" span_records_on_exception;
    case "ambient: no-op without profile, records with one" ambient_noop_and_install;
    case "ambient: maxflow reports counters" ambient_maxflow_counters;
    case "json: handwritten round-trip" json_roundtrip_handwritten;
    case "json: parses foreign input" json_parse_foreign;
    case "json: rejects garbage" json_rejects_garbage;
    json_float_roundtrip;
    case "json: profile serialisation" json_profile_serialisation;
    case "profile: tiny-model compile regression" compile_profile_regression;
    case "profile: ms_opt hoists reported" ms_opt_hoists_reported;
    case "metrics: cut histograms count every cut" cut_histograms_count_every_cut;
    case "profile: resnet20 profile JSON is bounded" resnet20_profile_is_bounded;
    case "chrome: simulated-clock exporters pinned" chrome_simulated_clock_exporters;
    case "chrome: host-clock exporters pinned" chrome_host_clock_exporters;
  ]
