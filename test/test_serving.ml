(* Slot-batched serving: batcher policies, scheduler invariants, SLO rule. *)
open Test_util

let prm = Ckks.Params.default

(* One plan cache for the whole suite: every campaign compiles the same
   tiny model, so all but the first hit the cache. *)
let cache = Resbm.Plan_cache.create ~capacity:64 ()

let mk_request rid ?(arrival = 0.0) ?(deadline = 1e9) payload =
  { Serving.Batcher.rid; arrival_ms = arrival; deadline_ms = deadline; payload }

let run cfg = Serving.Scheduler.run ~cache cfg

let base_config =
  {
    Serving.Scheduler.default with
    Serving.Scheduler.model = "tiny";
    l_max = 9;
    dim = 16;
    max_batch = 4;
    queue_depth = 16;
  }

(* --- batcher ----------------------------------------------------------- *)

let batcher_capacity () =
  let slots = Ckks.Params.slot_count prm in
  checki "cap bounded by max_batch" 4 (Serving.Batcher.capacity prm ~dim:16 ~max_batch:4);
  checki "cap bounded by slots" (slots / 16)
    (Serving.Batcher.capacity prm ~dim:16 ~max_batch:max_int);
  checki "cap floored at one" 1 (Serving.Batcher.capacity prm ~dim:(2 * slots) ~max_batch:4)

let batcher_pack_roundtrip () =
  let dim = 4 in
  let reqs =
    List.init 3 (fun b ->
        mk_request b (Array.init dim (fun i -> float_of_int ((b * dim) + i) +. 0.5)))
  in
  let packed = Serving.Batcher.pack ~dim ~slots:16 reqs in
  checki "padded to the full width" 16 (Array.length packed);
  check_float "block 1 slot 2 lands at offset 6" 6.5 packed.(6);
  check_float "tail padding is zero" 0.0 packed.(15);
  let ct =
    Ckks.Ciphertext.make ~slots:packed ~scale_bits:56 ~level:2 ~size:2 ~err:1e-12
  in
  let blocks = Serving.Batcher.unpack ~dim ~count:3 ct in
  checki "one block per request" 3 (List.length blocks);
  List.iteri
    (fun b block ->
      let r = List.nth reqs b in
      checkb "unpack returns the packed payload" true (block = r.Serving.Batcher.payload))
    blocks;
  (match Serving.Batcher.pack ~dim ~slots:8 reqs with
  | _ -> Alcotest.fail "expected overflow rejection"
  | exception Invalid_argument _ -> ())

let batcher_decide_policies () =
  let t = Serving.Batcher.create ~capacity:4 ~max_wait_ms:10.0 in
  let payload = [| 0.0 |] in
  let req rid arrival = mk_request rid ~arrival payload in
  (match Serving.Batcher.decide t ~now:0.0 ~next_arrival:None [] with
  | Serving.Batcher.Idle -> ()
  | _ -> Alcotest.fail "empty queue should idle");
  let pending = List.init 5 (fun i -> req i (float_of_int i)) in
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "full batch" 4 (List.length members);
      checki "overflow stays pending" 1 (List.length rest);
      checki "oldest first" 0 (List.hd members).Serving.Batcher.rid;
      checki "newest left behind" 4 (List.hd rest).Serving.Batcher.rid
  | _ -> Alcotest.fail "a full queue should dispatch");
  (match Serving.Batcher.decide t ~now:4.0 ~cap:2 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "degraded cap shrinks the batch" 2 (List.length members);
      checki "rest kept" 3 (List.length rest)
  | _ -> Alcotest.fail "degraded mode should still dispatch");
  (match Serving.Batcher.decide t ~now:4.0 ~cap:0 ~next_arrival:None pending with
  | Serving.Batcher.Dispatch (members, _) ->
      checki "cap clamps up to one" 1 (List.length members)
  | _ -> Alcotest.fail "cap 0 clamps to 1");
  let one = [ req 0 0.0 ] in
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:(Some 7.0) one with
  | Serving.Batcher.Wait_until w -> check_float "wake for the next arrival" 7.0 w
  | _ -> Alcotest.fail "partial batch inside the wait window should wait");
  (match Serving.Batcher.decide t ~now:4.0 ~next_arrival:(Some 20.0) one with
  | Serving.Batcher.Wait_until w -> check_float "wake at the fill deadline" 10.0 w
  | _ -> Alcotest.fail "late arrival should not extend the wait");
  match Serving.Batcher.decide t ~now:10.0 ~next_arrival:(Some 20.0) one with
  | Serving.Batcher.Dispatch (members, rest) ->
      checki "max-wait flushes a partial batch" 1 (List.length members);
      checki "nothing left" 0 (List.length rest)
  | _ -> Alcotest.fail "oldest request past max_wait should dispatch"

(* --- scheduler determinism --------------------------------------------- *)

let det_config =
  {
    base_config with
    Serving.Scheduler.seed = 0xD17E5L;
    arrival = Serving.Scheduler.Poisson 40.0;
    duration_ms = 800.0;
    chaos_rate = 0.1;
  }

let scheduler_is_deterministic () =
  let render r = Obs.Json.to_string (Serving.Scheduler.to_json r) in
  let a = render (run det_config) in
  let b = render (run det_config) in
  check Alcotest.string "byte-identical reports across runs" a b

(* --- conservation: every arrival terminates exactly once ---------------- *)

let check_conservation (r : Serving.Scheduler.report) =
  checki "every arrival reported once" r.Serving.Scheduler.arrivals
    (List.length r.Serving.Scheduler.requests);
  checki "completed + failed + shed = arrivals" r.Serving.Scheduler.arrivals
    (r.Serving.Scheduler.completed + r.Serving.Scheduler.failed + r.Serving.Scheduler.shed);
  let late_sheds =
    match List.assoc_opt "retry_wont_fit" r.Serving.Scheduler.shed_by_reason with
    | Some n -> n
    | None -> 0
  in
  checki "admitted = completed + failed + retry_wont_fit sheds"
    r.Serving.Scheduler.admitted
    (r.Serving.Scheduler.completed + r.Serving.Scheduler.failed + late_sheds);
  checki "shed reasons sum to shed" r.Serving.Scheduler.shed
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Serving.Scheduler.shed_by_reason);
  checki "failure causes sum to failed" r.Serving.Scheduler.failed
    (List.fold_left (fun a (_, n) -> a + n) 0 r.Serving.Scheduler.failed_by_cause);
  List.iteri
    (fun i (req : Serving.Scheduler.request_report) ->
      checki "request ids are dense and ordered" i req.Serving.Scheduler.rid)
    r.Serving.Scheduler.requests

let conservation_under_random_load =
  qcheck ~count:8 "shed + completed + failed = arrivals for random campaigns"
    QCheck2.Gen.(triple (int_bound 0xFFFF) (float_range 5.0 120.0) (float_range 0.0 0.15))
    (fun (seed, rate, chaos) ->
      let cfg =
        {
          base_config with
          Serving.Scheduler.seed = Int64.of_int (seed lor 1);
          arrival = Serving.Scheduler.Poisson rate;
          duration_ms = 700.0;
          chaos_rate = chaos;
        }
      in
      check_conservation (run cfg);
      true)

(* --- deadline vs retry budget ------------------------------------------ *)

(* Two simultaneous arrivals form one full batch; chaos with in-batch
   recovery disabled fails the dispatch, and the SLO (1.5x one clean
   execution) cannot fit the re-run, so both members must be shed as
   retry_wont_fit instead of being retried past their deadline. *)
let retry_that_cannot_fit_is_shed () =
  let replay = Serving.Scheduler.Replay [ 0.0; 1.0 ] in
  let probe =
    {
      base_config with
      Serving.Scheduler.seed = 0xFEEDL;
      arrival = replay;
      duration_ms = 10.0;
      max_batch = 2;
    }
  in
  let est = (run probe).Serving.Scheduler.est_batch_ms in
  checkb "reference run produced a latency estimate" true (est > 0.0);
  let cfg =
    {
      probe with
      Serving.Scheduler.slo_ms = 1.5 *. est;
      chaos_rate = 0.9;
      chaos_budget = 64;
      max_retries = 2;
      recovery =
        { Resilience.Recovery.default with Resilience.Recovery.max_attempts = 0 };
    }
  in
  let r = run cfg in
  check_conservation r;
  checki "both arrivals admitted" 2 r.Serving.Scheduler.admitted;
  checki "one dispatch, no re-dispatch past the deadline" 1
    r.Serving.Scheduler.batches_run;
  checki "nothing completed" 0 r.Serving.Scheduler.completed;
  (match List.assoc_opt "retry_wont_fit" r.Serving.Scheduler.shed_by_reason with
  | Some n -> checki "both members shed immediately" 2 n
  | None -> Alcotest.fail "expected retry_wont_fit sheds");
  List.iter
    (fun (req : Serving.Scheduler.request_report) ->
      checki "each shed request rode exactly one dispatch" 1
        req.Serving.Scheduler.attempts;
      match req.Serving.Scheduler.outcome with
      | Serving.Scheduler.Shed reason ->
          check Alcotest.string "reason" "retry_wont_fit" reason
      | _ -> Alcotest.fail "expected a shed outcome")
    r.Serving.Scheduler.requests

let completions_respect_the_slo () =
  let r = run det_config in
  checkb "campaign completed some requests" true (r.Serving.Scheduler.completed > 0);
  List.iter
    (fun (req : Serving.Scheduler.request_report) ->
      match (req.Serving.Scheduler.outcome, req.Serving.Scheduler.service_ms) with
      | Serving.Scheduler.Completed, Some s ->
          checkb "completed inside the SLO" true (s <= r.Serving.Scheduler.slo_ms +. 1e-9)
      | Serving.Scheduler.Completed, None ->
          Alcotest.fail "completed request without a service latency"
      | _ -> ())
    r.Serving.Scheduler.requests

(* --- per-request recovery accounting ------------------------------------ *)

let recovery_config =
  {
    base_config with
    Serving.Scheduler.seed = 0xACC7L;
    arrival = Serving.Scheduler.Poisson 40.0;
    duration_ms = 1200.0;
    chaos_rate = 0.25;
    chaos_budget = 4;
  }

let recovery_sums_per_request () =
  let r = run recovery_config in
  check_conservation r;
  let batch_total =
    List.fold_left
      (fun acc (b : Serving.Scheduler.batch_report) ->
        List.fold_left
          (fun a (_, v) -> a +. v)
          acc b.Serving.Scheduler.recovery_ms_by_kind)
      0.0 r.Serving.Scheduler.batches
  in
  let request_total =
    List.fold_left
      (fun acc (req : Serving.Scheduler.request_report) ->
        acc +. req.Serving.Scheduler.recovery_ms)
      0.0 r.Serving.Scheduler.requests
  in
  checkb "chaos actually exercised recovery" true (batch_total > 0.0);
  check_float ~eps:1e-6 "per-request recovery sums to the batch totals" batch_total
    request_total;
  let report_total =
    List.fold_left (fun a (_, v) -> a +. v) 0.0 r.Serving.Scheduler.recovery_ms_by_kind
  in
  check_float ~eps:1e-6 "campaign merge preserves the total" batch_total report_total

(* --- metrics + health --------------------------------------------------- *)

let campaign_feeds_metrics () =
  let m = Obs.Metrics.create () in
  let r = Obs.with_metrics m (fun () -> run det_config) in
  checki "admissions counted" r.Serving.Scheduler.admitted
    (Obs.Metrics.counter_value m "serve_admitted_total");
  checki "completions counted" r.Serving.Scheduler.completed
    (Obs.Metrics.counter_value m "serve_completed_total");
  let plain = run det_config in
  check Alcotest.string "report is independent of instrumentation"
    (Obs.Json.to_string (Serving.Scheduler.to_json r))
    (Obs.Json.to_string (Serving.Scheduler.to_json plain))

let find_check rule (v : Obs.Health.verdict) =
  match List.find_opt (fun c -> c.Obs.Health.rule = rule) v.Obs.Health.checks with
  | Some c -> c
  | None -> Alcotest.failf "missing %s check" rule

let slo_rule_reads_serving_counters () =
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      Obs.metric_incr ~by:10 "serve_admitted_total";
      Obs.metric_incr ~by:8 "serve_completed_total");
  let c = find_check "slo-attainment" (Obs.Health.evaluate m) in
  checkb "applicable once requests were admitted" true c.Obs.Health.applicable;
  check_float "attainment measured" 0.8 c.Obs.Health.value;
  checkb "0.8 fails the default 0.95 floor" true (c.Obs.Health.severity = Obs.Health.Fail);
  let lax =
    { Obs.Health.default_thresholds with Obs.Health.slo_attainment_floor = 0.75 }
  in
  let c = find_check "slo-attainment" (Obs.Health.evaluate ~thresholds:lax m) in
  checkb "passes a lower floor" true (c.Obs.Health.severity = Obs.Health.Pass);
  let idle = find_check "slo-attainment" (Obs.Health.evaluate (Obs.Metrics.create ())) in
  checkb "vacuous with no admissions" false idle.Obs.Health.applicable

let suite =
  [
    case "batcher capacity respects slots and max_batch" batcher_capacity;
    case "pack/unpack round-trips block payloads" batcher_pack_roundtrip;
    case "batch formation policy: full, degraded, max-wait" batcher_decide_policies;
    case "campaign reports are byte-deterministic across runs"
      scheduler_is_deterministic;
    conservation_under_random_load;
    case "a retry that cannot fit its deadline is shed immediately"
      retry_that_cannot_fit_is_shed;
    case "completed requests finish inside the SLO" completions_respect_the_slo;
    case "per-request recovery latency sums to batch totals" recovery_sums_per_request;
    case "campaigns feed serve_* metrics without changing the report"
      campaign_feeds_metrics;
    case "health: slo-attainment rule" slo_rule_reads_serving_counters;
  ]
