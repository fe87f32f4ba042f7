(* The ReSBM benchmark.

     resbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads (see resbench/README.md for why each was chosen):
     compile-cold  cold ReSBM compiles of the 28 (model, l_max) cells, -j 1
     serve-chaos   slot-batched serving campaigns under fault injection

   With --trace 0 the run measures the end-to-end metrics; with --trace 1
   it records benchmark-side spans around every call into the program and
   reports per-layer metrics instead.  The last line of standard output is
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  Any
   failed output check makes the exit code 1. *)

open Resbench
module S = Serving.Scheduler

type args = { workload : string; seed : int64; seconds : float; trace : bool }

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("resbench: " ^ msg);
      exit 2)
    fmt

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        (match Int64.of_string_opt v with
        | Some s -> seed := Some s
        | None -> die "bad --seed %S" v);
        go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> die "bad --seconds %S" v);
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := v = "1";
        go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds -> { workload; seed; seconds; trace = !trace }
  | _ -> die "usage: resbench --workload NAME --seed N --seconds S [--trace 0|1]"

(* --- Measurement plumbing ----------------------------------------------- *)

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, 1000.0 *. (now () -. t0))

(* Per-op samples, by name; turned into metrics at the end of the run. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let get_rev k = Option.value ~default:[] (Hashtbl.find_opt samples k)
let add k v = Hashtbl.replace samples k (v :: get_rev k)
let get k = List.rev (get_rev k)
let mean_of k = match get k with [] -> 0.0 | l -> Obs.Stat.mean l
let sum_of k = Stats.sum (get k)
let ratio a b = if b > 0.0 then a /. b else 0.0

(* GC pressure of one op, from the calling domain's counters. *)
let gc_op f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  add "gc.minor_mwords" ((s1.Gc.minor_words -. s0.Gc.minor_words) /. 1e6);
  add "gc.major" (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections));
  r

(* Ops attempted and ops with at least one failed check or exception. *)
let attempted = ref 0
let failed = ref 0

let check_op name f =
  incr attempted;
  let errors = try f () with e -> [ Printexc.to_string e ] in
  if errors <> [] then begin
    incr failed;
    List.iter (fun e -> Printf.eprintf "resbench: FAIL %s: %s\n%!" name e) errors
  end

(* The process's peak resident set, [VmHWM]. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec find () =
      match String.split_on_char ':' (input_line ic) with
      | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%f kB" (fun kb -> kb /. 1024.0)
      | _ -> find ()
    in
    find ()
  with _ -> die "cannot read VmHWM from /proc/self/status"

(* Set-up runs [reps] times; the reported set-up time is the median. *)
let setup_reps reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let v, ms = timed f in
    times := (ms /. 1000.0) :: !times;
    last := Some v
  done;
  (Option.get !last, Obs.Stat.median !times)

(* Whole passes until [seconds] have elapsed, at least [min_passes]:
   every pass weighs every input the same, so the percentiles do not move
   with where a time limit happens to cut a pass. *)
let run_passes ~seconds ~min_passes f =
  let t0 = now () in
  let p = ref 0 in
  while !p < min_passes || now () -. t0 < seconds do
    f !p;
    incr p
  done;
  !p

(* The traced runs: whole passes too, at least one, so every per-layer
   figure is a mean over the same inputs whatever the machine's speed.
   Jobs are numbered across passes.  Returns the pass count. *)
let traced_passes ~seconds ~seed ~cells f =
  let job = ref 0 in
  run_passes ~seconds ~min_passes:1 (fun p ->
      Array.iter
        (fun i ->
          f ~job:!job i;
          incr job)
        (Gen.pass_order ~seed ~cells p))

let bits_of_err e = if e > 0.0 then -.Float.log2 e else 64.0

(* The end-to-end metrics every untraced run derives from its job samples. *)
let job_metrics ~setup_s =
  let jobs_ms = get "job_ms" in
  let n = List.length jobs_ms in
  Printf.printf
    "  p80 over %d samples leaves %d beyond it; highest percentile with >= 10 beyond: p%d\n" n
    (Stats.beyond ~n 0.8) (Stats.highest_supported n);
  [
    ("setup_s", setup_s);
    ("job_p50_ms", Stats.harrell_davis jobs_ms 0.5);
    ("job_p80_ms", Stats.harrell_davis jobs_ms 0.8);
    ("jobs_per_s", ratio (float_of_int n) (Stats.sum jobs_ms /. 1000.0));
    ("plan_latency_geomean_s", Stats.geomean (get "plan_latency_s"));
    ("precision_bits_min", bits_of_err (List.fold_left Float.max 0.0 (get "precision_err")));
  ]

(* Simulated inference agrees with the plain reference on [inputs] seeded
   inputs: same argmax (a near-tie inside the error is accepted) and max
   |err| under [precision_bound].  Returns the largest error. *)
let precision_bound = Float.pow 2.0 (-16.0)

let precision_check ~seed ~salt ~inputs prm lowered managed =
  let dim = 16 in
  let classes = min dim lowered.Nn.Lowering.model.Nn.Model.classes in
  let worst = ref 0.0 and errors = ref [] in
  for j = 0 to inputs - 1 do
    let salt = (salt * 16) + j in
    let x = Gen.input ~seed ~salt ~dim in
    let plain = Nn.Inference.run_plain lowered ~dim x in
    let ev_seed = Gen.next (Gen.derive seed (Int64.of_int (9000 + salt))) in
    let enc, _ = Nn.Inference.run_encrypted (Ckks.Evaluator.create ~seed:ev_seed prm) lowered ~managed x in
    let err = ref 0.0 in
    for i = 0 to classes - 1 do
      err := Float.max !err (Float.abs (plain.(i) -. enc.(i)))
    done;
    worst := Float.max !worst !err;
    if !err > precision_bound then
      errors := Printf.sprintf "max |err| %.3e above bound %.3e" !err precision_bound :: !errors;
    let a = Nn.Dataset.argmax ~classes plain and b = Nn.Dataset.argmax ~classes enc in
    if a <> b && plain.(a) -. plain.(b) > 2.0 *. !err then
      errors := Printf.sprintf "argmax %d (encrypted) vs %d (plain)" b a :: !errors
  done;
  (!worst, !errors)

(* --- Compile workload ----------------------------------------------------- *)

let l_maxes = [ 16; 14; 12; 10 ]

(* Fig. 7 parameters: bootstrap ceiling l_max, inputs fresh at l_max. *)
let params l = Ckks.Params.with_l_max { Ckks.Params.default with Ckks.Params.input_level = l } l

type cell = { model : Nn.Model.t; lowered : Nn.Lowering.t; l_max : int; prm : Ckks.Params.t }

let cell_name c = Printf.sprintf "%s@%d" c.model.Nn.Model.name c.l_max

(* Table 3's ReSBM column (seconds, l_max 16), the external yardstick. *)
let paper_table3 =
  [
    ("ResNet20", 0.128); ("ResNet44", 0.290); ("ResNet110", 0.773); ("AlexNet", 0.050);
    ("VGG16", 0.094); ("SqueezeNet", 0.147); ("MobileNet", 0.185);
  ]

let compile ~certify ~jobs c =
  Resbm.Variants.compile ~certify ~jobs Resbm.Variants.resbm c.prm c.lowered.Nn.Lowering.dfg

let compile_setup () =
  let cells =
    Array.of_list
      (List.concat_map
         (fun model ->
           let lowered = Nn.Lowering.lower model in
           List.map (fun l_max -> { model; lowered; l_max; prm = params l_max }) l_maxes)
         Nn.Model.paper_models)
  in
  (* Warm-up compile of the smallest cell: code and heap paged in. *)
  let smallest (c : cell) = c.model == Nn.Model.alexnet && c.l_max = 10 in
  ignore (compile ~certify:false ~jobs:1 (Option.get (Array.find_opt smallest cells)));
  cells

(* Every compile: no error-severity certification diagnostic, and the
   scale checker accepts the managed graph. *)
let output_errors c managed diags =
  List.concat_map
    (fun (group, d) ->
      if Analysis.Diag.has_errors d then
        [ Printf.sprintf "%s: %d error diagnostics" group (List.length d) ]
      else [])
    diags
  @
  match Fhe_ir.Scale_check.run c.prm managed with
  | Ok _ -> []
  | Error vs ->
      [ Printf.sprintf "Scale_check rejects the managed graph (%d violations)" (List.length vs) ]

(* What two compiles of one cell must agree on; cheap enough for every job. *)
let fingerprint (r : Resbm.Report.t) =
  (Int64.bits_of_float r.Resbm.Report.latency_ms, r.Resbm.Report.stats, r.Resbm.Report.segments)

let digest c managed report =
  let json = Resbm.Explain.digest c.prm ~managed report in
  Digest.to_hex (Digest.string (Obs.Json.to_string json))

(* Per distinct cell, the first time a run meets it: the precision check,
   and the fingerprint later compiles of the cell must repeat. *)
let first_visit ~seed seen ci c managed report =
  let err, errors = precision_check ~seed ~salt:ci ~inputs:2 c.prm c.lowered managed in
  add "precision_err" err;
  Hashtbl.replace seen ci (fingerprint report);
  errors

let revisit seen ci report =
  match Hashtbl.find_opt seen ci with
  | Some fp when fp <> fingerprint report -> [ "plan differs from this cell's earlier compile" ]
  | _ -> []

let print_cells cells per_cell plans =
  Printf.printf "\nPer cell: plan latency and plan digest:\n";
  Array.iteri
    (fun ci c ->
      Option.iter
        (fun (plan_s, d) -> Printf.printf "  %-14s %12.3f sim_s  %s\n" (cell_name c) plan_s d)
        (Hashtbl.find_opt plans ci))
    cells;
  Printf.printf "\nPer model at l_max 16, median s (not gated):\n";
  Printf.printf "  %-11s %10s %14s\n" "model" "-j 1" "paper Table 3";
  Array.iteri
    (fun ci c ->
      if c.l_max = 16 then
        let ts = Option.value ~default:[] (Hashtbl.find_opt per_cell ci) in
        Printf.printf "  %-11s %10.3f %14.3f\n" c.model.Nn.Model.name
          (Obs.Stat.median ts /. 1000.0)
          (List.assoc c.model.Nn.Model.name paper_table3))
    cells

let run_compile_untraced args =
  let cells, setup_s = setup_reps 5 compile_setup in
  let seen = Hashtbl.create 32 and per_cell = Hashtbl.create 32 and plans = Hashtbl.create 32 in
  let passes =
    run_passes ~seconds:args.seconds ~min_passes:1 (fun p ->
        Array.iter
          (fun ci ->
            let c = cells.(ci) in
            check_op (cell_name c) (fun () ->
                let (managed, report), ms =
                  gc_op (fun () -> timed (fun () -> compile ~certify:true ~jobs:1 c))
                in
                let plan_s = report.Resbm.Report.latency_ms /. 1000.0 in
                add "job_ms" ms;
                add "plan_latency_s" plan_s;
                let history = Option.value ~default:[] (Hashtbl.find_opt per_cell ci) in
                Hashtbl.replace per_cell ci (ms :: history);
                let visit =
                  if Hashtbl.mem seen ci then revisit seen ci report
                  else begin
                    Hashtbl.replace plans ci (plan_s, digest c managed report);
                    first_visit ~seed:args.seed seen ci c managed report
                  end
                in
                output_errors c managed (Resbm.Driver.certify_diags c.prm managed report) @ visit))
          (Gen.pass_order ~seed:args.seed ~cells:(Array.length cells) p))
  in
  Printf.printf "%s: %d passes, %d compiles, %d distinct cells\n" args.workload passes
    (List.length (get "job_ms"))
    (Hashtbl.length seen);
  let metrics = job_metrics ~setup_s in
  print_cells cells per_cell plans;
  metrics

(* Replay probes: re-run each planner layer through its public entry point
   on the job's inputs, each in its own span, and check that the replayed
   cuts equal the recorded ones. *)
let replay sp ~job c (report : Resbm.Report.t) =
  let span name f = Spans.with_span sp ~job name f in
  let timed_span name f =
    let t0 = Spans.now_ms sp in
    let r = span name f in
    (r, Spans.now_ms sp -. t0)
  in
  let errors = ref [] in
  let same what (recorded : float) (replayed : float) =
    if recorded <> replayed then
      errors :=
        Printf.sprintf "%s replayed cut %.17g <> recorded %.17g" what replayed recorded :: !errors
  in
  span "replay" @@ fun () ->
  let regioned, build_ms =
    timed_span "region.build" (fun () -> Resbm.Region.build c.lowered.Nn.Lowering.dfg)
  in
  let plan, plan_ms =
    timed_span "btsmgr.plan" (fun () ->
        Resbm.Btsmgr.plan ~config:Resbm.Variants.resbm.Resbm.Variants.config regioned c.prm)
  in
  let _, apply_ms = timed_span "plan.apply" (fun () -> Resbm.Plan.apply regioned c.prm plan) in
  add "region.build_ms" build_ms;
  add "btsmgr.plan_ms" plan_ms;
  add "plan.apply_ms" apply_ms;
  if plan.Resbm.Btsmgr.segments <> report.Resbm.Report.segments then
    errors := "replayed plan's bootstrap segments differ from the driver's" :: !errors;
  Array.iteri
    (fun region (a : Resbm.Btsmgr.region_action) ->
      (match a.Resbm.Btsmgr.smo_cut with
      | Some ({ Resbm.Cut.cert = Some _; _ } as cut) ->
          let level = a.Resbm.Btsmgr.entry_level in
          let cut', ms =
            timed_span "smoplc" (fun () -> Resbm.Smoplc.run regioned c.prm ~region ~level)
          in
          add "smoplc.call_us" (1000.0 *. ms);
          same "smoplc" cut.Resbm.Cut.value cut'.Resbm.Cut.value
      | _ -> ());
      match a.Resbm.Btsmgr.bts with
      | Some { Resbm.Btsmgr.target; cut = Some ({ Resbm.Cut.cert = Some _; _ } as cut); subgraph } ->
          let cut', ms =
            timed_span "btsplc" (fun () ->
                Resbm.Btsplc.run regioned c.prm ~region ~lbts:target ~subgraph)
          in
          add "btsplc.call_us" (1000.0 *. ms);
          same "btsplc" cut.Resbm.Cut.value cut'.Resbm.Cut.value
      | _ -> ())
    plan.Resbm.Btsmgr.actions;
  List.iter
    (fun (e : Resbm.Report.certificate_entry) ->
      let cert = e.Resbm.Report.ce_cert in
      let cut, ms =
        timed_span "maxflow" (fun () ->
            Graphlib.Maxflow.min_cut
              (Graphlib.Maxflow.of_certificate cert)
              ~source:cert.Graphlib.Maxflow.cert_source ~sink:cert.Graphlib.Maxflow.cert_sink)
      in
      add "maxflow.solve_us" (1000.0 *. ms);
      same "maxflow" cert.Graphlib.Maxflow.cert_value cut.Graphlib.Maxflow.value)
    report.Resbm.Report.certificates;
  !errors

(* The driver's phases that the replay repeats, by profile span name. *)
let own_phases = [ "region_build"; "plan"; "apply" ]

let profile_counters =
  [
    "btsmgr.segment_evals"; "btsmgr.candidates"; "scalemgr.plans"; "region_eval.computes";
    "smoplc.cuts"; "btsplc.cuts"; "maxflow.runs"; "maxflow.bfs_phases"; "maxflow.aug_paths";
  ]

let record_par rt =
  let pools = Obs.Rt.pools rt in
  let workers = List.concat_map (fun p -> p.Obs.Rt.p_workers) pools in
  let wsum f = Stats.sum (List.map f workers) in
  add "par.tasks" (float_of_int (List.fold_left (fun acc p -> acc + p.Obs.Rt.p_tasks) 0 pools));
  add "par.busy_ms" (wsum (fun w -> w.Obs.Rt.w_busy_ms));
  add "par.idle_ms" (wsum (fun w -> w.Obs.Rt.w_idle_ms));
  add "par.queue_wait_ms" (wsum (fun w -> w.Obs.Rt.w_queue_wait_ms))

(* The traced compile: the driver, then certification, each in a span under
   one compile span — the same work as [compile ~certify:true]. *)
let traced_compile sp ~job c =
  let (managed, report, diags, driver_ms), span_ms =
    timed (fun () ->
        Spans.with_span sp ~job "compile" @@ fun () ->
        let (managed, report), driver_ms =
          timed (fun () ->
              Spans.with_span sp ~job "driver" (fun () -> compile ~certify:false ~jobs:1 c))
        in
        let diags, certify_ms =
          timed (fun () ->
              Spans.with_span sp ~job "certify" (fun () ->
                  Resbm.Driver.certify_diags c.prm managed report))
        in
        add "certify.ms" certify_ms;
        (managed, report, diags, driver_ms))
  in
  add "compile.span_ms" span_ms;
  (managed, report, diags, span_ms, driver_ms)

(* The domain pool, probed from outside: the same compile at -j 2 with the
   pool's telemetry collector ([Obs.with_rt]) and a metrics registry
   installed.  Its plan digest must equal the -j 1 plan's.  A -j 2 compile
   takes seconds, so only a fixed set of cells is probed: every model at
   l_max 10. *)
let par_probed c = c.l_max = 10

let par_probe sp ~job c managed report =
  let rt = Obs.Rt.create () and metrics = Obs.Metrics.create () in
  let (m2, r2), ms =
    timed (fun () ->
        Spans.with_span sp ~job "par.compile_j2" (fun () ->
            Obs.with_rt rt (fun () ->
                Obs.with_metrics metrics (fun () -> compile ~certify:false ~jobs:2 c))))
  in
  add "par.compile_j2_ms" ms;
  record_par rt;
  if digest c m2 r2 = digest c managed report then []
  else [ "plan digest at -j 2 differs from -j 1" ]

(* The driver's own phase spans, from its compile profile, by name. *)
let own_phase_ms (report : Resbm.Report.t) name =
  List.fold_left
    (fun acc (s : Obs.Profile.span) ->
      if s.Obs.Profile.depth = 0 && s.Obs.Profile.name = name then acc +. s.Obs.Profile.dur_ms
      else acc)
    0.0
    (Obs.Profile.spans report.Resbm.Report.profile)

(* Jobs whose own phases outlast their driver span, so that driver.other
   was clamped at 0. *)
let other_clamped = ref 0

let run_compile_traced args =
  let cells = compile_setup () in
  let sp = Spans.create () in
  let seen = Hashtbl.create 32 in
  let passes =
    traced_passes ~seconds:args.seconds ~seed:args.seed ~cells:(Array.length cells) (fun ~job ci ->
        let c = cells.(ci) in
        check_op (cell_name c) (fun () ->
            (* Untraced twin of the same job, for the tracing overhead; the
               order alternates so neither side always runs warm. *)
            let untraced () =
              snd (gc_op (fun () -> timed (fun () -> compile ~certify:true ~jobs:1 c)))
            in
            let first = if job mod 2 = 0 then Some (untraced ()) else None in
            let managed, report, diags, span_ms, driver_ms = traced_compile sp ~job c in
            let plain_ms = match first with Some ms -> ms | None -> untraced () in
            let profile = report.Resbm.Report.profile in
            add "overhead" (span_ms /. plain_ms);
            List.iter (fun k -> add k (float_of_int (Obs.Profile.counter profile k))) profile_counters;
            (* The driver span, split by the driver's own phase spans. *)
            let own = List.map (fun p -> (p, own_phase_ms report p)) own_phases in
            List.iter (fun (p, ms) -> add ("own." ^ p) ms) own;
            let other = driver_ms -. Stats.sum (List.map snd own) in
            if other < 0.0 then incr other_clamped;
            add "driver.other_ms" (Float.max 0.0 other);
            add "region.count" (float_of_int report.Resbm.Report.region_count);
            add "plan.repair_bootstraps" (float_of_int report.Resbm.Report.repair_bootstraps);
            add "certify.certificates"
              (float_of_int (List.length report.Resbm.Report.certificates));
            let replay_errors = replay sp ~job c report in
            let visit =
              if Hashtbl.mem seen ci then revisit seen ci report
              else first_visit ~seed:args.seed seen ci c managed report
            in
            let par_errors = if par_probed c then par_probe sp ~job c managed report else [] in
            output_errors c managed diags @ replay_errors @ visit @ par_errors))
  in
  Printf.printf "compile-cold traced: %d whole passes, each over all %d cells:\n  %s\n" passes
    (Array.length cells)
    (String.concat " " (Array.to_list (Array.map cell_name cells)));
  Printf.printf "  probed at -j 2 (digest checked) in every pass: %s\n"
    (String.concat " "
       (List.filter_map
          (fun c -> if par_probed c then Some (cell_name c) else None)
          (Array.to_list cells)));
  sp

(* --- Serving workload ----------------------------------------------------- *)

(* Model, arrivals per campaign, campaigns per load band.  Arrival counts
   keep each campaign well under a second of wall time.  Campaign wall times
   cluster by model (tiny < lenet5 < squeezenet < resnet20), so the campaign
   counts put the median inside the squeezenet cluster and p80 inside the
   resnet20 one, not on a gap between clusters where it would jump. *)
let serve_models =
  [ ("tiny", 48, 1); ("lenet5", 32, 1); ("squeezenet", 12, 3); ("resnet20", 12, 3) ]

let serve_base = { S.default with S.dim = 16; max_batch = 8; chaos_rate = 0.02 }

type served = {
  name : string;
  s_prm : Ckks.Params.t;
  s_lowered : Nn.Lowering.t;
  s_managed : Fhe_ir.Dfg.t;
  s_report : Resbm.Report.t;
  capacity : int;
  capacity_rps : float;
}

(* Fill the plan cache through the scheduler itself (a campaign with no
   arrivals compiles and prices the model), then read the served plan back
   from the cache. *)
let serve_setup () =
  let cache = Resbm.Plan_cache.create () in
  let served =
    List.map
      (fun (name, _, _) ->
        let r0 =
          S.run ~cache { serve_base with S.model = name; arrival = S.Replay []; duration_ms = 0.0 }
        in
        let s_prm = params serve_base.S.l_max in
        let s_lowered = Nn.Lowering.lower (Option.get (Nn.Model.by_name name)) in
        let s_managed, s_report =
          Resbm.Driver.compile_robust ~cache s_prm s_lowered.Nn.Lowering.dfg
        in
        let capacity = r0.S.slot_capacity in
        {
          name;
          s_prm;
          s_lowered;
          s_managed;
          s_report;
          capacity;
          capacity_rps = float_of_int capacity /. r0.S.est_batch_ms *. 1000.0;
        })
      serve_models
  in
  (cache, served)

let campaign_config (c : Gen.campaign) =
  {
    serve_base with
    S.seed = c.Gen.campaign_seed;
    model = c.Gen.model;
    arrival = S.Replay c.Gen.arrivals_ms;
    duration_ms = c.Gen.duration_ms;
  }

let campaign_specs ~seed served =
  let models =
    List.map2 (fun s (_, n, per_band) -> (s.name, s.capacity_rps, n, per_band)) served serve_models
  in
  Array.of_list (Gen.campaigns ~seed models)

let campaign_name i (c : Gen.campaign) =
  Printf.sprintf "campaign %d (%s, %s)" i c.Gen.model (Gen.band_name c.Gen.band)

let served_model served (c : Gen.campaign) = List.find (fun s -> s.name = c.Gen.model) served

let conservation (c : Gen.campaign) (r : S.report) =
  if r.S.completed + r.S.shed + r.S.failed <> r.S.arrivals then
    [
      Printf.sprintf "completed %d + shed %d + failed %d <> arrivals %d" r.S.completed r.S.shed
        r.S.failed r.S.arrivals;
    ]
  else if r.S.arrivals <> List.length c.Gen.arrivals_ms then
    [ Printf.sprintf "%d arrivals offered, %d recorded" (List.length c.Gen.arrivals_ms) r.S.arrivals ]
  else []

let served_checks ~seed served =
  List.iteri
    (fun i s ->
      check_op ("precision " ^ s.name) (fun () ->
          let err, errors =
            precision_check ~seed ~salt:(100 + i) ~inputs:8 s.s_prm s.s_lowered s.s_managed
          in
          add "precision_err" err;
          errors))
    served

let run_serve_untraced args =
  let (cache, served), setup_s = setup_reps 5 serve_setup in
  served_checks ~seed:args.seed served;
  let specs = campaign_specs ~seed:args.seed served in
  let first_json = Hashtbl.create 64 and first_report = Hashtbl.create 64 in
  let passes =
    run_passes ~seconds:args.seconds ~min_passes:2 (fun p ->
        Array.iter
          (fun i ->
            let c = specs.(i) in
            check_op (campaign_name i c) (fun () ->
                let r, ms = gc_op (fun () -> timed (fun () -> S.run ~cache (campaign_config c))) in
                add "job_ms" ms;
                add "arrivals" (float_of_int r.S.arrivals);
                add "plan_latency_s"
                  ((served_model served c).s_report.Resbm.Report.latency_ms /. 1000.0);
                let json = Obs.Json.to_string (S.to_json r) in
                let determinism =
                  match Hashtbl.find_opt first_json i with
                  | None ->
                      Hashtbl.replace first_json i json;
                      Hashtbl.replace first_report i r;
                      []
                  | Some j when j <> json ->
                      [ "a second run of this campaign seed serialises differently" ]
                  | Some _ -> []
                in
                conservation c r @ determinism))
          (Gen.pass_order ~seed:args.seed ~cells:(Array.length specs) p))
  in
  let reports = Hashtbl.fold (fun _ r acc -> r :: acc) first_report [] in
  let total f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let completed = float_of_int (total (fun r -> r.S.completed)) in
  let arrivals = total (fun r -> r.S.arrivals) in
  let service =
    List.concat_map (fun r -> List.filter_map (fun q -> q.S.service_ms) r.S.requests) reports
  in
  let sim_s = Stats.sum (List.map (fun c -> c.Gen.duration_ms /. 1000.0) (Array.to_list specs)) in
  Printf.printf "serve-chaos: %d passes of %d campaigns, %d campaigns run\n" passes
    (Array.length specs)
    (List.length (get "job_ms"));
  Printf.printf "  per pass: %d arrivals, %d completed, %d shed, %d failed\n" arrivals
    (total (fun r -> r.S.completed))
    (total (fun r -> r.S.shed))
    (total (fun r -> r.S.failed));
  Printf.printf
    "  simulated clock: goodput %.4f rps, SLO attainment %.3f, p99 service %.0f ms\n"
    (ratio completed sim_s)
    (ratio completed (float_of_int arrivals))
    (Stats.nearest_rank service 0.99);
  Printf.printf "  wall %.1f ms per 1000 requests\n"
    (1000.0 *. ratio (sum_of "job_ms") (sum_of "arrivals"));
  job_metrics ~setup_s

let counter_total metrics name =
  List.fold_left
    (fun acc (n, _, v) -> if n = name then acc + v else acc)
    0 (Obs.Metrics.all_counters metrics)

(* Replay probes for the serving layers: the plan lookup the scheduler
   makes, and one batch-width inference plain and under recovery. *)
let serve_probes sp ~seed ~job ~cache s =
  let span name f = Spans.with_span sp ~job name f in
  span "probe" @@ fun () ->
  let _, hit_ms =
    timed (fun () ->
        span "plan_cache.lookup" (fun () ->
            Resbm.Driver.compile_robust ~cache s.s_prm s.s_lowered.Nn.Lowering.dfg))
  in
  add "plan_cache.hit_ms" hit_ms;
  let wide = s.capacity * serve_base.S.dim in
  let env =
    {
      Fhe_ir.Interp.inputs =
        [ (s.s_lowered.Nn.Lowering.input_name, Gen.input ~seed ~salt:(1000 + job) ~dim:wide) ];
      consts = Nn.Lowering.resolver s.s_lowered ~dim:wide;
    }
  in
  let region_of =
    let attr = s.s_report.Resbm.Report.region_of in
    fun id -> if id >= 0 && id < Array.length attr then attr.(id) else -1
  in
  let evaluator () = Ckks.Evaluator.create s.s_prm in
  let ir, interp_ms =
    timed (fun () ->
        span "interp.run" (fun () -> Fhe_ir.Interp.run (evaluator ()) s.s_managed env))
  in
  let (rr, stats), recovery_ms =
    timed (fun () ->
        span "recovery.run" (fun () ->
            Resilience.Recovery.run ~region_of (evaluator ()) s.s_managed env))
  in
  add "interp.run_ms" interp_ms;
  add "recovery.run_ms" recovery_ms;
  add "recovery.checkpoints" (float_of_int stats.Resilience.Recovery.checkpoints);
  if rr.Fhe_ir.Interp.latency_ms <> ir.Fhe_ir.Interp.latency_ms then
    [ "fault-free recovery run diverges from the plain interpreter" ]
  else []

let run_serve_traced args =
  let cache, served = serve_setup () in
  let specs = campaign_specs ~seed:args.seed served in
  let sp = Spans.create () in
  let passes =
    traced_passes ~seconds:args.seconds ~seed:args.seed ~cells:(Array.length specs) (fun ~job i ->
        let c = specs.(i) in
        check_op (campaign_name i c) (fun () ->
            let cfg = campaign_config c in
            let untraced () = snd (gc_op (fun () -> timed (fun () -> S.run ~cache cfg))) in
            let first = if job mod 2 = 0 then Some (untraced ()) else None in
            let metrics = Obs.Metrics.create () in
            let before = Resbm.Plan_cache.stats cache in
            let r, span_ms =
              timed (fun () ->
                  Spans.with_span sp ~job "scheduler.run" (fun () ->
                      Obs.with_metrics metrics (fun () -> S.run ~cache cfg)))
            in
            let after = Resbm.Plan_cache.stats cache in
            let plain_ms = match first with Some ms -> ms | None -> untraced () in
            let count k v = add k (float_of_int v) in
            let bsum f = List.fold_left (fun acc b -> acc + f b) 0 r.S.batches in
            count "plan_cache.hits" (after.Resbm.Plan_cache.hits - before.Resbm.Plan_cache.hits);
            count "plan_cache.misses" (after.Resbm.Plan_cache.misses - before.Resbm.Plan_cache.misses);
            add "overhead" (span_ms /. plain_ms);
            add "wall_ms" plain_ms;
            add "campaign_ms" span_ms;
            count "arrivals" r.S.arrivals;
            count "completed" r.S.completed;
            count "shed" r.S.shed;
            add "sim_s" (c.Gen.duration_ms /. 1000.0);
            List.iter (fun q -> Option.iter (add "service_ms") q.S.service_ms) r.S.requests;
            count "evaluator.ops" (counter_total metrics "fhe_ops_total");
            count "recovery.retries" (bsum (fun b -> b.S.retries));
            count "recovery.panic_refreshes" (bsum (fun b -> b.S.panic_refreshes));
            count "faults.injected" (bsum (fun b -> b.S.injected_faults));
            count "scheduler.batches" r.S.batches_run;
            count "scheduler.batch_retries" r.S.batch_retries;
            add "batcher.mean_fill" r.S.mean_batch_fill;
            conservation c r @ serve_probes sp ~seed:args.seed ~job ~cache (served_model served c)))
  in
  Printf.printf "serve-chaos traced: %d whole passes, each over all %d campaigns\n" passes
    (Array.length specs);
  sp

(* --- Per-layer report ------------------------------------------------------ *)

let layer_metrics () =
  let busy = sum_of "par.busy_ms" and idle = sum_of "par.idle_ms" in
  let mincut_ms =
    ((mean_of "smoplc.cuts" *. mean_of "smoplc.call_us")
    +. (mean_of "btsplc.cuts" *. mean_of "btsplc.call_us"))
    /. 1000.0
  in
  let maxflow_ms = mean_of "maxflow.runs" *. mean_of "maxflow.solve_us" /. 1000.0 in
  let p99 = match get "service_ms" with [] -> 0.0 | l -> Stats.nearest_rank l 0.99 in
  let overhead = match get "overhead" with [] -> 0.0 | l -> 100.0 *. (Obs.Stat.median l -. 1.0) in
  let computed =
    [
      ("region_eval.computes_per_region", ratio (sum_of "region_eval.computes") (sum_of "region.count"));
      ("mincut.est_ms", mincut_ms);
      ("maxflow.est_share", ratio maxflow_ms (mean_of "btsmgr.plan_ms"));
      ("par.utilisation", ratio busy (busy +. idle));
      ("evaluator.ops_per_s", ratio (sum_of "evaluator.ops") (sum_of "campaign_ms" /. 1000.0));
      ("recovery.overhead_ratio", ratio (sum_of "recovery.run_ms") (sum_of "interp.run_ms"));
      ("scheduler.shed_ratio", ratio (sum_of "shed") (sum_of "arrivals"));
      ("serve.wall_ms_per_kreq", 1000.0 *. ratio (sum_of "wall_ms") (sum_of "arrivals"));
      ("serve.goodput_rps", ratio (sum_of "completed") (sum_of "sim_s"));
      ("serve.slo_attainment", ratio (sum_of "completed") (sum_of "arrivals"));
      ("serve.service_p99_ms", p99);
      ("gc.minor_mwords_per_op", mean_of "gc.minor_mwords");
      ("gc.major_collections_per_op", mean_of "gc.major");
      ("trace.overhead_pct", overhead);
    ]
  in
  List.map
    (fun (m : Catalog.metric) ->
      let name = m.Catalog.name in
      (name, match List.assoc_opt name computed with Some v -> v | None -> mean_of name))
    Catalog.per_layer

let write_trace args sp =
  let dir = ".resbench" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let file = Printf.sprintf "%s/trace-%s-%Ld.jsonl" dir args.workload args.seed in
  Out_channel.with_open_bin file (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) (Spans.to_jsonl sp));
  file

let print_trace_summary ~compiles sp =
  Printf.printf "\nSelf time by span (benchmark-side spans, traced run):\n";
  List.iter
    (fun (name, tot, n) -> Printf.printf "  %-20s %10.1f ms over %5d spans\n" name tot n)
    (Spans.self_by_name sp);
  if compiles then begin
    (* The compile span split into the driver's own phases, the rest of the
       driver span and certification; what is left is time inside the
       compile span but outside both of its child spans. *)
    let parts =
      List.map (fun p -> mean_of ("own." ^ p)) own_phases
      @ [ mean_of "driver.other_ms"; mean_of "certify.ms" ]
    in
    let span = mean_of "compile.span_ms" in
    Printf.printf
      "  compile span %.2f ms; own region_build + plan + apply, driver.other and certify sum to \
       %.2f ms; %.3f ms uncovered\n"
      span (Stats.sum parts)
      (span -. Stats.sum parts);
    if !other_clamped > 0 then
      Printf.printf "  driver.other clamped at 0 in %d jobs: own phases outlast the driver span\n"
        !other_clamped;
    Printf.printf "  mean per job, replayed from outside vs the driver's own phase span:\n";
    List.iter2
      (fun layer own ->
        Printf.printf "    %-16s %10.2f ms  %10.2f ms (%s)\n" layer (mean_of layer)
          (mean_of ("own." ^ own)) own)
      [ "region.build_ms"; "btsmgr.plan_ms"; "plan.apply_ms" ]
      own_phases;
    Printf.printf "  the l_max 10 compiles at -j 2 (par.compile_j2): %.2f ms mean\n"
      (mean_of "par.compile_j2_ms")
  end

(* --- Entry point ------------------------------------------------------------ *)

(* Every metric of [catalog], in catalog order, with its unit. *)
let metric_json catalog metrics =
  Obs.Json.Obj
    (List.map
       (fun (m : Catalog.metric) ->
         let v = List.assoc m.Catalog.name metrics in
         if not (Float.is_finite v) then die "metric %s is not finite" m.Catalog.name;
         let fields = [ ("value", Obs.Json.Float v); ("unit", Obs.Json.String m.Catalog.unit) ] in
         (m.Catalog.name, Obs.Json.Obj fields))
       catalog)

let () =
  let args = parse_args () in
  let compiles =
    match args.workload with
    | "compile-cold" -> true
    | "serve-chaos" -> false
    | w -> die "unknown workload %S (compile-cold, serve-chaos)" w
  in
  let metrics =
    if args.trace then begin
      let sp = if compiles then run_compile_traced args else run_serve_traced args in
      let file = write_trace args sp in
      print_trace_summary ~compiles sp;
      Printf.printf "  %d traced jobs; spans written to %s\n" !attempted file;
      layer_metrics ()
    end
    else begin
      let m = if compiles then run_compile_untraced args else run_serve_untraced args in
      ("peak_rss_mb", peak_rss_mb ())
      :: ("success_rate", 1.0 -. ratio (float_of_int !failed) (float_of_int !attempted))
      :: m
    end
  in
  Printf.printf "\nerror_rate %.4f (%d of %d ops failed)\n"
    (ratio (float_of_int !failed) (float_of_int !attempted))
    !failed !attempted;
  let catalog = if args.trace then Catalog.per_layer else Catalog.end_to_end in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool (!failed = 0));
            ("attempted", Obs.Json.Int !attempted);
            ("failed", Obs.Json.Int !failed);
            ("metrics", metric_json catalog metrics);
          ]));
  exit (if !failed = 0 then 0 else 1)
