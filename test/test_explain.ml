(* Resbm.Explain + Obs.Explain: full cost attribution, certificate-derived
   bootstrap rationales, byte-identical rendering across cache
   temperature, and the renumbering-stability contract of the
   structural plan digest. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let compile ?cache ?(prm = prm) model =
  let lowered = Nn.Lowering.lower model in
  let orig = Dfg.node_count lowered.Nn.Lowering.dfg in
  let managed, report =
    Resbm.Variants.compile ?cache Resbm.Variants.resbm prm
      lowered.Nn.Lowering.dfg
  in
  (orig, managed, report)

(* Everything `resbm explain` prints, as one string: waterfall, rationales
   and the digest.  The byte-identity tests compare these directly. *)
let render ?(prm = prm) ~orig managed report =
  let wf = Resbm.Explain.attribution prm ~managed report in
  let rs = Resbm.Explain.rationales prm ~orig_nodes:orig ~managed report in
  Format.asprintf "%a@.%a@.%s"
    (Obs.Explain.pp ~title:"explain")
    wf
    (Format.pp_print_list (Resbm.Explain.pp_rationale managed))
    rs
    (Obs.Json.to_string (Resbm.Explain.digest prm ~managed report))

(* --- cost attribution ------------------------------------------------------- *)

let attribution_is_complete () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let wf = Resbm.Explain.attribution prm ~managed report in
  checkb "total matches the report's latency" true
    (Float.abs (wf.Obs.Explain.total -. report.Resbm.Report.latency_ms) < 1e-6);
  check_float ~eps:1e-6 "every predicted millisecond is attributed"
    wf.Obs.Explain.total
    (Obs.Explain.attributed wf);
  checkb "headline shares are present" true
    (List.map fst wf.Obs.Explain.shares = [ "bootstrap"; "rescale"; "modswitch" ]);
  (* folding never drops cost: each bucket's leaves + remainder = bucket *)
  List.iter
    (fun (g : Obs.Explain.group) ->
      List.iter
        (fun (b : Obs.Explain.bucket) ->
          let leaves =
            List.fold_left
              (fun acc (l : Obs.Explain.leaf) -> acc +. l.Obs.Explain.leaf_cost)
              0.0 b.Obs.Explain.leaves
          in
          checkb "bucket = leaves + folded remainder" true
            (Float.abs ((leaves +. b.Obs.Explain.folded_cost) -. b.Obs.Explain.bucket_cost)
            < 1e-6))
        g.Obs.Explain.buckets)
    wf.Obs.Explain.groups

(* --- bootstrap rationale ---------------------------------------------------- *)

let rationales_carry_certificates () =
  (* resnet20 places a mix of btsplc-cut bootstraps and bootstraps riding
     rescale tips — every one must be pinned by a certificate with a
     counterfactual delta. *)
  let orig, managed, report = compile Nn.Model.resnet20 in
  let rs = Resbm.Explain.rationales prm ~orig_nodes:orig ~managed report in
  let bootstraps =
    List.filter
      (fun (n : Dfg.node) ->
        match n.Dfg.kind with Op.Bootstrap _ -> true | _ -> false)
      (Dfg.live_nodes managed)
  in
  checkb "resnet20 places bootstraps" true (bootstraps <> []);
  checki "one rationale per live bootstrap" (List.length bootstraps) (List.length rs);
  List.iter
    (fun (r : Resbm.Explain.rationale) ->
      checkb "anchored to an original node" true (r.Resbm.Explain.ra_anchor >= 0);
      checkb "pinned by a certificate" true (r.Resbm.Explain.ra_cut_value <> None);
      match r.Resbm.Explain.ra_counterfactual with
      | None -> Alcotest.failf "bootstrap %%%d has no counterfactual" r.Resbm.Explain.ra_bootstrap
      | Some cf ->
          checkb "moving a min-cut placement never gets cheaper" true
            (cf.Resbm.Explain.cf_delta >= 0.0 || cf.Resbm.Explain.cf_value = infinity))
    rs

(* --- byte-identical across cache temperature ------------------------------ *)

let explain_deterministic () =
  let ref_text =
    let orig, managed, report = compile Nn.Model.lenet5 in
    render ~orig managed report
  in
  let dir = Filename.temp_file "resbm_explain" "" in
  Sys.remove dir;
  let cache = Resbm.Plan_cache.create ~dir () in
  let cold =
    let orig, managed, report = compile ~cache Nn.Model.lenet5 in
    render ~orig managed report
  in
  let warm =
    let orig, managed, report = compile ~cache Nn.Model.lenet5 in
    render ~orig managed report
  in
  check Alcotest.string "cold vs reference" ref_text cold;
  check Alcotest.string "cold vs warm disk-cache hit" cold warm;
  checkb "the warm compile actually hit the cache" true
    ((Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits >= 1)

(* --- structural plan digest ------------------------------------------------- *)

let digest_self_diff_is_empty () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let _, managed', report' = compile Nn.Model.lenet5 in
  let d = Resbm.Explain.digest prm ~managed report in
  let d' = Resbm.Explain.digest prm ~managed:managed' report' in
  checkb "two compiles of the same model have no structural diff" true
    (Obs.Explain.diff_json d d' = [])

let digest_detects_change () =
  let _, managed, report = compile Nn.Model.lenet5 in
  let lo = Ckks.Params.with_l_max { prm with Ckks.Params.input_level = 8 } 8 in
  let lowered = Nn.Lowering.lower Nn.Model.lenet5 in
  let managed', report' =
    Resbm.Variants.compile Resbm.Variants.resbm lo lowered.Nn.Lowering.dfg
  in
  let d = Resbm.Explain.digest prm ~managed report in
  let d' = Resbm.Explain.digest lo ~managed:managed' report' in
  checkb "a different plan produces a non-empty diff" true
    (Obs.Explain.diff_json d d' <> [])

(* Renumber a graph: map node i to perm(i), rewriting args and outputs.
   The digest must not see the difference — its keys are content labels,
   not ids. *)
let renumber seed g =
  let nodes, outputs = Dfg.export g in
  let n = Array.length nodes in
  let perm = Array.init n (fun i -> i) in
  let st = Random.State.make [| 0xD16E57; seed |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let nodes' = Array.make n nodes.(0) in
  Array.iteri
    (fun i (x : Dfg.exported_node) ->
      nodes'.(perm.(i)) <-
        { x with Dfg.ex_args = Array.map (fun a -> perm.(a)) x.Dfg.ex_args })
    nodes;
  Dfg.import (nodes', List.map (fun o -> perm.(o)) outputs)

let digest_of ?(prm = prm) g =
  let managed, report = Resbm.Variants.compile Resbm.Variants.resbm prm g in
  Resbm.Explain.digest prm ~managed report

let digest_renumbering_invariant =
  let reference = lazy (digest_of (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg) in
  qcheck ~count:25 "plan digest is stable under node renumbering"
    QCheck2.Gen.(0 -- 10_000)
    (fun seed ->
      let g = (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg in
      let d' = digest_of (renumber seed g) in
      Obs.Explain.diff_json (Lazy.force reference) d' = [])

(* One deep fixed case on a model that actually bootstraps, so placements
   and cut values go through the renumbering check too. *)
let digest_renumbering_with_bootstraps () =
  let lo = Ckks.Params.with_l_max { prm with Ckks.Params.input_level = 8 } 8 in
  let g = (Nn.Lowering.lower Nn.Model.lenet5).Nn.Lowering.dfg in
  let d = digest_of ~prm:lo g in
  let d' = digest_of ~prm:lo (renumber 42 g) in
  checkb "bootstrap-placing plan digest survives renumbering" true
    (Obs.Explain.diff_json d d' = [])

(* --- bench-diff integration ------------------------------------------------- *)

let bench_rows digest =
  [
    {
      Obs.Bench_diff.model = "m";
      manager = "g";
      metrics = [ ("latency_ms", 100.0) ];
      compile = None;
      warm = None;
      digest;
    };
  ]

let bench_src rows =
  {
    Obs.Bench_diff.version = Obs.Bench_diff.schema_version;
    git_rev = "test";
    trials = 1;
    l_max = 16;
    rows;
  }

let bench_diff_carries_plan_drift () =
  let d = Obs.Json.Obj [ ("bootstrap_count", Obs.Json.Int 3) ] in
  let d' = Obs.Json.Obj [ ("bootstrap_count", Obs.Json.Int 4) ] in
  let diff base cand =
    match
      Obs.Bench_diff.diff ~base:(bench_src (bench_rows base))
        ~cand:(bench_src (bench_rows cand)) ()
    with
    | Ok o -> o
    | Error m -> Alcotest.failf "diff failed: %s" m
  in
  let o = diff (Some d) (Some d') in
  checkb "metric-identical rows still report plan drift" true
    (o.Obs.Bench_diff.plan_drift <> []);
  checki "plan drift alone fails the `Changed gate" 2 (Obs.Bench_diff.exit_code o);
  let o = diff (Some d) (Some d) in
  checkb "identical digests: no drift" true (o.Obs.Bench_diff.plan_drift = []);
  checki "and the gate passes" 0 (Obs.Bench_diff.exit_code o);
  (* digest missing on either side (old baseline) never gates *)
  let o = diff None (Some d') in
  checkb "one-sided digests diff cleanly" true (o.Obs.Bench_diff.plan_drift = []);
  checki "old baselines still pass" 0 (Obs.Bench_diff.exit_code o)

let suite =
  [
    case "attribution covers 100% of predicted latency" attribution_is_complete;
    case "every bootstrap carries certificate evidence" rationales_carry_certificates;
    case "explain output is byte-identical across cache temperatures" explain_deterministic;
    case "self plan-diff reports no differences" digest_self_diff_is_empty;
    case "a real plan change is detected" digest_detects_change;
    digest_renumbering_invariant;
    case "renumbering invariance holds with bootstraps placed" digest_renumbering_with_bootstraps;
    case "bench-diff gates on structural plan drift" bench_diff_carries_plan_drift;
  ]
