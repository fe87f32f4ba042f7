open Test_util
open Fhe_ir

let prm = Ckks.Params.default

let plan_of ?config g =
  let r = Resbm.Region.build g in
  (r, Resbm.Btsmgr.plan ?config r prm)

let no_bootstrap_when_budget_suffices () =
  (* depth 3 with fresh level-16 inputs: no bootstrap at all *)
  let g = fig3_poly () in
  let _, plan = plan_of g in
  Array.iter
    (fun (a : Resbm.Btsmgr.region_action) -> checkb "no bts" true (a.Resbm.Btsmgr.bts = None))
    plan.Resbm.Btsmgr.actions

let fig1_two_minimal_bootstraps () =
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  let plan = Resbm.Btsmgr.plan r Ckks.Params.fig1 in
  let bts =
    Array.to_list plan.Resbm.Btsmgr.actions
    |> List.filter_map (fun a ->
           Option.map (fun b -> b.Resbm.Btsmgr.target) a.Resbm.Btsmgr.bts)
  in
  check (Alcotest.list Alcotest.int) "two bootstraps, minimal levels" [ 3; 2 ] bts

let fig1_max_level_bootstraps () =
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  let config = { Resbm.Btsmgr.resbm_config with min_level_bts = false } in
  let plan = Resbm.Btsmgr.plan ~config r Ckks.Params.fig1 in
  let bts =
    Array.to_list plan.Resbm.Btsmgr.actions
    |> List.filter_map (fun a ->
           Option.map (fun b -> b.Resbm.Btsmgr.target) a.Resbm.Btsmgr.bts)
  in
  check (Alcotest.list Alcotest.int) "all at l_max" [ 3; 3 ] bts

let segments_partition_the_sequence =
  qcheck ~count:30 "segments chain from the first to the last region"
    (random_dfg_gen ~max_nodes:50 ~max_depth:10)
    (fun params ->
      let g = build_random_dfg params in
      let r, plan = plan_of g in
      match plan.Resbm.Btsmgr.segments with
      | [] -> r.Resbm.Region.count <= 1 || Depth.max_depth g <= prm.Ckks.Params.input_level
      | segs ->
          let rec chained = function
            | (_, d) :: ((s, _) :: _ as rest) -> s = d && chained rest
            | [ (_, d) ] -> d = r.Resbm.Region.count - 1
            | [] -> false
          in
          (match segs with (s, _) :: _ -> s = 0 | [] -> false) && chained segs)

let bootstrap_targets_within_l_max =
  qcheck ~count:30 "bootstrap targets stay within [1, l_max]"
    (random_dfg_gen ~max_nodes:50 ~max_depth:12)
    (fun params ->
      let g = build_random_dfg params in
      let _, plan = plan_of g in
      Array.for_all
        (fun (a : Resbm.Btsmgr.region_action) ->
          match a.Resbm.Btsmgr.bts with
          | None -> true
          | Some b -> b.Resbm.Btsmgr.target >= 1 && b.Resbm.Btsmgr.target <= prm.Ckks.Params.l_max)
        plan.Resbm.Btsmgr.actions)

let entry_levels_cover_rescales =
  qcheck ~count:30 "every region enters with enough level for its rescales"
    (random_dfg_gen ~max_nodes:50 ~max_depth:12)
    (fun params ->
      let g = build_random_dfg params in
      let r, plan = plan_of g in
      let last = r.Resbm.Region.count - 1 in
      Array.for_all
        (fun (a : Resbm.Btsmgr.region_action) ->
          a.Resbm.Btsmgr.entry_level >= a.Resbm.Btsmgr.rescales)
        (Array.sub plan.Resbm.Btsmgr.actions 0 last))

let min_level_never_beyond_max_level =
  qcheck ~count:20 "minimal-level plans never cost more than max-level plans"
    (random_dfg_gen ~max_nodes:40 ~max_depth:12)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let minimal = Resbm.Btsmgr.plan r prm in
      let maxed =
        Resbm.Btsmgr.plan
          ~config:{ Resbm.Btsmgr.resbm_config with min_level_bts = false }
          r prm
      in
      minimal.Resbm.Btsmgr.dp_latency_ms <= maxed.Resbm.Btsmgr.dp_latency_ms +. 1e-6)

(* The DP objective recomputed from the plan it returns: every region of
   the chosen segments at its action's levels, the final region, and —
   when transits are priced — a bootstrap at the consumer's entry level
   for each value that flies from a region before a segment's source into
   the segment, below that level.  Production levels come from the final
   chain alone, so this pins down the chain walk that the DP does per
   source. *)
let chain_cost ~price_transits r prm (plan : Resbm.Btsmgr.plan) =
  let g = r.Resbm.Region.dfg in
  let actions = plan.Resbm.Btsmgr.actions in
  let last = r.Resbm.Region.count - 1 in
  let cache = Resbm.Region_eval.create_cache () in
  let latency region (a : Resbm.Btsmgr.region_action) ~rescales =
    (Resbm.Region_eval.eval cache r prm ~smo_mode:Resbm.Region_eval.Smo_min_cut
       ~bts_mode:Resbm.Region_eval.Bts_min_cut ~region ~entry_level:a.Resbm.Btsmgr.entry_level
       ~rescales
       ~bts:(Option.map (fun b -> b.Resbm.Btsmgr.target) a.Resbm.Btsmgr.bts))
      .Resbm.Region_eval.latency_ms
  in
  let prod ra =
    let a = actions.(ra) in
    let base = a.Resbm.Btsmgr.entry_level - a.Resbm.Btsmgr.rescales in
    match a.Resbm.Btsmgr.bts with Some b -> max b.Resbm.Btsmgr.target base | None -> base
  in
  let crossing =
    List.concat_map
      (fun n ->
        let ra = r.Resbm.Region.region_of.(n.Dfg.id) in
        if not (Op.produces_ct n.Dfg.kind) then []
        else
          Array.to_list r.Resbm.Region.succs.(n.Dfg.id)
          |> List.map (fun u -> r.Resbm.Region.region_of.(u))
          |> List.filter (fun rb -> rb > ra + 1)
          |> List.sort_uniq compare
          |> List.map (fun rb -> (ra, rb, n.Dfg.freq)))
      (Dfg.live_nodes g)
  in
  List.fold_left
    (fun acc (src, dst) ->
      let regions = ref 0.0 in
      for region = src to dst - 1 do
        regions :=
          !regions +. latency region actions.(region) ~rescales:actions.(region).Resbm.Btsmgr.rescales
      done;
      let transits =
        List.fold_left
          (fun acc (ra, rb, freq) ->
            let need = actions.(rb).Resbm.Btsmgr.entry_level in
            if price_transits && rb > src && rb <= dst && ra < src && prod ra < need
               && need <= prm.Ckks.Params.l_max
            then
              acc
              +. float_of_int freq *. Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:need
            else acc)
          0.0 crossing
      in
      acc +. !regions +. transits)
    0.0 plan.Resbm.Btsmgr.segments
  +. latency last actions.(last) ~rescales:0

let objective_is_chain_cost ~price_transits ~l_max g =
  let r = Resbm.Region.build g in
  let prm = { prm with l_max; input_level = 2 } in
  let config = { Resbm.Btsmgr.resbm_config with price_transits } in
  match Resbm.Btsmgr.plan ~config r prm with
  | exception Resbm.Btsmgr.No_plan _ -> true
  | plan ->
      let expected = chain_cost ~price_transits r prm plan in
      Float.abs (plan.Resbm.Btsmgr.dp_latency_ms -. expected) <= 1e-9 *. Float.abs expected

let dp_objective_is_the_chain_cost =
  qcheck ~count:40 "the DP objective is the chosen chain's cost"
    (QCheck2.Gen.pair (random_dfg_gen ~max_nodes:60 ~max_depth:12) QCheck2.Gen.bool)
    (fun (params, price_transits) ->
      objective_is_chain_cost ~price_transits ~l_max:5 (build_random_dfg ~residual:true params))

(* Transit prices that a stale production level would change are rare:
   sweep enough full-size residual graphs to meet several. *)
let dp_objective_sweep () =
  for seed = 0 to 299 do
    if
      not
        (objective_is_chain_cost ~price_transits:true ~l_max:4
           (build_random_dfg ~residual:true (seed, 60, 10)))
    then Alcotest.failf "seed %d: the DP objective is not its chain's cost" seed
  done

let extreme_configs_bootstrap_the_inputs () =
  (* inputs at an awkward scale (2^111, just below the rescale threshold)
     with only one fresh level: since Table 1's bootstrap re-encodes at
     scale q, the planner normalises the inputs with a bootstrap in region
     0 and the whole chain stays feasible even under l_max = 1 *)
  let g = Dfg.create () in
  let x = Dfg.input g ~scale_bits:111 ~level:1 "x" in
  let rec deepen v n = if n = 0 then v else deepen (Dfg.mul_cc g v v) (n - 1) in
  let out = deepen x 4 in
  Dfg.set_outputs g [ out ];
  let r = Resbm.Region.build g in
  let p = Ckks.Params.with_l_max { prm with input_level = 1; input_scale_bits = 111 } 1 in
  let plan = Resbm.Btsmgr.plan r p in
  checkb "inputs bootstrapped" true (plan.Resbm.Btsmgr.actions.(0).Resbm.Btsmgr.bts <> None);
  let outcome = Resbm.Plan.apply r p plan in
  checkb "managed graph legal" true
    (Result.is_ok (Scale_check.run p outcome.Resbm.Plan.dfg))

let deep_chain_uses_multiple_segments () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let rec deepen v n = if n = 0 then v else deepen (Dfg.mul_cc g v v) (n - 1) in
  let out = deepen x 40 in
  Dfg.set_outputs g [ out ];
  let _, plan = plan_of g in
  checkb "at least two segments" true (List.length plan.Resbm.Btsmgr.segments >= 2);
  let bts_count =
    Array.to_list plan.Resbm.Btsmgr.actions
    |> List.filter (fun a -> a.Resbm.Btsmgr.bts <> None)
    |> List.length
  in
  (* depth 40 with 16 fresh levels: at least ceil(24/16) bootstraps *)
  checkb "enough bootstraps" true (bts_count >= 2)

let single_region_program () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  Dfg.set_outputs g [ x ];
  let _, plan = plan_of g in
  checkb "empty plan" true (plan.Resbm.Btsmgr.segments = []);
  checkb "no actions" true
    (Array.for_all (fun a -> a.Resbm.Btsmgr.bts = None) plan.Resbm.Btsmgr.actions)

let suite =
  [
    case "input budget avoids bootstrapping" no_bootstrap_when_budget_suffices;
    case "Figure 1: two minimal-level bootstraps" fig1_two_minimal_bootstraps;
    case "Figure 1: max-level variant" fig1_max_level_bootstraps;
    segments_partition_the_sequence;
    bootstrap_targets_within_l_max;
    entry_levels_cover_rescales;
    min_level_never_beyond_max_level;
    dp_objective_is_the_chain_cost;
    case "the DP objective is the chosen chain's cost (residual sweep)" dp_objective_sweep;
    case "extreme configs bootstrap the inputs" extreme_configs_bootstrap_the_inputs;
    case "deep chains split into segments" deep_chain_uses_multiple_segments;
    case "single-region programs" single_region_program;
  ]
