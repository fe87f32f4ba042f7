open Test_util
open Fhe_ir

(* --- BuildRegionedDFG (Section 4.1) -------------------------------------- *)

let region_count_is_depth_plus_one () =
  let g = fig3_poly () in
  let r = Resbm.Region.build g in
  checki "regions = depth + 1" (Depth.max_depth g + 1) r.Resbm.Region.count

let fig3_partition_prefers_3b () =
  (* the a1*x multiplication must sink next to its use (Figure 3b), i.e.
     into the final region, not stay at depth 1 *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let x2 = Dfg.mul_cc g x x in
  let x3 = Dfg.mul_cc g x2 x in
  let a3x3 = Dfg.mul_cp g x3 (Dfg.const g "a3") in
  let a1x = Dfg.mul_cp g x (Dfg.const g "a1") in
  let out = Dfg.add_cc g a3x3 a1x in
  Dfg.set_outputs g [ out ];
  let r = Resbm.Region.build g in
  checki "four regions" 4 r.Resbm.Region.count;
  checki "a1x sinks to the final region" 3 r.Resbm.Region.region_of.(a1x);
  checki "a3x3 in final region" 3 r.Resbm.Region.region_of.(a3x3);
  checki "x3 at its depth" 2 r.Resbm.Region.region_of.(x3);
  checki "x2 at its depth" 1 r.Resbm.Region.region_of.(x2);
  checki "input in region 0" 0 r.Resbm.Region.region_of.(x)

let inputs_stay_in_region_zero =
  qcheck ~count:40 "inputs are region 0"
    (random_dfg_gen ~max_nodes:40 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      List.for_all
        (fun n ->
          match n.Dfg.kind with
          | Op.Input _ -> r.Resbm.Region.region_of.(n.Dfg.id) = 0
          | _ -> true)
        (Dfg.live_nodes g))

let regions_have_depth_one =
  qcheck ~count:40 "each region has multiplicative depth exactly one"
    (random_dfg_gen ~max_nodes:60 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      (* within a region, no multiplication consumes (transitively) the
         output of another multiplication of the same region *)
      let ok = ref true in
      for region = 0 to r.Resbm.Region.count - 1 do
        let members = Resbm.Region.members r region in
        let in_region = Hashtbl.create 16 in
        Array.iter (fun id -> Hashtbl.add in_region id ()) members;
        (* reaches_mul.(id) = a region-internal path from a region mul
           reaches id *)
        let reaches = Hashtbl.create 16 in
        Array.iter
          (fun id ->
            let node = Dfg.node g id in
            let from_preds =
              List.exists
                (fun p -> Hashtbl.mem in_region p && Hashtbl.mem reaches p)
                (Dfg.preds g id)
            in
            if Op.is_mul node.Dfg.kind && from_preds then ok := false;
            if Op.is_mul node.Dfg.kind || from_preds then Hashtbl.add reaches id ())
          members
      done;
      !ok)

let edges_never_go_backward =
  qcheck ~count:40 "region assignment respects data flow"
    (random_dfg_gen ~max_nodes:60 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      List.for_all
        (fun n ->
          Array.for_all
            (fun a -> r.Resbm.Region.region_of.(a) <= r.Resbm.Region.region_of.(n.Dfg.id))
            n.Dfg.args)
        (Dfg.live_nodes g))

let muls_open_their_region =
  qcheck ~count:40 "multiplication operands come from earlier regions"
    (random_dfg_gen ~max_nodes:60 ~max_depth:8)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      List.for_all
        (fun n ->
          if Op.is_mul n.Dfg.kind then
            Array.for_all
              (fun a ->
                (not (Op.produces_ct (Dfg.node g a).Dfg.kind))
                || r.Resbm.Region.region_of.(a) < r.Resbm.Region.region_of.(n.Dfg.id))
              n.Dfg.args
          else true)
        (Dfg.live_nodes g))

let members_cover_all_nodes =
  qcheck ~count:40 "regions partition the live nodes"
    (random_dfg_gen ~max_nodes:50 ~max_depth:6)
    (fun params ->
      let g = build_random_dfg params in
      let r = Resbm.Region.build g in
      let total =
        Array.fold_left
          (fun acc region -> acc + Array.length region)
          0 r.Resbm.Region.regions
      in
      total = List.length (Dfg.live_nodes g))

let live_out_detection () =
  let g = fig3_poly () in
  let r = Resbm.Region.build g in
  (* region 1 holds x2; its live-outs feed x3 in region 2 *)
  let lo = Resbm.Region.live_out r 1 in
  checkb "x2's relin is live-out" true (lo <> []);
  (* the final region's output node is live-out *)
  let last = r.Resbm.Region.count - 1 in
  checkb "program output is live-out" true
    (List.exists (fun id -> List.mem id (Dfg.outputs g)) (Resbm.Region.live_out r last))

let region_mul_queries () =
  let g = fig1_block () in
  let r = Resbm.Region.build g in
  checkb "conv region has mul_cp" true (Resbm.Region.has_mul_cp r 1);
  checkb "square region has mul_cc" true (Resbm.Region.has_mul_cc r 2);
  checkb "region 0 has no muls" true (Resbm.Region.muls r 0 = [])

let rejects_invalid_graph () =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let m = Dfg.mul_cc_raw g x x in
  let r = Dfg.rotate g m 1 in
  Dfg.set_outputs g [ r ];
  checkb "invalid graph rejected" true
    (match Resbm.Region.build g with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* --- the region-local graph ------------------------------------------- *)

(* Reference definitions, straight from the DFG queries: [Region.build]'s
   precomputed region-local graph must equal them field by field, in
   order for the adjacency arrays. *)
let local_graph_mismatches g r =
  let region_of = r.Resbm.Region.region_of in
  let kind id = (Dfg.node g id).Dfg.kind in
  let outs = Dfg.outputs g in
  let bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  for id = 0 to Dfg.node_count g - 1 do
    let at what = Printf.sprintf "%s of %%%d" what id in
    expect (at "preds") (r.Resbm.Region.preds.(id) = Array.of_list (Dfg.preds g id));
    expect (at "succs") (r.Resbm.Region.succs.(id) = Array.of_list (Dfg.succs g id));
    expect (at "is_output") (r.Resbm.Region.is_output.(id) = List.mem id outs);
    expect (at "is_live_out")
      (r.Resbm.Region.is_live_out.(id)
      = (List.mem id outs
        || List.exists (fun u -> region_of.(u) <> region_of.(id)) (Dfg.succs g id)));
    expect (at "is_cross_join")
      (r.Resbm.Region.is_cross_join.(id)
      = (kind id = Op.Add_cc
        && List.exists
             (fun p -> Op.produces_ct (kind p) && region_of.(p) <> region_of.(id))
             (Dfg.preds g id)))
  done;
  let ct_pos = Array.make (Dfg.node_count g) (-1) in
  for region = 0 to r.Resbm.Region.count - 1 do
    let at what = Printf.sprintf "%s of R%d" what region in
    let members = Array.to_list (Resbm.Region.members r region) in
    let ct = List.filter (fun id -> Op.produces_ct (kind id)) members in
    List.iteri (fun i id -> ct_pos.(id) <- i) ct;
    let muls = List.filter (fun id -> Op.is_mul (kind id)) members in
    expect (at "ct_regions") (Array.to_list r.Resbm.Region.ct_regions.(region) = ct);
    expect (at "ct_members") (Resbm.Region.ct_members r region = ct);
    expect (at "muls") (Resbm.Region.muls r region = muls);
    expect (at "mul_cc")
      (Resbm.Region.has_mul_cc r region = List.exists (fun id -> kind id = Op.Mul_cc) muls);
    expect (at "mul_cp")
      (Resbm.Region.has_mul_cp r region = List.exists (fun id -> kind id = Op.Mul_cp) muls);
    expect (at "live_out")
      (Resbm.Region.live_out r region
      = List.filter
          (fun id ->
            List.mem id outs
            || List.exists (fun u -> region_of.(u) <> region) (Dfg.succs g id))
          ct)
  done;
  expect "ct_pos" (r.Resbm.Region.ct_pos = ct_pos);
  List.rev !bad

let local_graph_matches_reference =
  qcheck ~count:60 "region-local graph equals its DFG definition"
    QCheck2.Gen.(pair (random_dfg_gen ~max_nodes:60 ~max_depth:8) bool)
    (fun (params, sink) ->
      let g = build_random_dfg params in
      local_graph_mismatches g (Resbm.Region.build ~sink g) = [])

let local_graph_matches_reference_on_models () =
  List.iter
    (fun (m : Nn.Model.t) ->
      let g = (Nn.Lowering.lower m).Nn.Lowering.dfg in
      match local_graph_mismatches g (Resbm.Region.build g) with
      | [] -> ()
      | what :: _ -> Alcotest.failf "%s: %s differs" m.Nn.Model.name what)
    (Nn.Model.paper_models @ [ Nn.Model.lenet5; Nn.Model.tiny ])

let suite =
  [
    case "region count = depth + 1" region_count_is_depth_plus_one;
    case "Figure 3: lazy placement of off-path muls" fig3_partition_prefers_3b;
    inputs_stay_in_region_zero;
    regions_have_depth_one;
    edges_never_go_backward;
    muls_open_their_region;
    members_cover_all_nodes;
    case "live-out detection" live_out_detection;
    case "region mul queries" region_mul_queries;
    case "rejects invalid graphs" rejects_invalid_graph;
    local_graph_matches_reference;
    case "region-local graph equals its DFG definition on all models"
      local_graph_matches_reference_on_models;
  ]
