open Fhe_ir

let region_latency_terms regioned prm ~region ~level =
  ignore prm;
  let g = regioned.Region.dfg in
  List.map (fun id -> (id, Latency.op_cost g ~level id)) (Region.ct_members regioned region)

let run ?(fuel = Fuel.unlimited) regioned prm ~region ~level =
  Fuel.spend fuel;
  ignore prm;
  if level < 1 then invalid_arg "Smoplc.run: rescaling needs level >= 1";
  let g = regioned.Region.dfg in
  let nodes = regioned.Region.ct_regions.(region) in
  let k = Array.length nodes in
  if k = 0 then invalid_arg "Smoplc.run: empty region";
  (* Flow node of a member: its index among the region's ciphertexts. *)
  let index = Region.ct_index regioned ~region in
  let net = Graphlib.Maxflow.create (k + 2) in
  let s = k and t = k + 1 in
  let kind id = (Dfg.node g id).Dfg.kind in
  let rs_cost id =
    float_of_int (Dfg.node g id).Dfg.freq *. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level
  in
  (* Cumulative latency increase relative to rescaling right after the
     sources (Algorithm 4, lines 5-10).  Members are already topological.

     Flow sources are the multiplications — the only nodes where the scale
     increases (Table 1) — so paths that merely pass through the region
     (rotations of live-ins sunk next to their use) are never rescaled:
     their scale is already the region's entry scale.  Regions without
     multiplications (e.g. the input region when fresh ciphertexts exceed
     the waterline) fall back to their entry nodes. *)
  let is_entry =
    if Region.has_mul_cc regioned region || Region.has_mul_cp regioned region then fun id ->
      Op.is_mul (kind id)
    else fun id -> not (Array.exists (fun p -> index p >= 0) regioned.Region.preds.(id))
  in
  let linc = Array.make k 0.0 in
  Array.iteri
    (fun i id ->
      if not (is_entry id) then
        let own = Latency.op_cost g ~level id -. Latency.op_cost g ~level:(level - 1) id in
        linc.(i) <-
          Array.fold_left
            (fun acc p -> acc +. if index p >= 0 then linc.(index p) else 0.0)
            own regioned.Region.preds.(id))
    nodes;
  (* Build the flow network.  A member consuming a ciphertext produced
     outside the region (a residual add) sees that operand at the region's
     entry scale, which is the post-rescale scale: such cross-region joins
     are forced below the cut so the scales on both sides agree. *)
  Array.iteri
    (fun i id ->
      if is_entry id then Graphlib.Maxflow.add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let internal_heads = Region.ct_succs regioned ~region id in
      let live_out = regioned.Region.is_live_out.(id) in
      let degree = List.length internal_heads + if live_out then 1 else 0 in
      if degree > 0 then begin
        let weight =
          if kind id = Op.Mul_cc then infinity
          else (rs_cost id +. linc.(i)) /. float_of_int degree
        in
        List.iter
          (fun h -> Graphlib.Maxflow.add_with_reverse net ~src:i ~dst:(index h) ~cap:weight)
          internal_heads;
        if live_out then Graphlib.Maxflow.add_with_reverse net ~src:i ~dst:t ~cap:weight
      end;
      if regioned.Region.is_cross_join.(id) then
        Graphlib.Maxflow.add_edge net ~src:i ~dst:t ~cap:infinity)
    nodes;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.incr "smoplc.cuts";
  Obs.metric_observe "smoplc_cut_value" mc.Graphlib.Maxflow.value;
  Obs.metric_observe "smoplc_region_nodes" (float_of_int k);
  let edges =
    List.filter_map
      (fun (u, v) ->
        if u = s then None (* infinite source arcs never appear *)
        else if v = t then Some (Cut.Boundary_out { tail = nodes.(u) })
        else Some (Cut.Internal { tail = nodes.(u); head = nodes.(v) }))
      mc.Graphlib.Maxflow.edges
  in
  let sink_side =
    List.filteri (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i)) (Array.to_list nodes)
  in
  let node_of = Array.append nodes [| -1; -1 |] in
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }
