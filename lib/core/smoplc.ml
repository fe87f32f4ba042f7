open Fhe_ir

let cost_of g prm ~level id =
  ignore prm;
  let node = Dfg.node g id in
  match Op.cost_op node.Dfg.kind with
  | None -> 0.0
  | Some op -> float_of_int node.Dfg.freq *. Ckks.Cost_model.cost op ~level

let region_latency_terms regioned prm ~region ~level =
  let g = regioned.Region.dfg in
  List.map (fun id -> (id, cost_of g prm ~level id)) (Region.ct_members regioned region)

let run ?(fuel = Fuel.unlimited) regioned prm ~region ~level =
  Fuel.spend fuel;
  if level < 1 then invalid_arg "Smoplc.run: rescaling needs level >= 1";
  let g = regioned.Region.dfg in
  let nodes = Region.ct_members regioned region in
  if nodes = [] then invalid_arg "Smoplc.run: empty region";
  let index = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.add index id i) nodes;
  let in_region id = Hashtbl.mem index id in
  let k = List.length nodes in
  let net = Graphlib.Maxflow.create (k + 2) in
  let s = k and t = k + 1 in
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
  let linc = Hashtbl.create 32 in
  let is_entry =
    let muls = Region.muls regioned region in
    if muls <> [] then fun id -> List.mem id muls
    else fun id -> not (List.exists in_region (Dfg.preds g id))
  in
  List.iter
    (fun id ->
      let v =
        if is_entry id then 0.0
        else
          let own = cost_of g prm ~level id -. cost_of g prm ~level:(level - 1) id in
          List.fold_left
            (fun acc p ->
              acc +. Option.value (Hashtbl.find_opt linc p) ~default:0.0)
            own (Dfg.preds g id)
      in
      Hashtbl.add linc id v)
    nodes;
  let is_liveout id =
    List.mem id (Dfg.outputs g)
    || List.exists (fun u -> not (in_region u)) (Dfg.succs g id)
  in
  (* A member consuming a ciphertext produced outside the region (e.g. a
     residual add) sees that operand at the region's entry scale, which is
     the post-rescale scale: force such nodes below the cut so the scales
     on both sides of the join agree. *)
  let forces_sink id =
    match (Dfg.node g id).Dfg.kind with
    | Op.Add_cc ->
        List.exists
          (fun p -> Op.produces_ct (Dfg.node g p).Dfg.kind && not (in_region p))
          (Dfg.preds g id)
    | _ -> false
  in
  (* Build the flow network. *)
  List.iter
    (fun id ->
      let i = Hashtbl.find index id in
      if is_entry id then Maxflow_util.add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let internal_heads = List.filter in_region (Dfg.succs g id) in
      let degree = List.length internal_heads + if is_liveout id then 1 else 0 in
      if degree > 0 then begin
        let weight =
          if (Dfg.node g id).Dfg.kind = Op.Mul_cc then infinity
          else (rs_cost id +. Hashtbl.find linc id) /. float_of_int degree
        in
        List.iter
          (fun h ->
            Maxflow_util.add_with_reverse net ~src:i ~dst:(Hashtbl.find index h)
              ~cap:weight)
          internal_heads;
        if is_liveout id then Maxflow_util.add_with_reverse net ~src:i ~dst:t ~cap:weight
      end;
      if forces_sink id then Graphlib.Maxflow.add_edge net ~src:i ~dst:t ~cap:infinity)
    nodes;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.incr "smoplc.cuts";
  Obs.metric_observe "smoplc_cut_value" mc.Graphlib.Maxflow.value;
  Obs.metric_observe "smoplc_region_nodes" (float_of_int k);
  let node_at = Array.of_list nodes in
  let edges =
    List.filter_map
      (fun (u, v) ->
        if u = s then None (* infinite source arcs never appear *)
        else if v = t then Some (Cut.Boundary_out { tail = node_at.(u) })
        else Some (Cut.Internal { tail = node_at.(u); head = node_at.(v) }))
      mc.Graphlib.Maxflow.edges
  in
  let sink_side =
    List.filteri (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i)) nodes
  in
  let node_of = Array.append node_at [| -1; -1 |] in
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }
