open Fhe_ir

(* [position id]: index of [id] in the subgraph list, or -1. *)
type subgraph = { regioned : Region.t; position : int -> int }

let subgraph regioned ~region ids =
  let slot = Array.make (Array.length regioned.Region.ct_regions.(region)) (-1) in
  List.iteri (fun i id -> slot.(Region.ct_index regioned ~region id) <- i) ids;
  let position id =
    let p = Region.ct_index regioned ~region id in
    if p < 0 then -1 else slot.(p)
  in
  { regioned; position }

let mem sg id = sg.position id >= 0

let live_out sg id =
  sg.regioned.Region.is_output.(id)
  || Array.exists (fun u -> not (mem sg u)) sg.regioned.Region.succs.(id)

let external_producers sg id =
  List.filter
    (fun p -> Op.produces_ct (Dfg.node sg.regioned.Region.dfg p).Dfg.kind && not (mem sg p))
    (Array.to_list sg.regioned.Region.preds.(id))

let run ?(fuel = Fuel.unlimited) regioned prm ~region ~lbts ~subgraph:ids =
  Fuel.spend fuel;
  if lbts < 1 then invalid_arg "Btsplc.run: bootstrap target below 1";
  if ids = [] then invalid_arg "Btsplc.run: empty subgraph";
  ignore prm;
  let g = regioned.Region.dfg in
  let sg = subgraph regioned ~region ids in
  let nodes = Array.of_list ids in
  let k = Array.length nodes in
  let internal l = List.filter (mem sg) (Array.to_list l) in
  let int_succs = Array.map (fun id -> internal regioned.Region.succs.(id)) nodes in
  let int_preds = Array.map (fun id -> internal regioned.Region.preds.(id)) nodes in
  let ext_preds = Array.map (external_producers sg) nodes in
  let indeg = Array.mapi (fun i _ -> List.length ext_preds.(i) + List.length int_preds.(i)) nodes in
  let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
  let bts_cost id = float_of_int (Dfg.node g id).Dfg.freq *. unit_cost in
  (* Cumulative increase of running a node and its in-subgraph successors
     at l_bts instead of level 0 (Algorithm 5, lines 5-10, reverse topo). *)
  let linc = Array.make k 0.0 in
  for i = k - 1 downto 0 do
    if int_succs.(i) <> [] then
      let id = nodes.(i) in
      let own = Latency.op_cost g ~level:lbts id -. Latency.op_cost g ~level:0 id in
      linc.(i) <-
        List.fold_left (fun acc m -> acc +. linc.(sg.position m)) own int_succs.(i)
  done;
  (* External ciphertext producers feeding the subgraph.  A bootstrap on a
     boundary edge is inserted once after the producer and serves every
     head it feeds, so each producer becomes one flow node whose
     source-side arc carries the full (grouped) insertion cost. *)
  let producers = Hashtbl.create 8 in
  (* producer id -> (flow node, heads as subgraph positions) *)
  let next_flow = ref (k + 2) in
  Array.iteri
    (fun h ext ->
      List.iter
        (fun p ->
          match Hashtbl.find_opt producers p with
          | Some (fn, heads) -> Hashtbl.replace producers p (fn, h :: heads)
          | None ->
              Hashtbl.add producers p (!next_flow, [ h ]);
              incr next_flow)
        ext)
    ext_preds;
  let net = Graphlib.Maxflow.create !next_flow in
  let s = k and t = k + 1 in
  (* Source-side arcs through the producer nodes, in producer-id order:
     arc insertion order steers the augmenting-path search, so bucket
     order would leak into min-cut tie-breaks. *)
  Det.iter_sorted
    (fun p (fn, heads) ->
      let share =
        List.fold_left
          (fun acc h -> acc +. (linc.(h) /. float_of_int (max indeg.(h) 1)))
          0.0 heads
      in
      Graphlib.Maxflow.add_with_reverse net ~src:s ~dst:fn ~cap:(bts_cost p +. share);
      List.iter (fun h -> Graphlib.Maxflow.add_edge net ~src:fn ~dst:h ~cap:infinity) heads)
    producers;
  Array.iteri
    (fun i id ->
      (* Entry nodes with no inputs at all still anchor to the source so
         their downstream paths get covered. *)
      if indeg.(i) = 0 then Graphlib.Maxflow.add_with_reverse net ~src:s ~dst:i ~cap:infinity;
      let weight_in =
        if indeg.(i) = 0 then infinity
        else if (Dfg.node g id).Dfg.kind = Op.Relin then infinity
          (* never separate a relin from its multiplication *)
        else (bts_cost id +. linc.(i)) /. float_of_int indeg.(i)
      in
      List.iter
        (fun p ->
          let wp = if (Dfg.node g p).Dfg.kind = Op.Mul_cc then infinity else weight_in in
          Graphlib.Maxflow.add_with_reverse net ~src:(sg.position p) ~dst:i ~cap:wp)
        int_preds.(i);
      (* Baseline: bootstrap after the live-out producers (region end). *)
      if int_succs.(i) = [] || live_out sg id then
        Graphlib.Maxflow.add_with_reverse net ~src:i ~dst:t ~cap:(bts_cost id))
    nodes;
  let mc = Graphlib.Maxflow.min_cut net ~source:s ~sink:t in
  let cert = Graphlib.Maxflow.certificate net ~source:s ~sink:t mc in
  Obs.incr "btsplc.cuts";
  Obs.metric_observe "btsplc_cut_value" mc.Graphlib.Maxflow.value;
  Obs.metric_observe "btsplc_subgraph_nodes" (float_of_int k);
  let node_of = Array.make !next_flow (-1) in
  Array.blit nodes 0 node_of 0 k;
  let producer_heads = Array.make !next_flow [] in
  Det.iter_sorted
    (fun p (fn, heads) ->
      node_of.(fn) <- p;
      producer_heads.(fn) <- heads)
    producers;
  let edges =
    List.concat_map
      (fun (u, v) ->
        if u = s then
          (* Arc into a producer node: bootstrap its boundary edges. *)
          if v >= k + 2 then
            List.map (fun h -> Cut.Boundary_in { head = nodes.(h) }) producer_heads.(v)
          else [ Cut.Boundary_in { head = nodes.(v) } ]
        else if v = t then [ Cut.Boundary_out { tail = nodes.(u) } ]
        else [ Cut.Internal { tail = nodes.(u); head = nodes.(v) } ])
      mc.Graphlib.Maxflow.edges
  in
  let sink_side =
    List.filteri (fun i _ -> not mc.Graphlib.Maxflow.source_side.(i)) ids
  in
  { Cut.edges; value = mc.Graphlib.Maxflow.value; sink_side; cert = Some cert; node_of }
