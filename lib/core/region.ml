open Fhe_ir

type t = {
  dfg : Dfg.t;
  region_of : int array;
  regions : int array array;
  count : int;
  ct_regions : int array array;
  ct_pos : int array;
  mul_cc : bool array;
  mul_cp : bool array;
  preds : int array array;
  succs : int array array;
  is_output : bool array;
  is_live_out : bool array;
  is_cross_join : bool array;
}

let build ?(sink = true) dfg =
  (match Dfg.validate dfg with
  | Ok () -> ()
  | Error (msg :: _) -> invalid_arg ("Region.build: " ^ msg)
  | Error [] -> assert false);
  let order = Dfg.topo_order dfg in
  let n = Dfg.node_count dfg in
  let depth = Depth.per_node dfg in
  let kind id = (Dfg.node dfg id).Dfg.kind in
  let preds = Array.init n (fun id -> Array.of_list (Dfg.preds dfg id)) in
  let succs = Array.init n (fun id -> Array.of_list (Dfg.succs dfg id)) in
  let region_of = Array.make n 0 in
  (* Forward pass: multiplications anchor at their depth; everything else
     at the latest predecessor's region. *)
  List.iter
    (fun id ->
      if Op.is_mul (kind id) then region_of.(id) <- depth.(id)
      else
        region_of.(id) <-
          Array.fold_left (fun acc a -> max acc region_of.(a)) 0 (Dfg.node dfg id).Dfg.args)
    order;
  (* Backward pass: sink each node to the latest region its users allow.
     Multiplications of region j consume operands from region j-1 at the
     latest; non-multiplications admit same-region operands. *)
  if sink then
    List.iter
      (fun id ->
        match kind id with
        | Op.Input _ -> ()
        | _ ->
            if succs.(id) <> [||] then begin
              let allowance u =
                let r = region_of.(u) in
                if Op.is_mul (kind u) then r - 1 else r
              in
              let latest =
                Array.fold_left (fun acc u -> min acc (allowance u)) max_int succs.(id)
              in
              if latest > region_of.(id) then region_of.(id) <- latest
            end)
      (List.rev order);
  let count = 1 + List.fold_left (fun acc id -> max acc region_of.(id)) 0 order in
  let buckets = Array.make count [] in
  List.iter (fun id -> buckets.(region_of.(id)) <- id :: buckets.(region_of.(id))) order;
  let regions = Array.map (fun ids -> Array.of_list (List.rev ids)) buckets in
  (* The region-local graph: everything the planner reads about a region's
     neighbourhood, derived once here. *)
  let is_ct id = Op.produces_ct (kind id) in
  let ct_regions = Array.map (fun ids -> Array.of_list (List.filter is_ct (Array.to_list ids))) regions in
  let ct_pos = Array.make n (-1) in
  Array.iter (Array.iteri (fun i id -> ct_pos.(id) <- i)) ct_regions;
  let has op = Array.map (Array.exists (fun id -> kind id = op)) ct_regions in
  let is_output = Array.make n false in
  List.iter (fun id -> is_output.(id) <- true) (Dfg.outputs dfg);
  let is_live_out =
    Array.init n (fun id ->
        is_output.(id) || Array.exists (fun u -> region_of.(u) <> region_of.(id)) succs.(id))
  in
  (* [scaled]: downstream of a multiplication of the node's own region, so
     above the region's entry scale until rescaled.  An [Add_cc] joining
     such a value with one at the entry scale — a ciphertext from another
     region, or an in-region value no multiplication feeds — must sit
     below the rescale cut for the scales to agree. *)
  let scaled = Array.make n false in
  List.iter
    (fun id ->
      scaled.(id) <-
        Op.is_mul (kind id)
        || Array.exists (fun p -> region_of.(p) = region_of.(id) && scaled.(p)) preds.(id))
    order;
  let is_cross_join =
    Array.init n (fun id ->
        let inside p = region_of.(p) = region_of.(id) in
        kind id = Op.Add_cc
        && (Array.exists (fun p -> is_ct p && not (inside p)) preds.(id)
           || Array.exists (fun p -> is_ct p && inside p && not scaled.(p)) preds.(id)
              && Array.exists (fun p -> inside p && scaled.(p)) preds.(id)))
  in
  { dfg; region_of; regions; count; ct_regions; ct_pos; mul_cc = has Op.Mul_cc;
    mul_cp = has Op.Mul_cp; preds; succs; is_output; is_live_out; is_cross_join }

let members t r =
  if r < 0 || r >= t.count then invalid_arg "Region.members";
  t.regions.(r)

let ct_index t ~region id = if t.region_of.(id) = region then t.ct_pos.(id) else -1
let ct_members t r = Array.to_list t.ct_regions.(r)

let ct_succs t ~region id =
  List.filter (fun u -> ct_index t ~region u >= 0) (Array.to_list t.succs.(id))

let muls t r =
  List.filter (fun id -> Op.is_mul (Dfg.node t.dfg id).Dfg.kind) (ct_members t r)

let has_mul_cc t r = t.mul_cc.(r)
let has_mul_cp t r = t.mul_cp.(r)
let live_out t r = List.filter (fun id -> t.is_live_out.(id)) (ct_members t r)

let pp ppf t =
  Format.fprintf ppf "@[<v>regioned dfg: %d regions" t.count;
  for r = 0 to t.count - 1 do
    Format.fprintf ppf "@,  R%d: %s" r
      (String.concat " "
         (List.map
            (fun id -> Printf.sprintf "%%%d:%s" id (Op.name (Dfg.node t.dfg id).Dfg.kind))
            (Array.to_list t.regions.(r))))
  done;
  Format.fprintf ppf "@]"
