open Fhe_ir

type smo_mode = Smo_min_cut | Smo_eva | Smo_pars
type bts_mode = Bts_min_cut | Bts_region_end

type result = {
  latency_ms : float;
  smo_cut : Cut.t option;
  bts_cut : Cut.t option;
  bts_subgraph : int list;
}

(* [sid] is a shape id interned in a {!Memo}. *)
type key = {
  sid : int;
  entry_level : int;
  rescales : int;
  bts : int option;
  smo_mode : smo_mode;
  bts_mode : bts_mode;
}

(* The region-solution store, keyed by canonical region *shape* rather
   than by node ids: a region's members and their external predecessors
   (the set S of everything [compute] reads), relabelled by rank in
   ascending id order.  The relabelling is monotone, so every id-ordered
   drain ([Det.sorted_keys] in [cut_tails], BTSPLC's producer order) and
   every summation order in [compute] is the same for any two regions
   with equal shapes: a stored solution, mapped back through the
   rank -> id array, is bit-identical to recomputing it.  Shapes are
   exact strings, interned to small ints once per region and store, so no
   hash collision can ever alias two shapes.  Results are stored in rank
   space.  Concurrent misses may compute the same entry twice; both
   computes are equal, so first-add-wins is safe. *)
module Memo = struct
  type t = {
    shapes : (string, int) Hashtbl.t;
    tbl : (key, result) Hashtbl.t;
    lock : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      shapes = Hashtbl.create 256;
      tbl = Hashtbl.create 512;
      lock = Mutex.create ();
      hits = 0;
      misses = 0;
    }

  let stats t = Mutex.protect t.lock (fun () -> (t.hits, t.misses))
  let size t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)

  let intern t shape =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.shapes shape with
        | Some id -> id
        | None ->
            let id = Hashtbl.length t.shapes in
            Hashtbl.add t.shapes shape id;
            id)

  let find t k =
    Mutex.protect t.lock (fun () ->
        let r = Hashtbl.find_opt t.tbl k in
        if r = None then t.misses <- t.misses + 1 else t.hits <- t.hits + 1;
        r)

  let add t k r =
    Mutex.protect t.lock (fun () -> if not (Hashtbl.mem t.tbl k) then Hashtbl.add t.tbl k r)

  let entries t =
    Mutex.protect t.lock (fun () ->
        let shape_of = Array.make (Hashtbl.length t.shapes) "" in
        Det.iter_sorted (fun shape id -> shape_of.(id) <- shape) t.shapes;
        Det.sorted_keys t.tbl
        |> List.map (fun k ->
               ( shape_of.(k.sid),
                 k.entry_level,
                 k.rescales,
                 k.bts,
                 k.smo_mode,
                 k.bts_mode ))
        |> List.sort compare)
end

(* One region seen through its canonical shape. *)
type view = {
  ids : int array;  (* rank -> node id *)
  rank_of : (int, int) Hashtbl.t;  (* node id -> rank *)
  sid : int;  (* the shape, interned in the cache's store *)
}

let add_int b v =
  Buffer.add_string b (string_of_int v);
  Buffer.add_char b ','

(* Kinds with [Input]/[Const] names erased: names never reach [compute]. *)
let kind_tag (k : Op.kind) =
  let opt = Option.value ~default:(-1) in
  match k with
  | Op.Input { name = _; level; scale_bits } ->
      Printf.sprintf "input:%d:%d" (opt level) (opt scale_bits)
  | Op.Const _ -> "const"
  | k -> Op.name k

(* The canonical shape of [region]: the parameter and cost-model context,
   |S|, the member ranks in topological order, then per member its kind,
   freq, args (as ranks), successors in use-list order (rank in-region,
   ['o'] outside) and DFG-output flag, then per external predecessor (in
   rank order) its kind and freq. *)
let canonical regioned (prm : Ckks.Params.t) region =
  let g = regioned.Region.dfg in
  let members = Region.members regioned region in
  let inside id = regioned.Region.region_of.(id) = region in
  let externals =
    Array.to_list members
    |> List.concat_map (fun id ->
           List.filter (fun p -> not (inside p)) (Array.to_list regioned.Region.preds.(id)))
    |> List.sort_uniq compare
  in
  let ids =
    Array.of_list (List.merge compare (List.sort compare (Array.to_list members)) externals)
  in
  let rank_of = Hashtbl.create (Array.length ids) in
  Array.iteri (fun r id -> Hashtbl.add rank_of id r) ids;
  let rank = Hashtbl.find rank_of in
  let b = Buffer.create 1024 in
  List.iter (add_int b)
    [
      prm.Ckks.Params.log2_degree;
      prm.Ckks.Params.scale_bits;
      prm.Ckks.Params.waterline_bits;
      prm.Ckks.Params.q0_bits;
      prm.Ckks.Params.l_max;
      prm.Ckks.Params.input_level;
      prm.Ckks.Params.input_scale_bits;
      prm.Ckks.Params.bootstrap_depth;
    ];
  Buffer.add_string b (Fnv.hex (Lazy.force Fnv.cost_model));
  Buffer.add_char b ',';
  add_int b (Array.length ids);
  Array.iter (fun id -> add_int b (rank id)) members;
  Array.iter
    (fun id ->
      let n = Dfg.node g id in
      Buffer.add_char b '|';
      Buffer.add_string b (kind_tag n.Dfg.kind);
      Buffer.add_char b ';';
      add_int b n.Dfg.freq;
      Array.iter (fun a -> add_int b (rank a)) n.Dfg.args;
      Buffer.add_char b '>';
      Array.iter
        (fun u -> if inside u then add_int b (rank u) else Buffer.add_char b 'o')
        regioned.Region.succs.(id);
      Buffer.add_char b (if regioned.Region.is_output.(id) then '!' else '.'))
    members;
  List.iter
    (fun id ->
      let n = Dfg.node g id in
      Buffer.add_char b '|';
      Buffer.add_string b (kind_tag n.Dfg.kind);
      Buffer.add_char b ';';
      add_int b n.Dfg.freq)
    externals;
  (ids, rank_of, Buffer.contents b)

let shape_key regioned prm region =
  let _, _, shape = canonical regioned prm region in
  shape

module Int_tbl = Hashtbl.Make (Int)

(* Per-compile state over one regioned DFG: the solution store, each
   region's view (built on first use, indexed by region) and the latency
   of every problem already answered, keyed by [pack].  One domain only:
   no lock. *)
type cache = {
  store : Memo.t;
  mutable views : view option array;
  latencies : float Int_tbl.t;
}

let create_cache ?memo () =
  {
    store = (match memo with Some m -> m | None -> Memo.create ());
    views = [||];
    latencies = Int_tbl.create 1024;
  }

let view cache regioned prm region =
  if Array.length cache.views = 0 then
    cache.views <- Array.make regioned.Region.count None;
  match cache.views.(region) with
  | Some v -> v
  | None ->
      let ids, rank_of, shape = canonical regioned prm region in
      let v = { ids; rank_of; sid = Memo.intern cache.store shape } in
      cache.views.(region) <- Some v;
      v

(* A store key as one int: the shape id, then [entry_level], [rescales]
   and [bts] (0 for [None], target + 1 otherwise) in 8 bits each, then the
   two modes.  [-1] when a level field is out of range: such a problem is
   never tabled and is read from the store on every query. *)
let pack (k : key) =
  let bts = match k.bts with None -> 0 | Some l when l >= 0 -> l + 1 | Some _ -> -1 in
  let smo = match k.smo_mode with Smo_min_cut -> 0 | Smo_eva -> 1 | Smo_pars -> 2 in
  let bts_mode = match k.bts_mode with Bts_min_cut -> 0 | Bts_region_end -> 1 in
  if (k.entry_level lor k.rescales lor bts) land lnot 0xff <> 0 then -1
  else
    (((((((k.sid lsl 8) lor k.entry_level) lsl 8) lor k.rescales) lsl 8) lor bts) lsl 3)
    lor (smo lsl 1) lor bts_mode

let map_result f r =
  {
    r with
    smo_cut = Option.map (Cut.map_ids f) r.smo_cut;
    bts_cut = Option.map (Cut.map_ids f) r.bts_cut;
    bts_subgraph = List.map f r.bts_subgraph;
  }

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun m -> raise (Infeasible m)) fmt

(* Distinct tails of a cut in id order (one inserted operation serves all
   cut edges sharing a tail); a boundary-in head of a bootstrap cut over
   [sub] stands for the external producers feeding it. *)
let cut_tails ?sub cut =
  List.concat_map
    (function
      | Cut.Internal { tail; _ } | Cut.Boundary_out { tail } -> [ tail ]
      | Cut.Boundary_in { head } -> (
          match sub with Some sub -> Btsplc.external_producers sub head | None -> []))
    cut.Cut.edges
  |> List.sort_uniq compare

(* Cut edges from [id] to each of [heads], plus its boundary edge when [id]
   is a region live-out. *)
let cut_after regioned ~heads id =
  let internal = List.map (fun head -> Cut.Internal { tail = id; head }) heads in
  if regioned.Region.is_live_out.(id) then Cut.Boundary_out { tail = id } :: internal
  else internal

(* Forced cut of EVA's waterline strategy: a rescale immediately after
   every multiplication unit (Mul_cp directly; Mul_cc through its relin). *)
let eva_cut regioned ~region =
  let kind id = (Dfg.node regioned.Region.dfg id).Dfg.kind in
  let members = Region.ct_members regioned region in
  let unit_output id = match kind id with Op.Mul_cp | Op.Relin -> true | _ -> false in
  let edges =
    List.concat_map
      (fun id ->
        if not (unit_output id) then []
        else cut_after regioned ~heads:(Region.ct_succs regioned ~region id) id)
      members
  in
  let sink_side =
    List.filter (fun id -> not (unit_output id) && not (Op.is_mul (kind id))) members
  in
  { Cut.edges; value = 0.0; sink_side; cert = None; node_of = [||] }

(* Forced cut of PARS's lazy strategy: rescale the region's live-out
   ciphertexts only, so (almost) every region operation runs at the entry
   level.  Joins with cross-region operands (residual adds) still need
   their in-region operand rescaled first for the scales to match, so they
   and their descendants sit below the cut. *)
let pars_cut regioned ~region =
  let members = Region.ct_members regioned region in
  let index = Region.ct_index regioned ~region in
  let forced = Array.make (List.length members) false in
  let is_forced id = index id >= 0 && forced.(index id) in
  List.iter
    (fun id ->
      forced.(index id) <-
        regioned.Region.is_cross_join.(id)
        || Array.exists is_forced regioned.Region.preds.(id))
    members;
  let edges =
    List.concat_map
      (fun id ->
        if is_forced id then []
        else
          cut_after regioned
            ~heads:(List.filter is_forced (Region.ct_succs regioned ~region id))
            id)
      members
  in
  { Cut.edges; value = 0.0; sink_side = List.filter is_forced members; cert = None; node_of = [||] }

(* Forced bootstrap placement at the region's end (Fhelipe / DaCapo):
   bootstrap every live-out of the level-0 subgraph. *)
let region_end_bts_cut sub subgraph =
  let edges =
    List.filter_map
      (fun id -> if Btsplc.live_out sub id then Some (Cut.Boundary_out { tail = id }) else None)
      subgraph
  in
  { Cut.edges; value = 0.0; sink_side = []; cert = None; node_of = [||] }

let compute ?fuel regioned prm ~smo_mode ~bts_mode ~region ~entry_level ~rescales ~bts =
  let g = regioned.Region.dfg in
  let members = Region.ct_members regioned region in
  if members = [] && rescales = 0 && bts = None then
    { latency_ms = 0.0; smo_cut = None; bts_cut = None; bts_subgraph = [] }
  else begin
    if entry_level < 0 then infeasible "region %d: negative entry level" region;
    if rescales > entry_level then
      infeasible "region %d: %d rescales exceed entry level %d" region rescales
        entry_level;
    let low_level = entry_level - rescales in
    let smo_cut =
      if rescales = 0 then None
      else
        match smo_mode with
        | Smo_min_cut -> Some (Smoplc.run ?fuel regioned prm ~region ~level:entry_level)
        | Smo_eva -> Some (eva_cut regioned ~region)
        | Smo_pars -> Some (pars_cut regioned ~region)
    in
    let member_level id =
      match smo_cut with
      | None -> entry_level
      | Some cut -> if Cut.sink_side_mem cut id then low_level else entry_level
    in
    let bts_subgraph =
      match bts with
      | None -> []
      | Some _ -> (
          match smo_cut with
          | Some cut -> cut.Cut.sink_side
          | None ->
              (* No rescale in this region: the bootstrap must still sit
                 strictly below the multiplications, otherwise it would
                 reset the scale to q *before* a multiplication and shift
                 the whole downstream scale chain (visible when the entry
                 scale differs from q, i.e. q_w < q). *)
              if not (Region.has_mul_cc regioned region || Region.has_mul_cp regioned region)
              then members
              else begin
                let is_mul id = Op.is_mul (Dfg.node g id).Dfg.kind in
                let index = Region.ct_index regioned ~region in
                let below = Array.make (List.length members) false in
                List.iter
                  (fun id ->
                    below.(index id) <-
                      is_mul id
                      || Array.exists
                           (fun p -> index p >= 0 && below.(index p))
                           regioned.Region.preds.(id))
                  members;
                List.filter (fun id -> below.(index id) && not (is_mul id)) members
              end)
    in
    let sub = Btsplc.subgraph regioned ~region bts_subgraph in
    let bts_cut =
      match bts with
      | None -> None
      | Some lbts -> (
          if bts_subgraph = [] then None
          else
            match bts_mode with
            | Bts_min_cut ->
                Some (Btsplc.run ?fuel regioned prm ~region ~lbts ~subgraph:bts_subgraph)
            | Bts_region_end -> Some (region_end_bts_cut sub bts_subgraph))
    in
    let final_level id =
      match (bts, bts_cut) with
      | Some lbts, Some cut when Cut.sink_side_mem cut id -> lbts
      | _ -> member_level id
    in
    let op_latency =
      List.fold_left
        (fun acc id -> acc +. Latency.op_cost g ~level:(final_level id) id)
        0.0 members
    in
    let rescale_latency =
      match smo_cut with
      | None -> 0.0
      | Some cut ->
          let tails = cut_tails cut in
          List.fold_left
            (fun acc tail ->
              let freq = float_of_int (Dfg.node g tail).Dfg.freq in
              let stacked = ref 0.0 in
              for i = 0 to rescales - 1 do
                stacked :=
                  !stacked
                  +. Ckks.Cost_model.cost Ckks.Cost_model.Rescale ~level:(entry_level - i)
              done;
              acc +. (freq *. !stacked))
            0.0 tails
    in
    let bts_latency =
      match bts with
      | None -> 0.0
      | Some lbts -> (
          let unit_cost = Ckks.Cost_model.cost Ckks.Cost_model.Bootstrap ~level:lbts in
          let tails_cost tails =
            List.fold_left
              (fun acc tail -> acc +. (float_of_int (Dfg.node g tail).Dfg.freq *. unit_cost))
              0.0 tails
          in
          match bts_cut with
          | Some cut ->
              let base = tails_cost (cut_tails ~sub cut) in
              (* Rescale tips whose live-out branch bypasses the subgraph
                 carry their own bootstrap, unless the bootstrap cut sits
                 directly on the boundary (then the insertion is shared). *)
              let all_boundary_in =
                List.for_all
                  (function Cut.Boundary_in _ -> true | _ -> false)
                  cut.Cut.edges
              in
              let boundary_extra =
                match smo_cut with
                | Some sc when not all_boundary_in ->
                    let outs =
                      List.filter_map
                        (function Cut.Boundary_out { tail } -> Some tail | _ -> None)
                        sc.Cut.edges
                    in
                    tails_cost outs
                | _ -> 0.0
              in
              base +. boundary_extra
          | None -> (
              match smo_cut with
              | Some cut -> tails_cost (cut_tails cut)
              | None ->
                  (* neither a rescale nor a level-0 subgraph: the
                     bootstrap lands on the region's live-out edges *)
                  let outs = Region.live_out regioned region in
                  if outs = [] then unit_cost else tails_cost outs))
    in
    {
      latency_ms = op_latency +. rescale_latency +. bts_latency;
      smo_cut;
      bts_cut;
      bts_subgraph;
    }
  end

(* The store's solution to [region]'s problem: [Left] the canonical one
   (rank space) on a hit; [Right] a fresh compute (ids) on a miss, added to
   the store in rank space.  Fuel is deliberately absent from the key: a
   hit costs no steps, and store population order is deterministic, so
   degraded compiles stay reproducible. *)
let solve ?fuel cache v regioned prm (key : key) ~region =
  match Memo.find cache.store key with
  | Some canonical -> Either.Left canonical
  | None ->
      Obs.incr "region_eval.computes";
      let r =
        compute ?fuel regioned prm ~smo_mode:key.smo_mode ~bts_mode:key.bts_mode ~region
          ~entry_level:key.entry_level ~rescales:key.rescales ~bts:key.bts
      in
      Memo.add cache.store key (map_result (Hashtbl.find v.rank_of) r);
      Either.Right r

let eval ?fuel cache regioned prm ~smo_mode ~bts_mode ~region ~entry_level
    ~rescales ~bts =
  let v = view cache regioned prm region in
  let key = { sid = v.sid; entry_level; rescales; bts; smo_mode; bts_mode } in
  match solve ?fuel cache v regioned prm key ~region with
  | Either.Left canonical ->
      Obs.incr "region_eval.memo_hits";
      map_result (Array.get v.ids) canonical
  | Either.Right r -> r

let latency ?fuel cache regioned prm ~smo_mode ~bts_mode ~region ~entry_level
    ~rescales ~bts =
  let v = view cache regioned prm region in
  let key = { sid = v.sid; entry_level; rescales; bts; smo_mode; bts_mode } in
  let packed = pack key in
  match Int_tbl.find_opt cache.latencies packed with
  | Some l -> l
  | None ->
      let (Either.Left r | Either.Right r) = solve ?fuel cache v regioned prm key ~region in
      if packed >= 0 then Int_tbl.add cache.latencies packed r.latency_ms;
      r.latency_ms
