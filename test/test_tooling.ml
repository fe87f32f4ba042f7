(* Tooling: Graphviz export, pretty printers, ablation knobs. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* --- Dot export ------------------------------------------------------------ *)

let contains s sub =
  let ls = String.length sub and ln = String.length s in
  let rec go i = i + ls <= ln && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let dot_structure () =
  let g = fig3_poly () in
  let dot = Dot.to_string ~name:"poly" g in
  checkb "digraph header" true (contains dot "digraph poly");
  checkb "input node present" true (contains dot "input:x");
  checkb "edges present" true (contains dot "->");
  checkb "output marked" true (contains dot "output 0");
  (* every live node appears *)
  List.iter
    (fun n -> checkb "node present" true (contains dot (Printf.sprintf "n%d " n.Dfg.id)))
    (Dfg.live_nodes g)

let dot_clusters () =
  let g = fig3_poly () in
  let r = Resbm.Region.build g in
  let dot =
    Dot.to_string ~cluster:(fun id -> Some r.Resbm.Region.region_of.(id)) g
  in
  checkb "region clusters emitted" true (contains dot "subgraph cluster_0");
  checkb "last region cluster" true
    (contains dot (Printf.sprintf "subgraph cluster_%d" (r.Resbm.Region.count - 1)))

let dot_annotations () =
  let g = fig3_poly () in
  let dot = Dot.to_string ~annotate:(fun id -> if id = 0 then Some "L16" else None) g in
  checkb "annotation emitted" true (contains dot "L16")

let dot_managed_has_management_nodes () =
  let g = fig1_block () in
  let managed, _ = Resbm.Driver.compile Ckks.Params.fig1 g in
  let dot = Dot.to_string managed in
  checkb "rescales rendered" true (contains dot "rescale");
  checkb "bootstraps rendered" true (contains dot "bootstrap")

let dot_write_file () =
  let g = fig3_poly () in
  let path = Filename.temp_file "resbm" ".dot" in
  Dot.write_file ~path g;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  checkb "file written" true (len > 100)

(* --- Pretty printers ---------------------------------------------------------- *)

let printer_smoke () =
  let s = Format.asprintf "%a" Ckks.Params.pp Ckks.Params.default in
  checkb "params pp" true (contains s "l_max=16");
  let g = fig3_poly () in
  let s = Format.asprintf "%a" Dfg.pp g in
  checkb "dfg pp" true (contains s "outputs");
  let r = Resbm.Region.build g in
  let s = Format.asprintf "%a" Resbm.Region.pp r in
  checkb "region pp" true (contains s "R0");
  let managed, report = Resbm.Driver.compile prm g in
  ignore managed;
  let s = Format.asprintf "%a" Resbm.Report.pp report in
  checkb "report pp" true (contains s "compiled in")

let op_names_unique () =
  let kinds =
    [
      Op.Add_cc;
      Op.Add_cp;
      Op.Mul_cc;
      Op.Mul_cp;
      Op.Rotate 3;
      Op.Relin;
      Op.Rescale;
      Op.Modswitch;
      Op.Bootstrap 5;
      Op.Input { name = "x"; level = None; scale_bits = None };
      Op.Const { name = "c" };
    ]
  in
  let names = List.map Op.name kinds in
  checki "names unique" (List.length names) (List.length (List.sort_uniq compare names))

(* --- Ablation knobs -------------------------------------------------------------- *)

let no_sinking_keeps_invariants () =
  let g = fig3_poly () in
  let r = Resbm.Region.build ~sink:false g in
  (* without the backward pass, a1x stays at its forward region (1) *)
  let a1x =
    List.find
      (fun n ->
        n.Dfg.kind = Op.Mul_cp
        && Array.exists (fun a -> (Dfg.node g a).Dfg.kind = Op.Const { name = "a1" }) n.Dfg.args)
      (Dfg.live_nodes g)
  in
  checki "a1x stays early without sinking" 1 r.Resbm.Region.region_of.(a1x.Dfg.id);
  (* data flow still respected *)
  List.iter
    (fun n ->
      Array.iter
        (fun a ->
          checkb "forward edges" true
            (r.Resbm.Region.region_of.(a) <= r.Resbm.Region.region_of.(n.Dfg.id)))
        n.Dfg.args)
    (Dfg.live_nodes g)

let no_sinking_still_compiles =
  qcheck ~count:15 "plans without sinking are still legal"
    (random_dfg_gen ~max_nodes:40 ~max_depth:10)
    (fun params ->
      let g = build_random_dfg params in
      let regioned = Resbm.Region.build ~sink:false g in
      match Resbm.Btsmgr.plan regioned prm with
      | plan ->
          let outcome = Resbm.Plan.apply regioned prm plan in
          Result.is_ok (Scale_check.run prm outcome.Resbm.Plan.dfg)
      | exception Resbm.Btsmgr.No_plan _ -> true)

(* Residual random graphs at a low input level: values fly over regions
   and the chain bootstraps early, so plans that ignore transits need
   level-deficit repairs. *)
let repair_prm = { prm with l_max = 4; input_level = 2 }

let residual_dfg_gen = random_dfg_gen ~max_nodes:60 ~max_depth:10

let no_transit_pricing_still_compiles =
  qcheck ~count:40 "plans without transit pricing are still legal (repairs fire)"
    residual_dfg_gen
    (fun params ->
      let g = build_random_dfg ~residual:true params in
      let regioned = Resbm.Region.build g in
      let legal price_transits =
        let config = { Resbm.Btsmgr.resbm_config with price_transits } in
        match Resbm.Btsmgr.plan ~config regioned repair_prm with
        | plan ->
            let outcome = Resbm.Plan.apply regioned repair_prm plan in
            Result.is_ok (Scale_check.run repair_prm outcome.Resbm.Plan.dfg)
        | exception Resbm.Btsmgr.No_plan _ -> true
      in
      (* the priced DP reads the production levels of the chosen chain *)
      legal false && legal true)

let pass_through_joins () =
  (* [y] only passes through region 1 (an [Add_cp] of the input, sunk
     next to its use); adding it to that region's product needs the
     product rescaled first, exactly as for an operand from another
     region *)
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let y = Dfg.add_cp g x (Dfg.const g "k") in
  let m = Dfg.mul_cp g x (Dfg.const g "c") in
  let j = Dfg.add_cc g y m in
  Dfg.set_outputs g [ Dfg.mul_cp g j (Dfg.const g "d") ];
  let r = Resbm.Region.build g in
  checki "y sinks next to its use" 1 r.Resbm.Region.region_of.(y);
  checkb "the join sits below the rescale cut" true r.Resbm.Region.is_cross_join.(j);
  checkb "a pure product chain is no join" false r.Resbm.Region.is_cross_join.(m);
  (* a residual graph whose unpriced plan once failed [Plan.apply] with
     an add_cc scale mismatch (2^56 vs 2^112) at such a join *)
  let g = build_random_dfg ~residual:true (68, 80, 14) in
  let p = { prm with l_max = 6; input_level = 3 } in
  let regioned = Resbm.Region.build g in
  let config = { Resbm.Btsmgr.resbm_config with price_transits = false } in
  let outcome = Resbm.Plan.apply regioned p (Resbm.Btsmgr.plan ~config regioned p) in
  checkb "legal" true (Result.is_ok (Scale_check.run p outcome.Resbm.Plan.dfg))

let repairs_are_logged () =
  (* Every level-deficit repair emits one [plan.repair] debug record. *)
  let repairs prm g =
    let regioned = Resbm.Region.build g in
    let config = { Resbm.Btsmgr.resbm_config with price_transits = false } in
    match Resbm.Btsmgr.plan ~config regioned prm with
    | exception Resbm.Btsmgr.No_plan _ -> 0
    | plan ->
        let log = Obs.Log.create () in
        let outcome = Obs.with_log log (fun () -> Resbm.Plan.apply regioned prm plan) in
        let records =
          List.filter (fun r -> r.Obs.Log.event = "plan.repair") (Obs.Log.records log)
        in
        checki "one record per repair" outcome.Resbm.Plan.repair_bootstraps
          (List.length records);
        List.iter
          (fun r ->
            List.iter
              (fun k -> checkb ("field " ^ k) true (List.mem_assoc k r.Obs.Log.fields))
              [ "node"; "op"; "region"; "have"; "want"; "join" ])
          records;
        outcome.Resbm.Plan.repair_bootstraps
  in
  let repaired = ref 0 in
  for seed = 0 to 19 do
    if repairs repair_prm (build_random_dfg ~residual:true (seed, 60, 10)) > 0 then
      incr repaired
  done;
  checkb "some residual random graph needs a repair" true (!repaired > 0);
  let tiny = (Nn.Lowering.lower Nn.Model.tiny).Nn.Lowering.dfg in
  checkb "tiny repairs" true (repairs { prm with input_level = 8 } tiny > 0)

let transit_pricing_never_hurts () =
  (* on the residual-heavy model the priced DP must be at least as good *)
  let lowered = Nn.Lowering.lower Nn.Model.tiny in
  let g = lowered.Nn.Lowering.dfg in
  let p = { prm with input_level = 8 } in
  let latency_with price_transits =
    let regioned = Resbm.Region.build g in
    let config = { Resbm.Btsmgr.resbm_config with price_transits } in
    let plan = Resbm.Btsmgr.plan ~config regioned p in
    let outcome = Resbm.Plan.apply regioned p plan in
    Latency.total p outcome.Resbm.Plan.dfg
  in
  checkb "priced <= unpriced" true (latency_with true <= latency_with false +. 1e-6)

let suite =
  [
    case "dot: structure" dot_structure;
    case "plan: every repair is logged" repairs_are_logged;
    case "dot: region clusters" dot_clusters;
    case "dot: annotations" dot_annotations;
    case "dot: management nodes rendered" dot_managed_has_management_nodes;
    case "dot: write_file" dot_write_file;
    case "printers: smoke" printer_smoke;
    case "op names unique" op_names_unique;
    case "ablation: no sinking keeps invariants" no_sinking_keeps_invariants;
    no_sinking_still_compiles;
    no_transit_pricing_still_compiles;
    case "residual joins of pass-through values are legal" pass_through_joins;
    case "ablation: transit pricing never hurts" transit_pricing_never_hurts;
  ]
