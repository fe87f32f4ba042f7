(* The content-addressed plan cache and its planner contracts: exact,
   deterministic fuel accounting, warm-cache identity, key sensitivity,
   the incremental region memo, and the on-disk tier. *)
open Test_util
open Fhe_ir

let prm = Ckks.Params.default

(* Everything a compile promises to reproduce bit-for-bit: the managed
   graph's structural snapshot plus every deterministic report field.
   Wall-clock ([compile_ms]) and the profile are explicitly excluded. *)
let fingerprint ((g : Dfg.t), (r : Resbm.Report.t)) =
  ( Dfg.export g,
    r.Resbm.Report.manager,
    r.Resbm.Report.latency_ms,
    r.Resbm.Report.stats,
    r.Resbm.Report.segments,
    r.Resbm.Report.repair_bootstraps,
    r.Resbm.Report.ms_opt_hoists,
    r.Resbm.Report.region_count,
    Array.to_list r.Resbm.Report.region_of,
    r.Resbm.Report.fallbacks )

(* --- fuel ------------------------------------------------------------------ *)

let fuel_accounting_is_exact () =
  (* Every spend is counted exactly once, a failed spend consumes nothing,
     and since planning is sequential a finite budget exhausts at the same
     step on every run. *)
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      let fuel = Resbm.Fuel.create ~stage:"seq" 100 in
      for _ = 1 to 100 do
        Resbm.Fuel.spend fuel
      done;
      checki "budget fully drained" 0 (Resbm.Fuel.remaining fuel));
  checki "every spend counted exactly once" 100
    (Obs.Metrics.counter_value ~labels:[ ("stage", "seq") ] m "planner_fuel_spent_total");
  let m = Obs.Metrics.create () in
  Obs.with_metrics m (fun () ->
      let fuel = Resbm.Fuel.create ~stage:"seq" 30 in
      let spent = ref 0 in
      (match
         for _ = 1 to 100 do
           Resbm.Fuel.spend fuel;
           incr spent
         done
       with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Resbm.Fuel.Exhausted stage -> check Alcotest.string "stage" "seq" stage);
      checki "exhausted after exactly the budget" 30 !spent;
      checki "exhausted at zero" 0 (Resbm.Fuel.remaining fuel));
  checki "successful spends only" 30
    (Obs.Metrics.counter_value ~labels:[ ("stage", "seq") ] m "planner_fuel_spent_total");
  checki "one exhaustion counted" 1
    (Obs.Metrics.counter_value ~labels:[ ("stage", "seq") ] m
       "planner_fuel_exhausted_total");
  (* The planner itself: a budget short of a full plan runs dry after the
     same number of segment evaluations each time. *)
  let g = (Nn.Lowering.lower Nn.Model.lenet5).Nn.Lowering.dfg in
  let r = Resbm.Region.build g in
  let evals_at_exhaustion () =
    let p = Obs.Profile.create () in
    Obs.with_profile p (fun () ->
        match Resbm.Btsmgr.plan ~fuel:(Resbm.Fuel.create 40) r prm with
        | _ -> Alcotest.fail "expected the planner to exhaust 40 steps"
        | exception Resbm.Fuel.Exhausted _ -> ());
    List.assoc_opt "btsmgr.segment_evals" (Obs.Profile.counters p)
  in
  let first = evals_at_exhaustion () in
  checkb "the planner spent some fuel" true (first <> None);
  for _ = 1 to 3 do
    checkb "exhaustion lands on the same step" true (evals_at_exhaustion () = first)
  done

let compile_opt ?cache mgr p g =
  match Resbm.Variants.compile ?cache mgr p g with
  | r -> Some r
  | exception Resbm.Btsmgr.No_plan _ -> None

(* --- warm cache ----------------------------------------------------------- *)

let warm_cache_identity () =
  let cache = Resbm.Plan_cache.create () in
  let planned = ref 0 in
  List.iter
    (fun (mgr : Resbm.Variants.manager) ->
      let g () = fig1_block () in
      match compile_opt ~cache mgr Ckks.Params.fig1 (g ()) with
      | None -> ()
      | Some cold ->
          incr planned;
          let warm = Resbm.Variants.compile ~cache mgr Ckks.Params.fig1 (g ()) in
          checkb
            (mgr.Resbm.Variants.name ^ ": warm compile is bit-identical")
            true
            (fingerprint warm = fingerprint cold))
    Resbm.Variants.all;
  checkb "most managers planned" true (!planned >= 4);
  let s = Resbm.Plan_cache.stats cache in
  checki "one miss per cold attempt" (List.length Resbm.Variants.all)
    s.Resbm.Plan_cache.misses;
  checki "one hit per warm compile" !planned s.Resbm.Plan_cache.hits;
  checki "no disk tier" 0 s.Resbm.Plan_cache.disk_hits

let warm_hit_graph_is_private () =
  (* A cached plan must not alias the stored graph: mutating a warm
     result cannot poison later hits. *)
  let cache = Resbm.Plan_cache.create () in
  let mgr = Resbm.Variants.resbm in
  let cold = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  let warm1, _ = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  Dfg.set_outputs warm1 [];
  let warm2 = Resbm.Variants.compile ~cache mgr prm (fig3_poly ()) in
  checkb "second hit unaffected by mutation of the first" true
    (fingerprint warm2 = fingerprint cold)

let warm_hits_get_fresh_profiles () =
  (* Certification re-enters the returned report's profile.  A hit that
     handed out the cache entry's own profile would grow it by the
     certify spans on every hit and report the cold compile's planner
     steps; each hit must start from an empty profile instead. *)
  let cache = Resbm.Plan_cache.create () in
  let compile () =
    let lowered = Nn.Lowering.lower Nn.Model.tiny in
    snd
      (Resbm.Variants.compile ~certify:true ~cache Resbm.Variants.resbm
         (Ckks.Params.with_l_max prm 9) lowered.Nn.Lowering.dfg)
  in
  let steps (r : Resbm.Report.t) = Resbm.Driver.planner_steps r.Resbm.Report.profile in
  checkb "the cold compile planned" true (steps (compile ()) > 0);
  for hit = 1 to 2 do
    let warm = compile () in
    let label what = Printf.sprintf "hit %d: %s" hit what in
    checki (label "no planner steps") 0 (steps warm);
    check
      Alcotest.(list string)
      (label "exactly the certify spans")
      [ "certify"; "certify.cuts"; "certify.levels"; "certify.noise" ]
      (List.sort compare
         (List.map
            (fun (s : Obs.Profile.span) -> s.Obs.Profile.name)
            (Obs.Profile.spans warm.Resbm.Report.profile)))
  done;
  checki "two hits" 2 (Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits

(* --- key sensitivity ------------------------------------------------------ *)

let key_sensitivity () =
  let mgr = Resbm.Variants.resbm in
  let key ?(m = mgr) ?(p = prm) ?(scan = `Full) g =
    Resbm.Plan_cache.key ~config:m.Resbm.Variants.config ~name:m.Resbm.Variants.name
      ~ms_opt:m.Resbm.Variants.ms_opt ~segment_scan:scan p g
  in
  let k0 = key (fig3_poly ()) in
  check Alcotest.string "stable across rebuilds" k0 (key (fig3_poly ()));
  checki "16 hex digits" 16 (String.length k0);
  checkb "params change the key" true (key ~p:(Ckks.Params.with_l_max prm 9) (fig3_poly ()) <> k0);
  checkb "manager identity changes the key" true
    (key ~m:Resbm.Variants.fhelipe (fig3_poly ()) <> k0);
  checkb "ms_opt configuration changes the key" true
    (key ~m:Resbm.Variants.resbm_max (fig3_poly ()) <> k0);
  checkb "segment scan changes the key" true (key ~scan:`Adjacent (fig3_poly ()) <> k0);
  checkb "a different program changes the key" true (key (fig5_program ()) <> k0);
  (* a structural no-op that touches only derived state must not *)
  let g = fig3_poly () in
  let k1 = key g in
  ignore (Dfg.export g);
  check Alcotest.string "export is observation, not mutation" k1 (key g)

(* --- incremental region memo ---------------------------------------------- *)

(* Layered chain whose prefix is id-identical between the two variants:
   appending a layer must leave the earlier regions' content hashes (and
   so their memoised cuts) untouched. *)
let layered ~layers =
  let g = Dfg.create () in
  let x = Dfg.input g "x" in
  let v = ref x in
  for i = 1 to layers do
    v := Dfg.mul_cc g !v !v;
    v := Dfg.mul_cp g !v (Dfg.const g (Printf.sprintf "w%d" i))
  done;
  Dfg.set_outputs g [ !v ];
  g

let memo_reuses_clean_regions () =
  let cache = Resbm.Plan_cache.create () in
  let mgr = Resbm.Variants.resbm in
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:3));
  let s1 = Resbm.Plan_cache.stats cache in
  checki "cold compile misses the plan tier" 1 s1.Resbm.Plan_cache.misses;
  checkb "regions were solved and memoised" true (s1.Resbm.Plan_cache.memo_entries > 0);
  (* editing the tail invalidates the full-plan key but not the prefix *)
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:4));
  let s2 = Resbm.Plan_cache.stats cache in
  checki "edited program misses the plan tier" 2 s2.Resbm.Plan_cache.misses;
  checkb "clean prefix regions replan from the memo" true
    (s2.Resbm.Plan_cache.memo_hits > s1.Resbm.Plan_cache.memo_hits);
  (* and the incremental result is bit-identical to a memo-free compile *)
  let incremental = Resbm.Variants.compile ~cache mgr prm (layered ~layers:4) in
  let scratch = Resbm.Variants.compile mgr prm (layered ~layers:4) in
  checkb "memo-assisted plan equals the from-scratch plan" true
    (fingerprint incremental = fingerprint scratch)

(* --- canonical region shapes ----------------------------------------------- *)

let shape r region = Resbm.Region_eval.shape_key r prm region

(* One two-region block after the input: a squared, rotated and
   self-added value (region 1), then a plaintext product (region 2).
   Every knob below perturbs exactly one thing the shape must see. *)
let block ?(input = "x") ?(weight = "w") ?(freq = 1) ?(rot = 1) ?(self_add = false)
    ?(rotated_out = false) () =
  let g = Dfg.create () in
  let x = Dfg.input g input in
  let sq = Dfg.mul_cc g x x in
  let r = Dfg.rotate g sq rot in
  let s = if self_add then Dfg.add_cc g ~freq r r else Dfg.add_cc g ~freq sq r in
  let p = Dfg.mul_cp g s (Dfg.const g weight) in
  Dfg.set_outputs g (if rotated_out then [ p; r ] else [ p ]);
  Resbm.Region.build g

let shape_key_is_id_relative () =
  (* layered ~layers:4 repeats one (mul_cc, mul_cp) block at shifted ids;
     the first block reads the input and the last holds the DFG output *)
  let r = Resbm.Region.build (layered ~layers:4) in
  checkb "id-shifted copies share a shape" true (shape r 3 = shape r 5);
  checkb "id-shifted copies share a shape (plaintext product)" true
    (shape r 2 = shape r 4 && shape r 4 = shape r 6);
  checkb "the live-out region differs" true (shape r 8 <> shape r 6);
  let base = block () in
  let differs label b = checkb label true (shape b 1 <> shape base 1) in
  checkb "names are erased" true
    (List.for_all
       (fun region -> shape (block ~input:"y" ~weight:"v" ()) region = shape base region)
       [ 0; 1; 2 ]);
  differs "a freq is part of the shape" (block ~freq:3 ());
  differs "a kind is part of the shape" (block ~rot:2 ());
  differs "an edge is part of the shape" (block ~self_add:true ());
  differs "live-out status is part of the shape" (block ~rotated_out:true ());
  checkb "params are part of the shape" true
    (Resbm.Region_eval.shape_key base (Ckks.Params.with_l_max prm 9) 1 <> shape base 1);
  let r20 = Resbm.Region.build (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg in
  let count = r20.Resbm.Region.count in
  let distinct =
    List.length (List.sort_uniq compare (List.init count (shape r20)))
  in
  checkb
    (Printf.sprintf "resnet20: %d distinct shapes < %d regions" distinct count)
    true (distinct < count)

(* Every problem the DP solved, re-evaluated on every region of the same
   shape: the answer served from the shared store must be bitwise equal to
   a fresh compute with a fresh store. *)
let memo_hits_equal_fresh_computes () =
  let bits = Int64.bits_of_float in
  let same_cut (a : Resbm.Cut.t option) (b : Resbm.Cut.t option) =
    match (a, b) with
    | None, None -> true
    | Some a, Some b ->
        bits a.Resbm.Cut.value = bits b.Resbm.Cut.value
        && a.Resbm.Cut.edges = b.Resbm.Cut.edges
        && a.Resbm.Cut.sink_side = b.Resbm.Cut.sink_side
        && a.Resbm.Cut.node_of = b.Resbm.Cut.node_of
        && a.Resbm.Cut.cert = b.Resbm.Cut.cert
    | _ -> false
  in
  let walk label g =
    let r = Resbm.Region.build g in
    let store = Resbm.Region_eval.Memo.create () in
    ignore (Resbm.Btsmgr.plan ~memo:store r prm);
    let hits, _ = Resbm.Region_eval.Memo.stats store in
    checkb (label ^ ": the shared store was hit") true (hits > 0);
    let shapes = Array.init r.Resbm.Region.count (shape r) in
    let shared = Resbm.Region_eval.create_cache ~memo:store () in
    let checked = ref 0 in
    List.iter
      (fun (s, entry_level, rescales, bts, smo_mode, bts_mode) ->
        Array.iteri
          (fun region s' ->
            if s' = s then begin
              let eval cache =
                Resbm.Region_eval.eval cache r prm ~smo_mode ~bts_mode ~region
                  ~entry_level ~rescales ~bts
              in
              let a = eval shared in
              let b = eval (Resbm.Region_eval.create_cache ()) in
              incr checked;
              if
                not
                  (bits a.Resbm.Region_eval.latency_ms = bits b.Resbm.Region_eval.latency_ms
                  && same_cut a.Resbm.Region_eval.smo_cut b.Resbm.Region_eval.smo_cut
                  && same_cut a.Resbm.Region_eval.bts_cut b.Resbm.Region_eval.bts_cut
                  && a.Resbm.Region_eval.bts_subgraph = b.Resbm.Region_eval.bts_subgraph)
              then
                Alcotest.failf "%s: region %d (entry %d, %d rescales) differs" label region
                  entry_level rescales
            end)
          shapes)
      (Resbm.Region_eval.Memo.entries store);
    checkb (label ^ ": every region re-solved") true (!checked >= r.Resbm.Region.count - 1)
  in
  walk "resnet20" (Nn.Lowering.lower Nn.Model.resnet20).Nn.Lowering.dfg;
  walk "layered" (layered ~layers:4)

(* The DP's latency query against the full evaluation.  [reference ()]
   gives the cache each [eval] runs on; each grid point must agree bitwise
   with [latency] on one cache shared by every region, or both must raise
   [Infeasible]. *)
let latency_agrees label r prm ~reference ~entry_levels ~bts_targets =
  let bits = Int64.bits_of_float in
  let shared = Resbm.Region_eval.create_cache () in
  let modes =
    List.concat_map
      (fun smo -> List.map (fun bts -> (smo, bts)) Resbm.Region_eval.[ Bts_min_cut; Bts_region_end ])
      Resbm.Region_eval.[ Smo_min_cut; Smo_eva; Smo_pars ]
  in
  let answer f = match f () with l -> Some (bits l) | exception Resbm.Region_eval.Infeasible _ -> None in
  for region = 0 to r.Resbm.Region.count - 1 do
    List.iter
      (fun (smo_mode, bts_mode) ->
        List.iter
          (fun entry_level ->
            for rescales = 0 to 2 do
              List.iter
                (fun bts ->
                  let query () =
                    Resbm.Region_eval.latency shared r prm ~smo_mode ~bts_mode ~region
                      ~entry_level ~rescales ~bts
                  and full () =
                    (Resbm.Region_eval.eval (reference ()) r prm ~smo_mode ~bts_mode ~region
                       ~entry_level ~rescales ~bts)
                      .Resbm.Region_eval.latency_ms
                  in
                  if answer query <> answer full then
                    Alcotest.failf "%s: region %d (entry %d, %d rescales, bts %s) differs" label
                      region entry_level rescales
                      (match bts with None -> "-" | Some l -> string_of_int l))
                bts_targets
            done)
          entry_levels)
      modes
  done

let levels l_max = List.init (l_max + 1) Fun.id

(* Random graphs: the whole grid, each [eval] on a fresh cache. *)
let latency_equals_eval_random =
  qcheck ~count:8 "latency query equals eval (random graphs)"
    (QCheck2.Gen.pair (random_dfg_gen ~max_nodes:30 ~max_depth:6) QCheck2.Gen.bool)
    (fun (params, residual) ->
      let prm = Ckks.Params.with_l_max prm 6 in
      let r = Resbm.Region.build (build_random_dfg ~residual params) in
      latency_agrees "random" r prm
        ~reference:(fun () -> Resbm.Region_eval.create_cache ())
        ~entry_levels:(levels 6)
        ~bts_targets:(None :: List.init 6 (fun l -> Some (l + 1)));
      true)

(* Every region of the seven paper models at l_max 16 and 10.  Computing
   the whole grid afresh for each of their 2,621 regions would take
   minutes, so [eval] runs on one reference cache per model, whose own
   store solves each shape once (a store hit is a fresh compute — the test
   above); the grid keeps every mode and rescale count, and samples the
   entry levels and bootstrap targets at both ends. *)
let latency_equals_eval_models () =
  List.iter
    (fun l_max ->
      let prm = Ckks.Params.with_l_max prm l_max in
      List.iter
        (fun m ->
          let r = Resbm.Region.build (Nn.Lowering.lower m).Nn.Lowering.dfg in
          let reference = Resbm.Region_eval.create_cache () in
          latency_agrees
            (Printf.sprintf "%s@%d" m.Nn.Model.name l_max)
            r prm
            ~reference:(fun () -> reference)
            ~entry_levels:[ 0; 1; 2; l_max - 1; l_max ]
            ~bts_targets:[ None; Some 1; Some l_max ])
        Nn.Model.paper_models)
    [ 16; 10 ]

(* --- on-disk tier ---------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "resbm_cache" ".d" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let disk_tier_survives_processes () =
  with_temp_dir (fun dir ->
      let mgr = Resbm.Variants.resbm in
      let c1 = Resbm.Plan_cache.create ~dir () in
      let cold = Resbm.Variants.compile ~cache:c1 mgr prm (fig3_poly ()) in
      checkb "entry written through to disk" true
        ((Resbm.Plan_cache.stats c1).Resbm.Plan_cache.disk_entries >= 1);
      (* a fresh cache instance models a new process over the same dir *)
      let c2 = Resbm.Plan_cache.create ~dir () in
      let warm = Resbm.Variants.compile ~cache:c2 mgr prm (fig3_poly ()) in
      let s = Resbm.Plan_cache.stats c2 in
      checki "served from the disk tier" 1 s.Resbm.Plan_cache.disk_hits;
      checkb "disk round-trip is bit-identical" true
        (fingerprint warm = fingerprint cold);
      (* clear drops both tiers *)
      Resbm.Plan_cache.clear c2;
      checki "disk tier emptied" 0
        (Resbm.Plan_cache.stats c2).Resbm.Plan_cache.disk_entries)

let lru_eviction_is_bounded () =
  let cache = Resbm.Plan_cache.create ~capacity:2 () in
  let mgr = Resbm.Variants.resbm in
  List.iter
    (fun l -> ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:l)))
    [ 1; 2; 3; 4 ];
  let s = Resbm.Plan_cache.stats cache in
  checki "capacity respected" 2 s.Resbm.Plan_cache.entries;
  checki "evictions counted" 2 s.Resbm.Plan_cache.evictions;
  (* the most recent entry is still warm *)
  ignore (Resbm.Variants.compile ~cache mgr prm (layered ~layers:4));
  checki "newest entry survived" (s.Resbm.Plan_cache.hits + 1)
    (Resbm.Plan_cache.stats cache).Resbm.Plan_cache.hits

let suite =
  [
    case "fuel: accounting is exact and exhaustion deterministic" fuel_accounting_is_exact;
    case "warm cache compiles are bit-identical" warm_cache_identity;
    case "warm hits hand out private graphs" warm_hit_graph_is_private;
    case "warm hits hand out fresh profiles" warm_hits_get_fresh_profiles;
    case "cache key tracks every compile input" key_sensitivity;
    case "memo replans only dirty regions" memo_reuses_clean_regions;
    case "shape keys are id-relative and exact" shape_key_is_id_relative;
    case "every memo hit equals a fresh compute" memo_hits_equal_fresh_computes;
    latency_equals_eval_random;
    case "latency query equals eval (paper models)" latency_equals_eval_models;
    case "disk tier round-trips across cache instances" disk_tier_survives_processes;
    case "lru eviction respects capacity" lru_eviction_is_bounded;
  ]
