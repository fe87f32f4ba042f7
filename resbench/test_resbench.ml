(* Self-tests of the benchmark's own helpers. *)

open Resbench

let close = Alcotest.float 1e-9

let percentiles () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p80 of 1..100" 80.0 (Stats.nearest_rank xs 0.8);
  Alcotest.check close "p99 of 1..100" 99.0 (Stats.nearest_rank xs 0.99);
  (* Two passes of the 28 compile cells leave 11 samples beyond p80; one
     pass leaves 5, too few. *)
  Alcotest.(check int) "beyond p80 of 56" 11 (Stats.beyond ~n:56 0.8);
  Alcotest.(check int) "beyond p80 of 28" 5 (Stats.beyond ~n:28 0.8);
  Alcotest.(check int) "beyond p80 of 50 (no float round-up)" 10 (Stats.beyond ~n:50 0.8);
  Alcotest.(check int) "highest supported of 56" 82 (Stats.highest_supported 56);
  Alcotest.(check int) "highest supported of 28" 64 (Stats.highest_supported 28);
  Alcotest.(check int) "highest supported of 9" 0 (Stats.highest_supported 9);
  Alcotest.check (Alcotest.float 1e-6) "Harrell-Davis median of a symmetric sample" 50.5
    (Stats.harrell_davis xs 0.5);
  Alcotest.check close "Harrell-Davis of equal samples" 3.0
    (Stats.harrell_davis (List.init 30 (fun _ -> 3.0)) 0.8);
  let hd80 = Stats.harrell_davis xs 0.8 in
  Alcotest.(check bool) "Harrell-Davis p80 near the nearest rank" true (hd80 > 79.0 && hd80 < 82.0)

let geomean () =
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.check close "geomean of one" 7.0 (Stats.geomean [ 7.0 ]);
  Alcotest.check_raises "non-positive sample"
    (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let stream () =
  let a = Gen.pass_order ~seed:42L ~cells:28 0 in
  Alcotest.(check (array int)) "same seed, same pass" a (Gen.pass_order ~seed:42L ~cells:28 0);
  Alcotest.(check (list int))
    "a pass is a permutation" (List.init 28 Fun.id)
    (List.sort compare (Array.to_list a));
  Alcotest.(check bool) "passes differ" true (a <> Gen.pass_order ~seed:42L ~cells:28 1);
  Alcotest.(check bool) "seeds differ" true (a <> Gen.pass_order ~seed:43L ~cells:28 0);
  Alcotest.(check (array (float 0.0))) "inputs repeat" (Gen.input ~seed:5L ~salt:1 ~dim:16)
    (Gen.input ~seed:5L ~salt:1 ~dim:16)

let campaigns () =
  let models = [ ("tiny", 0.33, 48, 1); ("resnet20", 0.009, 12, 2) ] in
  let a = Gen.campaigns ~seed:9L models in
  Alcotest.(check bool)
    "same seed, same campaigns" true
    (a = Gen.campaigns ~seed:9L models);
  Alcotest.(check bool) "seeds differ" true (a <> Gen.campaigns ~seed:10L models);
  Alcotest.(check int) "campaigns per (model, band) as asked" 9 (List.length a);
  List.iter
    (fun (c : Gen.campaign) ->
      let _, cap, n, _ = List.find (fun (m, _, _, _) -> m = c.Gen.model) models in
      let lo, hi = Gen.band_range c.Gen.band in
      Alcotest.(check bool) "load inside its band" true (c.Gen.load >= lo && c.Gen.load <= hi);
      Alcotest.check close "rate = load * capacity" (c.Gen.load *. cap) c.Gen.rate_rps;
      Alcotest.(check int) "arrival count" n (List.length c.Gen.arrivals_ms);
      Alcotest.(check bool) "arrivals sorted inside the window" true
        (List.sort Float.compare c.Gen.arrivals_ms = c.Gen.arrivals_ms
        && List.for_all (fun t -> t >= 0.0 && t <= c.Gen.duration_ms) c.Gen.arrivals_ms))
    a

let self_time () =
  Alcotest.check close "union of overlapping children" 5.0
    (Spans.covered ~lo:0.0 ~hi:10.0 [ (1.0, 3.0); (2.0, 5.0); (7.0, 8.0) ]);
  Alcotest.check close "children clipped to the parent" 1.5
    (Spans.covered ~lo:0.0 ~hi:2.0 [ (1.0, 5.0); (-1.0, 0.5) ]);
  let sp = Spans.create () in
  Spans.with_span sp ~job:0 "outer" (fun () -> Spans.with_span sp ~job:0 "inner" (fun () -> ()));
  match Spans.self_times sp with
  | [ (outer, outer_self); (inner, inner_self) ] ->
      Alcotest.(check string) "parent first" "outer" outer.Spans.name;
      Alcotest.(check int) "inner's parent" outer.Spans.id inner.Spans.parent;
      Alcotest.check close "self times add up to the root span" (Spans.duration outer)
        (outer_self +. inner_self)
  | _ -> Alcotest.fail "expected two spans"

(* BENCHMARK.json must list exactly the metrics the benchmark prints. *)
let benchmark_json () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let json = match Obs.Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  let listed key =
    match Obs.Json.member key json with
    | Some (Obs.Json.List l) ->
        List.map
          (fun m ->
            let field k = Obs.Json.member k m in
            match (field "name", field "unit", field "better") with
            | Some (String n), Some (String u), Some (String b) -> (n, u, b)
            | _ -> Alcotest.fail ("malformed entry in " ^ key))
          l
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let ours =
    List.map (fun (m : Catalog.metric) ->
        (m.Catalog.name, m.Catalog.unit, Catalog.better_name m.Catalog.better))
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Catalog.end_to_end) (listed "end_to_end");
  Alcotest.check triple "per_layer" (ours Catalog.per_layer) (listed "per_layer")

let () =
  Alcotest.run "resbench"
    [
      ( "helpers",
        [
          Alcotest.test_case "percentile rule" `Quick percentiles;
          Alcotest.test_case "geomean" `Quick geomean;
          Alcotest.test_case "seeded compile stream" `Quick stream;
          Alcotest.test_case "seeded campaigns" `Quick campaigns;
          Alcotest.test_case "span self time" `Quick self_time;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick benchmark_json;
        ] );
    ]
