(* Seeded input generators.  Everything the benchmark feeds the program —
   the order of compile jobs, the serving campaigns, inference inputs — is
   drawn here from the workload seed, with a private SplitMix64 stream so
   the same seed gives the same inputs on every OCaml version. *)

type rng = { mutable s : int64 }

let rng seed = { s = seed }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1), from the top 53 bits. *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) /. 9007199254740992.0
let int r bound = int_of_float (float r *. float_of_int bound)
let uniform r ~lo ~hi = lo +. ((hi -. lo) *. float r)

(* A child stream for one purpose, so adding draws to one generator never
   shifts the inputs of another. *)
let derive seed salt = rng (next (rng (Int64.logxor seed (Int64.mul salt 0x2545F4914F6CDD1DL))))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Pass [p] of a closed-loop stream over [cells] items: a seeded
   permutation, so every pass visits every cell exactly once. *)
let pass_order ~seed ~cells p =
  let a = Array.init cells Fun.id in
  shuffle (derive seed (Int64.of_int (1000 + p))) a;
  a

(* Inference input: [dim] values in [-1, 1]. *)
let input ~seed ~salt ~dim =
  let r = derive seed (Int64.of_int (5000 + salt)) in
  Array.init dim (fun _ -> uniform r ~lo:(-1.0) ~hi:1.0)

type band = Under | Near | Over

let band_name = function Under -> "under" | Near -> "near" | Over -> "over"

(* Offered load as a share of a model's batch capacity. *)
let band_range = function Under -> (0.45, 0.55) | Near -> (0.9, 1.0) | Over -> (1.5, 1.7)

type campaign = {
  model : string;
  band : band;
  load : float;  (** Offered load / capacity. *)
  rate_rps : float;
  duration_ms : float;
  arrivals_ms : float list;  (** Sorted, in [0, duration_ms]. *)
  campaign_seed : int64;
}

(* One pass of serving campaigns, in seeded order.  [models] gives each
   model's capacity in requests per simulated second, its arrival count,
   and how many campaigns it gets in every load band.  Arrivals are a
   Poisson process at [load * capacity] conditioned on that count: [n]
   sorted uniform times over a window of [n / rate], so the work per
   campaign is fixed and only its timing varies with the seed. *)
let campaigns ~seed models =
  let r = derive seed 7L in
  let specs =
    List.concat_map
      (fun (model, capacity_rps, n, per_band) ->
        List.map
          (fun band ->
            let lo, hi = band_range band in
            let load = uniform r ~lo ~hi in
            let rate_rps = load *. capacity_rps in
            let duration_ms = float_of_int n /. rate_rps *. 1000.0 in
            let arrivals_ms =
              List.sort Float.compare (List.init n (fun _ -> uniform r ~lo:0.0 ~hi:duration_ms))
            in
            { model; band; load; rate_rps; duration_ms; arrivals_ms; campaign_seed = next r })
          (List.concat_map (fun b -> List.init per_band (fun _ -> b)) [ Under; Near; Over ]))
      models
  in
  let a = Array.of_list specs in
  shuffle r a;
  Array.to_list a
