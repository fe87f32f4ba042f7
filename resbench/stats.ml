(* Order statistics and summaries for the benchmark's reported figures
   that [Obs.Stat] (median, mean) does not provide. *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank: the smallest sample with at least [q] of the samples at
   or below it. *)
let rank ~n q = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let nearest_rank xs q =
  match sorted xs with
  | [] -> Float.nan
  | s -> List.nth s (rank ~n:(List.length s) q - 1)

let beyond ~n q = if n = 0 then 0 else n - rank ~n q

(* The highest whole percentile whose nearest-rank sample still leaves at
   least 10 samples above it; 0 when the sample is too small for any. *)
let highest_supported n =
  let rec go p =
    if p <= 0 || beyond ~n (float_of_int p /. 100.0) >= 10 then max p 0 else go (p - 1)
  in
  go 99

(* Harrell-Davis estimate of quantile [q]: every order statistic weighted
   by the Beta((n+1)q, (n+1)(1-q)) mass over its slot [(i-1)/n, i/n].  It
   moves far less than a single order statistic when samples of unequal
   inputs swap places across the gaps between them.  Weights come from a
   midpoint-rule integral, normalised to sum to 1; below five samples it
   falls back to the nearest rank. *)
let harrell_davis xs q =
  let s = Array.of_list (sorted xs) in
  let n = Array.length s in
  if n < 5 then nearest_rank xs q
  else begin
    let nf = float_of_int n in
    let a = q *. (nf +. 1.0) and b = (1.0 -. q) *. (nf +. 1.0) in
    let steps = 64 in
    let h = 1.0 /. (nf *. float_of_int steps) in
    let log_density x = ((a -. 1.0) *. log x) +. ((b -. 1.0) *. log (1.0 -. x)) in
    (* Scaled by the density at the mode so large samples cannot underflow. *)
    let peak = log_density (Float.min 0.999999 (Float.max 1e-6 ((a -. 1.0) /. (a +. b -. 2.0)))) in
    let density x = exp (log_density x -. peak) in
    let w =
      Array.init n (fun i ->
          let acc = ref 0.0 in
          for k = 0 to steps - 1 do
            acc := !acc +. density ((float_of_int ((i * steps) + k) +. 0.5) *. h)
          done;
          !acc)
    in
    let total = Array.fold_left ( +. ) 0.0 w in
    let est = ref 0.0 in
    Array.iteri (fun i x -> est := !est +. (w.(i) /. total *. x)) s;
    !est
  end

let geomean = function
  | [] -> Float.nan
  | xs ->
      if List.exists (fun x -> not (x > 0.0)) xs then
        invalid_arg "Stats.geomean: non-positive sample";
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0
