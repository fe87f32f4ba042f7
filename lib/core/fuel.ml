(* The budget lives in an [Atomic] so the same counter can be shared
   across domains: spends race on a CAS loop, so accounting stays exact
   (never over- or under-counted) and a failed spend consumes nothing. *)
type t = { stage : string; capacity : int; used : int Atomic.t }

exception Exhausted of string

let () =
  Printexc.register_printer (function
    | Exhausted stage -> Some (Printf.sprintf "Fuel.Exhausted(%s)" stage)
    | _ -> None)

let create ?(stage = "plan") capacity = { stage; capacity; used = Atomic.make 0 }
let unlimited = { stage = "unlimited"; capacity = -1; used = Atomic.make 0 }

let remaining t =
  if t.capacity < 0 then -1 else max 0 (t.capacity - Atomic.get t.used)

let stage t = t.stage

(* Nearest-rank percentile over observed step counts, padded by a
   multiplicative headroom: the calibrated budget admits the chosen
   fraction of historical compiles outright and survives modest growth
   before degrading.  Deliberately integer-in, integer-out so calibrated
   budgets stay deterministic across platforms. *)
let calibrate ?(percentile = 0.95) ?(headroom = 1.5) observations =
  if observations = [] then invalid_arg "Fuel.calibrate: no observations";
  if not (percentile >= 0.0 && percentile <= 1.0) then
    invalid_arg "Fuel.calibrate: percentile outside [0, 1]";
  if headroom < 1.0 then invalid_arg "Fuel.calibrate: headroom below 1";
  let arr = Array.of_list (List.sort compare observations) in
  let n = Array.length arr in
  let rank = int_of_float (ceil (percentile *. float_of_int n)) in
  let p = arr.(max 0 (min (n - 1) (rank - 1))) in
  int_of_float (ceil (float_of_int (max p 0) *. headroom))

let spend ?(cost = 1) t =
  if t.capacity >= 0 then begin
    let rec take () =
      let u = Atomic.get t.used in
      if u + cost > t.capacity then begin
        Obs.metric_incr ~labels:[ ("stage", t.stage) ] "planner_fuel_exhausted_total";
        Obs.log_warn ~event:"fuel.exhausted"
          ~fields:
            [
              ("stage", Obs.Json.String t.stage);
              ("capacity", Obs.Json.Int t.capacity);
            ]
          (Printf.sprintf "planner fuel exhausted in %s" t.stage);
        raise (Exhausted t.stage)
      end;
      if not (Atomic.compare_and_set t.used u (u + cost)) then take ()
    in
    take ();
    Obs.metric_incr ~by:cost ~labels:[ ("stage", t.stage) ] "planner_fuel_spent_total"
  end
