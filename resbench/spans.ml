(* The traced run's span recorder.  Spans are opened and closed by
   benchmark code around each call into the program, kept in memory, and
   written out once when the run ends.  A layer's self time is its span's
   duration minus the part of that interval its child spans cover. *)

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** -1 for a root span. *)
  start_ms : float;
  end_ms : float;
}

type t = {
  epoch : float;
  mutable next_id : int;
  mutable stack : int list;
  mutable closed : span list;
}

let create () = { epoch = Unix.gettimeofday (); next_id = 0; stack = []; closed = [] }
let now_ms t = 1000.0 *. (Unix.gettimeofday () -. t.epoch)

let with_span t ~job name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start_ms = now_ms t in
  Fun.protect f ~finally:(fun () ->
      let end_ms = now_ms t in
      t.stack <- List.tl t.stack;
      t.closed <- { id; name; job; parent; start_ms; end_ms } :: t.closed)

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration s = s.end_ms -. s.start_ms

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0.0 None (List.sort compare clipped)

(* Self time of every span, by span id. *)
let self_times t =
  let all = spans t in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let siblings = Option.value ~default:[] (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent ((s.start_ms, s.end_ms) :: siblings))
    all;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start_ms ~hi:s.end_ms kids))
    all

(* Total self time and span count per name, sorted by name. *)
let self_by_name t =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let tot, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name (tot +. self, n + 1))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun k (tot, n) l -> (k, tot, n) :: l) acc [])

let to_jsonl t =
  List.map
    (fun s ->
      Printf.sprintf
        "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"start_ms\":%.6f,\"end_ms\":%.6f}"
        s.id s.name s.job s.parent s.start_ms s.end_ms)
    (spans t)
