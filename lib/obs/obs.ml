(* Lightweight observability for the compile pipeline: wall-clock spans,
   monotonic counters, and dependency-free JSON.  A profile is installed
   as the ambient collector for the dynamic extent of one compile;
   instrumentation sites record through the conveniences at the bottom,
   which are no-ops when no profile is installed.  Per-event values
   (cut sizes, latencies) go to Metrics histograms, which stay constant
   space however long the run. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* Shortest decimal representation that parses back to the same float;
     non-finite values have no JSON spelling and degrade to null. *)
  let float_repr f =
    if Float.is_nan f || Float.abs f = infinity then "null"
    else begin
      let repr = ref (Printf.sprintf "%.17g" f) in
      (try
         for p = 1 to 16 do
           let c = Printf.sprintf "%.*g" p f in
           if float_of_string c = f then begin
             repr := c;
             raise Exit
           end
         done
       with Exit -> ());
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') !repr then !repr
      else !repr ^ ".0"
    end

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            to_buf buf v)
          items;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            to_buf buf v)
          fields;
        Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    to_buf buf v;
    Buffer.contents buf

  let pp ppf v = Format.pp_print_string ppf (to_string v)

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail "expected %c at offset %d" c !pos
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (if !pos >= n then fail "unterminated escape");
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* encode the BMP code point as UTF-8 *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
          | c -> fail "bad escape \\%c" c);
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_frac = ref false in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' -> true
        | '.' | 'e' | 'E' | '+' | '-' ->
            is_frac := true;
            true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if !is_frac then Float (float_of_string text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> Float (float_of_string text)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or } at offset %d" !pos
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            List []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ] at offset %d" !pos
            in
            elements ();
            List (List.rev !items)
          end
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail "unexpected %c at offset %d" c !pos
    in
    match parse_value () with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
        else Ok v
    | exception Parse m -> Error m
    | exception Failure m -> Error m

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

module Timer = struct
  type t = float

  let start () = Unix.gettimeofday ()
  let elapsed_ms t = 1000.0 *. (Unix.gettimeofday () -. t)
end

(* The flight recorders' bounded store: a fixed ring of the most recent
   [capacity] items.  Once full, each push overwrites the oldest item, so
   the tail of a run always survives.  Not synchronised — Log wraps it in
   its own mutex. *)
module Ring = struct
  type 'a t = { capacity : int; buf : 'a option array; mutable next : int }

  let create ~owner capacity =
    if capacity < 1 then invalid_arg (owner ^ ".create: capacity must be >= 1");
    { capacity; buf = Array.make capacity None; next = 0 }

  let push t x =
    t.buf.(t.next mod t.capacity) <- Some x;
    t.next <- t.next + 1

  (* Items ever pushed, including overwritten ones. *)
  let recorded t = t.next
  let dropped t = max 0 (t.next - t.capacity)

  (* Surviving items, oldest first. *)
  let items t =
    let stored = min t.next t.capacity in
    let first = t.next - stored in
    List.init stored (fun i -> Option.get t.buf.((first + i) mod t.capacity))
end

(* Chrome trace-event objects (Perfetto-loadable), the one dialect every
   exporter speaks.  Fields appear in a fixed order — name, cat, ph, ts,
   dur, pid, tid, s, args — and absent optional fields are omitted. *)
module Chrome = struct
  let usec ms = Float.round (ms *. 1000.0)

  let event ?cat ?ts ?dur ?tid ?scope ~ph ~pid name args =
    let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
    let str v = Json.String v and int v = Json.Int v in
    Json.Obj
      ((("name", Json.String name) :: opt "cat" str cat)
      @ (("ph", Json.String ph) :: opt "ts" Fun.id ts)
      @ opt "dur" Fun.id dur
      @ (("pid", Json.Int pid) :: opt "tid" int tid)
      @ opt "s" str scope
      @ [ ("args", Json.Obj args) ])

  (* A span of [dur_ms] starting at [start_ms] ("X"). *)
  let complete ~cat ~pid ~tid ~start_ms ~dur_ms name args =
    event ~cat ~ph:"X" ~ts:(Json.Float (usec start_ms)) ~dur:(Json.Float (usec dur_ms))
      ~pid ~tid name args

  (* A thread-scoped marker at [ts_ms] ("i"). *)
  let instant ~cat ~pid ~tid ~ts_ms name args =
    event ~cat ~ph:"i" ~ts:(Json.Float (usec ts_ms)) ~pid ~tid ~scope:"t" name args

  (* One sample of a process-wide counter track ("C"). *)
  let counter ~cat ~pid ~ts_ms name value =
    event ~cat ~ph:"C" ~ts:(Json.Float (usec ts_ms)) ~pid name [ (name, value) ]

  let process_name ~pid name =
    event ~ph:"M" ~pid ~tid:0 "process_name" [ ("name", Json.String name) ]

  (* A named thread, sorted by its tid. *)
  let thread ~pid ~tid name =
    [
      event ~ph:"M" ~pid ~tid "thread_name" [ ("name", Json.String name) ];
      event ~ph:"M" ~pid ~tid "thread_sort_index" [ ("sort_index", Json.Int tid) ];
    ]

  let trace events =
    Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]
end

module Profile = struct
  type span = { name : string; depth : int; start_ms : float; dur_ms : float }

  type t = {
    epoch : float;
    mutable finished : span list;  (* reverse completion order *)
    mutable stack : (string * float) list;  (* open spans *)
    counters : (string, int) Hashtbl.t;
  }

  let create () =
    { epoch = Unix.gettimeofday (); finished = []; stack = []; counters = Hashtbl.create 16 }

  let now_ms t = 1000.0 *. (Unix.gettimeofday () -. t.epoch)

  let incr ?(by = 1) t name =
    Hashtbl.replace t.counters name
      (by + Option.value (Hashtbl.find_opt t.counters name) ~default:0)

  let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0

  let span t name f =
    let start = now_ms t in
    let depth = List.length t.stack in
    t.stack <- (name, start) :: t.stack;
    Fun.protect f ~finally:(fun () ->
        (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
        t.finished <-
          { name; depth; start_ms = start; dur_ms = now_ms t -. start } :: t.finished)

  let spans t =
    List.sort
      (fun a b -> compare (a.start_ms, a.depth) (b.start_ms, b.depth))
      (List.rev t.finished)

  let counters t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counters [] (* det-ok: sorted *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let to_json t =
    let span_json s =
      Json.Obj
        [
          ("name", Json.String s.name);
          ("depth", Json.Int s.depth);
          ("start_ms", Json.Float s.start_ms);
          ("dur_ms", Json.Float s.dur_ms);
        ]
    in
    Json.Obj
      [
        ("spans", Json.List (List.map span_json (spans t)));
        ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ]

  let pp ppf t =
    let top = List.filter (fun s -> s.depth = 0) (spans t) in
    Format.fprintf ppf "@[<v>phases:";
    List.iter (fun s -> Format.fprintf ppf "@ %-14s %10.3f ms" s.name s.dur_ms) top;
    List.iter
      (fun (k, v) -> Format.fprintf ppf "@ %-32s %10d" k v)
      (counters t);
    Format.fprintf ppf "@]"
end

module Trace = struct
  (* Runtime execution tracing: a ring-buffered flight recorder of per-op
     CKKS events.  The simulated evaluator records the scheme-state facts
     (level, scale, size, noise before/after); the DFG interpreter supplies
     attribution (node id, region, loop frequency, Table 2 cost) through a
     mutable context set before each node executes.  Timestamps live on a
     *simulated* timeline: the clock advances by each op's freq-weighted
     Table 2 cost, so the exported trace shows where the modelled latency
     goes, not where the host CPU went. *)

  type op_event = {
    seq : int;
    op : string;
    node : int;
    region : int;
    freq : int;
    level : int;
    scale_bits : int;
    size : int;
    noise_before : float;
    noise_after : float;
    start_ms : float;
    dur_ms : float;
  }

  type instant = {
    iseq : int;
    iname : string;
    inode : int;
    iregion : int;
    its_ms : float;
    detail : (string * Json.t) list;
  }

  type event = Op of op_event | Instant of instant

  type ctx = { node : int; region : int; freq : int; cost_ms : float }

  type t = {
    ring : event Ring.t;
    mutable clock : float;  (* simulated timeline, ms *)
    mutable ctx : ctx option;
  }

  let create ?(capacity = 65536) () =
    { ring = Ring.create ~owner:"Trace" capacity; clock = 0.0; ctx = None }

  let recorded t = Ring.recorded t.ring
  let dropped t = Ring.dropped t.ring
  let clock_ms t = t.clock
  let advance_clock t ms = t.clock <- t.clock +. ms
  let set_ctx t ctx = t.ctx <- ctx

  let record t ~op ?(cost_ms = 0.0) ?(noise_before = 0.0) ~level ~scale_bits ~size
      ~noise () =
    let node, region, freq, cost_ms =
      match t.ctx with
      | Some c -> (c.node, c.region, c.freq, c.cost_ms)
      | None -> (-1, -1, 1, cost_ms)
    in
    let start_ms = t.clock in
    t.clock <- t.clock +. cost_ms;
    Ring.push t.ring
      (Op
         {
           seq = recorded t;
           op;
           node;
           region;
           freq;
           level;
           scale_bits;
           size;
           noise_before;
           noise_after = noise;
           start_ms;
           dur_ms = cost_ms;
         })

  let instant t ~name ?node ?(detail = []) () =
    let inode, iregion =
      match (node, t.ctx) with
      | Some n, Some c -> (n, c.region)
      | Some n, None -> (n, -1)
      | None, Some c -> (c.node, c.region)
      | None, None -> (-1, -1)
    in
    Ring.push t.ring
      (Instant { iseq = recorded t; iname = name; inode; iregion; its_ms = t.clock; detail })

  let events t = Ring.items t.ring

  let op_events t =
    List.filter_map (function Op e -> Some e | Instant _ -> None) (events t)

  (* Noise is an absolute per-slot RMS error estimate; headroom is how many
     bits of precision remain before that error reaches magnitude 1.  Zero
     (never produced by the evaluator — every op injects fresh noise) and
     sub-2^-200 errors are clamped so the exported counters stay finite. *)
  let headroom_bits err =
    if err <= 0.0 then 200.0 else Float.max 0.0 (Float.min 200.0 (-.Float.log2 err))

  (* Chrome trace-event JSON (Perfetto-loadable).  One process holds the
     execution: ops are "X" complete events on per-region threads, noise /
     level / scale are process-wide counter tracks sampled at each op's end,
     and rescale/modswitch/bootstrap/fhe_error markers are instants. *)
  let tid_of_region r = if r < 0 then 1 else r + 2

  let chrome_events ?(pid = 1) ?(name = "resbm execute") t =
    let evs = events t in
    let regions =
      List.sort_uniq compare
        (List.map (function Op e -> e.region | Instant i -> i.iregion) evs)
    in
    let threads =
      List.concat_map
        (fun r ->
          Chrome.thread ~pid ~tid:(tid_of_region r)
            (if r < 0 then "(unattributed)" else Printf.sprintf "region %d" r))
        regions
    in
    let body =
      List.concat_map
        (function
          | Op e ->
              let counter cname value =
                Chrome.counter ~cat:"state" ~pid ~ts_ms:(e.start_ms +. e.dur_ms) cname value
              in
              [
                Chrome.complete ~cat:"op" ~pid ~tid:(tid_of_region e.region)
                  ~start_ms:e.start_ms ~dur_ms:e.dur_ms e.op
                  [
                    ("node", Json.Int e.node);
                    ("region", Json.Int e.region);
                    ("freq", Json.Int e.freq);
                    ("level", Json.Int e.level);
                    ("scale_bits", Json.Int e.scale_bits);
                    ("size", Json.Int e.size);
                    ("noise_before_bits", Json.Float (headroom_bits e.noise_before));
                    ("noise_after_bits", Json.Float (headroom_bits e.noise_after));
                  ];
                counter "noise_headroom_bits" (Json.Float (headroom_bits e.noise_after));
                counter "level" (Json.Int e.level);
                counter "scale_bits" (Json.Int e.scale_bits);
              ]
          | Instant i ->
              [
                Chrome.instant ~cat:"instant" ~pid ~tid:(tid_of_region i.iregion)
                  ~ts_ms:i.its_ms i.iname
                  (("node", Json.Int i.inode) :: i.detail);
              ])
        evs
    in
    (Chrome.process_name ~pid name :: threads) @ body

  let event_to_json = function
    | Op e ->
        Json.Obj
          [
            ("type", Json.String "op");
            ("seq", Json.Int e.seq);
            ("op", Json.String e.op);
            ("node", Json.Int e.node);
            ("region", Json.Int e.region);
            ("freq", Json.Int e.freq);
            ("level", Json.Int e.level);
            ("scale_bits", Json.Int e.scale_bits);
            ("size", Json.Int e.size);
            ("noise_before", Json.Float e.noise_before);
            ("noise_after", Json.Float e.noise_after);
            ("start_ms", Json.Float e.start_ms);
            ("dur_ms", Json.Float e.dur_ms);
          ]
    | Instant i ->
        Json.Obj
          ([
             ("type", Json.String "instant");
             ("seq", Json.Int i.iseq);
             ("name", Json.String i.iname);
             ("node", Json.Int i.inode);
             ("region", Json.Int i.iregion);
             ("ts_ms", Json.Float i.its_ms);
           ]
          @ match i.detail with [] -> [] | d -> [ ("detail", Json.Obj d) ])

  let to_jsonl t = List.map (fun e -> Json.to_string (event_to_json e)) (events t)
end

(* Multi-trial measurement statistics: wall-clock timings are noisy, so a
   single-shot number is useless as a regression baseline.  Everything
   here is deterministic given the input sample and the seed — the
   bootstrap confidence interval uses its own splitmix64 stream, never the
   global Random state — so two runs over the same data produce
   byte-identical summaries. *)
module Stat = struct
  let sorted xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a

  let median_sorted a =
    let n = Array.length a in
    if n = 0 then nan
    else if n land 1 = 1 then a.(n / 2)
    else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

  let median xs = median_sorted (sorted xs)

  let mean xs =
    match xs with
    | [] -> nan
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

  (* Median absolute deviation around [center] (default: the median).
     Unscaled — this is a tolerance band, not a sigma estimate. *)
  let mad ?center xs =
    match xs with
    | [] -> nan
    | _ ->
        let c = match center with Some c -> c | None -> median xs in
        median (List.map (fun v -> Float.abs (v -. c)) xs)

  (* splitmix64: tiny, seedable, and good enough for bootstrap resampling. *)
  let splitmix_next state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let rand_int state ~bound =
    Int64.to_int (Int64.rem (Int64.shift_right_logical (splitmix_next state) 1)
                    (Int64.of_int bound))

  type summary = {
    trials : int;
    warmup : int;
    mean : float;
    median : float;
    mad : float;
    min : float;
    max : float;
    ci95 : float * float;
    values : float list;
  }

  (* Percentile bootstrap of the median: resample with replacement
     [resamples] times, take the 2.5th/97.5th percentiles of the resampled
     medians. *)
  let bootstrap_ci ~seed ~resamples values =
    match values with
    | [] -> (nan, nan)
    | [ v ] -> (v, v)
    | _ ->
        let a = Array.of_list values in
        let n = Array.length a in
        let state = ref (Int64.of_int seed) in
        let medians =
          Array.init resamples (fun _ ->
              median_sorted
                (let r = Array.init n (fun _ -> a.(rand_int state ~bound:n)) in
                 Array.sort compare r;
                 r))
        in
        Array.sort compare medians;
        let pick q =
          let i = int_of_float (Float.round (q *. float_of_int (resamples - 1))) in
          medians.(max 0 (min (resamples - 1) i))
        in
        (pick 0.025, pick 0.975)

  let summarise ?(seed = 0x5EED) ?(resamples = 200) ?(warmup = 0) values =
    let a = sorted values in
    let n = Array.length a in
    {
      trials = n;
      warmup;
      mean = mean values;
      median = median_sorted a;
      mad = mad values;
      min = (if n = 0 then nan else a.(0));
      max = (if n = 0 then nan else a.(n - 1));
      ci95 = bootstrap_ci ~seed ~resamples values;
      values;
    }

  (* [sample ~trials f] runs [f] warmup + trials times and summarises the
     measurements [f] returns (e.g. a compile's self-reported wall time).
     Warmup runs are discarded: they absorb cold caches and allocator
     ramp-up so the retained trials are comparable. *)
  let sample ?(warmup = 1) ?seed ?resamples ~trials f =
    if trials < 1 then invalid_arg "Stat.sample: trials must be >= 1";
    for _ = 1 to warmup do
      ignore (f ())
    done;
    let values = List.init trials (fun _ -> f ()) in
    summarise ?seed ?resamples ~warmup values

  let time ?warmup ?seed ?resamples ~trials f =
    sample ?warmup ?seed ?resamples ~trials (fun () ->
        let t = Timer.start () in
        f ();
        Timer.elapsed_ms t)

  let to_json s =
    let lo, hi = s.ci95 in
    Json.Obj
      [
        ("trials", Json.Int s.trials);
        ("warmup", Json.Int s.warmup);
        ("mean", Json.Float s.mean);
        ("median", Json.Float s.median);
        ("mad", Json.Float s.mad);
        ("min", Json.Float s.min);
        ("max", Json.Float s.max);
        ("ci95", Json.List [ Json.Float lo; Json.Float hi ]);
        ("values", Json.List (List.map (fun v -> Json.Float v) s.values));
      ]

  let number = function
    | Json.Int i -> Some (float_of_int i)
    | Json.Float f -> Some f
    | Json.Null -> Some nan
    | _ -> None

  let of_json j =
    let num field =
      match Option.bind (Json.member field j) number with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "summary field %S missing or not a number" field)
    in
    let int field =
      match Json.member field j with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "summary field %S missing or not an int" field)
    in
    let ( let* ) = Result.bind in
    let* trials = int "trials" in
    let* warmup = int "warmup" in
    let* mean = num "mean" in
    let* median = num "median" in
    let* mad = num "mad" in
    let* min = num "min" in
    let* max = num "max" in
    let* ci95 =
      match Json.member "ci95" j with
      | Some (Json.List [ a; b ]) -> (
          match (number a, number b) with
          | Some lo, Some hi -> Ok (lo, hi)
          | _ -> Error "ci95 entries not numbers")
      | _ -> Error "summary field \"ci95\" missing or malformed"
    in
    let* values =
      match Json.member "values" j with
      | Some (Json.List vs) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest -> (
                match number v with
                | Some f -> go (f :: acc) rest
                | None -> Error "values entry not a number")
          in
          go [] vs
      | _ -> Error "summary field \"values\" missing or malformed"
    in
    Ok { trials; warmup; mean; median; mad; min; max; ci95; values }
end

(* Leveled structured logging: a ring-buffered flight recorder of log
   records, the narrative companion to Trace's op events.  Records carry
   automatic context (compile id, pass, region, node, domain id — filled
   in by the ambient helpers at the bottom of this file) plus free-form
   structured fields, and a simulated-clock stamp when a trace was
   ambient at emission time so the record lands as an instant on the
   execution timeline.  The sink is mutex-protected, so domains can
   share it the same way they share the metrics registry. *)
module Log = struct
  type level = Debug | Info | Warn | Error

  let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_name = function
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  type record = {
    lseq : int;
    level : level;
    event : string;
    msg : string;
    ts_ms : float;  (* host wall clock, relative to sink creation *)
    sim_ms : float option;  (* simulated trace clock at emission, if traced *)
    compile_id : int;  (* -1 = outside any compile *)
    pass : string;  (* "" = no pass context *)
    region : int;  (* -1 = unattributed *)
    node : int;  (* -1 = unattributed *)
    domain : int;  (* emitting domain id *)
    fields : (string * Json.t) list;
  }

  type t = {
    min_level : level;
    epoch : float;
    ring : record Ring.t;  (* guarded by [lock] *)
    mutable nfiltered : int;  (* records rejected below min_level *)
    lock : Mutex.t;
  }

  let create ?(capacity = 8192) ?(min_level = Debug) () =
    {
      min_level;
      epoch = Unix.gettimeofday ();
      ring = Ring.create ~owner:"Log" capacity;
      nfiltered = 0;
      lock = Mutex.create ();
    }

  let record t ~level ~event ?(msg = "") ?sim_ms ?(compile_id = -1) ?(pass = "")
      ?(region = -1) ?(node = -1) ?(fields = []) () =
    if level_rank level < level_rank t.min_level then
      Mutex.protect t.lock (fun () -> t.nfiltered <- t.nfiltered + 1)
    else begin
      let ts_ms = 1000.0 *. (Unix.gettimeofday () -. t.epoch) in
      let domain = (Domain.self () :> int) in
      Mutex.protect t.lock (fun () ->
          let r =
            {
              lseq = Ring.recorded t.ring;
              level;
              event;
              msg;
              ts_ms;
              sim_ms;
              compile_id;
              pass;
              region;
              node;
              domain;
              fields;
            }
          in
          Ring.push t.ring r)
    end

  let recorded t = Mutex.protect t.lock (fun () -> Ring.recorded t.ring)
  let dropped t = Mutex.protect t.lock (fun () -> Ring.dropped t.ring)
  let filtered t = Mutex.protect t.lock (fun () -> t.nfiltered)
  let records t = Mutex.protect t.lock (fun () -> Ring.items t.ring)

  let record_to_json r =
    Json.Obj
      ([
         ("seq", Json.Int r.lseq);
         ("level", Json.String (level_name r.level));
         ("event", Json.String r.event);
         ("msg", Json.String r.msg);
         ("ts_ms", Json.Float r.ts_ms);
       ]
      @ (match r.sim_ms with None -> [] | Some s -> [ ("sim_ms", Json.Float s) ])
      @ [
          ("compile_id", Json.Int r.compile_id);
          ("pass", Json.String r.pass);
          ("region", Json.Int r.region);
          ("node", Json.Int r.node);
          ("domain", Json.Int r.domain);
        ]
      @ match r.fields with [] -> [] | fs -> [ ("fields", Json.Obj fs) ])

  let record_of_json j =
    let ( let* ) = Result.bind in
    let str field =
      match Json.member field j with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "log record field %S missing or not a string" field)
    in
    let int field =
      match Json.member field j with
      | Some (Json.Int i) -> Ok i
      | _ -> Error (Printf.sprintf "log record field %S missing or not an int" field)
    in
    let num field =
      match Json.member field j with
      | Some (Json.Float f) -> Ok f
      | Some (Json.Int i) -> Ok (float_of_int i)
      | _ -> Error (Printf.sprintf "log record field %S missing or not a number" field)
    in
    let* lseq = int "seq" in
    let* level =
      let* name = str "level" in
      match level_of_name name with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "unknown log level %S" name)
    in
    let* event = str "event" in
    let* msg = str "msg" in
    let* ts_ms = num "ts_ms" in
    let* sim_ms =
      match Json.member "sim_ms" j with
      | None -> Ok None
      | Some (Json.Float f) -> Ok (Some f)
      | Some (Json.Int i) -> Ok (Some (float_of_int i))
      | Some _ -> Error "log record field \"sim_ms\" not a number"
    in
    let* compile_id = int "compile_id" in
    let* pass = str "pass" in
    let* region = int "region" in
    let* node = int "node" in
    let* domain = int "domain" in
    let* fields =
      match Json.member "fields" j with
      | None -> Ok []
      | Some (Json.Obj fs) -> Ok fs
      | Some _ -> Error "log record field \"fields\" not an object"
    in
    Ok { lseq; level; event; msg; ts_ms; sim_ms; compile_id; pass; region; node; domain; fields }

  let to_jsonl t = List.map (fun r -> Json.to_string (record_to_json r)) (records t)

  let of_jsonl lines =
    let ( let* ) = Result.bind in
    let* rev =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          if String.trim line = "" then Ok acc
          else
            let* j = Json.of_string line in
            let* r = record_of_json j in
            Ok (r :: acc))
        (Ok []) lines
    in
    Ok (List.rev rev)

  (* Log records as Perfetto instants.  A record stamped with a simulated
     clock lands on the execution process at that simulated time, on the
     thread of the region it is attributed to; a compile-side record
     (no [sim_ms]) lands on the compile process at its host timestamp, so
     both correlate with the spans already on those timelines. *)
  let chrome_events ?(compile_pid = 0) ?(exec_pid = 1) rs =
    List.map
      (fun r ->
        let pid, ts_ms, tid =
          match r.sim_ms with
          | Some s -> (exec_pid, s, Trace.tid_of_region r.region)
          | None -> (compile_pid, r.ts_ms, 0)
        in
        let ctx =
          (if r.compile_id >= 0 then [ ("compile_id", Json.Int r.compile_id) ] else [])
          @ (if r.pass <> "" then [ ("pass", Json.String r.pass) ] else [])
          @ (if r.region >= 0 then [ ("region", Json.Int r.region) ] else [])
          @ if r.node >= 0 then [ ("node", Json.Int r.node) ] else []
        in
        Chrome.instant ~cat:("log." ^ level_name r.level) ~pid ~tid ~ts_ms r.event
          ((("level", Json.String (level_name r.level))
            :: (if r.msg <> "" then [ ("msg", Json.String r.msg) ] else []))
          @ [ ("seq", Json.Int r.lseq); ("domain", Json.Int r.domain) ]
          @ ctx @ r.fields))
      rs
end

(* Runtime telemetry: GC pressure deltas around a computation, and
   per-worker accounting for domain pools — tasks executed, busy vs idle
   wall time, queue wait — exported as one Perfetto track per worker
   domain so pool utilization is visible next to the compile and
   execution timelines. *)
module Rt = struct
  type gc_delta = {
    minor_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
    top_heap_words : int;
  }

  let gc_sample f =
    let a = Gc.quick_stat () in
    let r = f () in
    let b = Gc.quick_stat () in
    ( r,
      {
        minor_words = b.Gc.minor_words -. a.Gc.minor_words;
        major_words = b.Gc.major_words -. a.Gc.major_words;
        minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
        major_collections = b.Gc.major_collections - a.Gc.major_collections;
        top_heap_words = b.Gc.top_heap_words;
      } )

  type task_span = { t_index : int; t_start_ms : float; t_dur_ms : float }

  type worker = {
    w_id : int;  (* slot in the pool, 0-based *)
    w_domain : int;  (* OCaml domain id the worker ran on *)
    w_tasks : int;
    w_busy_ms : float;
    w_idle_ms : float;  (* pool wall time not spent inside tasks *)
    w_queue_wait_ms : float;  (* spawn-to-first-task latency *)
    w_spans : task_span list;  (* per-task spans, start relative to pool start *)
  }

  type pool = {
    p_seq : int;
    p_label : string;
    p_jobs : int;
    p_tasks : int;
    p_start_ms : float;  (* relative to collector creation *)
    p_wall_ms : float;
    p_workers : worker list;
  }

  type t = {
    epoch : float;
    lock : Mutex.t;
    mutable seq : int;
    mutable rpools : pool list;  (* reverse completion order *)
  }

  let create () =
    { epoch = Unix.gettimeofday (); lock = Mutex.create (); seq = 0; rpools = [] }

  let now_ms t = 1000.0 *. (Unix.gettimeofday () -. t.epoch)

  let record_pool t ~label ~jobs ~tasks ~wall_ms workers =
    Mutex.protect t.lock (fun () ->
        let p =
          {
            p_seq = t.seq;
            p_label = label;
            p_jobs = jobs;
            p_tasks = tasks;
            p_start_ms = Float.max 0.0 (now_ms t -. wall_ms);
            p_wall_ms = wall_ms;
            p_workers = workers;
          }
        in
        t.seq <- t.seq + 1;
        t.rpools <- p :: t.rpools)

  let pools t = Mutex.protect t.lock (fun () -> List.rev t.rpools)

  let worker_to_json w =
    Json.Obj
      [
        ("id", Json.Int w.w_id);
        ("domain", Json.Int w.w_domain);
        ("tasks", Json.Int w.w_tasks);
        ("busy_ms", Json.Float w.w_busy_ms);
        ("idle_ms", Json.Float w.w_idle_ms);
        ("queue_wait_ms", Json.Float w.w_queue_wait_ms);
      ]

  let to_json t =
    Json.List
      (List.map
         (fun p ->
           Json.Obj
             [
               ("seq", Json.Int p.p_seq);
               ("label", Json.String p.p_label);
               ("jobs", Json.Int p.p_jobs);
               ("tasks", Json.Int p.p_tasks);
               ("start_ms", Json.Float p.p_start_ms);
               ("wall_ms", Json.Float p.p_wall_ms);
               ("workers", Json.List (List.map worker_to_json p.p_workers));
             ])
         (pools t))

  (* One Perfetto thread per (pool, worker): task spans as "X" events so
     gaps — idle workers, a straggler task — are visually obvious. *)
  let chrome_events ?(pid = 2) ?(name = "resbm planner pool") t =
    match pools t with
    | [] -> []
    | ps ->
        let per_pool p =
          List.concat_map
            (fun w ->
              let tid = (p.p_seq * 64) + w.w_id + 1 in
              Chrome.thread ~pid ~tid
                (Printf.sprintf "%s#%d w%d (domain %d)" p.p_label p.p_seq w.w_id w.w_domain)
              @ List.map
                  (fun s ->
                    Chrome.complete ~cat:"pool" ~pid ~tid
                      ~start_ms:(p.p_start_ms +. s.t_start_ms) ~dur_ms:s.t_dur_ms
                      (Printf.sprintf "task %d" s.t_index)
                      [ ("index", Json.Int s.t_index); ("pool", Json.String p.p_label) ])
                  w.w_spans)
            p.p_workers
        in
        Chrome.process_name ~pid name :: List.concat_map per_pool ps
end

(* Aggregate metrics: a registry of counters, gauges and log-bucketed
   histograms, exposable as Prometheus text or JSON.  A histogram is
   constant space: observations land in log2-spaced buckets with half-step
   resolution, and quantiles are estimated by interpolating inside the
   covering bucket — exact min/max are tracked so the estimate is always
   clamped into the observed range. *)
module Metrics = struct
  type labels = (string * string) list

  (* Bucket [i] holds observations v with bound(i-1) < v <= bound(i),
     bound(i) = 2^((i-40)/2): ~1e-6 ms .. ~5e11, enough for every latency
     and noise-bits quantity in the system.  Index [finite_buckets] is the
     overflow (+Inf) bucket. *)
  let finite_buckets = 119
  let bound i = Float.pow 2.0 ((float_of_int i -. 40.0) /. 2.0)

  let bucket_of v =
    if Float.is_nan v then finite_buckets
    else if v <= bound 0 then 0
    else if v > bound (finite_buckets - 1) then finite_buckets
    else
      let i = int_of_float (Float.ceil (2.0 *. Float.log2 v)) + 40 in
      (* guard against log2 rounding right at a boundary *)
      let i = max 0 (min (finite_buckets - 1) i) in
      if v <= bound i then if i > 0 && v <= bound (i - 1) then i - 1 else i else i + 1

  type hist = {
    mutable count : int;
    mutable sum : float;
    mutable minv : float;
    mutable maxv : float;
    counts : int array;  (* finite_buckets + 1 *)
  }

  type t = {
    counters : (string * labels, int ref) Hashtbl.t;
    gauges : (string * labels, float ref) Hashtbl.t;
    hists : (string * labels, hist) Hashtbl.t;
    (* Mutators take this lock: a registry may be shared across domains
       and exact counters (fuel metering, cache traffic) must survive
       it. *)
    lock : Mutex.t;
  }

  let create () =
    {
      counters = Hashtbl.create 32;
      gauges = Hashtbl.create 16;
      hists = Hashtbl.create 32;
      lock = Mutex.create ();
    }

  let key name labels = (name, List.sort compare labels)

  let incr ?(by = 1) ?(labels = []) t name =
    let k = key name labels in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.counters k with
        | Some r -> r := !r + by
        | None -> Hashtbl.add t.counters k (ref by))

  let set ?(labels = []) t name v =
    let k = key name labels in
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.gauges k with
        | Some r -> r := v
        | None -> Hashtbl.add t.gauges k (ref v))

  let observe ?(labels = []) t name v =
    let k = key name labels in
    Mutex.protect t.lock (fun () ->
        let h =
          match Hashtbl.find_opt t.hists k with
          | Some h -> h
          | None ->
              let h =
                {
                  count = 0;
                  sum = 0.0;
                  minv = infinity;
                  maxv = neg_infinity;
                  counts = Array.make (finite_buckets + 1) 0;
                }
              in
              Hashtbl.add t.hists k h;
              h
        in
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        if v < h.minv then h.minv <- v;
        if v > h.maxv then h.maxv <- v;
        let b = bucket_of v in
        h.counts.(b) <- h.counts.(b) + 1)

  let counter_value ?(labels = []) t name =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.counters (key name labels) with Some r -> !r | None -> 0)

  let gauge ?(labels = []) t name =
    Mutex.protect t.lock (fun () ->
        Option.map ( ! ) (Hashtbl.find_opt t.gauges (key name labels)))

  let quantile_of_hist h q =
    if h.count = 0 then None
    else if h.minv = h.maxv then Some h.minv
    else begin
      let need = Float.max 1.0 (Float.ceil (q *. float_of_int h.count)) in
      let rec go i cum =
        if i > finite_buckets then h.maxv
        else
          let c = h.counts.(i) in
          if c > 0 && float_of_int (cum + c) >= need then begin
            let lo = if i = 0 then 0.0 else bound (i - 1) in
            let hi = if i >= finite_buckets then h.maxv else bound i in
            let frac = (need -. float_of_int cum) /. float_of_int c in
            Float.max h.minv (Float.min h.maxv (lo +. (frac *. (hi -. lo))))
          end
          else go (i + 1) (cum + c)
      in
      Some (go 0 0)
    end

  type hstats = {
    hcount : int;
    hsum : float;
    hmin : float;
    hmax : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  let stats_of_hist h =
    let q p = Option.value (quantile_of_hist h p) ~default:nan in
    {
      hcount = h.count;
      hsum = h.sum;
      hmin = (if h.count = 0 then nan else h.minv);
      hmax = (if h.count = 0 then nan else h.maxv);
      p50 = q 0.5;
      p90 = q 0.9;
      p99 = q 0.99;
    }

  let histogram ?(labels = []) t name =
    Option.map stats_of_hist (Hashtbl.find_opt t.hists (key name labels))

  let quantile ?(labels = []) t name q =
    Option.bind (Hashtbl.find_opt t.hists (key name labels)) (fun h ->
        quantile_of_hist h q)

  (* Non-empty cumulative bucket boundaries: (upper_bound, cumulative) at
     each bucket that received observations — enough to reconstruct the
     distribution without 120 mostly-zero rows per histogram. *)
  let cumulative_buckets h =
    let acc = ref [] and cum = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          cum := !cum + c;
          let le = if i >= finite_buckets then infinity else bound i in
          acc := (le, !cum) :: !acc
        end)
      h.counts;
    List.rev !acc

  let sorted_bindings tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] (* det-ok: sorted *)
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

  let to_json t =
    let counter ((name, labels), r) =
      Json.Obj
        [ ("name", Json.String name); ("labels", labels_json labels); ("value", Json.Int !r) ]
    in
    let gauge ((name, labels), r) =
      Json.Obj
        [ ("name", Json.String name); ("labels", labels_json labels); ("value", Json.Float !r) ]
    in
    let hist ((name, labels), h) =
      let s = stats_of_hist h in
      Json.Obj
        [
          ("name", Json.String name);
          ("labels", labels_json labels);
          ("count", Json.Int s.hcount);
          ("sum", Json.Float s.hsum);
          ("min", Json.Float s.hmin);
          ("max", Json.Float s.hmax);
          ("p50", Json.Float s.p50);
          ("p90", Json.Float s.p90);
          ("p99", Json.Float s.p99);
          ( "buckets",
            Json.List
              (List.map
                 (fun (le, cum) -> Json.List [ Json.Float le; Json.Int cum ])
                 (cumulative_buckets h)) );
        ]
    in
    Json.Obj
      [
        ("counters", Json.List (List.map counter (sorted_bindings t.counters)));
        ("gauges", Json.List (List.map gauge (sorted_bindings t.gauges)));
        ("histograms", Json.List (List.map hist (sorted_bindings t.hists)));
      ]

  (* --- registry snapshots and round-trip ---------------------------------- *)

  let all_counters t =
    Mutex.protect t.lock (fun () ->
        List.map (fun ((name, labels), r) -> (name, labels, !r)) (sorted_bindings t.counters))

  let all_gauges t =
    Mutex.protect t.lock (fun () ->
        List.map (fun ((name, labels), r) -> (name, labels, !r)) (sorted_bindings t.gauges))

  let all_histograms t =
    Mutex.protect t.lock (fun () ->
        List.map
          (fun ((name, labels), h) -> (name, labels, stats_of_hist h))
          (sorted_bindings t.hists))

  (* Invert the serialisation of [cumulative_buckets]: a bucket bound is
     2^((i-40)/2), so the index is recovered in closed form; the overflow
     bucket serialised as +Inf degrades to JSON null and parses as NaN. *)
  let bucket_of_bound le =
    if Float.is_nan le || le = infinity then finite_buckets
    else begin
      let i = int_of_float (Float.round ((2.0 *. Float.log2 le) +. 40.0)) in
      if
        i >= 0
        && i < finite_buckets
        && Float.abs (bound i -. le) <= 1e-9 *. Float.max 1.0 (Float.abs le)
      then i
      else bucket_of le
    end

  let of_json j =
    let ( let* ) = Result.bind in
    let t = create () in
    let number = function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | Json.Null -> Some nan
      | _ -> None
    in
    let entries section =
      match Json.member section j with
      | Some (Json.List es) -> Ok es
      | None -> Ok []
      | Some _ -> Error (Printf.sprintf "metrics section %S is not a list" section)
    in
    let name_labels e =
      let* name =
        match Json.member "name" e with
        | Some (Json.String s) -> Ok s
        | _ -> Error "metric entry without a name"
      in
      let labels =
        match Json.member "labels" e with
        | Some (Json.Obj fs) ->
            List.filter_map
              (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None)
              fs
        | _ -> []
      in
      Ok (name, labels)
    in
    let each es f = List.fold_left (fun acc e -> let* () = acc in f e) (Ok ()) es in
    let* cs = entries "counters" in
    let* () =
      each cs (fun e ->
          let* name, labels = name_labels e in
          match Json.member "value" e with
          | Some (Json.Int v) ->
              incr t ~by:v ~labels name;
              Ok ()
          | _ -> Error (Printf.sprintf "counter %s has no integer value" name))
    in
    let* gs = entries "gauges" in
    let* () =
      each gs (fun e ->
          let* name, labels = name_labels e in
          match Option.bind (Json.member "value" e) number with
          | Some v ->
              set t ~labels name v;
              Ok ()
          | None -> Error (Printf.sprintf "gauge %s has no numeric value" name))
    in
    let* hs = entries "histograms" in
    let* () =
      each hs (fun e ->
          let* name, labels = name_labels e in
          let num field =
            match Option.bind (Json.member field e) number with
            | Some v -> Ok v
            | None ->
                Error (Printf.sprintf "histogram %s: field %S missing" name field)
          in
          let* count =
            match Json.member "count" e with
            | Some (Json.Int c) -> Ok c
            | _ -> Error (Printf.sprintf "histogram %s: field \"count\" missing" name)
          in
          let* sum = num "sum" in
          let* minv = num "min" in
          let* maxv = num "max" in
          let* buckets =
            match Json.member "buckets" e with
            | Some (Json.List bs) ->
                Result.map List.rev
                  (List.fold_left
                     (fun acc b ->
                       let* acc = acc in
                       match b with
                       | Json.List [ le; Json.Int cum ] -> (
                           match number le with
                           | Some le -> Ok ((le, cum) :: acc)
                           | None ->
                               Error
                                 (Printf.sprintf "histogram %s: malformed bucket bound"
                                    name))
                       | _ -> Error (Printf.sprintf "histogram %s: malformed bucket" name))
                     (Ok []) bs)
            | _ -> Error (Printf.sprintf "histogram %s: missing buckets" name)
          in
          let h =
            {
              count;
              sum;
              minv = (if count = 0 then infinity else minv);
              maxv = (if count = 0 then neg_infinity else maxv);
              counts = Array.make (finite_buckets + 1) 0;
            }
          in
          let prev = ref 0 in
          List.iter
            (fun (le, cum) ->
              let b = bucket_of_bound le in
              h.counts.(b) <- h.counts.(b) + (cum - !prev);
              prev := cum)
            buckets;
          Mutex.protect t.lock (fun () -> Hashtbl.replace t.hists (key name labels) h);
          Ok ())
    in
    Ok t

  (* --- Prometheus text exposition ---------------------------------------- *)

  let sanitize name =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
      name

  let escape_label_value v =
    let buf = Buffer.create (String.length v) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf

  let label_text labels =
    match labels with
    | [] -> ""
    | _ ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label_value v))
               labels)
        ^ "}"

  let prom_float f =
    if Float.is_nan f then "NaN"
    else if f = infinity then "+Inf"
    else if f = neg_infinity then "-Inf"
    else Json.float_repr f

  let to_prometheus ?(namespace = "resbm") t =
    let buf = Buffer.create 4096 in
    let full name = sanitize (namespace ^ "_" ^ name) in
    let typed = Hashtbl.create 16 in
    let type_line name kind =
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.add typed name ();
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
      end
    in
    List.iter
      (fun ((name, labels), r) ->
        let n = full name in
        type_line n "counter";
        Buffer.add_string buf (Printf.sprintf "%s%s %d\n" n (label_text labels) !r))
      (sorted_bindings t.counters);
    List.iter
      (fun ((name, labels), r) ->
        let n = full name in
        type_line n "gauge";
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" n (label_text labels) (prom_float !r)))
      (sorted_bindings t.gauges);
    List.iter
      (fun ((name, labels), h) ->
        let n = full name in
        type_line n "histogram";
        let cum = cumulative_buckets h in
        List.iter
          (fun (le, c) ->
            let ls = labels @ [ ("le", prom_float le) ] in
            Buffer.add_string buf (Printf.sprintf "%s_bucket%s %d\n" n (label_text ls) c))
          cum;
        let needs_inf =
          match List.rev cum with (le, _) :: _ -> le <> infinity | [] -> true
        in
        if needs_inf then begin
          let ls = labels @ [ ("le", "+Inf") ] in
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" n (label_text ls) h.count)
        end;
        Buffer.add_string buf
          (Printf.sprintf "%s_sum%s %s\n" n (label_text labels) (prom_float h.sum));
        Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" n (label_text labels) h.count))
      (sorted_bindings t.hists);
    Buffer.contents buf

  (* --- folds from the other observability tiers --------------------------- *)

  let region_label r = if r < 0 then "unattributed" else string_of_int r

  (* Fold a flight-recorded trace into per-op-kind and per-region latency
     and noise-headroom distributions. *)
  let of_trace ?into tr =
    let m = match into with Some m -> m | None -> create () in
    List.iter
      (function
        | Trace.Op e ->
            let op = [ ("op", e.Trace.op) ] in
            let region = [ ("region", region_label e.Trace.region) ] in
            incr m ~labels:op "trace_ops_total";
            observe m ~labels:op "op_latency_ms" e.Trace.dur_ms;
            observe m ~labels:region "region_latency_ms" e.Trace.dur_ms;
            observe m ~labels:op "noise_headroom_bits"
              (Trace.headroom_bits e.Trace.noise_after)
        | Trace.Instant i ->
            incr m ~labels:[ ("kind", i.Trace.iname) ] "trace_instants_total")
      (Trace.events tr);
    set m "trace_clock_ms" (Trace.clock_ms tr);
    set m "trace_dropped_events" (float_of_int (Trace.dropped tr));
    m

  (* Fold a compile profile: top-level phase durations become one
     histogram labelled by phase, pipeline counters one counter family. *)
  let of_profile ?into p =
    let m = match into with Some m -> m | None -> create () in
    List.iter
      (fun (s : Profile.span) ->
        if s.Profile.depth = 0 then
          observe m ~labels:[ ("phase", s.Profile.name) ] "compile_phase_ms" s.Profile.dur_ms)
      (Profile.spans p);
    List.iter
      (fun (k, v) -> incr m ~by:v ~labels:[ ("counter", k) ] "pipeline_events_total")
      (Profile.counters p);
    m
end

(* Baseline regression gating: load two BENCH_resbm.json files, align
   rows by (model, manager), compare deterministic metrics exactly and
   wall-clock compile times within a MAD-derived noise band, and emit a
   per-cell verdict.  Deterministic metrics (bootstrap counts, simulated
   latency, node counts, predicted precision) come from the cost model
   and planner, so any drift at all is a real behaviour change; compile
   times are host wall-clock and only drift outside the band matters. *)
(* Generic explanation rendering: hierarchical cost waterfalls and
   structural JSON diffs.  Everything here is presentation-layer — the
   graph-aware logic that produces the rows and digests lives in
   [Resbm.Explain]; this module only folds, sorts, renders and compares,
   so serving/multi-backend reports can reuse it unchanged. *)
module Explain = struct
  (* --- cost waterfall ----------------------------------------------------- *)

  type row = { group : string; bucket : string; label : string; cost : float }

  type leaf = { leaf_label : string; leaf_cost : float }

  type bucket = {
    bucket_label : string;
    bucket_cost : float;
    bucket_count : int;
    leaves : leaf list;  (* top-k by cost; the rest are folded *)
    folded : int;
    folded_cost : float;
  }

  type group = {
    group_label : string;
    group_cost : float;
    group_count : int;
    buckets : bucket list;
  }

  type waterfall = {
    total : float;
    groups : group list;
    shares : (string * float) list;
  }

  let attributed w = List.fold_left (fun acc g -> acc +. g.group_cost) 0.0 w.groups

  (* Deterministic fold: groups and buckets ordered by descending cost
     (label as tie-break), leaves likewise with only the top [top] kept
     individually — but never silently: the fold keeps the remainder as an
     explicit count + cost so the waterfall always sums to its total. *)
  let waterfall ?(top = 5) ?(shares = []) ~total rows =
    let by_cost c1 l1 c2 l2 =
      match compare c2 c1 with 0 -> compare l1 l2 | c -> c
    in
    let group_tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
        let buckets =
          match Hashtbl.find_opt group_tbl r.group with
          | Some b -> b
          | None ->
              let b = Hashtbl.create 8 in
              Hashtbl.add group_tbl r.group b;
              b
        in
        let prev = Option.value (Hashtbl.find_opt buckets r.bucket) ~default:[] in
        Hashtbl.replace buckets r.bucket ({ leaf_label = r.label; leaf_cost = r.cost } :: prev))
      rows;
    (* Drained in label order; labels are unique, so the cost sorts below
       alone fix the output order. *)
    let sorted tbl =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.of_seq (Hashtbl.to_seq tbl))
    in
    let groups =
      List.map
        (fun (glabel, buckets) ->
          let bs =
            List.map
              (fun (blabel, leaves) ->
                let leaves =
                  List.sort
                    (fun a b -> by_cost a.leaf_cost a.leaf_label b.leaf_cost b.leaf_label)
                    leaves
                in
                let cost = List.fold_left (fun s l -> s +. l.leaf_cost) 0.0 leaves in
                let count = List.length leaves in
                let shown = List.filteri (fun i _ -> i < top) leaves in
                let folded = count - List.length shown in
                let folded_cost =
                  cost -. List.fold_left (fun s l -> s +. l.leaf_cost) 0.0 shown
                in
                {
                  bucket_label = blabel;
                  bucket_cost = cost;
                  bucket_count = count;
                  leaves = shown;
                  folded;
                  folded_cost;
                })
              (sorted buckets)
          in
          let bs =
            List.sort
              (fun a b -> by_cost a.bucket_cost a.bucket_label b.bucket_cost b.bucket_label)
              bs
          in
          let cost = List.fold_left (fun s b -> s +. b.bucket_cost) 0.0 bs in
          let count = List.fold_left (fun s b -> s + b.bucket_count) 0 bs in
          { group_label = glabel; group_cost = cost; group_count = count; buckets = bs })
        (sorted group_tbl)
    in
    let groups =
      List.sort
        (fun a b -> by_cost a.group_cost a.group_label b.group_cost b.group_label)
        groups
    in
    { total; groups; shares }

  let pct total v = if total <= 0.0 then 0.0 else 100.0 *. v /. total

  let pp ?(title = "cost waterfall") ppf w =
    Format.fprintf ppf "@[<v>%s: %.3f ms total@," title w.total;
    if w.shares <> [] then begin
      Format.fprintf ppf "shares:";
      List.iter
        (fun (name, v) -> Format.fprintf ppf " %s %.1f%%" name (pct w.total v))
        w.shares;
      Format.fprintf ppf "@,"
    end;
    List.iter
      (fun g ->
        Format.fprintf ppf "%-34s %12.3f ms %5.1f%% (%d nodes)@," g.group_label
          g.group_cost (pct w.total g.group_cost) g.group_count;
        List.iter
          (fun b ->
            Format.fprintf ppf "  %-32s %12.3f ms %5.1f%% (%d)@," b.bucket_label
              b.bucket_cost (pct w.total b.bucket_cost) b.bucket_count;
            List.iter
              (fun l ->
                Format.fprintf ppf "    %-30s %12.3f ms %5.1f%%@," l.leaf_label
                  l.leaf_cost (pct w.total l.leaf_cost))
              b.leaves;
            if b.folded > 0 then
              Format.fprintf ppf "    (+%d more)%*s %12.3f ms %5.1f%%@," b.folded
                (max 0 (30 - String.length (Printf.sprintf "(+%d more)" b.folded)))
                "" b.folded_cost (pct w.total b.folded_cost))
          g.buckets)
      w.groups;
    Format.fprintf ppf "attributed: %.3f ms of %.3f ms (%.2f%%)@]" (attributed w)
      w.total
      (pct w.total (attributed w))

  let to_json w =
    let leaf_json l =
      Json.Obj [ ("label", Json.String l.leaf_label); ("cost_ms", Json.Float l.leaf_cost) ]
    in
    let bucket_json b =
      Json.Obj
        [
          ("label", Json.String b.bucket_label);
          ("cost_ms", Json.Float b.bucket_cost);
          ("count", Json.Int b.bucket_count);
          ("top", Json.List (List.map leaf_json b.leaves));
          ("folded", Json.Int b.folded);
          ("folded_cost_ms", Json.Float b.folded_cost);
        ]
    in
    let group_json g =
      Json.Obj
        [
          ("label", Json.String g.group_label);
          ("cost_ms", Json.Float g.group_cost);
          ("count", Json.Int g.group_count);
          ("buckets", Json.List (List.map bucket_json g.buckets));
        ]
    in
    Json.Obj
      [
        ("total_ms", Json.Float w.total);
        ("attributed_ms", Json.Float (attributed w));
        ("shares", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) w.shares));
        ("groups", Json.List (List.map group_json w.groups));
      ]

  (* --- structural JSON diff ------------------------------------------------ *)

  type change = {
    path : string list;
    before : Json.t option;  (* None = added *)
    after : Json.t option;  (* None = removed *)
  }

  let rec json_equal a b =
    match (a, b) with
    | Json.Null, Json.Null -> true
    | Json.Bool x, Json.Bool y -> x = y
    | Json.Int x, Json.Int y -> x = y
    | Json.Float x, Json.Float y -> (Float.is_nan x && Float.is_nan y) || x = y
    | Json.Int x, Json.Float y | Json.Float y, Json.Int x -> float_of_int x = y
    | Json.String x, Json.String y -> x = y
    | Json.List x, Json.List y ->
        List.length x = List.length y && List.for_all2 json_equal x y
    | Json.Obj x, Json.Obj y ->
        let keys o = List.sort compare (List.map fst o) in
        keys x = keys y
        && List.for_all
             (fun (k, v) ->
               match List.assoc_opt k y with Some w -> json_equal v w | None -> false)
             x
    | _ -> false

  (* Objects align by key (order-insensitive — the stability under node
     renumbering comes from keying digests by content hashes), lists by
     index, scalars by value.  Every difference is reported at the deepest
     point where the two sides still align. *)
  let diff_json base cand =
    let changes = ref [] in
    let emit path before after = changes := { path; before; after } :: !changes in
    let rec go path a b =
      match (a, b) with
      | Json.Obj x, Json.Obj y ->
          let keys =
            List.sort_uniq compare (List.map fst x @ List.map fst y)
          in
          List.iter
            (fun k ->
              let path = path @ [ k ] in
              match (List.assoc_opt k x, List.assoc_opt k y) with
              | Some v, Some w -> go path v w
              | Some v, None -> emit path (Some v) None
              | None, Some w -> emit path None (Some w)
              | None, None -> ())
            keys
      | Json.List x, Json.List y when List.length x = List.length y ->
          List.iteri (fun i (v, w) -> go (path @ [ string_of_int i ]) v w)
            (List.combine x y)
      | _ -> if not (json_equal a b) then emit path (Some a) (Some b)
    in
    go [] base cand;
    List.rev !changes

  let path_to_string path = String.concat "/" path

  let change_to_json c =
    Json.Obj
      [
        ("path", Json.String (path_to_string c.path));
        ("before", Option.value c.before ~default:Json.Null);
        ("after", Option.value c.after ~default:Json.Null);
      ]

  let pp_change ppf c =
    let side = function Some j -> Json.to_string j | None -> "(absent)" in
    Format.fprintf ppf "%-40s %s -> %s"
      (path_to_string c.path)
      (side c.before) (side c.after)

  (* A Perfetto-loadable overlay: one instant event per structural change,
     so a plan diff can be dropped on top of an execution timeline and
     scrubbed change by change. *)
  let perfetto_overlay ?(pid = 99) changes =
    let event i c =
      Chrome.event ~ph:"i" ~ts:(Json.Int (i * 10)) ~pid ~tid:1 ~scope:"g"
        (path_to_string c.path)
        [
          ("before", Option.value c.before ~default:Json.Null);
          ("after", Option.value c.after ~default:Json.Null);
        ]
    in
    Chrome.trace (List.mapi event changes)
end

module Bench_diff = struct
  let schema_version = 2

  type row = {
    model : string;
    manager : string;
    metrics : (string * float) list;
    compile : Stat.summary option;
    warm : Stat.summary option;
    digest : Json.t option;
        (* structural plan digest (renumbering-stable; see Resbm.Explain).
           Optional on both sides so old baselines diff cleanly. *)
  }

  type source = {
    version : int;
    git_rev : string;
    trials : int;
    l_max : int;
    rows : row list;
  }

  type verdict = Unchanged | Improved | Regressed | Within_noise | Incomparable

  let verdict_to_string = function
    | Unchanged -> "unchanged"
    | Improved -> "improved"
    | Regressed -> "regressed"
    | Within_noise -> "within-noise"
    | Incomparable -> "incomparable"

  type cell = {
    cmodel : string;
    cmanager : string;
    metric : string;
    base : float;
    cand : float;
    wall_clock : bool;
    informational : bool;  (* reported, never gated *)
    tolerance : float;  (* 0 for exact comparisons *)
    verdict : verdict;
  }

  type outcome = {
    cells : cell list;
    missing : (string * string) list;  (* rows in base absent from candidate *)
    added : (string * string) list;  (* rows in candidate absent from base *)
    plan_drift : ((string * string) * Explain.change list) list;
        (* per (model, manager): structural plan-digest changes, when both
           sides carry a digest.  Non-empty drift accompanies (and gates
           like) a deterministic change — it is the plan-level explanation
           of WHERE a metric regression came from. *)
  }

  (* The deterministic per-manager metrics and their preferred direction. *)
  let deterministic_metrics =
    [
      ("latency_ms", `Lower);
      ("bootstrap_count", `Lower);
      ("executed_rescales", `Lower);
      ("nodes", `Lower);
      ("predicted_precision_bits", `Higher);
    ]

  (* GC cells from Obs.Rt bench sampling: reported for trend-watching but
     never gated — allocation pressure is build- and runtime-sensitive,
     and baselines written before these columns existed simply lack them
     (a missing side yields no cell, not a failure). *)
  let informational_metrics =
    [ "gc_minor_words"; "gc_major_words"; "gc_top_heap_words" ]

  (* --- loading ------------------------------------------------------------ *)

  let number = Stat.number

  let load content =
    let ( let* ) = Result.bind in
    let* json =
      match Json.of_string content with
      | Ok j -> Ok j
      | Error m -> Error ("not valid JSON: " ^ m)
    in
    let* () =
      match Json.member "bench" json with
      | Some (Json.String "resbm") -> Ok ()
      | _ -> Error "not a resbm bench file (missing \"bench\": \"resbm\")"
    in
    let* version =
      match Json.member "schema_version" json with
      | Some (Json.Int v) when v = schema_version -> Ok v
      | Some (Json.Int v) ->
          Error
            (Printf.sprintf
               "schema_version %d is not supported (this build reads version %d); \
                regenerate both files with `bench -- json`"
               v schema_version)
      | Some _ -> Error "schema_version is not an integer"
      | None ->
          Error
            "unversioned bench file (no schema_version field); regenerate it with \
             `bench -- json` before diffing"
    in
    let* l_max =
      match Json.member "l_max" json with
      | Some (Json.Int l) -> Ok l
      | _ -> Error "missing l_max header field"
    in
    let git_rev =
      match Json.member "git_rev" json with Some (Json.String s) -> s | _ -> "unknown"
    in
    let trials =
      match Json.member "trials" json with Some (Json.Int t) -> t | _ -> 1
    in
    let* models =
      match Json.member "models" json with
      | Some (Json.List ms) -> Ok ms
      | _ -> Error "missing models list"
    in
    let* rows =
      List.fold_left
        (fun acc model_json ->
          let* acc = acc in
          let* model =
            match Json.member "model" model_json with
            | Some (Json.String s) -> Ok s
            | _ -> Error "model entry without a name"
          in
          let* managers =
            match Json.member "managers" model_json with
            | Some (Json.List ms) -> Ok ms
            | _ -> Error (Printf.sprintf "model %s has no managers list" model)
          in
          List.fold_left
            (fun acc mgr_json ->
              let* acc = acc in
              let* manager =
                match Json.member "manager" mgr_json with
                | Some (Json.String s) -> Ok s
                | _ -> Error (Printf.sprintf "manager entry of %s without a name" model)
              in
              let metrics =
                List.filter_map
                  (fun name ->
                    Option.bind (Json.member name mgr_json) number
                    |> Option.map (fun v -> (name, v)))
                  (List.map fst deterministic_metrics @ informational_metrics)
              in
              let compile =
                match Json.member "compile_stat" mgr_json with
                | Some j -> Result.to_option (Stat.of_json j)
                | None -> None
              in
              let warm =
                match Json.member "compile_warm_stat" mgr_json with
                | Some j -> Result.to_option (Stat.of_json j)
                | None -> None
              in
              let digest = Json.member "plan_digest" mgr_json in
              Ok ({ model; manager; metrics; compile; warm; digest } :: acc))
            (Ok acc) managers)
        (Ok []) models
    in
    Ok { version; git_rev; trials; l_max; rows = List.rev rows }

  (* --- diffing ------------------------------------------------------------ *)

  let float_equal a b = (Float.is_nan a && Float.is_nan b) || a = b

  let diff ?(noise_mult = 4.0) ?(min_tolerance_ms = 0.5) ?(warm_speedup_min = 5.0)
      ~base ~cand () =
    if base.l_max <> cand.l_max then
      Error
        (Printf.sprintf "l_max differs (%d vs %d): the files measure different sweeps"
           base.l_max cand.l_max)
    else begin
      let key r = (r.model, r.manager) in
      let cand_of k = List.find_opt (fun r -> key r = k) cand.rows in
      let missing =
        List.filter_map
          (fun r -> if cand_of (key r) = None then Some (key r) else None)
          base.rows
      in
      let added =
        List.filter_map
          (fun r ->
            if List.exists (fun b -> key b = key r) base.rows then None else Some (key r))
          cand.rows
      in
      let cells =
        List.concat_map
          (fun b ->
            match cand_of (key b) with
            | None -> []
            | Some c ->
                let det =
                  List.filter_map
                    (fun (metric, direction) ->
                      let bv = List.assoc_opt metric b.metrics
                      and cv = List.assoc_opt metric c.metrics in
                      match (bv, cv) with
                      | None, None -> None
                      | _ ->
                          let bv = Option.value bv ~default:nan
                          and cv = Option.value cv ~default:nan in
                          let verdict =
                            if float_equal bv cv then Unchanged
                            else if Float.is_nan bv || Float.is_nan cv then Incomparable
                            else if
                              match direction with
                              | `Lower -> cv < bv
                              | `Higher -> cv > bv
                            then Improved
                            else Regressed
                          in
                          Some
                            {
                              cmodel = b.model;
                              cmanager = b.manager;
                              metric;
                              base = bv;
                              cand = cv;
                              wall_clock = false;
                              informational = false;
                              tolerance = 0.0;
                              verdict;
                            })
                    deterministic_metrics
                in
                let wall =
                  match (b.compile, c.compile) with
                  | Some sb, Some sc ->
                      let tolerance =
                        Float.max
                          (noise_mult *. (sb.Stat.mad +. sc.Stat.mad))
                          min_tolerance_ms
                      in
                      let d = sc.Stat.median -. sb.Stat.median in
                      let verdict =
                        if d = 0.0 then Unchanged
                        else if Float.abs d <= tolerance then Within_noise
                        else if d < 0.0 then Improved
                        else Regressed
                      in
                      [
                        {
                          cmodel = b.model;
                          cmanager = b.manager;
                          metric = "compile_ms";
                          base = sb.Stat.median;
                          cand = sc.Stat.median;
                          wall_clock = true;
                          informational = false;
                          tolerance;
                          verdict;
                        };
                      ]
                  | _ -> []
                in
                (* Warm (cache-hit) compile wall band, same tolerance rule
                   as the cold band. *)
                let warm_band =
                  match (b.warm, c.warm) with
                  | Some sb, Some sc ->
                      let tolerance =
                        Float.max
                          (noise_mult *. (sb.Stat.mad +. sc.Stat.mad))
                          min_tolerance_ms
                      in
                      let d = sc.Stat.median -. sb.Stat.median in
                      let verdict =
                        if d = 0.0 then Unchanged
                        else if Float.abs d <= tolerance then Within_noise
                        else if d < 0.0 then Improved
                        else Regressed
                      in
                      [
                        {
                          cmodel = b.model;
                          cmanager = b.manager;
                          metric = "compile_warm_ms";
                          base = sb.Stat.median;
                          cand = sc.Stat.median;
                          wall_clock = true;
                          informational = false;
                          tolerance;
                          verdict;
                        };
                      ]
                  | _ -> []
                in
                (* The warm-cache contract gate: the CANDIDATE's cold/warm
                   median ratio must clear [warm_speedup_min] — a cache
                   that stopped hitting shows up here as Regressed even
                   when every absolute timing is within noise.  Not a
                   wall-clock cell: the ratio is self-normalising, so it
                   gates under every fail_on mode. *)
                let speedup =
                  match (c.compile, c.warm) with
                  | Some cold, Some cwarm when cwarm.Stat.median > 0.0 ->
                      let cand_speedup = cold.Stat.median /. cwarm.Stat.median in
                      let base_speedup =
                        match (b.compile, b.warm) with
                        | Some bc, Some bw when bw.Stat.median > 0.0 ->
                            bc.Stat.median /. bw.Stat.median
                        | _ -> nan
                      in
                      [
                        {
                          cmodel = b.model;
                          cmanager = b.manager;
                          metric = "warm_speedup";
                          base = base_speedup;
                          cand = cand_speedup;
                          wall_clock = false;
                          informational = false;
                          tolerance = warm_speedup_min;
                          verdict =
                            (if cand_speedup >= warm_speedup_min then Unchanged
                             else Regressed);
                        };
                      ]
                  | _ -> []
                in
                (* Informational GC cells: only when both sides carry the
                   column, so old baselines diff cleanly against new
                   candidates. *)
                let info =
                  List.filter_map
                    (fun metric ->
                      match
                        ( List.assoc_opt metric b.metrics,
                          List.assoc_opt metric c.metrics )
                      with
                      | Some bv, Some cv ->
                          Some
                            {
                              cmodel = b.model;
                              cmanager = b.manager;
                              metric;
                              base = bv;
                              cand = cv;
                              wall_clock = false;
                              informational = true;
                              tolerance = 0.0;
                              verdict =
                                (if float_equal bv cv then Unchanged
                                 else if Float.is_nan bv || Float.is_nan cv then
                                   Incomparable
                                 else if cv < bv then Improved
                                 else Regressed);
                            }
                      | _ -> None)
                    informational_metrics
                in
                det @ wall @ warm_band @ speedup @ info)
          base.rows
      in
      let plan_drift =
        List.filter_map
          (fun b ->
            match cand_of (key b) with
            | None -> None
            | Some c -> (
                match (b.digest, c.digest) with
                | Some db, Some dc -> (
                    match Explain.diff_json db dc with
                    | [] -> None
                    | changes -> Some (key b, changes))
                | _ -> None))
          base.rows
      in
      Ok { cells; missing; added; plan_drift }
    end

  (* --- gating -------------------------------------------------------------- *)

  let deterministic_changes o =
    List.filter
      (fun c -> (not c.wall_clock) && (not c.informational) && c.verdict <> Unchanged)
      o.cells

  let regressions ?(strict_wallclock = false) o =
    List.filter
      (fun c ->
        match c.verdict with
        | Regressed | Incomparable ->
            (not c.informational) && (strict_wallclock || not c.wall_clock)
        | _ -> false)
      o.cells

  (* 0 = pass, 2 = gate failure.  [`Changed] (the default) treats any
     deterministic drift — improvements included — as a failure: a better
     bootstrap count still invalidates the committed baseline, and the
     baseline refresh must be deliberate. *)
  let exit_code ?(fail_on = `Changed) ?(strict_wallclock = false) o =
    let aligned_bad = o.missing <> [] || o.added <> [] in
    let failed =
      match fail_on with
      | `Never -> false
      | `Regressed -> aligned_bad || regressions ~strict_wallclock o <> []
      | `Changed ->
          aligned_bad
          || deterministic_changes o <> []
          || o.plan_drift <> []
          || (strict_wallclock
             && List.exists (fun c -> c.wall_clock && c.verdict = Regressed) o.cells)
    in
    if failed then 2 else 0

  (* --- reporting ----------------------------------------------------------- *)

  let cell_to_json c =
    Json.Obj
      [
        ("model", Json.String c.cmodel);
        ("manager", Json.String c.cmanager);
        ("metric", Json.String c.metric);
        ("base", Json.Float c.base);
        ("candidate", Json.Float c.cand);
        ("wall_clock", Json.Bool c.wall_clock);
        ("informational", Json.Bool c.informational);
        ("tolerance", Json.Float c.tolerance);
        ("verdict", Json.String (verdict_to_string c.verdict));
      ]

  let outcome_to_json o =
    let count v = List.length (List.filter (fun c -> c.verdict = v) o.cells) in
    let pair_json (m, g) =
      Json.Obj [ ("model", Json.String m); ("manager", Json.String g) ]
    in
    Json.Obj
      [
        ("cells", Json.List (List.map cell_to_json o.cells));
        ("missing", Json.List (List.map pair_json o.missing));
        ("added", Json.List (List.map pair_json o.added));
        ( "plan_drift",
          Json.List
            (List.map
               (fun ((m, g), changes) ->
                 Json.Obj
                   [
                     ("model", Json.String m);
                     ("manager", Json.String g);
                     ( "changes",
                       Json.List (List.map Explain.change_to_json changes) );
                   ])
               o.plan_drift) );
        ( "summary",
          Json.Obj
            [
              ("unchanged", Json.Int (count Unchanged));
              ("improved", Json.Int (count Improved));
              ("regressed", Json.Int (count Regressed));
              ("within_noise", Json.Int (count Within_noise));
              ("incomparable", Json.Int (count Incomparable));
              ("missing", Json.Int (List.length o.missing));
              ("added", Json.Int (List.length o.added));
              ( "plan_drift",
                Json.Int
                  (List.fold_left
                     (fun acc (_, cs) -> acc + List.length cs)
                     0 o.plan_drift) );
            ] );
      ]

  let value_text v =
    if Float.is_nan v then "-"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3f" v

  let pp_cell ppf c =
    Format.fprintf ppf "%-12s %-12s %-25s %12s -> %-12s %s%s" c.cmodel c.cmanager
      (c.metric
      ^ if c.wall_clock then " (wall)" else if c.informational then " (info)" else "")
      (value_text c.base) (value_text c.cand)
      (verdict_to_string c.verdict)
      (if c.wall_clock && c.tolerance > 0.0 then
         Printf.sprintf " (tolerance %.3f ms)" c.tolerance
       else "")

  let pp_outcome ?(all = false) ppf o =
    let interesting =
      List.filter (fun c -> all || c.verdict <> Unchanged) o.cells
    in
    Format.fprintf ppf "@[<v>";
    if interesting = [] && o.missing = [] && o.added = [] && o.plan_drift = [] then
      Format.fprintf ppf "no changes: %d cells identical or within noise@,"
        (List.length o.cells)
    else begin
      List.iter (fun c -> Format.fprintf ppf "%a@," pp_cell c) interesting;
      List.iter
        (fun (m, g) -> Format.fprintf ppf "%-12s %-12s row missing from candidate@," m g)
        o.missing;
      List.iter
        (fun (m, g) -> Format.fprintf ppf "%-12s %-12s row added in candidate@," m g)
        o.added;
      (* The plan-level explanation of the metric drift above: which
         placements, cut values or levels actually moved. *)
      List.iter
        (fun ((m, g), changes) ->
          Format.fprintf ppf "%-12s %-12s plan drift (%d structural changes):@," m g
            (List.length changes);
          List.iter
            (fun c -> Format.fprintf ppf "  %a@," Explain.pp_change c)
            changes)
        o.plan_drift
    end;
    let count v = List.length (List.filter (fun c -> c.verdict = v) o.cells) in
    Format.fprintf ppf
      "%d cells: %d unchanged, %d improved, %d regressed, %d within-noise, %d \
       incomparable%s%s@]"
      (List.length o.cells) (count Unchanged) (count Improved) (count Regressed)
      (count Within_noise) (count Incomparable)
      (if o.missing <> [] then Printf.sprintf ", %d missing" (List.length o.missing)
       else "")
      (if o.added <> [] then Printf.sprintf ", %d added" (List.length o.added) else "")
end

(* Rule-based health evaluation over a finished run's metrics registry
   and log records: each rule compares one aggregate against a threshold
   and the verdict is healthy iff no rule fails.  Rules that need signals
   the run did not produce (no traced execution, no chaos campaign) stay
   applicable=false and pass vacuously, so one evaluator serves compile,
   trace and chaos flights alike. *)
module Health = struct
  type severity = Pass | Warn | Fail

  let severity_name = function Pass -> "pass" | Warn -> "warn" | Fail -> "fail"

  type thresholds = {
    headroom_floor_bits : float;
    recovery_rate_floor : float;
    slo_attainment_floor : float;
    max_fallbacks : int;
    max_refutations : int;
    gc_major_words_ceiling : float;
  }

  let default_thresholds =
    {
      headroom_floor_bits = 4.0;
      recovery_rate_floor = 0.9;
      slo_attainment_floor = 0.95;
      max_fallbacks = 0;
      max_refutations = 0;
      gc_major_words_ceiling = 2e9;
    }

  type check = {
    rule : string;
    severity : severity;
    applicable : bool;
    value : float;  (* NaN when not applicable *)
    threshold : float;
    detail : string;
  }

  type verdict = { healthy : bool; checks : check list }

  let evaluate ?(thresholds = default_thresholds) ?(records = []) ?bench m =
    let counters = Metrics.all_counters m in
    let gauges = Metrics.all_gauges m in
    let hists = Metrics.all_histograms m in
    let csum name =
      List.fold_left (fun acc (n, _, v) -> if n = name then acc + v else acc) 0 counters
    in
    let gsum name =
      List.fold_left
        (fun acc (n, _, v) -> if n = name then acc +. v else acc)
        0.0 gauges
    in
    let hfold name f init =
      List.fold_left
        (fun acc (n, _, s) -> if n = name && s.Metrics.hcount > 0 then f acc s else acc)
        init hists
    in
    let check rule ~applicable ~warn_only ~ok ~value ~threshold detail =
      let severity =
        if (not applicable) || ok then Pass else if warn_only then Warn else Fail
      in
      { rule; severity; applicable; value; threshold; detail }
    in
    let headroom =
      let v = hfold "noise_headroom_bits" (fun acc s -> Float.min acc s.Metrics.hmin) infinity in
      let applicable = v < infinity in
      check "noise-headroom" ~applicable ~warn_only:false
        ~ok:(v >= thresholds.headroom_floor_bits)
        ~value:(if applicable then v else nan)
        ~threshold:thresholds.headroom_floor_bits
        (if applicable then
           Printf.sprintf "minimum traced noise headroom %.1f bits (floor %.1f)" v
             thresholds.headroom_floor_bits
         else "no traced noise-headroom observations")
    in
    let recovery =
      let faulted = csum "chaos_faulted_total" in
      let recovered = csum "chaos_recovered_total" in
      let applicable = faulted > 0 in
      let rate =
        if applicable then float_of_int recovered /. float_of_int faulted else nan
      in
      check "recovery-rate" ~applicable ~warn_only:false
        ~ok:((not applicable) || rate >= thresholds.recovery_rate_floor)
        ~value:rate ~threshold:thresholds.recovery_rate_floor
        (if applicable then
           Printf.sprintf "%d/%d faulted trials recovered (rate %.3f, floor %.3f)"
             recovered faulted rate thresholds.recovery_rate_floor
         else "no faulted chaos trials")
    in
    let slo =
      (* Serving campaigns fold [serve_admitted_total] /
         [serve_completed_total] into the registry; attainment is the
         fraction of admitted requests completed within their deadline
         (shed requests never count against the SLO — shedding is the
         intended response to overload, missing deadlines is not). *)
      let admitted = csum "serve_admitted_total" in
      let completed = csum "serve_completed_total" in
      let applicable = admitted > 0 in
      let rate =
        if applicable then float_of_int completed /. float_of_int admitted else nan
      in
      check "slo-attainment" ~applicable ~warn_only:false
        ~ok:((not applicable) || rate >= thresholds.slo_attainment_floor)
        ~value:rate ~threshold:thresholds.slo_attainment_floor
        (if applicable then
           Printf.sprintf
             "%d/%d admitted requests completed in SLO (attainment %.3f, floor %.3f)"
             completed admitted rate thresholds.slo_attainment_floor
         else "no admitted serving requests")
    in
    let fallbacks =
      let v = csum "planner_fallbacks_total" in
      check "planner-fallbacks" ~applicable:true ~warn_only:false
        ~ok:(v <= thresholds.max_fallbacks)
        ~value:(float_of_int v)
        ~threshold:(float_of_int thresholds.max_fallbacks)
        (Printf.sprintf "%d planner tier fallbacks (max %d)" v thresholds.max_fallbacks)
    in
    let refutations =
      let metric = csum "plan_refutations_total" + csum "plan_cache_refutations_total" in
      let logged =
        List.length
          (List.filter
             (fun r ->
               r.Log.level = Log.Error
               && (r.Log.event = "certify.refuted" || r.Log.event = "plan_cache.refuted"))
             records)
      in
      let v = max metric logged in
      check "refutations" ~applicable:true ~warn_only:false
        ~ok:(v <= thresholds.max_refutations)
        ~value:(float_of_int v)
        ~threshold:(float_of_int thresholds.max_refutations)
        (Printf.sprintf "%d certificate/plan-cache refutations (max %d)" v
           thresholds.max_refutations)
    in
    let errors =
      let v =
        List.length (List.filter (fun r -> r.Log.level = Log.Error) records)
      in
      check "error-logs" ~applicable:(records <> []) ~warn_only:true ~ok:(v = 0)
        ~value:(float_of_int v) ~threshold:0.0
        (Printf.sprintf "%d error-level log records" v)
    in
    let gc =
      let applicable = List.exists (fun (n, _, _) -> n = "gc_major_words") hists in
      let v = hfold "gc_major_words" (fun acc s -> acc +. s.Metrics.hsum) 0.0 in
      check "gc-pressure" ~applicable ~warn_only:false
        ~ok:(v <= thresholds.gc_major_words_ceiling)
        ~value:(if applicable then v else nan)
        ~threshold:thresholds.gc_major_words_ceiling
        (if applicable then
           Printf.sprintf "%.0f major-heap words promoted (ceiling %.0f)" v
             thresholds.gc_major_words_ceiling
         else "no GC telemetry recorded")
    in
    let rings =
      let v = gsum "trace_dropped_events" +. gsum "log_dropped_records" in
      check "ring-overflow" ~applicable:true ~warn_only:true ~ok:(v = 0.0) ~value:v
        ~threshold:0.0
        (Printf.sprintf "%.0f trace events / log records lost to ring wrap-around" v)
    in
    let wall =
      match bench with
      | None -> []
      | Some (base, cand) -> (
          match Bench_diff.diff ~base ~cand () with
          | Error msg ->
              [
                check "wallclock-band" ~applicable:true ~warn_only:false ~ok:false
                  ~value:nan ~threshold:0.0 ("bench diff failed: " ^ msg);
              ]
          | Ok o ->
              let regs =
                List.filter
                  (fun c ->
                    c.Bench_diff.wall_clock && c.Bench_diff.verdict = Bench_diff.Regressed)
                  o.Bench_diff.cells
              in
              [
                check "wallclock-band" ~applicable:true ~warn_only:false ~ok:(regs = [])
                  ~value:(float_of_int (List.length regs))
                  ~threshold:0.0
                  (if regs = [] then "all wall-clock cells within the noise band"
                   else
                     String.concat "; "
                       (List.map
                          (fun c ->
                            Printf.sprintf "%s/%s %s %.3f -> %.3f (tolerance %.3f ms)"
                              c.Bench_diff.cmodel c.Bench_diff.cmanager
                              c.Bench_diff.metric c.Bench_diff.base c.Bench_diff.cand
                              c.Bench_diff.tolerance)
                          regs));
              ])
    in
    let checks =
      [ headroom; recovery; slo; fallbacks; refutations; errors; gc; rings ] @ wall
    in
    { healthy = not (List.exists (fun c -> c.severity = Fail) checks); checks }

  let exit_code v = if v.healthy then 0 else 2

  let check_to_json c =
    Json.Obj
      [
        ("rule", Json.String c.rule);
        ("severity", Json.String (severity_name c.severity));
        ("applicable", Json.Bool c.applicable);
        ("value", Json.Float c.value);
        ("threshold", Json.Float c.threshold);
        ("detail", Json.String c.detail);
      ]

  let to_json v =
    Json.Obj
      [
        ("healthy", Json.Bool v.healthy);
        ("checks", Json.List (List.map check_to_json v.checks));
      ]

  let pp ppf v =
    Format.fprintf ppf "@[<v>";
    List.iter
      (fun c ->
        Format.fprintf ppf "%-5s %-18s %s%s@,"
          (String.uppercase_ascii (severity_name c.severity))
          c.rule c.detail
          (if c.applicable then "" else " (not applicable)"))
      v.checks;
    Format.fprintf ppf "verdict: %s@]" (if v.healthy then "healthy" else "UNHEALTHY")
end

(* Profile spans in the same Chrome trace-event dialect, so one Perfetto
   timeline can hold the compile pipeline (one pid) next to the simulated
   execution (another). *)
let profile_chrome_events ?(pid = 0) ?(name = "resbm compile") p =
  Chrome.process_name ~pid name
  :: List.map
       (fun (s : Profile.span) ->
         Chrome.complete ~cat:"compile" ~pid ~tid:0 ~start_ms:s.start_ms ~dur_ms:s.dur_ms
           s.name
           [ ("depth", Json.Int s.depth) ])
       (Profile.spans p)

let chrome_trace = Chrome.trace

(* Ambient state is domain-local: a freshly spawned domain sees None
   for every handle, so helpers are silent there unless its spawner
   re-installs the parent's handles.  Within one domain, [scoped] binds
   a handle for the extent of a callback and restores the previous
   binding after, also on exceptions. *)
let ambient () = Domain.DLS.new_key (fun () -> None)

let scoped key v f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key v;
  Fun.protect f ~finally:(fun () -> Domain.DLS.set key saved)

let profile_key : Profile.t option Domain.DLS.key = ambient ()
let current () = Domain.DLS.get profile_key
let with_profile p = scoped profile_key (Some p)

let incr ?by name =
  match current () with Some p -> Profile.incr ?by p name | None -> ()

let span name f = match current () with Some p -> Profile.span p name f | None -> f ()

let trace_key : Trace.t option Domain.DLS.key = ambient ()
let current_trace () = Domain.DLS.get trace_key
let with_trace tr = scoped trace_key (Some tr)

let trace_instant ~name ?node ?detail () =
  match current_trace () with
  | Some tr -> Trace.instant tr ~name ?node ?detail ()
  | None -> ()

let metrics_key : Metrics.t option Domain.DLS.key = ambient ()
let current_metrics () = Domain.DLS.get metrics_key
let with_metrics m = scoped metrics_key (Some m)

let metric_incr ?by ?labels name =
  match current_metrics () with
  | Some m -> Metrics.incr ?by ?labels m name
  | None -> ()

let metric_observe ?labels name v =
  match current_metrics () with
  | Some m -> Metrics.observe ?labels m name v
  | None -> ()

let metric_set ?labels name v =
  match current_metrics () with
  | Some m -> Metrics.set ?labels m name v
  | None -> ()

(* --- ambient structured logging ------------------------------------------ *)

let log_key : Log.t option Domain.DLS.key = ambient ()
let current_log () = Domain.DLS.get log_key
let with_log sink = scoped log_key (Some sink)

(* Ambient log context: merged, never replaced — entering a pass inside a
   compile keeps the compile id.  When no sink is installed the context
   is not even read, so un-logged callers pay one option check. *)
type log_ctx = { lc_compile_id : int; lc_pass : string; lc_region : int; lc_node : int }

let no_log_ctx = { lc_compile_id = -1; lc_pass = ""; lc_region = -1; lc_node = -1 }
let log_ctx_key : log_ctx Domain.DLS.key = Domain.DLS.new_key (fun () -> no_log_ctx)

let with_log_ctx ?compile_id ?pass ?region ?node f =
  match current_log () with
  | None -> f ()
  | Some _ ->
      let outer = Domain.DLS.get log_ctx_key in
      scoped log_ctx_key
        {
          lc_compile_id = Option.value compile_id ~default:outer.lc_compile_id;
          lc_pass = Option.value pass ~default:outer.lc_pass;
          lc_region = Option.value region ~default:outer.lc_region;
          lc_node = Option.value node ~default:outer.lc_node;
        }
        f

let log ~level ~event ?(msg = "") ?fields () =
  match current_log () with
  | None -> ()
  | Some sink ->
      let ctx = Domain.DLS.get log_ctx_key in
      let sim_ms = Option.map Trace.clock_ms (current_trace ()) in
      Log.record sink ~level ~event ~msg ?sim_ms ~compile_id:ctx.lc_compile_id
        ~pass:ctx.lc_pass ~region:ctx.lc_region ~node:ctx.lc_node ?fields ()

let log_debug ~event ?fields msg = log ~level:Log.Debug ~event ~msg ?fields ()
let log_info ~event ?fields msg = log ~level:Log.Info ~event ~msg ?fields ()
let log_warn ~event ?fields msg = log ~level:Log.Warn ~event ~msg ?fields ()
let log_error ~event ?fields msg = log ~level:Log.Error ~event ~msg ?fields ()

(* --- ambient runtime telemetry ------------------------------------------- *)

let rt_key : Rt.t option Domain.DLS.key = ambient ()
let current_rt () = Domain.DLS.get rt_key
let with_rt rt = scoped rt_key (Some rt)

(* A profile span that additionally publishes the phase's GC pressure
   into the ambient metrics registry.  The deltas go to Metrics only —
   never to the Profile — so compile reports stay bit-identical whether
   or not GC telemetry is being collected. *)
let gc_span name f =
  match current_metrics () with
  | None -> span name f
  | Some m ->
      let labels = [ ("phase", name) ] in
      let r, d = Rt.gc_sample (fun () -> span name f) in
      Metrics.observe ~labels m "gc_minor_words" d.Rt.minor_words;
      Metrics.observe ~labels m "gc_major_words" d.Rt.major_words;
      Metrics.incr ~by:d.Rt.minor_collections ~labels m "gc_minor_collections_total";
      Metrics.incr ~by:d.Rt.major_collections ~labels m "gc_major_collections_total";
      Metrics.set m "gc_top_heap_words" (float_of_int d.Rt.top_heap_words);
      r
