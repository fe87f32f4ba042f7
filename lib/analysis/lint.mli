(** Lint analyses over legal managed graphs.

    Where {!Verify} rejects illegal graphs, the lints look for legal but
    wasteful or suspicious shapes — the compile-time cousins of the
    paper's motivation (Section 3): SMOs and bootstraps that burn levels
    or latency without need.  Six rules:

    - ["redundant-modswitch"] ({e hint}) — a modswitch that
      {!Passes.Ms_opt} could hoist above its single-use producer to run
      the producer at a lower level, or one whose entire effect is
      discarded by a bootstrap;
    - ["rescale-before-bootstrap"] ({e hint}) — a rescale whose only
      consumers are bootstraps: bootstrapping resets both scale and
      level, so the rescale's latency and the level it burns are wasted;
    - ["bootstrap-above-minimal"] ({e hint}) — a bootstrap targeting more
      levels than the remaining cone can consume before the next
      bootstrap or output, contradicting Algorithm 5's minimal-level
      objective (every extra level makes each downstream operation
      slower);
    - ["unused-node"] ({e warning}) — an [Input] or [Const] with no uses;
    - ["relin-placement"] ({e warning}) — a [Mul_cc] whose result is
      never relinearised, or relinearised more than once (the relin
      should be shared);
    - ["noise-margin"] ({e warning}) — the {!Fhe_ir.Noise_check}
      predicted output precision falls below a margin (default 8 bits).

    Opportunity rules report as [Hint] severity, anomalies as [Warning]:
    a compiled graph can legitimately contain opportunities (e.g. ReSBM
    rescales live-outs before bootstrapping them by construction), so
    only warnings and errors gate [--deny-warnings] CI runs.

    The lints assume a graph that passes {!Verify.run}; run the verifier
    first.  Each rule is timed as an [Obs] span named [lint.<rule>]. *)

type rule =
  | Redundant_modswitch
  | Rescale_before_bootstrap
  | Bootstrap_above_minimal
  | Unused_node
  | Relin_placement
  | Noise_margin

val all : rule list

val rule_id : rule -> string
(** The stable kebab-case id used in diagnostics, e.g.
    ["redundant-modswitch"]. *)

val of_rule_id : string -> rule option

val scan_planner_sources : dir:string -> Diag.t list
(** Source-level lint over the planner sources in [dir], recursing into
    subdirectories in sorted order ([_build] and dot directories
    skipped); a missing or unreadable [dir] yields [].  Two rules, both
    warnings with root-relative file:line in the message:

    - ["unsorted-hashtbl-drain"] — a [Hashtbl.iter] / [Hashtbl.fold] call
      site in a [.ml] file: hash-order iteration makes planner decisions
      depend on insertion history and seed, breaking plan reproducibility
      and the cold/cached bit-identity contract; planner code drains
      through [Det].  [det.ml] itself and lines marked [(* det-ok *)] are
      exempt.
    - ["stdout-in-lib"] — a raw stdout call ([print_*],
      [Printf.printf], [Format.printf]) at an identifier boundary:
      library output flows through structured channels ([Obs.Log], Json
      writers, caller-supplied formatters), and stray prints corrupt the
      CLI's stdout contract ([--json] piping).  Lines marked
      [(* log-ok *)] are exempt. *)

val run :
  ?rules:rule list ->
  ?min_precision_bits:float ->
  ?magnitude_cap:float ->
  ?const_magnitude:(string -> float) ->
  Ckks.Params.t ->
  Fhe_ir.Dfg.t ->
  Diag.t list
(** Run the selected lints (default: all) and return the findings sorted
    most severe first.  [min_precision_bits] (default [8.0]) is the
    ["noise-margin"] threshold; [magnitude_cap] and [const_magnitude] are
    forwarded to {!Fhe_ir.Noise_check.analyse} — without the real weight
    magnitudes the worst-case prediction over a deep network is far too
    pessimistic, so pass the model's resolver maxima when available. *)
