(** Latency evaluation of a region under a candidate management plan.

    Produces the [L] terms accumulated by Algorithm 2 (line 15): the sum
    of the region's operation latencies once a rescaling plan and, for a
    source region, a bootstrap plan have been applied.  Nodes above the
    rescale cut run at the entry level, nodes between the cuts at
    [entry - rescales], and nodes below the bootstrap cut at the bootstrap
    target.  Results are memoised — the paper's "caching min-cut results"
    — since the DP revisits regions once per candidate entry level.

    Placement {e modes} select how the cuts are chosen, which is how the
    paper's substitution variants and baselines are realised on one
    engine:

    - rescale: [Smo_min_cut] (SMOPLC), [Smo_eva] (EVA's waterline —
      rescale immediately after every multiplication unit), [Smo_pars]
      (PARS — lazy rescale at the region's end);
    - bootstrap: [Bts_min_cut] (BTSPLC), [Bts_region_end] (Fhelipe and
      DaCapo — bootstrap the live-out ciphertexts of the region). *)

type smo_mode = Smo_min_cut | Smo_eva | Smo_pars
type bts_mode = Bts_min_cut | Bts_region_end

type result = {
  latency_ms : float;
  smo_cut : Cut.t option;
  bts_cut : Cut.t option;
      (** [None] while [bts] was requested means the level-0 subgraph was
          empty and the bootstrap goes directly after the rescale chain. *)
  bts_subgraph : int list;  (** Level-0 members used for bootstrap planning. *)
}

(** Region solutions are memoised on the region's canonical {e shape},
    not on its node ids.  Let S be the region's members plus their
    external predecessors, relabelled by rank in ascending id order.  The
    shape is an exact string (compared in full, never hashed) of:
    the CKKS parameters and the cost-model fingerprint; |S|; the member
    ranks in topological order; per member its kind (with [Input] and
    [Const] names erased), [freq], args as ranks, successors in use-list
    order (rank if in-region, one "outside" marker otherwise) and whether
    it is a DFG output; per external predecessor its kind and [freq].
    The memo key is the shape plus [entry_level], [rescales], [bts],
    [smo_mode] and [bts_mode].

    Solutions are stored in rank space.  A hit maps [Cut.edges],
    [sink_side], [node_of] ([-1] stays [-1]) and [bts_subgraph] back
    through the region's rank -> id array; cut values and certificates
    live in flow-network terms and are shared unchanged.  The relabelling
    is monotone, so every id-ordered drain and summation inside the
    evaluation is the same for two regions of equal shape: a hit is
    bit-identical to recomputing.  The repeated blocks of one model (and
    the unchanged regions of an edited one) are therefore solved once. *)

(** The solution store.  One store serves a cold compile (shared by the
    repeated blocks of the model) and, kept across compiles by
    {!Plan_cache}, the incremental tier.  Lock-protected: safe to share
    across domains; concurrent misses may compute one entry twice,
    and the first add wins (both computes are equal). *)
module Memo : sig
  type t

  val create : unit -> t

  val stats : t -> int * int
  (** [(hits, misses)] so far. *)

  val size : t -> int
  (** Number of memoised region solutions. *)

  val entries : t -> (string * int * int * int option * smo_mode * bts_mode) list
  (** Every memoised problem as [(shape, entry_level, rescales, bts,
      smo_mode, bts_mode)], sorted; [shape] is a {!shape_key}. *)
end

type cache
(** Per-compile state over one regioned DFG: its solution store, each
    region's canonical view (the shape interned in that store), indexed
    by region, and the latency of every problem already answered by
    {!latency}.  Single-domain: it takes no lock, so one compile owns it. *)

val create_cache : ?memo:Memo.t -> unit -> cache
(** [memo] (default: a fresh store) is the store every {!eval} and
    {!latency} on this cache consults and populates on compute. *)

val shape_key : Region.t -> Ckks.Params.t -> int -> string
(** [shape_key regioned prm region] is the canonical shape described
    above: two regions share memoised solutions exactly when their shape
    keys are equal. *)

exception Infeasible of string

val eval :
  ?fuel:Fuel.t ->
  cache ->
  Region.t ->
  Ckks.Params.t ->
  smo_mode:smo_mode ->
  bts_mode:bts_mode ->
  region:int ->
  entry_level:int ->
  rescales:int ->
  bts:int option ->
  result
(** The full solution, cuts and subgraph in node ids: a store hit is
    mapped back through the region's rank -> id array (counted as
    [region_eval.memo_hits]), a miss is computed and stored (counted as
    [region_eval.computes]).  Every call maps afresh, so it is meant for
    the segments a plan keeps, not for pricing candidates.

    [fuel] (default unlimited) is spent by the min-cut solvers on a
    store miss; hits are free, and fuel is not part of the memo key, so
    degraded compiles remain deterministic.
    @raise Infeasible when the region cannot run at the requested level
    (e.g. rescaling at level 0).
    @raise Fuel.Exhausted when the step budget runs out. *)

val latency :
  ?fuel:Fuel.t ->
  cache ->
  Region.t ->
  Ckks.Params.t ->
  smo_mode:smo_mode ->
  bts_mode:bts_mode ->
  region:int ->
  entry_level:int ->
  rescales:int ->
  bts:int option ->
  float
(** [(eval …).latency_ms], bit for bit, without mapping any cut: the [L]
    term of a candidate segment.  The cache tables each answer by shape
    and problem, so repeat queries (any region of the same shape) cost
    one int-keyed lookup; a first query reads the store's canonical
    solution, and only a store miss computes (and stores) it.  Raises as
    {!eval} does; an infeasible problem is never tabled. *)
