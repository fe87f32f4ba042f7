(** Step budgets for planner stages.

    A fuel counter bounds how much work a planning stage may do before it
    gives up: the bootstrapping manager spends one unit per DP segment
    evaluation, the placement solvers one per min-cut.  When the budget
    runs out the stage raises {!Exhausted}, which {!Driver.compile_robust}
    catches to fall back to a cheaper manager tier instead of letting the
    compile run unbounded — the graceful-degradation analogue of a
    deadline.

    A budget is deliberately a {e step} count, not wall-clock: step counts
    are deterministic, so whether a compile degrades — and to which tier —
    is reproducible across machines and runs.

    Only work actually done is metered: a min-cut served from the region
    memo ({!Region_eval.Memo}, keyed by canonical region shape) spends
    nothing.  Since that memo is shared by the repeated blocks of a
    model, a compile's planner steps ({!Driver.planner_steps}) are far
    fewer than when every region was solved on its own; budgets
    calibrated from older profiles remain valid upper bounds.

    Planning is sequential, so the order of spends is fixed: a finite
    budget exhausts at the same planning step on every run.  The counter
    is atomic, so one budget may also be shared across domains and total
    accounting stays exact. *)

type t

exception Exhausted of string
(** Argument is the stage label of the counter that ran dry. *)

val create : ?stage:string -> int -> t
(** [create ~stage n] allows [n] spends; a negative [n] never exhausts.
    [stage] (default ["plan"]) names the budget in {!Exhausted} and in the
    [planner_fuel_spent_total] metric. *)

val unlimited : t
(** A shared counter that never exhausts (and never counts). *)

val spend : ?cost:int -> t -> unit
(** Consume [cost] (default 1) units.
    @raise Exhausted when the remaining budget is smaller than [cost]. *)

val remaining : t -> int
(** Units left; negative = unlimited. *)

val stage : t -> string

val calibrate : ?percentile:float -> ?headroom:float -> int list -> int
(** [calibrate observations] turns historical planner step counts (one
    per compile, e.g. {!Driver.planner_steps} over archived compile
    profiles) into a budget for {!Driver.compile_robust}'s [fuel_steps]:
    the nearest-rank [percentile] (default 0.95) of the observations,
    multiplied by [headroom] (default 1.5, must be >= 1) and rounded up.
    A budget calibrated this way admits the chosen fraction of historical
    compiles without degradation while still bounding a runaway plan.
    Deterministic: same observations, same budget, on every platform.
    @raise Invalid_argument on an empty list, a percentile outside
    [0, 1], or headroom below 1. *)
