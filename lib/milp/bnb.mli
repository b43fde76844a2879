(** Mixed-integer linear programming by LP-based branch-and-bound.

    The reproduction's stand-in for the CPLEX / SCIP / CBC solvers of the
    paper's evaluation (§5.1). Binary variables only (which is all the
    extraction encoding of Eq. (1) needs). Features: best-bound or
    depth-first search, most-/first-fractional branching, LP rounding
    heuristic, warm-started incumbents, hard time limits, and an anytime
    incumbent trace (for the Figure 4 comparison).

    The three bundled {!profile}s differ in search strategy and heuristic
    effort, mirroring the commercial-vs-open-source quality split the
    paper observes; see DESIGN.md for the substitution argument.

    Node LPs: the root is solved alone by the cold path ({!Lp.solve_root})
    and its optimal tableau is kept for the rest of the call. Every later
    node is re-solved by dual simplex from that tableau with the node's
    fixes applied ({!Lp.resolve}), not from the slack basis, and falls
    back to a cold solve only when the re-solve gives up. Each pool slot
    re-solves into one scratch tableau, reused across waves and dropped
    when the call returns, so a call on J domains holds at most 1 + J
    tableaux.

    Node exploration is wave-parallel: each iteration pops a fixed-width
    wave of frontier nodes (in a strict total order — bound or depth,
    with a push-sequence tie-break) and LP-solves them concurrently on a
    {!Pool}, one contiguous slice per slot; incumbent updates and
    branching are then applied sequentially in wave order. A node's
    result depends only on the root's tableau and its own fixes, the
    wave width never depends on the pool size, and {!Pool.run_array}
    joins in input order, so the explored node sequence — and with it
    the incumbent, bound, node count and trace costs — is bit-identical
    at any [--jobs]. *)

type branch_rule = Most_fractional | First_fractional
type search_order = Best_bound | Depth_first

type profile = {
  profile_name : string;
  branch_rule : branch_rule;
  search : search_order;
  rounding_every : int option;  (** run the rounding heuristic every k nodes *)
  use_warm_start : bool;
}

val cplex_like : profile
(** Best-bound search, most-fractional branching, rounding at every
    node, accepts warm starts — the strongest configuration. *)

val scip_like : profile
(** Best-bound search, most-fractional branching, occasional rounding,
    no warm start. *)

val cbc_like : profile
(** Depth-first search, first-fractional branching, no rounding
    heuristic — the weakest configuration. *)

type options = {
  profile : profile;
  time_limit : float;  (** seconds; <= 0 means unlimited *)
  node_limit : int;
  warm_start : float array option;  (** a feasible point to seed the incumbent *)
}

val default_options : profile -> options

type outcome = {
  incumbent : float array option;
  objective : float;  (** [infinity] when no feasible point was found *)
  best_bound : float;
      (** proven lower bound on the optimum: the weakest open-node bound
          at exit (finite once the root LP has been solved, whatever the
          search order) *)
  proved_optimal : bool;
      (** the frontier was exhausted, or the incumbent–bound gap closed
          to within {!tolerance} of the incumbent *)
  nodes : int;
  solve_time : float;
  trace : (float * float) list;  (** (seconds-since-start, incumbent objective) improvements *)
}

val tolerance : float -> float
(** [tolerance v] = [1e-9 *. Float.max 1.0 (Float.abs v)] — the
    absolute slack used when comparing against a value of magnitude
    [v]. One relative epsilon serves incumbent acceptance, node pruning
    and the [proved_optimal] gap test, so they cannot disagree at any
    cost scale. *)

val solve :
  ?pool:Pool.t -> ?health:Health.log -> Lp.problem -> integer_vars:int array -> options -> outcome
(** [pool] (default {!Pool.get}) runs each wave's LP relaxations
    concurrently; results are identical at any pool size. A warm start
    that fails feasibility or integrality validation is ignored and
    recorded on [health] as a [Warm_start_rejected] event.
    @raise Invalid_argument if an integer variable's bounds are not
    within [0, 1] (binaries only). *)
