(** Linear programming by bounded-variable two-phase primal simplex.

    Substrate for the ILP e-graph extraction baselines (Eq. 1 of the
    paper). Minimises cᵀx subject to linear constraints and box bounds
    [lower ≤ x ≤ upper]. The tableau holds one dense row per constraint;
    bounds stay out of it: a nonbasic variable sits at one of its bounds,
    the ratio test also stops a basic variable at its upper bound, and an
    entering variable whose own range is the shortest step flips to its
    other bound without a pivot (counted as [lp.bound_flips]; [lp.pivots]
    counts basis changes). A pivot touches only the nonzero columns of its
    row, and the reduced costs are one more row that the pivots update.
    Uses Dantzig pricing with a switch to Bland's rule after a stall
    threshold to guarantee termination, and supports an external deadline
    so branch-and-bound can honour the paper's 15-minute-style time
    limits. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : (int * float) list;  (** sparse (variable, coefficient) *)
  rel : relation;
  rhs : float;
}

type problem = {
  nvars : int;
  objective : float array;  (** minimisation coefficients, length nvars *)
  constraints : constr list;
  lower : float array;
      (** per-variable lower bound, finite; a variable with
          [lower = upper] is fixed and never enters the basis *)
  upper : float array;  (** per-variable upper bound, [infinity] = free above *)
}

type result =
  | Optimal of { x : float array; obj : float }
  | Infeasible  (** no point satisfies the rows and bounds, e.g. [lower > upper] *)
  | Unbounded
  | Timeout
      (** deadline expired, the iteration cap was hit, or the tableau
          (constraint rows × structural, slack and artificial columns)
          would exceed the solver's memory capacity *)

val solve : ?deadline:Timer.deadline -> problem -> result

val check_feasible : ?tol:float -> problem -> float array -> bool
(** Constraint + bound satisfaction check for a candidate point —
    used by rounding heuristics and by the test-suite. *)

val eval_objective : problem -> float array -> float
