(** Linear programming by bounded-variable dual simplex.

    Substrate for the ILP e-graph extraction baselines (Eq. 1 of the
    paper). Minimises cᵀx subject to linear constraints and box bounds
    [lower ≤ x ≤ upper]. The tableau holds one dense row per constraint
    and one slack column per row ([Ge] rows are negated, an [Eq] row's
    slack has range 0); bounds stay out of it: a nonbasic variable sits
    at one of its bounds, the ratio test also stops a basic variable at
    its upper bound, and an entering variable whose own range is the
    shortest step flips to its other bound without a pivot (counted as
    [lp.bound_flips]; [lp.pivots] counts basis changes). A pivot touches
    only the nonzero columns of its row, and the reduced costs are one
    more row that the pivots update.

    Every LP is solved one way: from a dual feasible basis, a dual
    simplex pivots until every basic value is within its bounds, then
    one primal pass on the true costs (Dantzig pricing, Bland's rule
    after a stall threshold) takes up round-off and prices any column
    the dual pass priced at 0. The dual prices by dual steepest edge
    (Forrest & Goldfarb, Math. Prog. 1992): the leaving row is the one
    with the largest violation²/β_i, the lowest row on a tie, where the
    weight β_i = ‖e_iᵀB⁻¹‖² is the squared norm of row i over the slack
    columns. The weights are reset to 1 at the slack basis (B = I),
    kept exact by every pivot of either pass, and carried by the
    {!root} handle into every re-solve. The entering column is the
    smallest |d_j / a_rj| among those that move the leaving variable
    back toward its bound. The dual has no anti-cycling rule: a cold
    dual that reaches the iteration cap answers [Timeout], and a
    re-solve's falls back to the cold path. The two entry points differ
    only in the starting tableau:

    - The cold path ({!solve}, {!solve_root}) starts from the slack
      basis with each column at the bound its cost favours: at upper
      when c_j < 0. A column with c_j < 0 and no finite upper bound stays
      at lower, priced at 0 until the primal pass.
    - The re-solve ({!resolve}) starts from a copy of a root's optimal
      tableau with new bounds applied on the side each nonbasic column
      sat at, which keeps the reduced costs' signs. It is how
      branch-and-bound solves every node after the root.

    Both honour an external deadline, so branch-and-bound can keep the
    paper's 15-minute-style time limits. Every LP either path answers
    counts in [lp.solves]; [lp.resolves] counts those the re-solve
    answered itself. *)

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
          ((constraint rows + 1) × (structural and slack columns)) would
          exceed the solver's memory capacity *)

val solve : ?deadline:Timer.deadline -> problem -> result
(** The cold path. *)

type root
(** A root LP's optimal tableau, its steepest-edge weights included, and
    the bounds it was solved at. It is read-only once built, so
    re-solves on several domains may share it. *)

type scratch
(** A tableau-sized buffer that {!resolve} overwrites. One per domain. *)

val solve_root : ?deadline:Timer.deadline -> problem -> result * root option
(** [solve] that also hands back the final tableau. The handle is
    [Some] only when the result is [Optimal]. *)

val scratch : root -> scratch
(** A fresh buffer shaped like [root]'s tableau. The root, and each
    scratch, is one tableau of at most [max_tableau_cells] cells (30
    million), so a caller that keeps one scratch per domain holds at
    most 1 + J tableaux on J domains. *)

val resolve : ?deadline:Timer.deadline -> root -> scratch -> problem -> result
(** [resolve root scratch p] solves [p], which must have the root's rows
    and objective, under its own bounds. It blits the root's tableau and
    weights into [scratch], moves each nonbasic column to its new bound
    on the side it sat at (which leaves B, and so the weights, as they
    are), then runs the dual and primal passes. It allocates little
    beyond the returned point (no tableau). The result is a function of
    [root] and [p] alone, whatever [scratch] held.

    It falls back to the cold path, counting [lp.resolve_fallbacks],
    when either pass hits the iteration cap or when a nonbasic column's
    new bound is not finite. A deadline that has
    passed, before or during the re-solve, counts there too but answers
    [Timeout] without a cold solve. Honours an injected solver stall
    like {!solve}.
    @raise Invalid_argument if [p] or [scratch] is not shaped like
    [root]. *)

val check_feasible : ?tol:float -> problem -> float array -> bool
(** Constraint + bound satisfaction check for a candidate point —
    used by rounding heuristics and by the test-suite. *)

val eval_objective : problem -> float array -> float
