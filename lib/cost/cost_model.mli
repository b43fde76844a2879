(** Extraction cost models.

    The paper evaluates three model families (§5): the conventional
    linear model f(s) = uᵀs, and non-linear models where an MLP
    correction term is added to the linear base:
    f(x) = f_linear(x) + f_nonlinear(x) (§5.5). A {!t} exposes both the
    relaxed differentiable evaluation (for SmoothE) and a dense binary
    evaluation (for the discrete baselines and for scoring sampled
    solutions). *)

type t

val linear : float array -> t
(** [linear u] is f(p) = uᵀp per seed. *)

val mlp_corrected : linear:float array -> Mlp.t -> t
(** f(p) = uᵀp + mlp(p), the §5.5 configuration.
    @raise Invalid_argument if dimensions disagree. *)

val pairwise : linear:float array -> (int * int * float) list -> t
(** [pairwise ~linear:u terms] is f(p) = uᵀp + Σ w·p_i·p_j over the
    given (i, j, w) terms — a quadratic cost capturing the sub-graph
    clustering effects linear models cannot (§2, "Limitations of Linear
    Cost Models"): a negative w is a fusion discount that applies only
    when *both* e-nodes are selected. This realises the "realistic
    non-linear cost models" direction of the paper's §6 future work
    without requiring a learned model.
    @raise Invalid_argument on out-of-range indices. *)

val fusion_of_egraph : Rng.t -> ?pairs:int -> ?discount:float -> Egraph.t -> t
(** A technology-mapping-style instance of {!pairwise}: random
    operator/operand e-node pairs (parent e-node, child-class member)
    receive a discount of [-discount × min(cost_i, cost_j)], modelling
    two adjacent operations fusing into one mapped cell. Defaults:
    [pairs] = N/4, [discount] = 0.4. *)

val of_egraph : Egraph.t -> t
(** The linear model with the e-graph's per-node costs. *)

val name : t -> string
val is_linear : t -> bool
val dim : t -> int

val relaxed : t -> Ad.tape -> Ad.v -> Ad.v
(** [relaxed m tape p] with [p : (B, N)] gives per-seed costs (B, 1). *)

val dense : t -> float array -> float
(** Evaluate one binary (or relaxed) point. *)

val selected : t -> int array -> int -> float
(** [selected m ids k] is [dense m x] for a linear model and the 0/1
    point x whose ones are at [ids.(0) < … < ids.(k - 1)], without
    forming x: the same terms added in the same order, so the same
    bits.
    @raise Invalid_argument on a non-linear model. *)

val dense_solution : t -> Egraph.t -> Egraph.Solution.s -> float
(** Evaluate an extraction: infinite on invalid solutions, otherwise the
    model applied to the solution's dense indicator vector. For linear
    models this equals {!Egraph.Solution.dag_cost}. *)
