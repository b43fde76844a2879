(** The ILP formulation of e-graph extraction (Eq. 1 of the paper) and
    the branch-and-bound-backed extractor built on it.

    Variables: a binary s_i per e-node, at index i, and a continuous
    t_j ∈ [0,1] (topological position) per e-class j that the ordering
    rows read. Constraints: exactly one root e-node (1b); a selected
    e-node forces a selection in each child e-class (1c); and the big-M
    ordering constraints (1e)-(1f) that forbid cycles. As an
    optimisation (also used by the paper's SCC trick in §4.3), ordering
    constraints are only emitted for edges inside a non-trivial strongly
    connected component — cross-SCC edges can never participate in a
    cycle — so only a class in such a component gets a t column. *)

type encoding = {
  problem : Lp.problem;
  t_var : int array;  (** each class's t column, or -1 if it has none *)
  integer_vars : int array;
}

val encode : Egraph.t -> encoding

val decode : Egraph.t -> float array -> Egraph.Solution.s
(** Read the s-variables of a (near-)integral point back into a
    selection. *)

val warm_start_point : Egraph.t -> encoding -> Egraph.Solution.s -> float array option
(** Lift a valid extraction into a feasible (s, t) assignment: t follows
    a topological order of the selected classes. Returns [None] if the
    solution is invalid. *)

val extract :
  ?time_limit:float ->
  ?node_limit:int ->
  ?warm_start:Egraph.Solution.s ->
  ?pool:Pool.t ->
  ?health:Health.log ->
  profile:Bnb.profile ->
  Egraph.t ->
  Extractor.r
(** Full extraction pipeline: encode, solve under the given solver
    profile and time budget, decode, validate. The anytime trace
    carries the solver's incumbent improvements (Figure 4); notes
    report nodes, bound and the relative gap. [pool]/[health] are
    forwarded to {!Bnb.solve}. *)
