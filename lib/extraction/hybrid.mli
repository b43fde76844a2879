(** Hybrid heuristic-pruned exact extraction (the e-boost pipeline).

    SmoothE (or any heuristic) produces an incumbent and, optionally,
    per-node marginals; this module turns them into a tightened MILP and
    finishes with branch-and-bound:

    - {b fixing rule}: an e-class is fixed to the incumbent's choice
      when the marginals are concentrated on it (class argmax with
      within-class probability >= [fix_threshold]); its other members
      are dropped from the encoding. Heuristic — it may exclude the
      true optimum, which is why a proof is never claimed from this
      phase alone.
    - {b bound cut}: the threshold [UB(+slack)] derived from the
      incumbent cost. With nonnegative costs it soundly eliminates every
      node whose own cost exceeds the cut (the optimum cannot contain
      one). It is applied as node {e elimination}, never as the
      explicit LP row [sum_i cost_i s_i <= UB]: the row is equally
      sound but dense, and measured slower — it slows every simplex
      solve, while branch-and-bound already prunes on the warm-started
      incumbent.
    - {b warm start}: the incumbent is lifted into each encoding as the
      initial MILP incumbent, so pruning starts at full strength.

    Extraction runs in up to two solves: a {e pruned} solve over the
    heuristically-shrunken encoding (fast, strong incumbents), then a
    {e verify} solve over the full problem reduced only by the sound
    eliminations, whose bound and [proved_optimal] are valid for the
    original instance. When fixing removes nothing the two coincide and
    only the sound solve runs, with the whole budget. *)

type config = {
  time_limit : float;  (** seconds across all phases; <= 0 = unlimited *)
  node_limit : int;  (** per-phase branch-and-bound node cap *)
  profile : Bnb.profile;
  fix_threshold : float;
      (** fix a class when the incumbent's choice is the class argmax
          with at least this within-class marginal mass (default 0.9;
          > 1.0 disables fixing) *)
  bound_gap : float;
      (** extra relative slack on the bound cut (default 0): rhs =
          UB + tolerance + bound_gap * max 1 |UB| *)
  verify : bool;
      (** run the sound full-problem solve after the pruned one
          (default true; without it no optimality is ever claimed when
          fixing pruned anything) *)
}

val default_config : config

type phase = {
  phase_name : string;  (** "pruned", "verify" or "full" *)
  phase_vars : int;  (** e-nodes in that phase's shrunken encoding *)
  phase_nodes : int;  (** branch-and-bound nodes explored *)
  phase_obj : float;
  phase_bound : float;
  phase_proved : bool;  (** proved for that phase's (possibly pruned) space *)
  phase_time : float;
}

type outcome = {
  result : Extractor.r;  (** method_name "hybrid"; [proved_optimal] is sound *)
  fixed_classes : int;
  dropped_by_fixing : int;  (** e-nodes removed by the heuristic fixing rule *)
  dropped_by_bound : int;  (** e-nodes removed by the sound cost-bound rule *)
  phases : phase list;  (** chronological *)
  bound : float;  (** proven lower bound on the full problem; [neg_infinity] if none *)
  gap : float;  (** relative incumbent-bound gap; 0 when proved *)
}

val extract :
  ?config:config ->
  ?pool:Pool.t ->
  ?health:Health.log ->
  ?incumbent:Egraph.Solution.s ->
  ?marginals:float array ->
  Egraph.t ->
  outcome
(** The pipeline seeds from the {e better} of [incumbent] and the free
    greedy-DAG heuristic, so it can never return a worse solution than
    greedy (an invalid [incumbent] is rejected with a
    [Warm_start_rejected] health event). [marginals] is a per-node
    probability vector (e.g. SmoothE's final per-class softmax cp for
    its incumbent seed); without it the fixing rule is inert and the
    pipeline reduces to bound-cut + warm-started exact solving.
    [pool] parallelises branch-and-bound waves (bit-identical results
    at any size). *)
