(** Discrete solution sampling (§3.5).

    After each optimisation step the conditional probabilities cp are
    decoded into binary selections, one per seed: starting from the root
    e-class, each selected e-class takes its argmax-cp member, and the
    chosen node's child classes are selected in turn — satisfying the
    completeness constraints by construction. Acyclicity is *not*
    guaranteed by this schedule; the paper relies on the NOTEARS penalty
    having pushed cyclic selections away.

    [repair] additionally implements a cycle-breaking retry (our
    extension, off by default): when a seed's selection closes a cycle,
    the class that closes it is demoted to its next-best cp member and
    the seed is decoded again, at most 16 times. *)

val best_of_batch :
  ?repair:bool ->
  Egraph.t ->
  model:Cost_model.t ->
  cp:Tensor.t ->
  (int * Egraph.Solution.s * float) option
(** Decode every seed (row) of the (B, N) cp tensor, score the valid
    decodes, and return (seed index, solution, cost) of the cheapest —
    the selection rule of §4.2's seed batching. A linear model scores
    the selected classes' picks, in class order, by
    {!Cost_model.selected}; any other model scores a 0/1 vector by
    {!Cost_model.dense}. Both give [Cost_model.dense]'s bits.
    The contract:
    - A class's member is its argmax cp; on a cp tie the first-listed
      (lowest-id) member wins.
    - A seed whose selection is cyclic is not a candidate, nor is one
      whose cost is not finite. [None] when no seed is a candidate.
    - On a cost tie the lowest seed wins.
    - Under [repair] the demoted class is the one whose chosen node
      closes the cycle: the class on top of a depth-first search from
      the root, over the chosen nodes' children in array order, when it
      first meets a class still on its stack.
    - Each seed is one depth-first walk over its cp row in place;
      scratch is allocated once per call, not per seed.
    @raise Invalid_argument when cp's width is not the node count. *)
