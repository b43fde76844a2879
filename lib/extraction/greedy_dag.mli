(** "Heuristic+": the improved bottom-up extractor from the extraction
    gym the paper benchmarks (§5.1).

    Like {!Greedy} this propagates costs bottom-up, but each e-class
    carries the *set* of e-nodes its best derivation uses, so shared
    subexpressions are costed once (DAG cost) instead of per use. On
    e-graphs rich in reuse (impress in Table 2, the adversarial NP-hard
    datasets in Table 4) this matches the paper's observation that
    heuristic+ improves on plain greedy, while remaining a heuristic —
    the union-of-children estimate is not optimal, and can cost more
    than {!Greedy}: each class is costed by its own node set alone, so
    it cannot see nodes that a sibling class already pays for. *)

val extract : ?max_passes:int -> Egraph.t -> Extractor.r
