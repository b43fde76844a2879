(* Tests for the extraction baselines: greedy, greedy-DAG, ILP encode +
   extract, genetic, random-walk sampling. *)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let egraph_with_seed =
  QCheck2.Gen.pair (Test_util.arb_egraph ~max_classes:6 ()) QCheck2.Gen.(int_bound 1_000_000)

let cyclic_egraph_gen = Test_util.arb_egraph ~max_classes:6 ~cycle_prob:0.35 ()

(* --------------------------------------------------------------- greedy *)

let test_greedy_fig1 () =
  let g = Fig1.egraph () in
  let r = Greedy.extract g in
  Test_util.check_close ~msg:"paper's 27" Fig1.heuristic_cost r.Extractor.cost;
  match r.Extractor.solution with
  | None -> Alcotest.fail "no solution"
  | Some s -> Alcotest.(check bool) "valid" true (Egraph.Solution.is_valid g s)

let test_greedy_minimises_tree_cost_fig1 () =
  let g = Fig1.egraph () in
  let r = Greedy.extract g in
  match r.Extractor.solution with
  | None -> Alcotest.fail "no solution"
  | Some s ->
      (* on fig1 the greedy selection has no sharing: tree = dag = 27 *)
      Test_util.check_close ~msg:"tree cost" 27.0 (Egraph.Solution.tree_cost g s)

let greedy_always_valid =
  qtest "greedy solutions are valid (incl. cyclic e-graphs)" cyclic_egraph_gen (fun g ->
      match (Greedy.extract g).Extractor.solution with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> true (* derivable root may genuinely not exist *))

let greedy_class_costs_are_fixpoint =
  qtest "greedy class costs satisfy the Bellman fixpoint"
    (Test_util.arb_egraph ~max_classes:7 ()) (fun g ->
      let cost, best = Greedy.class_costs g in
      let agg i =
        Array.fold_left (fun acc c -> acc +. cost.(c)) g.Egraph.costs.(i) g.Egraph.children.(i)
      in
      let ok = ref true in
      for c = 0 to Egraph.num_classes g - 1 do
        (* class cost = min over members of aggregated cost *)
        let expected =
          Array.fold_left (fun acc i -> Float.min acc (agg i)) infinity g.Egraph.class_nodes.(c)
        in
        if not (Test_util.float_close expected cost.(c)) then ok := false;
        if Float.is_finite cost.(c) && not (Test_util.float_close (agg best.(c)) cost.(c)) then
          ok := false
      done;
      !ok)

let greedy_matches_brute_force_on_trees =
  (* with max_children = 1 and distinct subtrees there is no sharing, so
     tree optimisation = dag optimisation and greedy must be optimal *)
  qtest ~count:80 "greedy optimal when no sharing exists"
    QCheck2.Gen.(
      map
        (fun seed ->
          let rng = Rng.create seed in
          Test_util.random_egraph ~max_class_size:3 ~max_children:1 rng ~classes:6)
        (int_bound 1_000_000))
    (fun g ->
      (* chain-shaped e-graphs: each class used at most once per path *)
      let bf, _ = Test_util.brute_force_optimum g in
      let greedy = (Greedy.extract g).Extractor.cost in
      (* greedy minimises tree cost; on chains dag = tree, but a class
         can still be referenced by several parents, so allow >= *)
      greedy >= bf -. 1e-9)

(* ----------------------------------------------------------- greedy-dag *)

let greedy_dag_never_worse_than_greedy =
  qtest "greedy-dag <= greedy on DAG cost" (Test_util.arb_egraph ~max_classes:7 ())
    (fun g ->
      let a = (Greedy_dag.extract g).Extractor.cost in
      let b = (Greedy.extract g).Extractor.cost in
      a <= b +. 1e-9)

let test_greedy_dag_beats_greedy_on_sharing () =
  (* A diamond *below a single e-node*: x1 (cost 1) uses P and Q, both
     wrappers around a shared node S (cost 9); the alternative x2 is a
     leaf of cost 11. Tree greedy double-counts S (1+9+9 = 19 > 11) and
     picks x2; the DAG-aware set costing sees {x1,p,q,s} = 10 < 11. *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let p_cls = Egraph.Builder.add_class b in
  let q_cls = Egraph.Builder.add_class b in
  let s_cls = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"x1" ~cost:1.0 ~children:[ p_cls; q_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"x2" ~cost:11.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:p_cls ~op:"p" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:q_cls ~op:"q" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:s_cls ~op:"s" ~cost:9.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  Test_util.check_close ~msg:"greedy double-counts (11)" 11.0 (Greedy.extract g).Extractor.cost;
  Test_util.check_close ~msg:"greedy-dag shares (10)" 10.0 (Greedy_dag.extract g).Extractor.cost;
  let bf, _ = Test_util.brute_force_optimum g in
  Test_util.check_close ~msg:"10 is optimal" 10.0 bf

let test_greedy_dag_limitation_cross_class () =
  (* cross-class sharing (the paper's Fig. 2 regime) still defeats the
     class-local DAG heuristic: both heuristics pay 14 where the global
     optimum shares S for 10 — the gap SmoothE/ILP close *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let a_cls = Egraph.Builder.add_class b in
  let b_cls = Egraph.Builder.add_class b in
  let s_cls = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"pair" ~cost:0.0 ~children:[ a_cls; b_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:s_cls ~op:"shared" ~cost:10.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_shared" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_private" ~cost:7.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_shared" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_private" ~cost:7.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  Test_util.check_close ~msg:"greedy pays 14" 14.0 (Greedy.extract g).Extractor.cost;
  Test_util.check_close ~msg:"greedy-dag also pays 14" 14.0 (Greedy_dag.extract g).Extractor.cost;
  let bf, _ = Test_util.brute_force_optimum g in
  Test_util.check_close ~msg:"global optimum is 10" 10.0 bf;
  let r = Ilp.extract ~time_limit:10.0 ~profile:Bnb.cplex_like g in
  Test_util.check_close ~msg:"ILP finds 10" 10.0 r.Extractor.cost

let greedy_dag_always_valid =
  qtest "greedy-dag solutions valid on cyclic e-graphs" cyclic_egraph_gen (fun g ->
      match (Greedy_dag.extract g).Extractor.solution with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> true)

(* ------------------------------------------------------------------ ILP *)

let test_ilp_encoding_shape () =
  let g = Fig1.egraph () in
  let enc = Ilp.encode g in
  Alcotest.(check int) "vars = N + M" (Egraph.num_nodes g + Egraph.num_classes g)
    enc.Ilp.problem.Lp.nvars;
  Alcotest.(check int) "all s binary" (Egraph.num_nodes g) (Array.length enc.Ilp.integer_vars);
  (* fig1 is acyclic: no big-M rows, so constraints = 1 root + per-edge *)
  let child_constraints =
    Array.fold_left
      (fun acc ch ->
        let seen = Hashtbl.create 4 in
        Array.iter (fun c -> Hashtbl.replace seen c ()) ch;
        acc + Hashtbl.length seen)
      0 g.Egraph.children
  in
  Alcotest.(check int) "constraint count" (1 + child_constraints)
    (List.length enc.Ilp.problem.Lp.constraints)

let test_ilp_fig1_optimal () =
  let g = Fig1.egraph () in
  let r = Ilp.extract ~time_limit:20.0 ~profile:Bnb.cplex_like g in
  Test_util.check_close ~msg:"optimal 19" Fig1.optimal_cost r.Extractor.cost;
  Alcotest.(check bool) "proved" true r.Extractor.proved_optimal

let ilp_matches_brute_force =
  qtest ~count:25 "ILP matches brute force on random e-graphs"
    (Test_util.arb_egraph ~max_classes:5 ()) (fun g ->
      let bf, _ = Test_util.brute_force_optimum g in
      let r = Ilp.extract ~time_limit:20.0 ~profile:Bnb.cplex_like g in
      if Float.is_finite bf then
        r.Extractor.proved_optimal && Test_util.float_close bf r.Extractor.cost
      else r.Extractor.solution = None)

let ilp_matches_brute_force_cyclic =
  qtest ~count:20 "ILP handles cyclic e-graphs (big-M ordering)"
    (Test_util.arb_egraph ~max_classes:5 ~cycle_prob:0.4 ()) (fun g ->
      let bf, _ = Test_util.brute_force_optimum g in
      let r = Ilp.extract ~time_limit:30.0 ~profile:Bnb.cplex_like g in
      match r.Extractor.solution with
      | Some s ->
          Egraph.Solution.is_valid g s
          && (not r.Extractor.proved_optimal || Test_util.float_close bf r.Extractor.cost)
      | None -> not (Float.is_finite bf))

let test_ilp_warm_start_round_trip () =
  let g = Fig1.egraph () in
  let enc = Ilp.encode g in
  let greedy = Option.get (Greedy.extract g).Extractor.solution in
  match Ilp.warm_start_point g enc greedy with
  | None -> Alcotest.fail "warm start rejected a valid solution"
  | Some x ->
      Alcotest.(check bool) "feasible" true (Lp.check_feasible enc.Ilp.problem x);
      let decoded = Ilp.decode g x in
      Test_util.check_close ~msg:"round trip cost" Fig1.heuristic_cost
        (Egraph.Solution.dag_cost g decoded)

(* -------------------------------------------------------------- genetic *)

let test_genetic_fig1 () =
  let rng = Rng.create 11 in
  let r = Genetic.extract rng (Fig1.egraph ()) in
  (* the space is tiny: the GA must find the optimum *)
  Test_util.check_close ~msg:"finds 19" Fig1.optimal_cost r.Extractor.cost

let genetic_always_valid =
  qtest ~count:20 "genetic solutions are valid" cyclic_egraph_gen (fun g ->
      let cfg = { Genetic.default_config with Genetic.generations = 10; time_limit = 5.0 } in
      let r = Genetic.extract ~config:cfg (Rng.create 3) g in
      match r.Extractor.solution with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> true)

let test_genetic_nan_quarantine () =
  (* a poisoned cost model: one member of a two-node class costs NaN.
     Individuals selecting it must be quarantined (NaN beats nothing in
     a tournament, so without the guard the rot spreads through
     selection) and the GA must still return a finite-cost solution. *)
  let g = Fig1.egraph () in
  let coeffs = Array.map (fun c -> c) g.Egraph.costs in
  let cls =
    let found = ref (-1) in
    Array.iteri
      (fun c nodes -> if !found < 0 && Array.length nodes > 1 then found := c)
      g.Egraph.class_nodes;
    !found
  in
  let poisoned = g.Egraph.class_nodes.(cls).(0) in
  coeffs.(poisoned) <- Float.nan;
  let model = Cost_model.linear coeffs in
  let cfg = { Genetic.default_config with Genetic.generations = 10; time_limit = 5.0 } in
  let r = Genetic.extract ~config:cfg ~model (Rng.create 11) g in
  (match r.Extractor.solution with
  | None -> Alcotest.fail "no solution under the poisoned model"
  | Some s ->
      Alcotest.(check bool) "valid" true (Egraph.Solution.is_valid g s);
      Alcotest.(check bool) "finite cost" true
        (Float.is_finite (Cost_model.dense_solution model g s)));
  Alcotest.(check bool) "quarantine engaged" true
    (List.mem_assoc "quarantined" r.Extractor.notes)

let genetic_no_worse_than_random_seeding =
  qtest ~count:10 "genetic <= greedy (greedy seeds the population)"
    (Test_util.arb_egraph ~max_classes:6 ()) (fun g ->
      let cfg = { Genetic.default_config with Genetic.generations = 5; time_limit = 5.0 } in
      let r = Genetic.extract ~config:cfg (Rng.create 5) g in
      r.Extractor.cost <= (Greedy.extract g).Extractor.cost +. 1e-9)

(* ---------------------------------------------------------- random walk *)

let random_walk_valid =
  qtest "random-walk samples are valid" egraph_with_seed (fun (g, seed) ->
      match Random_walk.solution (Rng.create seed) g with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> false (* arb_egraph DAGs are always derivable *))

let random_walk_valid_cyclic =
  qtest "random-walk samples valid on cyclic e-graphs" cyclic_egraph_gen (fun g ->
      match Random_walk.solution (Rng.create 7) g with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> true)

let test_random_walk_diversity () =
  let g = (Registry.find_instance "bzip2_1").Registry.build () in
  let rng = Rng.create 13 in
  let sols = Random_walk.solutions rng g ~count:20 in
  Alcotest.(check int) "20 samples" 20 (List.length sols);
  let costs = List.map (Egraph.Solution.dag_cost g) sols in
  let distinct = List.sort_uniq compare costs in
  Alcotest.(check bool) "diverse costs" true (List.length distinct > 3)

let test_dense_dataset_shape () =
  let g = Fig1.egraph () in
  let data = Random_walk.dense_dataset (Rng.create 2) g ~count:8 in
  Alcotest.(check int) "rows" 8 (Array.length data);
  Array.iter
    (fun row ->
      Alcotest.(check int) "width" (Egraph.num_nodes g) (Array.length row);
      Alcotest.(check bool) "binary" true (Array.for_all (fun x -> x = 0.0 || x = 1.0) row))
    data

(* -------------------------------------------------------- cycle pruning *)

let test_prune_noop_on_dag () =
  let g = Fig1.egraph () in
  let rep = Acyclic_prune.prune g in
  Alcotest.(check int) "nothing removed" 0 rep.Acyclic_prune.removed_nodes;
  match rep.Acyclic_prune.egraph with
  | Some pruned ->
      Alcotest.(check int) "same node count" (Egraph.num_nodes g) (Egraph.num_nodes pruned)
  | None -> Alcotest.fail "pruning lost the graph"

let test_prune_removes_cycle_nodes () =
  (* two mutually-dependent classes plus leaf escapes: the fwd/back
     nodes must go, the leaves survive *)
  let b = Egraph.Builder.create () in
  let a = Egraph.Builder.add_class b in
  let c = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"fwd" ~cost:1.0 ~children:[ c ]);
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"leafA" ~cost:9.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"back" ~cost:1.0 ~children:[ a ]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"leafC" ~cost:9.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root:a in
  let rep = Acyclic_prune.prune g in
  Alcotest.(check int) "both cycle nodes removed" 2 rep.Acyclic_prune.removed_nodes;
  match rep.Acyclic_prune.egraph with
  | Some pruned ->
      Alcotest.(check bool) "acyclic now" false (Egraph.is_cyclic pruned);
      (* quality loss: the original optimum 9 survives here (leafA) *)
      let r = Acyclic_prune.extract ~time_limit:10.0 g in
      Test_util.check_close ~msg:"pruned extraction" 9.0 r.Extractor.cost;
      (match r.Extractor.solution with
      | Some s -> Alcotest.(check bool) "valid on original" true (Egraph.Solution.is_valid g s)
      | None -> Alcotest.fail "no lifted solution")
  | None -> Alcotest.fail "root lost"

let test_prune_can_lose_optimum () =
  (* the only cheap derivation goes through a cyclic class; pruning
     forces the expensive alternative — the §2 quality warning *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let x = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"cheap" ~cost:1.0 ~children:[ x ]);
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"dear" ~cost:50.0 ~children:[]);
  (* x's only member is self-referential: an identity-style node *)
  ignore (Egraph.Builder.add_node b ~cls:x ~op:"id_x" ~cost:0.0 ~children:[ x ]);
  let g = Egraph.Builder.freeze b ~root in
  let r = Acyclic_prune.extract ~time_limit:10.0 g in
  Test_util.check_close ~msg:"forced onto the expensive node" 50.0 r.Extractor.cost

let prune_solutions_valid_on_original =
  qtest ~count:40 "pruned extraction lifts to a valid original solution"
    (Test_util.arb_egraph ~max_classes:6 ~cycle_prob:0.4 ()) (fun g ->
      let r = Acyclic_prune.extract ~time_limit:10.0 g in
      match r.Extractor.solution with
      | Some s ->
          Egraph.Solution.is_valid g s
          && Test_util.float_close (Egraph.Solution.dag_cost g s) r.Extractor.cost
      | None -> true)

let prune_never_beats_full_ilp =
  qtest ~count:25 "pruning never beats the full ILP optimum"
    (Test_util.arb_egraph ~max_classes:5 ~cycle_prob:0.4 ()) (fun g ->
      let full = Ilp.extract ~time_limit:20.0 ~profile:Bnb.cplex_like g in
      let pruned = Acyclic_prune.extract ~time_limit:20.0 g in
      (not full.Extractor.proved_optimal)
      || pruned.Extractor.cost >= full.Extractor.cost -. 1e-9)

(* --------------------------------------------------------------- hybrid *)

let test_hybrid_fig1_proves_optimum () =
  let g = Fig1.egraph () in
  let o = Hybrid.extract g in
  Test_util.check_close ~msg:"optimal 19" Fig1.optimal_cost o.Hybrid.result.Extractor.cost;
  Alcotest.(check bool) "proved" true o.Hybrid.result.Extractor.proved_optimal;
  Alcotest.(check bool) "bound meets incumbent" true
    (o.Hybrid.bound >= Fig1.optimal_cost -. 1e-6);
  Alcotest.(check bool) "gap closed" true (o.Hybrid.gap = 0.0)

let hybrid_matches_brute_force =
  qtest ~count:20 "hybrid proves the true optimum on random e-graphs"
    (Test_util.arb_egraph ~max_classes:5 ()) (fun g ->
      let bf, _ = Test_util.brute_force_optimum g in
      let o = Hybrid.extract g in
      if Float.is_finite bf then
        o.Hybrid.result.Extractor.proved_optimal
        && Test_util.float_close bf o.Hybrid.result.Extractor.cost
      else o.Hybrid.result.Extractor.solution = None)

let hybrid_valid_on_cyclic =
  qtest ~count:15 "hybrid solutions valid (and proofs true) on cyclic e-graphs"
    (Test_util.arb_egraph ~max_classes:5 ~cycle_prob:0.4 ()) (fun g ->
      let bf, _ = Test_util.brute_force_optimum g in
      let o = Hybrid.extract g in
      match o.Hybrid.result.Extractor.solution with
      | Some s ->
          Egraph.Solution.is_valid g s
          && (not o.Hybrid.result.Extractor.proved_optimal
             || Test_util.float_close bf o.Hybrid.result.Extractor.cost)
      | None -> not (Float.is_finite bf))

let adversarial_marginals g =
  (* marginals concentrated on whatever greedy picked: on graphs where
     greedy is suboptimal this pushes the fixing rule to prune away the
     true optimum *)
  let s = Option.get (Greedy.extract g).Extractor.solution in
  let cp = Array.make (Egraph.num_nodes g) 0.01 in
  Array.iter (Option.iter (fun pick -> cp.(pick) <- 0.99)) s.Egraph.Solution.choice;
  (s, cp)

let test_hybrid_verify_recovers_from_bad_marginals () =
  (* the cross-class sharing graph: greedy pays 14, the optimum is 10.
     Marginals pointing hard at greedy's picks make the fixing rule drop
     the shared derivation; the verification solve must recover 10 and
     prove it anyway *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let a_cls = Egraph.Builder.add_class b in
  let b_cls = Egraph.Builder.add_class b in
  let s_cls = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"pair" ~cost:0.0 ~children:[ a_cls; b_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:s_cls ~op:"shared" ~cost:10.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_shared" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_private" ~cost:7.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_shared" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_private" ~cost:7.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  let incumbent, cp = adversarial_marginals g in
  let o = Hybrid.extract ~incumbent ~marginals:cp g in
  Alcotest.(check bool) "fixing engaged" true (o.Hybrid.fixed_classes > 0);
  Test_util.check_close ~msg:"verify recovers 10" 10.0 o.Hybrid.result.Extractor.cost;
  Alcotest.(check bool) "proof is sound" true o.Hybrid.result.Extractor.proved_optimal;
  Alcotest.(check bool) "ran pruned then verify" true
    (List.map (fun p -> p.Hybrid.phase_name) o.Hybrid.phases = [ "pruned"; "verify" ]);
  (* without the verification solve the same pruning must never claim a
     proof — the pruned bound holds only for the shrunken space *)
  let o2 =
    Hybrid.extract
      ~config:{ Hybrid.default_config with Hybrid.verify = false }
      ~incumbent ~marginals:cp g
  in
  Alcotest.(check bool) "no proof without verify" true
    (not o2.Hybrid.result.Extractor.proved_optimal)

let test_hybrid_rejects_invalid_incumbent () =
  let g = Fig1.egraph () in
  let bogus = { Egraph.Solution.choice = Array.make (Egraph.num_classes g) None } in
  let health = Health.create () in
  let o = Hybrid.extract ~health ~incumbent:bogus g in
  Alcotest.(check bool) "rejection recorded" true
    (Health.count health Health.Warm_start_rejected >= 1);
  Test_util.check_close ~msg:"greedy fallback still reaches 19" Fig1.optimal_cost
    o.Hybrid.result.Extractor.cost;
  Alcotest.(check bool) "proved" true o.Hybrid.result.Extractor.proved_optimal

let test_ilp_gap_note_finite () =
  (* with a node-limited weak profile the solve stops early; the "gap"
     stat must still be finite (regression: a -infinity DFS frontier
     bound used to make it infinite) *)
  let g = Fig1.egraph () in
  let warm = (Greedy_dag.extract g).Extractor.solution in
  let r =
    Ilp.extract ~time_limit:10.0 ~node_limit:1 ?warm_start:warm ~profile:Bnb.cbc_like g
  in
  match List.assoc_opt "gap" r.Extractor.notes with
  | None -> Alcotest.fail "no gap note"
  | Some s ->
      let gap = float_of_string s in
      Alcotest.(check bool) "gap finite" true (Float.is_finite gap);
      Alcotest.(check bool) "gap nonnegative" true (gap >= 0.0)

(* ------------------------------------------------------------ annealing *)

let test_annealing_fig1 () =
  let r = Annealing.extract (Rng.create 3) (Fig1.egraph ()) in
  Test_util.check_close ~msg:"finds 19" Fig1.optimal_cost r.Extractor.cost

let annealing_never_worse_than_greedy =
  qtest ~count:15 "annealing <= greedy (greedy seeds the walk)"
    (Test_util.arb_egraph ~max_classes:6 ()) (fun g ->
      let cfg = { Annealing.default_config with Annealing.steps = 500; time_limit = 5.0 } in
      let r = Annealing.extract ~config:cfg (Rng.create 5) g in
      r.Extractor.cost <= (Greedy.extract g).Extractor.cost +. 1e-9)

let annealing_valid_on_cyclic =
  qtest ~count:15 "annealing solutions valid on cyclic e-graphs" cyclic_egraph_gen (fun g ->
      let cfg = { Annealing.default_config with Annealing.steps = 300; time_limit = 5.0 } in
      match (Annealing.extract ~config:cfg (Rng.create 7) g).Extractor.solution with
      | Some s -> Egraph.Solution.is_valid g s
      | None -> true)

let test_annealing_nonlinear_model () =
  let g = Fig1.egraph () in
  let model = Cost_model.fusion_of_egraph (Rng.create 2) ~pairs:4 ~discount:0.5 g in
  let r = Annealing.extract ~model (Rng.create 11) g in
  match r.Extractor.solution with
  | Some s ->
      Test_util.check_close ~msg:"cost under model" (Cost_model.dense_solution model g s)
        r.Extractor.cost
  | None -> Alcotest.fail "no solution"

(* ---------------------------------------------------------- result type *)

let test_extractor_make_rejects_invalid () =
  let g = Fig1.egraph () in
  let bogus = { Egraph.Solution.choice = Array.make (Egraph.num_classes g) None } in
  let r = Extractor.make ~method_name:"x" ~time_s:0.0 g (Some bogus) in
  Alcotest.(check bool) "invalid dropped" true (r.Extractor.solution = None);
  Test_util.check_close ~msg:"cost infinite" infinity r.Extractor.cost

let () =
  Alcotest.run "extraction"
    [
      ( "greedy",
        [
          Alcotest.test_case "fig1 = 27" `Quick test_greedy_fig1;
          Alcotest.test_case "fig1 tree cost" `Quick test_greedy_minimises_tree_cost_fig1;
          greedy_always_valid;
          greedy_class_costs_are_fixpoint;
          greedy_matches_brute_force_on_trees;
        ] );
      ( "greedy_dag",
        [
          greedy_dag_never_worse_than_greedy;
          Alcotest.test_case "beats greedy on shared subexpr" `Quick
            test_greedy_dag_beats_greedy_on_sharing;
          Alcotest.test_case "cross-class sharing still defeats it" `Quick
            test_greedy_dag_limitation_cross_class;
          greedy_dag_always_valid;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "encoding shape" `Quick test_ilp_encoding_shape;
          Alcotest.test_case "fig1 optimal" `Quick test_ilp_fig1_optimal;
          ilp_matches_brute_force;
          ilp_matches_brute_force_cyclic;
          Alcotest.test_case "warm start round trip" `Quick test_ilp_warm_start_round_trip;
          Alcotest.test_case "gap note finite under node limit" `Quick test_ilp_gap_note_finite;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "fig1 proved" `Quick test_hybrid_fig1_proves_optimum;
          hybrid_matches_brute_force;
          hybrid_valid_on_cyclic;
          Alcotest.test_case "verify recovers from bad marginals" `Quick
            test_hybrid_verify_recovers_from_bad_marginals;
          Alcotest.test_case "invalid incumbent rejected" `Quick
            test_hybrid_rejects_invalid_incumbent;
        ] );
      ( "genetic",
        [
          Alcotest.test_case "fig1" `Quick test_genetic_fig1;
          genetic_always_valid;
          Alcotest.test_case "nan quarantine" `Quick test_genetic_nan_quarantine;
          genetic_no_worse_than_random_seeding;
        ] );
      ( "random_walk",
        [
          random_walk_valid;
          random_walk_valid_cyclic;
          Alcotest.test_case "diversity" `Quick test_random_walk_diversity;
          Alcotest.test_case "dense dataset shape" `Quick test_dense_dataset_shape;
        ] );
      ( "acyclic_prune",
        [
          Alcotest.test_case "no-op on DAGs" `Quick test_prune_noop_on_dag;
          Alcotest.test_case "removes cycle nodes" `Quick test_prune_removes_cycle_nodes;
          Alcotest.test_case "can lose the optimum" `Quick test_prune_can_lose_optimum;
          prune_solutions_valid_on_original;
          prune_never_beats_full_ilp;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "fig1" `Quick test_annealing_fig1;
          annealing_never_worse_than_greedy;
          annealing_valid_on_cyclic;
          Alcotest.test_case "non-linear model" `Quick test_annealing_nonlinear_model;
        ] );
      ( "result",
        [ Alcotest.test_case "invalid solutions rejected" `Quick test_extractor_make_rejects_invalid ] );
    ]
