(* Tests for the e-graph representation: builder/freeze invariants,
   solution semantics, costs, stats and serialization. *)

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fig1 () = Fig1.egraph ()

(* --------------------------------------------------------- builder/freeze *)

let test_freeze_layout () =
  let g = fig1 () in
  (* class-major: node_class must be non-decreasing *)
  let sorted = ref true in
  for i = 1 to Egraph.num_nodes g - 1 do
    if g.Egraph.node_class.(i) < g.Egraph.node_class.(i - 1) then sorted := false
  done;
  Alcotest.(check bool) "class-major node order" true !sorted;
  (* class_seg covers all nodes with class sizes *)
  Alcotest.(check int) "segments cover nodes" (Egraph.num_nodes g)
    g.Egraph.class_seg.Segments.width;
  Array.iteri
    (fun c members ->
      Alcotest.(check int) "segment length = class size" (Array.length members)
        (Segments.seg_len g.Egraph.class_seg c))
    g.Egraph.class_nodes

let test_freeze_strips_unreachable () =
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let used = Egraph.Builder.add_class b in
  let orphan = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"r" ~cost:1.0 ~children:[ used ]);
  ignore (Egraph.Builder.add_node b ~cls:used ~op:"u" ~cost:1.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:orphan ~op:"o" ~cost:1.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  Alcotest.(check int) "orphan stripped" 2 (Egraph.num_classes g);
  Alcotest.(check int) "orphan node stripped" 2 (Egraph.num_nodes g)

let test_freeze_rejects_empty_reachable () =
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let empty = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"r" ~cost:1.0 ~children:[ empty ]);
  Alcotest.check_raises "empty reachable class"
    (Invalid_argument "Builder.freeze: reachable class 1 is empty") (fun () ->
      ignore (Egraph.Builder.freeze b ~root))

let test_freeze_rejects_dangling () =
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  Alcotest.check_raises "dangling class"
    (Invalid_argument "Builder.add_node: class 7 not allocated") (fun () ->
      ignore (Egraph.Builder.add_node b ~cls:7 ~op:"r" ~cost:1.0 ~children:[]));
  ignore root

let parent_lists_consistent =
  qtest "parent edge lists match children" (Test_util.arb_egraph ~cycle_prob:0.3 ())
    (fun g ->
      let m = Egraph.num_classes g in
      let expected = Array.make m [] in
      Array.iteri
        (fun i ch ->
          let seen = Hashtbl.create 4 in
          Array.iter
            (fun c ->
              if not (Hashtbl.mem seen c) then begin
                Hashtbl.add seen c ();
                expected.(c) <- i :: expected.(c)
              end)
            ch)
        g.Egraph.children;
      let ok = ref true in
      for c = 0 to m - 1 do
        let seg = g.Egraph.parent_seg in
        let start = seg.Segments.starts.(c) and len = seg.Segments.lens.(c) in
        let actual = List.init len (fun k -> g.Egraph.parent_edge_node.(start + k)) in
        if List.sort compare actual <> List.sort compare expected.(c) then ok := false
      done;
      !ok)

let scc_matches_class_graph =
  qtest "scc_of_class consistent with class_children"
    (Test_util.arb_egraph ~cycle_prob:0.4 ()) (fun g ->
      let comp, _ = Graph_algo.scc_ids g.Egraph.class_children in
      comp = g.Egraph.scc_of_class)

(* -------------------------------------------------------------- solutions *)

let node_named g op =
  let found = ref (-1) in
  Array.iteri (fun i o -> if o = op then found := i) g.Egraph.ops;
  if !found < 0 then Alcotest.failf "no node with op %s" op;
  !found

let test_fig1_heuristic_solution_cost () =
  let g = fig1 () in
  (* Figure 2b: the sec²α + tan α selection costing 27 *)
  let names = [ "+"; "sq"; "sec"; "tan"; "alpha" ] in
  let pairs =
    List.filter_map
      (fun op ->
        (* pick the node whose op matches AND whose class hosts it; "sq"
           appears twice (sq of sec, sq of tan) — take the one whose
           child is the sec class *)
        if op = "sq" then begin
          let sec = node_named g "sec" in
          let sec_class = g.Egraph.node_class.(sec) in
          let found = ref None in
          Array.iteri
            (fun i o ->
              if o = "sq" && Array.exists (fun c -> c = sec_class) g.Egraph.children.(i) then
                found := Some (g.Egraph.node_class.(i), i))
            g.Egraph.ops;
          !found
        end
        else begin
          (* the root "+" is the one with two children classes of sq & tan *)
          let candidates = ref [] in
          Array.iteri (fun i o -> if o = op then candidates := i :: !candidates) g.Egraph.ops;
          match !candidates with
          | [] -> None
          | [ i ] -> Some (g.Egraph.node_class.(i), i)
          | several ->
              (* op "+": pick the root-class one *)
              let root_member =
                List.find_opt (fun i -> g.Egraph.node_class.(i) = g.Egraph.root) several
              in
              Option.map (fun i -> (g.Egraph.node_class.(i), i)) root_member
        end)
      names
  in
  let s = Egraph.Solution.of_choices g pairs in
  Test_util.check_close ~msg:"figure 2b cost" Fig1.heuristic_cost (Egraph.Solution.dag_cost g s)

let test_fig1_optimal_by_brute_force () =
  let g = fig1 () in
  let cost, sol = Test_util.brute_force_optimum g in
  Test_util.check_close ~msg:"brute-force optimum" Fig1.optimal_cost cost;
  match sol with
  | None -> Alcotest.fail "no optimal solution"
  | Some s ->
      Alcotest.(check bool) "valid" true (Egraph.Solution.is_valid g s);
      Alcotest.(check bool) "tree cost larger (shared tan)" true
        (Egraph.Solution.tree_cost g s > Egraph.Solution.dag_cost g s)

let test_solution_validity_cases () =
  let g = fig1 () in
  let empty = { Egraph.Solution.choice = Array.make (Egraph.num_classes g) None } in
  Alcotest.(check bool) "no root" true
    (Egraph.Solution.validate g empty = Egraph.Solution.No_root);
  let root_node = g.Egraph.class_nodes.(g.Egraph.root).(0) in
  let partial = { Egraph.Solution.choice = Array.make (Egraph.num_classes g) None } in
  partial.Egraph.Solution.choice.(g.Egraph.root) <- Some root_node;
  (match Egraph.Solution.validate g partial with
  | Egraph.Solution.Incomplete c ->
      Alcotest.(check bool) "payload is a child class of the root's node" true
        (Array.mem c g.Egraph.children.(root_node));
      Alcotest.(check bool) "payload has no choice" true
        (partial.Egraph.Solution.choice.(c) = None)
  | _ -> Alcotest.fail "expected Incomplete");
  Test_util.check_close ~msg:"invalid cost infinite" infinity
    (Egraph.Solution.dag_cost g partial)

let test_cyclic_selection_detected () =
  let b = Egraph.Builder.create () in
  let a = Egraph.Builder.add_class b in
  let c = Egraph.Builder.add_class b in
  let na1 = Egraph.Builder.add_node b ~cls:a ~op:"fwd" ~cost:1.0 ~children:[ c ] in
  let nc1 = Egraph.Builder.add_node b ~cls:c ~op:"back" ~cost:1.0 ~children:[ a ] in
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"leaf" ~cost:5.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root:a in
  ignore na1;
  ignore nc1;
  let fwd = node_named g "fwd" and back = node_named g "back" and leaf = node_named g "leaf" in
  let cyclic =
    Egraph.Solution.of_choices g
      [ (g.Egraph.node_class.(fwd), fwd); (g.Egraph.node_class.(back), back) ]
  in
  Alcotest.(check bool) "cycle detected" true
    (Egraph.Solution.validate g cyclic = Egraph.Solution.Cyclic);
  Alcotest.(check bool) "egraph is cyclic" true (Egraph.is_cyclic g);
  let ok =
    Egraph.Solution.of_choices g
      [ (g.Egraph.node_class.(fwd), fwd); (g.Egraph.node_class.(leaf), leaf) ]
  in
  Alcotest.(check bool) "acyclic choice valid" true (Egraph.Solution.is_valid g ok);
  Test_util.check_close ~msg:"cost" 6.0 (Egraph.Solution.dag_cost g ok)

let random_pick g seed =
  let rng = Rng.create seed in
  Array.map (fun members -> members.(Rng.int rng (Array.length members))) g.Egraph.class_nodes

let decode_closure_is_valid_on_dags =
  qtest "of_node_choice decodes to valid solutions on DAGs"
    QCheck2.Gen.(pair (Test_util.arb_egraph ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      Egraph.Solution.is_valid g (Egraph.Solution.of_node_choice g (random_pick g seed)))

let dag_cost_le_tree_cost =
  qtest "dag cost <= tree cost"
    QCheck2.Gen.(pair (Test_util.arb_egraph ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let s = Egraph.Solution.of_node_choice g (random_pick g seed) in
      Egraph.Solution.dag_cost g s <= Egraph.Solution.tree_cost g s +. 1e-9)

let dense_matches_selected =
  qtest "to_dense marks exactly the selected nodes"
    QCheck2.Gen.(pair (Test_util.arb_egraph ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let s = Egraph.Solution.of_node_choice g (random_pick g seed) in
      let dense = Egraph.Solution.to_dense g s in
      let selected = Egraph.Solution.selected_nodes g s in
      let count = Array.fold_left (fun acc x -> acc + int_of_float x) 0 dense in
      count = List.length selected
      && List.for_all (fun n -> dense.(n) = 1.0) selected
      && Egraph.Solution.size g s = count)

let dag_cost_equals_sum_of_selected =
  qtest "dag cost = sum of selected node costs"
    QCheck2.Gen.(pair (Test_util.arb_egraph ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let s = Egraph.Solution.of_node_choice g (random_pick g seed) in
      let expected =
        List.fold_left (fun acc n -> acc +. g.Egraph.costs.(n)) 0.0
          (Egraph.Solution.selected_nodes g s)
      in
      Test_util.float_close expected (Egraph.Solution.dag_cost g s))

(* ------------------------------------------------------------------ misc *)

let test_set_costs () =
  let g = fig1 () in
  let costs = Array.make (Egraph.num_nodes g) 1.0 in
  let g2 = Egraph.set_costs g costs in
  Test_util.check_close ~msg:"new cost" 1.0 (Egraph.node_cost g2 0);
  Alcotest.(check bool) "original untouched" true
    (Array.exists (fun c -> c > 1.0) g.Egraph.costs);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Egraph.set_costs: length mismatch") (fun () ->
      ignore (Egraph.set_costs g [| 1.0 |]))

let test_stats () =
  let g = fig1 () in
  let st = Egraph.Stats.compute g in
  Alcotest.(check int) "nodes" 10 st.Egraph.Stats.nodes;
  Alcotest.(check int) "classes" 8 st.Egraph.Stats.classes;
  Alcotest.(check int) "max class" 2 st.Egraph.Stats.max_class_size;
  Alcotest.(check bool) "acyclic" false st.Egraph.Stats.cyclic;
  Test_util.check_close ~msg:"density" (10.0 /. 80.0) st.Egraph.Stats.density

let serial_roundtrip =
  qtest ~count:80 "serialization roundtrip preserves structure and optimum"
    (Test_util.arb_egraph ~max_classes:5 ()) (fun g ->
      let g2 = Egraph.Serial.of_string (Egraph.Serial.to_string g) in
      let s1 = Egraph.Stats.compute g and s2 = Egraph.Stats.compute g2 in
      let opt1, _ = Test_util.brute_force_optimum g in
      let opt2, _ = Test_util.brute_force_optimum g2 in
      s1 = s2 && Test_util.float_close opt1 opt2)

let test_serial_file () =
  let g = fig1 () in
  let path = Filename.temp_file "egraph" ".txt" in
  Egraph.Serial.write_file path g;
  let g2 = Egraph.Serial.read_file path in
  Sys.remove path;
  Alcotest.(check int) "nodes preserved" (Egraph.num_nodes g) (Egraph.num_nodes g2);
  let c1, _ = Test_util.brute_force_optimum g in
  let c2, _ = Test_util.brute_force_optimum g2 in
  Test_util.check_close ~msg:"optimum preserved" c1 c2

let test_serial_malformed () =
  (match Egraph.Serial.of_string "egraph x\nroot 0\nnode 0 1.0 leaf" with
  | exception Failure _ -> Alcotest.fail "valid input rejected"
  | _ -> ());
  match Egraph.Serial.of_string "garbage line" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "garbage accepted"

let serial_error msg_fragment text =
  match Egraph.Serial.of_string text with
  | exception Failure msg ->
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %S (got %S)" msg_fragment msg)
        true (has_sub msg msg_fragment)
  | _ -> Alcotest.fail (Printf.sprintf "accepted input that should mention %S" msg_fragment)

let test_serial_error_reporting () =
  (* errors carry the offending line number and a specific cause *)
  serial_error "line 2" "egraph x\nnode 0 notafloat leaf\nroot 0";
  serial_error "bad cost" "egraph x\nnode 0 notafloat leaf\nroot 0";
  serial_error "line 3" "egraph x\nroot 0\nnode zero 1.0 leaf";
  (* duplicate roots report both declarations *)
  serial_error "line 4" "egraph x\nroot 0\nnode 0 1.0 leaf\nroot 0";
  serial_error "declared on line 2" "egraph x\nroot 0\nnode 0 1.0 leaf\nroot 1";
  (* a class used as a child but never given an e-node, at its use site *)
  serial_error "referenced as a child but has no e-nodes"
    "egraph x\nroot 0\nnode 0 1.0 op 1";
  serial_error "line 3" "egraph x\nroot 0\nnode 0 1.0 op 1";
  (* an empty root class, at its declaration *)
  serial_error "root class 1 has no e-nodes" "egraph x\nroot 1\nnode 0 1.0 leaf";
  serial_error "missing root declaration" "egraph x\nnode 0 1.0 leaf"

(* ------------------------------------------------------------------- gym *)

let gym_sample =
  {|{
    "nodes": {
      "plus": { "op": "+", "cost": 2, "eclass": "root", "children": ["sq", "tan"] },
      "sq":   { "op": "sq", "cost": 5, "eclass": "c_sq", "children": ["sec"] },
      "sec":  { "op": "sec", "cost": 10, "eclass": "c_sec", "children": ["alpha"] },
      "tan":  { "op": "tan", "cost": 10, "eclass": "c_tan", "children": ["alpha"] },
      "alpha": { "op": "a", "eclass": "c_a", "children": [] }
    },
    "root_eclasses": ["root"]
  }|}

let test_gym_import () =
  let g = Gym.of_json_string gym_sample in
  Alcotest.(check int) "nodes" 5 (Egraph.num_nodes g);
  Alcotest.(check int) "classes" 5 (Egraph.num_classes g);
  (* default cost 1 for alpha; total greedy = 2+5+10+10+1 = 28 *)
  Test_util.check_close ~msg:"greedy cost" 28.0 (Greedy.extract g).Extractor.cost

let test_gym_multi_root () =
  let doc =
    {|{ "nodes": {
         "a": { "op": "a", "cost": 1, "eclass": "ca", "children": [] },
         "b": { "op": "b", "cost": 2, "eclass": "cb", "children": [] } },
       "root_eclasses": ["ca", "cb"] }|}
  in
  let g = Gym.of_json_string doc in
  (* synthetic bundle root over both classes *)
  Alcotest.(check int) "classes" 3 (Egraph.num_classes g);
  Test_util.check_close ~msg:"cost" 3.0 (Greedy.extract g).Extractor.cost

let test_gym_dangling_child () =
  let doc =
    {|{ "nodes": { "a": { "op": "a", "eclass": "ca", "children": ["ghost"] } },
       "root_eclasses": ["ca"] }|}
  in
  match Gym.of_json_string doc with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "dangling child accepted"

let gym_roundtrip =
  qtest ~count:60 "gym export/import preserves structure and optimum"
    (Test_util.arb_egraph ~max_classes:5 ()) (fun g ->
      let g2 = Gym.of_json_string (Gym.to_json_string g) in
      let c1, _ = Test_util.brute_force_optimum g in
      let c2, _ = Test_util.brute_force_optimum g2 in
      Egraph.num_nodes g = Egraph.num_nodes g2
      && Egraph.num_classes g = Egraph.num_classes g2
      && Test_util.float_close c1 c2)

let test_gym_file_io () =
  let g = Fig1.egraph () in
  let path = Filename.temp_file "egraph" ".json" in
  Gym.write_file path g;
  let g2 = Gym.read_file path in
  Sys.remove path;
  let c1, _ = Test_util.brute_force_optimum g in
  let c2, _ = Test_util.brute_force_optimum g2 in
  Test_util.check_close ~msg:"optimum preserved" c1 c2

(* ------------------------------------------------------------------- dot *)

let test_dot_render () =
  let g = fig1 () in
  let plain = Dot.to_dot g in
  Alcotest.(check bool) "digraph" true (String.length plain > 0 && String.sub plain 0 7 = "digraph");
  (* one cluster per class, one node statement per e-node *)
  let count_occurrences needle hay =
    let n = String.length needle in
    let rec loop i acc =
      if i + n > String.length hay then acc
      else if String.sub hay i n = needle then loop (i + n) (acc + 1)
      else loop (i + 1) acc
    in
    loop 0 0
  in
  Alcotest.(check int) "clusters" (Egraph.num_classes g) (count_occurrences "subgraph cluster_" plain);
  let s = Option.get (Greedy.extract g).Extractor.solution in
  let coloured = Dot.to_dot ~solution:s g in
  Alcotest.(check int) "selected nodes filled"
    (List.length (Egraph.Solution.selected_nodes g s))
    (count_occurrences "fillcolor=lightblue" coloured)

let () =
  Alcotest.run "egraph"
    [
      ( "builder",
        [
          Alcotest.test_case "class-major layout" `Quick test_freeze_layout;
          Alcotest.test_case "strips unreachable" `Quick test_freeze_strips_unreachable;
          Alcotest.test_case "rejects empty reachable class" `Quick
            test_freeze_rejects_empty_reachable;
          Alcotest.test_case "rejects dangling refs" `Quick test_freeze_rejects_dangling;
          parent_lists_consistent;
          scc_matches_class_graph;
        ] );
      ( "solutions",
        [
          Alcotest.test_case "fig1 heuristic selection costs 27" `Quick
            test_fig1_heuristic_solution_cost;
          Alcotest.test_case "fig1 brute-force optimum is 19" `Quick
            test_fig1_optimal_by_brute_force;
          Alcotest.test_case "validity cases" `Quick test_solution_validity_cases;
          Alcotest.test_case "cyclic selection detected" `Quick test_cyclic_selection_detected;
          decode_closure_is_valid_on_dags;
          dag_cost_le_tree_cost;
          dense_matches_selected;
          dag_cost_equals_sum_of_selected;
        ] );
      ( "misc",
        [
          Alcotest.test_case "set_costs" `Quick test_set_costs;
          Alcotest.test_case "stats" `Quick test_stats;
          serial_roundtrip;
          Alcotest.test_case "serial file io" `Quick test_serial_file;
          Alcotest.test_case "serial malformed" `Quick test_serial_malformed;
          Alcotest.test_case "serial error reporting" `Quick test_serial_error_reporting;
        ] );
      ( "gym",
        [
          Alcotest.test_case "import" `Quick test_gym_import;
          Alcotest.test_case "multi-root bundle" `Quick test_gym_multi_root;
          Alcotest.test_case "dangling child" `Quick test_gym_dangling_child;
          gym_roundtrip;
          Alcotest.test_case "file io" `Quick test_gym_file_io;
        ] );
      ("dot", [ Alcotest.test_case "render" `Quick test_dot_render ]);
    ]
