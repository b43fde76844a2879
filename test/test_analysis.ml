(* Tests for lib/analysis: the diagnostic type, the e-graph lint (frozen
   and lenient text paths), the shape abstract interpreter over Ad.Ir,
   and the gradient-flow checks. *)

let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let has_code code ds = Diagnostic.by_code code ds <> []

(* ------------------------------------------------------- diagnostics *)

let test_diagnostic_render () =
  let e = Diagnostic.error ~code:"EG001" (Diagnostic.Enode 7) "child e-class %d is bad" 42 in
  Alcotest.(check string) "render"
    "error EG001 [node 7]: child e-class 42 is bad" (Diagnostic.render e);
  let w = Diagnostic.warning ~code:"EG006" (Diagnostic.Eclass 3) "meh" in
  let i = Diagnostic.info ~code:"EG009" Diagnostic.Graph "fyi" in
  (* sort: errors before warnings before infos, deterministically *)
  let sorted = Diagnostic.sort [ i; e; w ] in
  Alcotest.(check (list string)) "sorted severities"
    [ "error"; "warning"; "info" ]
    (List.map (fun d -> Diagnostic.severity_name d.Diagnostic.severity) sorted)

let test_diagnostic_gate () =
  let e = Diagnostic.error ~code:"X" Diagnostic.Graph "e" in
  let w = Diagnostic.warning ~code:"X" Diagnostic.Graph "w" in
  let i = Diagnostic.info ~code:"X" Diagnostic.Graph "i" in
  Alcotest.(check bool) "empty ok" true (Diagnostic.ok []);
  Alcotest.(check bool) "error fails" false (Diagnostic.ok [ i; e ]);
  Alcotest.(check bool) "warning passes by default" true (Diagnostic.ok [ w; i ]);
  Alcotest.(check bool) "warning fails strict" false (Diagnostic.ok ~strict:true [ w; i ]);
  Alcotest.(check bool) "infos never fail" true (Diagnostic.ok ~strict:true [ i; i ]);
  Alcotest.(check int) "counts" 1 (Diagnostic.errors [ i; e; w ]);
  Alcotest.(check bool) "max severity" true
    (Diagnostic.max_severity [ i; w ] = Some Diagnostic.Warning)

(* ------------------------------------------------- e-graph lint: qcheck *)

(* ground-truth agreement on random builder graphs: a well-formed
   acyclic e-graph lints with no errors and no warnings (info-level
   findings like duplicate e-nodes are allowed) *)
let lint_clean_on_acyclic =
  qtest ~count:150 "acyclic random graphs lint clean"
    (Test_util.arb_egraph ~max_classes:8 ())
    (fun g ->
      let ds = Egraph_lint.check g in
      Diagnostic.errors ds = 0 && Diagnostic.warnings ds = 0)

(* the cycle diagnostic fires exactly when Egraph.is_cyclic says so *)
let lint_cycle_iff_cyclic =
  qtest ~count:150 "EG007 iff is_cyclic"
    (Test_util.arb_egraph ~max_classes:8 ~cycle_prob:0.3 ())
    (fun g -> has_code "EG007" (Egraph_lint.check g) = Egraph.is_cyclic g)

(* pruning removes every cycle-participating e-node, so the pruned graph
   must carry no cycle or derivability findings at all *)
let lint_pruned_has_no_cycle_findings =
  qtest ~count:100 "Acyclic_prune output has no EG007/EG008"
    (Test_util.arb_egraph ~max_classes:8 ~cycle_prob:0.3 ())
    (fun g ->
      match (Acyclic_prune.prune g).Acyclic_prune.egraph with
      | None -> true (* pruning destroyed the root: nothing left to lint *)
      | Some g' ->
          let ds = Egraph_lint.check g' in
          (not (has_code "EG007" ds)) && (not (has_code "EG008" ds)) && Diagnostic.errors ds = 0)

(* --------------------------------------------- e-graph lint: sources *)

let test_lint_dangling_child () =
  let ds, g = Egraph_lint.check_source "root 0\nnode 0 1.0 f 1\n" in
  Alcotest.(check bool) "no graph" true (g = None);
  Alcotest.(check bool) "EG001 reported" true (has_code "EG001" ds);
  Alcotest.(check bool) "gate fails" false (Diagnostic.ok ds);
  (* anchored at the first referencing line *)
  Alcotest.(check bool) "line site" true
    (List.exists (fun d -> d.Diagnostic.site = Diagnostic.Line 2) (Diagnostic.by_code "EG001" ds))

let test_lint_root_defects () =
  let ds, g = Egraph_lint.check_source "node 0 1.0 leaf\n" in
  Alcotest.(check bool) "no graph without a root" true (g = None);
  Alcotest.(check bool) "missing root is EG003" true (has_code "EG003" ds);
  let ds2, _ = Egraph_lint.check_source "root 0\nroot 1\nnode 0 1.0 leaf\nnode 1 1.0 leaf\n" in
  Alcotest.(check bool) "duplicate root is EG003" true (has_code "EG003" ds2)

let test_lint_garbage () =
  let ds, g = Egraph_lint.check_source "root 0\nfrobnicate 3\nnode 0 xyz leaf\n" in
  Alcotest.(check bool) "no graph" true (g = None);
  Alcotest.(check int) "one EG010 per defect" 2 (List.length (Diagnostic.by_code "EG010" ds))

let test_lint_costs () =
  (* structurally fine, so the source freezes and the frozen checks run *)
  let ds, g = Egraph_lint.check_source "root 0\nnode 0 nan f 1\nnode 1 -2.5 leaf\n" in
  Alcotest.(check bool) "graph built" true (g <> None);
  Alcotest.(check bool) "nan cost is EG005 error" true (has_code "EG005" ds);
  Alcotest.(check bool) "negative cost is EG006 warning" true (has_code "EG006" ds);
  Alcotest.(check bool) "lenient gate passes warnings" false (Diagnostic.ok ds);
  let warn_only = List.filter (fun d -> d.Diagnostic.code = "EG006") ds in
  Alcotest.(check bool) "EG006 alone passes default, fails strict" true
    (Diagnostic.ok warn_only && not (Diagnostic.ok ~strict:true warn_only))

let test_lint_duplicates () =
  let src = "root 0\nnode 0 1.0 f 1\nnode 1 2.0 leaf\nnode 1 2.0 leaf\n" in
  let ds, g = Egraph_lint.check_source src in
  Alcotest.(check bool) "graph built" true (g <> None);
  Alcotest.(check bool) "duplicate members are EG009" true (has_code "EG009" ds);
  Alcotest.(check bool) "info-only report passes strict" true (Diagnostic.ok ~strict:true ds)

let test_lint_all_cyclic_root () =
  (* two classes depending on each other: every e-node lies on a cycle,
     so the root is not acyclically derivable — a fatal finding *)
  let ds, g = Egraph_lint.check_source "root 0\nnode 0 1.0 f 1\nnode 1 1.0 g 0\n" in
  Alcotest.(check bool) "graph built" true (g <> None);
  Alcotest.(check bool) "cycles noted" true (has_code "EG007" ds);
  let eg8 = Diagnostic.by_code "EG008" ds in
  Alcotest.(check bool) "root EG008 is an error" true
    (List.exists
       (fun d -> d.Diagnostic.severity = Diagnostic.Error && d.Diagnostic.site = Diagnostic.Eclass 0)
       eg8);
  Alcotest.(check bool) "gate fails even without strict" false (Diagnostic.ok ds)

let test_lint_cyclic_but_derivable () =
  (* a cycle off the spine: root -> 1, class 1 has an acyclic member and
     a cyclic one. Legal input — EG007 info only, gate passes. *)
  let src = "root 0\nnode 0 1.0 f 1\nnode 1 1.0 leaf\nnode 1 1.0 g 0\n" in
  let ds, g = Egraph_lint.check_source src in
  Alcotest.(check bool) "graph built" true (g <> None);
  Alcotest.(check bool) "cyclic" true (has_code "EG007" ds);
  Alcotest.(check int) "no errors" 0 (Diagnostic.errors ds);
  Alcotest.(check bool) "strict gate passes" true (Diagnostic.ok ~strict:true ds)

(* ------------------------------------------------------- shape check *)

let sh b w = { Op.batch = b; width = w }
let ir_node ?(context = "(toplevel)") op args shape = { Ad.Ir.op; args; shape; context }

let test_shape_mismatch_reported () =
  let ir =
    [|
      ir_node Op.Param [||] (sh 2 4);
      ir_node Op.Param [||] (sh 2 3);
      ir_node ~context:"smoothe.forward" Op.Mul [| 0; 1 |] (sh 2 4);
    |]
  in
  let ds = Shape_check.check ir in
  let sc1 = Diagnostic.by_code "SC001" ds in
  Alcotest.(check int) "one mismatch" 1 (List.length sc1);
  let d = List.hd sc1 in
  Alcotest.(check bool) "anchored to the op" true (d.Diagnostic.site = Diagnostic.Tape_node 2);
  Alcotest.(check bool) "names the op and shapes" true
    (contains d.Diagnostic.message "`mul` at node 2"
    && contains d.Diagnostic.message "(2,4) vs (2,3)");
  Alcotest.(check bool) "carries provenance" true
    (contains d.Diagnostic.message "built in smoothe.forward")

let test_shape_bad_operand_id () =
  let ir = [| ir_node Op.Sum_all [| 3 |] (sh 1 1) |] in
  Alcotest.(check bool) "forward reference is SC008" true
    (has_code "SC008" (Shape_check.check ir));
  let ir = [| ir_node Op.Param [||] (sh 2 4); ir_node Op.Add [| 0 |] (sh 2 4) |] in
  Alcotest.(check bool) "wrong operand count is SC008" true
    (has_code "SC008" (Shape_check.check ir))

let test_shape_gather_and_dot () =
  let ir =
    [|
      ir_node Op.Param [||] (sh 2 4);
      ir_node (Op.Gather [| 0; 5 |]) [| 0 |] (sh 2 2);
      ir_node (Op.Dot_const [| 1.0; 2.0; 3.0 |]) [| 0 |] (sh 2 1);
    |]
  in
  let ds = Shape_check.check ir in
  Alcotest.(check bool) "gather out of range is SC002" true (has_code "SC002" ds);
  Alcotest.(check bool) "coefficient count is SC004" true (has_code "SC004" ds)

let test_shape_recorded_vs_inferred () =
  (* the op is well-formed but the recorded output shape disagrees with
     what the abstract interpreter derives: a recording defect, SC007 *)
  let ir = [| ir_node Op.Param [||] (sh 2 4); ir_node Op.Sum_all [| 0 |] (sh 2 4) |] in
  let ds = Shape_check.check ir in
  Alcotest.(check bool) "SC007 warning" true (has_code "SC007" ds);
  Alcotest.(check int) "no errors" 0 (Diagnostic.errors ds)

let forward_ir g =
  let config = { Smoothe_config.default with Smoothe_config.batch = 2 } in
  let compiled = Relaxation.compile config g in
  let theta = Tensor.create ~batch:2 ~width:(Egraph.num_nodes g) in
  let fwd = Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta in
  (Ad.ir fwd.Relaxation.tape, Ad.node_id fwd.Relaxation.loss)

(* every real forward tape must satisfy its own shape abstraction *)
let shape_check_real_tapes =
  qtest ~count:40 "real forward tapes shape-check clean"
    (Test_util.arb_egraph ~max_classes:6 ~cycle_prob:0.2 ())
    (fun g ->
      let ir, _ = forward_ir g in
      let ds = Shape_check.check ir in
      Diagnostic.errors ds = 0 && Diagnostic.warnings ds = 0)

(* ------------------------------------------------------ gradient flow *)

let test_grad_flow_detached_param () =
  let tp = Ad.tape () in
  let theta = Ad.param tp (Tensor.full ~batch:1 ~width:4 0.5) in
  let detached = Ad.param tp (Tensor.full ~batch:1 ~width:4 1.0) in
  let loss = Ad.sum_all (Ad.mul theta theta) in
  let ds = Grad_flow.check ~root:(Ad.node_id loss) (Ad.ir tp) in
  let gf1 = Diagnostic.by_code "GF001" ds in
  Alcotest.(check int) "one detached parameter" 1 (List.length gf1);
  let d = List.hd gf1 in
  Alcotest.(check bool) "anchored at the detached leaf" true
    (d.Diagnostic.site = Diagnostic.Tape_node (Ad.node_id detached));
  Alcotest.(check bool) "explains the failure mode" true
    (contains d.Diagnostic.message "detached");
  Alcotest.(check bool) "gate fails" false (Diagnostic.ok ds)

let test_grad_flow_const_only_loss () =
  let tp = Ad.tape () in
  let c = Ad.const tp (Tensor.full ~batch:1 ~width:4 2.0) in
  let loss = Ad.sum_all c in
  let ds = Grad_flow.check ~root:(Ad.node_id loss) (Ad.ir tp) in
  Alcotest.(check bool) "GF002: loss sees no parameter" true (has_code "GF002" ds)

let test_grad_flow_domain_boundary () =
  (* log_safe of an unconstrained parameter: the interval admits <= 0 *)
  let tp = Ad.tape () in
  let theta = Ad.param tp (Tensor.full ~batch:1 ~width:4 0.5) in
  let loss = Ad.sum_all (Ad.log_safe theta) in
  let ds = Grad_flow.check ~root:(Ad.node_id loss) (Ad.ir tp) in
  Alcotest.(check bool) "GF004 fires" true (has_code "GF004" ds);
  (* relu clamps the interval to [0, inf) but 0 is still in range *)
  let tp2 = Ad.tape () in
  let x = Ad.param tp2 (Tensor.full ~batch:1 ~width:4 0.5) in
  let loss2 = Ad.sum_all (Ad.log_safe (Ad.add_scalar 1.0 (Ad.relu x))) in
  let ds2 = Grad_flow.check ~root:(Ad.node_id loss2) (Ad.ir tp2) in
  Alcotest.(check bool) "shifted relu is provably positive" false (has_code "GF004" ds2)

(* real tapes: θ always reaches the loss, nothing is detached *)
let grad_flow_real_tapes =
  qtest ~count:40 "real forward tapes grad-flow clean"
    (Test_util.arb_egraph ~max_classes:6 ~cycle_prob:0.2 ())
    (fun g ->
      let ir, loss = forward_ir g in
      let ds = Grad_flow.check ~root:loss ir in
      Diagnostic.errors ds = 0 && Diagnostic.warnings ds = 0)

let test_forward_has_provenance () =
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let ir, _ = forward_ir g in
  Alcotest.(check bool) "tape records smoothe.forward context" true
    (Array.exists (fun nd -> nd.Ad.Ir.context = "smoothe.forward") ir)

(* ------------------------------------------------------------ suite *)

let () =
  Alcotest.run "analysis"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "render and sort" `Quick test_diagnostic_render;
          Alcotest.test_case "gate semantics" `Quick test_diagnostic_gate;
        ] );
      ( "egraph-lint",
        [
          lint_clean_on_acyclic;
          lint_cycle_iff_cyclic;
          lint_pruned_has_no_cycle_findings;
          Alcotest.test_case "dangling child" `Quick test_lint_dangling_child;
          Alcotest.test_case "root defects" `Quick test_lint_root_defects;
          Alcotest.test_case "garbage input" `Quick test_lint_garbage;
          Alcotest.test_case "cost defects" `Quick test_lint_costs;
          Alcotest.test_case "duplicate members" `Quick test_lint_duplicates;
          Alcotest.test_case "all-cyclic root is fatal" `Quick test_lint_all_cyclic_root;
          Alcotest.test_case "derivable cyclic graph passes" `Quick test_lint_cyclic_but_derivable;
        ] );
      ( "shape-check",
        [
          Alcotest.test_case "mismatched mul with provenance" `Quick test_shape_mismatch_reported;
          Alcotest.test_case "bad operand id" `Quick test_shape_bad_operand_id;
          Alcotest.test_case "gather and dot_const metadata" `Quick test_shape_gather_and_dot;
          Alcotest.test_case "recorded vs inferred" `Quick test_shape_recorded_vs_inferred;
          shape_check_real_tapes;
        ] );
      ( "grad-flow",
        [
          Alcotest.test_case "detached parameter" `Quick test_grad_flow_detached_param;
          Alcotest.test_case "const-only loss" `Quick test_grad_flow_const_only_loss;
          Alcotest.test_case "domain boundary intervals" `Quick test_grad_flow_domain_boundary;
          grad_flow_real_tapes;
          Alcotest.test_case "forward provenance label" `Quick test_forward_has_provenance;
        ] );
    ]
