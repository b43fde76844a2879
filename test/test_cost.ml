(* Tests for the cost models: linear, MLP and the hybrid of §5.5. *)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* --------------------------------------------------------------- linear *)

let test_linear_dense () =
  let m = Cost_model.linear [| 1.0; 2.0; 3.0 |] in
  Test_util.check_close ~msg:"dot" 8.0 (Cost_model.dense m [| 0.0; 1.0; 2.0 |]);
  Alcotest.(check bool) "is_linear" true (Cost_model.is_linear m);
  Alcotest.(check int) "dim" 3 (Cost_model.dim m);
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Cost_model.dense: dimension mismatch")
    (fun () -> ignore (Cost_model.dense m [| 1.0 |]))

let test_linear_of_egraph_matches_dag_cost () =
  let g = Fig1.egraph () in
  let m = Cost_model.of_egraph g in
  let s = Option.get (Greedy.extract g).Extractor.solution in
  Test_util.check_close ~msg:"model = dag cost" (Egraph.Solution.dag_cost g s)
    (Cost_model.dense_solution m g s)

let linear_relaxed_matches_dense =
  qtest "relaxed linear cost equals dense evaluation per seed"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let u = Array.init n (fun _ -> Rng.float rng 4.0 -. 2.0) in
      let m = Cost_model.linear u in
      let p = Tensor.init ~batch:3 ~width:n (fun _ _ -> Rng.float rng 1.0) in
      let tape = Ad.tape () in
      let out = Cost_model.relaxed m tape (Ad.const tape p) in
      let v = Ad.value out in
      let ok = ref true in
      for b = 0 to 2 do
        if not (Test_util.float_close (Cost_model.dense m (Tensor.row p b)) (Tensor.get v b 0))
        then ok := false
      done;
      !ok)

let test_invalid_solution_infinite () =
  let g = Fig1.egraph () in
  let m = Cost_model.of_egraph g in
  let bogus = { Egraph.Solution.choice = Array.make (Egraph.num_classes g) None } in
  Test_util.check_close ~msg:"invalid = inf" infinity (Cost_model.dense_solution m g bogus)

(* ------------------------------------------------------------------ MLP *)

let test_mlp_shapes () =
  let rng = Rng.create 3 in
  let mlp = Mlp.create rng ~input_dim:10 in
  Alcotest.(check int) "input_dim" 10 (Mlp.input_dim mlp);
  Alcotest.(check int) "param tensors: 4 layers x (w, b)" 8 (List.length (Mlp.parameters mlp));
  let x = Array.init 10 (fun i -> float_of_int i /. 10.0) in
  let y = Mlp.predict mlp x in
  Alcotest.(check bool) "finite prediction" true (Float.is_finite y)

let test_mlp_batch_matches_single () =
  let rng = Rng.create 5 in
  let mlp = Mlp.create rng ~input_dim:6 in
  let rows = Array.init 4 (fun r -> Array.init 6 (fun i -> float_of_int ((r * 6) + i) /. 24.0)) in
  let batch = Tensor.create ~batch:4 ~width:6 in
  Array.iteri (fun r row -> Tensor.blit_row ~src:row batch r) rows;
  let preds = Mlp.predict_batch mlp batch in
  Array.iteri
    (fun r row -> Test_util.check_close ~msg:"batch vs single" (Mlp.predict mlp row) preds.(r))
    rows

let test_mlp_forward_matches_predict () =
  let rng = Rng.create 7 in
  let mlp = Mlp.create rng ~input_dim:5 in
  let x = [| 0.1; 0.9; 0.0; 1.0; 0.5 |] in
  let tape = Ad.tape () in
  let out = Mlp.forward tape mlp (Ad.const tape (Tensor.of_row x)) in
  Test_util.check_close ~msg:"tape forward = predict" (Mlp.predict mlp x)
    (Tensor.get (Ad.value out) 0 0)

let test_mlp_training_reduces_loss () =
  (* regression on random valid solutions with random negative savings,
     exactly the §5.5 setup on the fig1 e-graph *)
  let g = Fig1.egraph () in
  let rng = Rng.create 17 in
  let inputs = Random_walk.dense_dataset rng g ~count:40 in
  let targets = Array.init (Array.length inputs) (fun _ -> -.Rng.float rng 5.0) in
  let mlp = Mlp.create rng ~input_dim:(Egraph.num_nodes g) in
  let report = Mlp.train ~epochs:40 ~lr:3e-3 rng mlp ~inputs ~targets in
  Alcotest.(check bool)
    (Printf.sprintf "loss fell: %.4f -> %.4f" report.Mlp.initial_loss report.Mlp.final_loss)
    true
    (report.Mlp.final_loss < report.Mlp.initial_loss *. 0.8)

let test_mlp_trained_model_orders_examples () =
  (* after fitting, the model should at least separate the two extremes
     of a tiny synthetic dataset *)
  let rng = Rng.create 23 in
  let dim = 8 in
  let lo = Array.make dim 0.0 and hi = Array.make dim 1.0 in
  let inputs = Array.init 30 (fun i -> if i mod 2 = 0 then Array.copy lo else Array.copy hi) in
  let targets = Array.init 30 (fun i -> if i mod 2 = 0 then -1.0 else -5.0) in
  let mlp = Mlp.create rng ~input_dim:dim in
  ignore (Mlp.train ~epochs:120 ~lr:5e-3 rng mlp ~inputs ~targets);
  Alcotest.(check bool) "orders extremes" true (Mlp.predict mlp hi < Mlp.predict mlp lo)

(* ------------------------------------------------------------- corrected *)

let test_mlp_corrected_dense () =
  let rng = Rng.create 31 in
  let u = [| 1.0; 2.0; 3.0; 4.0 |] in
  let mlp = Mlp.create rng ~input_dim:4 in
  let m = Cost_model.mlp_corrected ~linear:u mlp in
  Alcotest.(check bool) "not linear" false (Cost_model.is_linear m);
  let x = [| 1.0; 0.0; 1.0; 0.0 |] in
  Test_util.check_close ~msg:"linear + correction" (4.0 +. Mlp.predict mlp x)
    (Cost_model.dense m x)

let mlp_corrected_relaxed_matches_dense =
  qtest ~count:20 "relaxed MLP-corrected cost equals dense evaluation"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 5 in
      let u = Array.init n (fun _ -> Rng.float rng 2.0) in
      let mlp = Mlp.create rng ~input_dim:n in
      let m = Cost_model.mlp_corrected ~linear:u mlp in
      let p = Tensor.init ~batch:2 ~width:n (fun _ _ -> Rng.float rng 1.0) in
      let tape = Ad.tape () in
      let out = Cost_model.relaxed m tape (Ad.const tape p) in
      let v = Ad.value out in
      let ok = ref true in
      for b = 0 to 1 do
        if not (Test_util.float_close ~tol:1e-5 (Cost_model.dense m (Tensor.row p b)) (Tensor.get v b 0))
        then ok := false
      done;
      !ok)

let test_pairwise_dense () =
  let u = [| 5.0; 5.0; 3.0 |] in
  (* fusing nodes 0 and 1 saves 4 when both are selected *)
  let m = Cost_model.pairwise ~linear:u [ (0, 1, -4.0) ] in
  Alcotest.(check bool) "not linear" false (Cost_model.is_linear m);
  Test_util.check_close ~msg:"both selected" 6.0 (Cost_model.dense m [| 1.0; 1.0; 0.0 |]);
  Test_util.check_close ~msg:"one selected" 5.0 (Cost_model.dense m [| 1.0; 0.0; 0.0 |]);
  Test_util.check_close ~msg:"neither" 3.0 (Cost_model.dense m [| 0.0; 0.0; 1.0 |]);
  Alcotest.check_raises "bad index" (Invalid_argument "Cost_model.pairwise: index out of range")
    (fun () -> ignore (Cost_model.pairwise ~linear:u [ (0, 9, 1.0) ]))

let pairwise_relaxed_matches_dense =
  qtest "relaxed pairwise cost equals dense evaluation"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 6 in
      let u = Array.init n (fun _ -> Rng.float rng 4.0) in
      let terms =
        List.init 4 (fun _ -> Rng.int rng n, Rng.int rng n, Rng.float rng 2.0 -. 1.0)
      in
      let m = Cost_model.pairwise ~linear:u terms in
      let p = Tensor.init ~batch:2 ~width:n (fun _ _ -> Rng.float rng 1.0) in
      let tape = Ad.tape () in
      let out = Cost_model.relaxed m tape (Ad.const tape p) in
      let v = Ad.value out in
      let ok = ref true in
      for b = 0 to 1 do
        if not (Test_util.float_close (Cost_model.dense m (Tensor.row p b)) (Tensor.get v b 0))
        then ok := false
      done;
      !ok)

let test_fusion_of_egraph () =
  let g = Fig1.egraph () in
  let m = Cost_model.fusion_of_egraph (Rng.create 5) ~pairs:4 ~discount:0.5 g in
  Alcotest.(check string) "kind" "linear+pairwise" (Cost_model.name m);
  (* discounts only ever lower the cost below the linear value *)
  let s = Option.get (Greedy.extract g).Extractor.solution in
  let lin = Cost_model.dense_solution (Cost_model.of_egraph g) g s in
  let fused = Cost_model.dense_solution m g s in
  Alcotest.(check bool) "discounted <= linear" true (fused <= lin +. 1e-9)

let test_smoothe_through_pairwise () =
  (* SmoothE optimises through the quadratic term end-to-end and its
     reported cost matches the model's dense evaluation *)
  let g = Fig1.egraph () in
  let m = Cost_model.fusion_of_egraph (Rng.create 9) ~pairs:6 ~discount:0.5 g in
  let config = { Smoothe_config.default with Smoothe_config.batch = 8; max_iters = 100 } in
  let run = Smoothe_extract.extract ~config ~model:m g in
  match run.Smoothe_extract.result.Extractor.solution with
  | Some s ->
      Test_util.check_close ~msg:"cost under model" (Cost_model.dense_solution m g s)
        run.Smoothe_extract.result.Extractor.cost
  | None -> Alcotest.fail "no solution"

let test_mlp_corrected_dim_mismatch () =
  let rng = Rng.create 1 in
  let mlp = Mlp.create rng ~input_dim:3 in
  Alcotest.check_raises "dim mismatch"
    (Invalid_argument "Cost_model.mlp_corrected: dimension mismatch") (fun () ->
      ignore (Cost_model.mlp_corrected ~linear:[| 1.0 |] mlp))

(* [selected] over a 0/1 point's ones in increasing order gives
   [dense]'s bits, under signed zeros and non-finite coefficients too;
   a non-linear model is refused *)
let selected_matches_dense =
  qtest ~count:200 "selected = dense on 0/1 points"
    QCheck2.Gen.(pair (int_range 1 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let special = [| 0.0; -0.0; 1e300; -1e300; infinity; neg_infinity; Float.nan; 0.1 |] in
      let u =
        Array.init n (fun _ ->
            if Rng.int rng 3 = 0 then special.(Rng.int rng (Array.length special))
            else Rng.float rng 20.0 -. 10.0)
      in
      let x = Array.init n (fun _ -> if Rng.int rng 2 = 0 then 1.0 else 0.0) in
      let ids = Array.make n (-1) and k = ref 0 in
      Array.iteri
        (fun i xi ->
          if xi = 1.0 then begin
            ids.(!k) <- i;
            incr k
          end)
        x;
      let m = Cost_model.linear u in
      Int64.equal
        (Int64.bits_of_float (Cost_model.selected m ids !k))
        (Int64.bits_of_float (Cost_model.dense m x))
      &&
      match Cost_model.selected (Cost_model.pairwise ~linear:u []) ids !k with
      | _ -> false
      | exception Invalid_argument _ -> true)

let () =
  Alcotest.run "cost"
    [
      ( "linear",
        [
          Alcotest.test_case "dense" `Quick test_linear_dense;
          selected_matches_dense;
          Alcotest.test_case "of_egraph matches dag cost" `Quick
            test_linear_of_egraph_matches_dag_cost;
          linear_relaxed_matches_dense;
          Alcotest.test_case "invalid = infinity" `Quick test_invalid_solution_infinite;
        ] );
      ( "mlp",
        [
          Alcotest.test_case "shapes" `Quick test_mlp_shapes;
          Alcotest.test_case "batch matches single" `Quick test_mlp_batch_matches_single;
          Alcotest.test_case "forward matches predict" `Quick test_mlp_forward_matches_predict;
          Alcotest.test_case "training reduces loss" `Slow test_mlp_training_reduces_loss;
          Alcotest.test_case "trained model orders extremes" `Slow
            test_mlp_trained_model_orders_examples;
        ] );
      ( "corrected",
        [
          Alcotest.test_case "dense" `Quick test_mlp_corrected_dense;
          mlp_corrected_relaxed_matches_dense;
          Alcotest.test_case "dim mismatch" `Quick test_mlp_corrected_dim_mismatch;
        ] );
      ( "pairwise",
        [
          Alcotest.test_case "dense semantics" `Quick test_pairwise_dense;
          pairwise_relaxed_matches_dense;
          Alcotest.test_case "fusion_of_egraph" `Quick test_fusion_of_egraph;
          Alcotest.test_case "smoothe through pairwise" `Slow test_smoothe_through_pairwise;
        ] );
    ]
