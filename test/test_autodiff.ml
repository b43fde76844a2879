(* Gradient checks: every analytic adjoint in Ad is validated against
   central finite differences, plus optimiser behaviour tests. *)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rand_tensor rng ~batch ~width = Tensor.init ~batch ~width (fun _ _ -> Rng.float rng 2.0 -. 1.0)

(* Check d(sum f(x))/dx against finite differences. [build] maps a param
   node to the output node. *)
let grad_check ?(tol = 1e-4) ~build x =
  let forward t =
    let tape = Ad.tape () in
    let v = Ad.param tape (Tensor.copy t) in
    Tensor.sum (Ad.value (build tape v))
  in
  let tape = Ad.tape () in
  let v = Ad.param tape x in
  let out = build tape v in
  Ad.backward out;
  let analytic = Ad.grad v in
  let numeric = Ad.finite_difference ~f:forward ~x ~eps:1e-5 in
  let ok = ref true in
  let worst = ref 0.0 in
  for i = 0 to Tensor.numel x - 1 do
    let a = (Tensor.unsafe_data analytic).(i) and n = (Tensor.unsafe_data numeric).(i) in
    let err = Float.abs (a -. n) /. (1.0 +. Float.abs n) in
    if err > !worst then worst := err;
    if err > tol then ok := false
  done;
  !ok

let seeded_gen = QCheck2.Gen.int_bound 1_000_000

let pointwise_grads =
  List.map
    (fun (name, build) ->
      qtest ("grad: " ^ name) seeded_gen (fun seed ->
          let rng = Rng.create seed in
          let x = rand_tensor rng ~batch:2 ~width:5 in
          (* fixed partner tensor, shared by every finite-difference probe *)
          let other = rand_tensor rng ~batch:2 ~width:5 in
          grad_check ~build:(fun tape v -> build tape other v) x))
    [
      ("add self", fun _ _ v -> Ad.add v v);
      ("sub const", fun tape other v -> Ad.sub v (Ad.const tape other));
      ("mul const", fun tape other v -> Ad.mul v (Ad.const tape other));
      ("mul self", fun _ _ v -> Ad.mul v v);
      ("scale", fun _ _ v -> Ad.scale 2.5 v);
      ("add_scalar", fun _ _ v -> Ad.add_scalar 3.0 v);
      ("one_minus", fun _ _ v -> Ad.one_minus v);
      ("sum_all", fun _ _ v -> Ad.sum_all v);
      ("mean_all", fun _ _ v -> Ad.mean_all v);
      ("mean_rows", fun _ _ v -> Ad.mean_rows v);
      ("slice_row", fun _ _ v -> Ad.slice_row v 1);
      ("gather", fun _ _ v -> Ad.gather v [| 0; 2; 2; 4; 1 |]);
      ("dot_const", fun _ _ v -> Ad.dot_const v [| 0.5; -1.0; 2.0; 0.0; 3.0 |]);
      ( "override_columns",
        fun _ _ v -> Ad.mul (Ad.override_columns v [ (1, 1.0); (3, 0.25) ]) v );
      ("compose mul(1-x, x)", fun _ _ v -> Ad.mul (Ad.one_minus v) v);
    ]

let log_safe_grad =
  qtest "grad: log_safe (positive inputs)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:2 ~width:5 (fun _ _ -> 0.1 +. Rng.float rng 2.0) in
      grad_check ~build:(fun _ v -> Ad.log_safe v) x)

let entropy_grad =
  qtest "grad: entropy term cp*log(cp)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:1 ~width:6 (fun _ _ -> 0.1 +. Rng.float rng 0.8) in
      grad_check ~build:(fun _ v -> Ad.sum_all (Ad.mul v (Ad.log_safe v))) x)

let relu_grad =
  (* relu is kinked at 0: sample away from it *)
  qtest "grad: relu (away from kink)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x =
        Tensor.init ~batch:2 ~width:5 (fun _ _ ->
            let v = Rng.float rng 2.0 -. 1.0 in
            if Float.abs v < 0.05 then 0.5 else v)
      in
      grad_check ~build:(fun _ v -> Ad.relu v) x)

let segment_grads =
  let seg = Segments.of_lens [| 2; 1; 3 |] in
  List.map
    (fun (name, build) ->
      qtest ("grad: " ^ name) seeded_gen (fun seed ->
          let rng = Rng.create seed in
          let x = Tensor.init ~batch:2 ~width:6 (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
          grad_check ~build:(fun _ v -> build v) x))
    [
      ("segment_softmax", fun v -> Ad.mul (Ad.segment_softmax v seg) (Ad.segment_softmax v seg));
      ("segment_prod", fun v -> Ad.segment_prod v seg);
    ]

let segment_softmax_weighted_grad =
  qtest "grad: weighted segment_softmax" seeded_gen (fun seed ->
      let seg = Segments.of_lens [| 3; 3 |] in
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:1 ~width:6 (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
      let u = [| 1.0; -2.0; 0.5; 3.0; 0.0; -1.0 |] in
      grad_check ~build:(fun _ v -> Ad.dot_const (Ad.segment_softmax v seg) u) x)

let segment_max_grad =
  (* max is kinked at ties; perturb to break them *)
  qtest "grad: segment_max (ties broken)" seeded_gen (fun seed ->
      let seg = Segments.of_lens [| 2; 4 |] in
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:2 ~width:6 (fun b i -> float_of_int ((b * 7) + (i * 3) mod 11) /. 4.0 +. Rng.float rng 0.01) in
      grad_check ~build:(fun _ v -> Ad.segment_max v seg) x)

let linear_grads =
  qtest "grad: linear layer (input, weight, bias)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = rand_tensor rng ~batch:3 ~width:4 in
      let w = rand_tensor rng ~batch:2 ~width:4 in
      let b = rand_tensor rng ~batch:1 ~width:2 in
      let ok_x =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:v ~weight:(Ad.param tape (Tensor.copy w))
              ~bias:(Ad.param tape (Tensor.copy b)))
          x
      in
      let ok_w =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:(Ad.const tape x) ~weight:v ~bias:(Ad.param tape (Tensor.copy b)))
          w
      in
      let ok_b =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:(Ad.const tape x) ~weight:(Ad.param tape (Tensor.copy w)) ~bias:v)
          b
      in
      ok_x && ok_w && ok_b)

let matrix_of_entries_grad =
  qtest "grad: matrix_of_entries + expm_trace" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      (* non-negative inputs as in the real NOTEARS use *)
      let x = Tensor.init ~batch:1 ~width:4 (fun _ _ -> Rng.float rng 0.8) in
      let entries = [| (0, 0, 1); (1, 1, 0); (2, 1, 2); (3, 2, 0) |] in
      grad_check ~tol:1e-3
        ~build:(fun _ v -> Ad.expm_trace (Ad.matrix_of_entries v ~dim:3 entries))
        x)

let mse_grad =
  qtest "grad: mse" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = rand_tensor rng ~batch:4 ~width:1 in
      let target = rand_tensor rng ~batch:4 ~width:1 in
      grad_check ~build:(fun tape v -> Ad.mse ~pred:v ~target:(Ad.const tape target)) x)

(* -------------------------------------------------- behavioural checks *)

let test_backward_seeds_ones () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |]) in
  let y = Ad.scale 2.0 x in
  Ad.backward y;
  Test_util.check_close ~msg:"dy/dx0" 2.0 (Tensor.get (Ad.grad x) 0 0);
  Test_util.check_close ~msg:"dy/dx1" 2.0 (Tensor.get (Ad.grad x) 0 1)

let test_grad_accumulates_fanout () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:1 [| 5.0 |]) in
  (* y = x + x: dy/dx = 2 via accumulation across the fan-out *)
  let y = Ad.add x x in
  Ad.backward y;
  Test_util.check_close ~msg:"fanout grad" 2.0 (Tensor.get (Ad.grad x) 0 0)

let test_const_blocks_grad () =
  let tape = Ad.tape () in
  let c = Ad.const tape (Tensor.of_array ~batch:1 ~width:1 [| 2.0 |]) in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:1 [| 3.0 |]) in
  let y = Ad.mul c x in
  Ad.backward y;
  Test_util.check_close ~msg:"const grad untouched by pull" 3.0 (Tensor.get (Ad.grad c) 0 0);
  Test_util.check_close ~msg:"param grad" 2.0 (Tensor.get (Ad.grad x) 0 0)

let test_node_count () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.create ~batch:1 ~width:3) in
  ignore (Ad.add x (Ad.one_minus x));
  Alcotest.(check int) "nodes on tape" 3 (Ad.node_count tape)

let test_double_backward_raises () =
  (* tapes are single-use: a second sweep would add every adjoint
     again, so a second backward must fail loudly *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let loss = Ad.sum_all (Ad.mul x x) in
  Ad.backward loss;
  (match Ad.backward loss with
  | () -> Alcotest.fail "second backward on the same tape should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the single-use constraint" true
        (let n = String.length msg and m = String.length "single-use" in
         let rec go i = i + m <= n && (String.sub msg i m = "single-use" || go (i + 1)) in
         go 0));
  (* a fresh tape over the same tensor works fine *)
  let tape2 = Ad.tape () in
  let x2 = Ad.param tape2 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let loss2 = Ad.sum_all (Ad.mul x2 x2) in
  Ad.backward loss2;
  Test_util.check_close ~msg:"fresh tape grad" 2.0 (Tensor.get (Ad.grad x2) 0 0)

let test_ir_records_ops () =
  (* every operator leaves one IR node with op name, args and shape *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:2 ~width:3 [| 1.; 2.; 3.; 4.; 5.; 6. |]) in
  let loss =
    Ad.with_context "test.loss" @@ fun () -> Ad.sum_all (Ad.mul x (Ad.add_scalar 1.0 x))
  in
  let ir = Ad.ir tape in
  Alcotest.(check int) "one IR node per tape node" (Ad.node_count tape) (Array.length ir);
  Alcotest.(check int) "loss is the last node" (Array.length ir - 1) (Ad.node_id loss);
  Alcotest.(check bool) "param recorded" true (ir.(Ad.node_id x).Ad.Ir.op = Op.Param);
  let last = ir.(Ad.node_id loss) in
  Alcotest.(check string) "op name" "sum_all" (Op.name last.Ad.Ir.op);
  Alcotest.(check bool) "shape" true (last.Ad.Ir.shape = { Op.batch = 1; width = 1 });
  Alcotest.(check string) "context label" "test.loss" last.Ad.Ir.context;
  Alcotest.(check bool) "args point at earlier nodes" true
    (Array.for_all
       (fun nd -> Array.for_all (fun a -> a >= 0) nd.Ad.Ir.args)
       ir)

(* [one_minus] must round exactly as a negation followed by
   [add_scalar 1.0]. The reference negates with [scale (-1.0)], which is
   exact for every non-NaN input. Each row of [x] holds signed zeros,
   values around the log floor and a denormal; the rows meet output
   adjoints 1, -0 and 0.5. Value and gradient must match bitwise,
   interpreted and replayed. *)
let test_one_minus_matches_composite () =
  let xs = [| 0.0; -0.0; 1e-13; -1e-13; 5e-324; 1e-12; 0.5; -0.5; 1.0; -2.0 |] in
  let adjoints = [| 1.0; -0.0; 0.5 |] in
  let batch = Array.length adjoints and width = Array.length xs in
  let x = Tensor.init ~batch ~width (fun _ i -> xs.(i)) in
  let c = Tensor.init ~batch ~width (fun b _ -> adjoints.(b)) in
  let run one_minus =
    let tape = Ad.tape () in
    let v = Ad.param tape x in
    let y = one_minus v in
    let loss = Ad.sum_all (Ad.mul y (Ad.const tape c)) in
    let cap = Plan.capture tape ~root:loss in
    Ad.backward loss;
    match Plan.compile ~outputs:[| Ad.node_id y |] ~grads:[| Ad.node_id v |] cap with
    | Error e -> Alcotest.fail ("compile: " ^ e)
    | Ok plan ->
        Plan.run_forward plan;
        Plan.run_backward plan;
        [
          ("interpreted value", Ad.value y);
          ("interpreted gradient", Ad.grad v);
          ("replayed value", Plan.value plan (Ad.node_id y));
          ("replayed gradient", Plan.grad_of plan (Ad.node_id v));
        ]
  in
  List.iter2
    (fun (what, got) (_, want) ->
      Alcotest.(check bool) what true (Tensor.bits_equal got want))
    (run Ad.one_minus)
    (run (fun v -> Ad.add_scalar 1.0 (Ad.scale (-1.0) v)))

(* ------------------------------------------------ subgradients at kinks *)

(* Finite differences say nothing at a kink, so each op's written
   subgradient convention (its doc comment in Op) is the oracle: the
   interpreter's sweep must return it, and a replay of the same tape
   must return the same bits. *)
let kink name ~x ~expected build =
  Alcotest.test_case name `Quick (fun () ->
      let tape = Ad.tape () in
      let v = Ad.param tape (Tensor.of_row x) in
      let loss = build tape v in
      let cap = Plan.capture tape ~root:loss in
      Ad.backward loss;
      let interp = Ad.grad v in
      Alcotest.(check bool)
        (name ^ ": interpreter gives the convention")
        true
        (Tensor.bits_equal interp (Tensor.of_row expected));
      match Plan.compile ~outputs:[||] ~grads:[| Ad.node_id v |] cap with
      | Error e -> Alcotest.fail ("compile: " ^ e)
      | Ok plan ->
          Plan.run_forward plan;
          Plan.run_backward plan;
          Alcotest.(check bool)
            (name ^ ": replay picks the same subgradient")
            true
            (Tensor.bits_equal interp (Plan.grad_of plan (Ad.node_id v))))

let kink_tests =
  [
    kink "relu at +0 and -0 gives 0" ~x:[| 0.0; -0.0; 1.0; -1.0 |] ~expected:[| 0.0; 0.0; 1.0; 0.0 |]
      (fun _ v -> Ad.sum_all (Ad.relu v));
    kink "segment_max tie: lowest index takes the adjoint"
      ~x:[| 2.0; 2.0; 1.0; -0.0; 0.0 |] ~expected:[| 1.0; 0.0; 0.0; 1.0; 0.0 |]
      (fun _ v -> Ad.sum_all (Ad.segment_max v (Segments.of_lens [| 3; 2 |])));
    (let floor_grad = 1.0 /. Tensor.log_floor in
     kink "log_safe at and below the floor gives g / floor"
       ~x:[| Tensor.log_floor; 1e-13; 0.0; -1.0 |]
       ~expected:[| floor_grad; floor_grad; floor_grad; 2.0 *. floor_grad |]
       (fun _ v -> Ad.dot_const (Ad.log_safe v) [| 1.0; 1.0; 1.0; 2.0 |]));
    kink "saturated segment_softmax gives exactly 0" ~x:[| 0.0; -1000.0 |] ~expected:[| 0.0; 0.0 |]
      (fun _ v -> Ad.dot_const (Ad.segment_softmax v (Segments.of_lens [| 2 |])) [| 3.0; -2.0 |]);
    kink "segment_prod of [0; 2; 3] gives [6; 0; 0]" ~x:[| 0.0; 2.0; 3.0 |]
      ~expected:[| 6.0; 0.0; 0.0 |] (fun _ v -> Ad.sum_all (Ad.segment_prod v (Segments.of_lens [| 3 |])));
    kink "pinned override_columns column gives +0" ~x:[| 1.0; 1.0; 1.0 |]
      ~expected:[| 1.0; 0.0; 3.0 |] (fun _ v ->
        Ad.dot_const (Ad.override_columns v [ (1, 0.5) ]) [| 1.0; -2.0; 3.0 |]);
  ]

(* --------------------------------------------------------------- optim *)

let test_adam_minimises_quadratic () =
  (* minimise ||x - t||² *)
  let x = Tensor.of_array ~batch:1 ~width:3 [| 5.0; -4.0; 2.0 |] in
  let target = Tensor.of_array ~batch:1 ~width:3 [| 1.0; 2.0; 3.0 |] in
  let opt = Optim.adam ~lr:0.1 [ x ] in
  for _ = 1 to 400 do
    let tape = Ad.tape () in
    let v = Ad.param tape x in
    let loss = Ad.mse ~pred:v ~target:(Ad.const tape target) in
    Ad.backward loss;
    Optim.adam_step opt [ Ad.grad v ]
  done;
  for i = 0 to 2 do
    Test_util.check_close ~tol:1e-2 ~msg:"converged" (Tensor.get target 0 i) (Tensor.get x 0 i)
  done

let test_clip_grad_norm () =
  let g = Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |] in
  let norm = Optim.clip_grad_norm ~max_norm:1.0 [ g ] in
  Test_util.check_close ~msg:"pre-clip norm" 5.0 norm;
  Test_util.check_close ~msg:"clipped x" 0.6 (Tensor.get g 0 0);
  Test_util.check_close ~msg:"clipped y" 0.8 (Tensor.get g 0 1);
  let g2 = Tensor.of_array ~batch:1 ~width:2 [| 0.3; 0.4 |] in
  ignore (Optim.clip_grad_norm ~max_norm:1.0 [ g2 ]);
  Test_util.check_close ~msg:"under threshold untouched" 0.3 (Tensor.get g2 0 0)

let () =
  Alcotest.run "autodiff"
    ([
       ( "behaviour",
         [
           Alcotest.test_case "backward seeds ones" `Quick test_backward_seeds_ones;
           Alcotest.test_case "fan-out accumulates" `Quick test_grad_accumulates_fanout;
           Alcotest.test_case "const blocks grad" `Quick test_const_blocks_grad;
           Alcotest.test_case "node count" `Quick test_node_count;
           Alcotest.test_case "double backward raises" `Quick test_double_backward_raises;
           Alcotest.test_case "ir records ops" `Quick test_ir_records_ops;
           Alcotest.test_case "one_minus rounds as 1 + (-x)" `Quick
             test_one_minus_matches_composite;
         ] );
       ("kinks", kink_tests);
       ( "optim",
         [
           Alcotest.test_case "adam minimises quadratic" `Quick test_adam_minimises_quadratic;
           Alcotest.test_case "clip_grad_norm" `Quick test_clip_grad_norm;
         ] );
     ]
    @ [
        ( "gradients",
          pointwise_grads
          @ [ relu_grad; log_safe_grad; entropy_grad ]
          @ segment_grads
          @ [
              segment_softmax_weighted_grad;
              segment_max_grad;
              linear_grads;
              matrix_of_entries_grad;
              mse_grad;
            ] );
      ])
