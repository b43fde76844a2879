(* Static-plan replay and the plan-level dataflow analysis.

   The contract under test is strict: a compiled plan replaying the
   captured iteration IR over a shared buffer arena must be BIT-identical
   to the tape interpreter — same loss, same probabilities, same
   gradients, down to signed zeros — while allocating no tensors. The
   arena soundness itself is a property: on random e-graphs the analysis
   may never map two overlapping live ranges to one slot, and any forced
   mis-assignment must be caught by the independent verifier. *)

let default_cfg =
  { Smoothe_config.default with Smoothe_config.batch = 4; prop_iters = Some 4 }

let ids_of (fwd : Relaxation.forward) =
  let root = Ad.node_id fwd.Relaxation.loss in
  let theta_id = Ad.node_id fwd.Relaxation.theta in
  let outputs =
    [|
      Ad.node_id fwd.Relaxation.cp;
      Ad.node_id fwd.Relaxation.per_seed_cost;
      Ad.node_id fwd.Relaxation.penalty;
      root;
    |]
  in
  (root, theta_id, outputs)

(* Capture two consecutive iterations, run the analysis and compile.
   Fails the test on any gate the extraction loop would treat as clean. *)
let compile_plan ?(config = default_cfg) ?model g =
  let model = Option.value model ~default:(Cost_model.of_egraph g) in
  let compiled = Relaxation.compile config g in
  let rng = Rng.create 23 in
  let theta =
    Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
      (fun _ _ -> 0.5 *. Rng.gaussian rng)
  in
  let fwd1 = Relaxation.forward compiled ~config ~model ~theta in
  let c1 = Plan.capture fwd1.Relaxation.tape ~root:fwd1.Relaxation.loss in
  let fwd2 = Relaxation.forward compiled ~config ~model ~theta in
  let c2 = Plan.capture fwd2.Relaxation.tape ~root:fwd2.Relaxation.loss in
  (match Plan.stable c1 c2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("captures unstable: " ^ e));
  let root, theta_id, outputs = ids_of fwd2 in
  let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs c2.Plan.ir in
  (match report.Plan_check.diags with
  | [] -> ()
  | d :: _ -> Alcotest.fail ("analysis rejected the IR: " ^ Diagnostic.render d));
  match
    Plan.compile ~arena:(Plan_check.arena_spec report) ~outputs ~grads:[| theta_id |] c2
  with
  | Error e -> Alcotest.fail ("compile failed: " ^ e)
  | Ok plan -> (plan, report, theta, model, compiled, config)

let check_bits msg a b =
  Alcotest.(check bool) msg true (Tensor.bits_equal a b)

(* ------------------------------------------------- replay bit-identity *)

let test_replay_bit_identical () =
  let rng = Rng.create 5 in
  let g = Test_util.random_egraph rng ~classes:10 in
  let plan, _report, theta, model, compiled, config = compile_plan g in
  (* several replays across in-place theta updates, each checked against
     a fresh interpreter pass over the same logits *)
  for round = 1 to 3 do
    let fwd = Relaxation.forward compiled ~config ~model ~theta in
    Plan.run_forward plan;
    check_bits
      (Printf.sprintf "round %d: loss" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.loss))
      (Ad.value fwd.Relaxation.loss);
    check_bits
      (Printf.sprintf "round %d: cp" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.cp))
      (Ad.value fwd.Relaxation.cp);
    check_bits
      (Printf.sprintf "round %d: per-seed cost" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.per_seed_cost))
      (Ad.value fwd.Relaxation.per_seed_cost);
    check_bits
      (Printf.sprintf "round %d: penalty" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.penalty))
      (Ad.value fwd.Relaxation.penalty);
    Ad.backward fwd.Relaxation.loss;
    Plan.run_backward plan;
    check_bits
      (Printf.sprintf "round %d: theta gradient" round)
      (Plan.grad_of plan (Ad.node_id fwd.Relaxation.theta))
      (Ad.grad fwd.Relaxation.theta);
    (* nudge theta in place, as Adam would, and replay again *)
    let d = Tensor.unsafe_data theta in
    for i = 0 to Tensor.numel theta - 1 do
      d.(i) <- d.(i) +. (0.05 *. Rng.gaussian rng)
    done
  done

let test_replay_allocates_nothing () =
  let rng = Rng.create 9 in
  let g = Test_util.random_egraph rng ~classes:8 in
  let plan, _, _, _, _, _ = compile_plan g in
  Obs.with_enabled @@ fun () ->
  Metrics.scoped @@ fun () ->
  (* warm-up replay, then measure: steady-state iterations must not
     allocate a single tensor *)
  Plan.run_forward plan;
  Plan.run_backward plan;
  let before = Metrics.counter_value "tensor.bytes_allocated" in
  for _ = 1 to 5 do
    Plan.run_forward plan;
    Plan.run_backward plan
  done;
  let after = Metrics.counter_value "tensor.bytes_allocated" in
  Alcotest.(check (float 0.0)) "zero bytes allocated across 5 replays" before after

(* The replay allocates no tensors, and its kernels box no floats: the
   minor heap grows only by per-step closures and metric updates, well
   under [Plan.replay_words_per_step] per step. A kernel that reads its
   elements through a closure boxes each one — thousands of words per
   step on a bundled instance. *)
let test_replay_minor_words_bounded () =
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let plan, _, _, _, _, _ = compile_plan ~config:{ default_cfg with Smoothe_config.batch = 8 } g in
  let st = Plan.stats plan in
  let steps = float_of_int (st.Plan.steps_forward + st.Plan.steps_backward) in
  let words_per_step () =
    Plan.run_forward plan;
    Plan.run_backward plan;
    let w0 = Gc.minor_words () in
    for _ = 1 to 5 do
      Plan.run_forward plan;
      Plan.run_backward plan
    done;
    (Gc.minor_words () -. w0) /. 5.0 /. steps
  in
  (* with the observability sink both off and on (its counters allocate) *)
  List.iter
    (fun (label, w) ->
      if w > Plan.replay_words_per_step then
        Alcotest.failf "mcm_8 replay %s: %.1f minor words per plan step (limit %.0f)" label w
          Plan.replay_words_per_step)
    [ ("obs off", words_per_step ()); ("obs on", Obs.with_enabled words_per_step) ]

let test_scalar_backend_refuses () =
  let rng = Rng.create 3 in
  let g = Test_util.random_egraph rng ~classes:6 in
  let config = default_cfg in
  let model = Cost_model.of_egraph g in
  let compiled = Relaxation.compile config g in
  let theta = Tensor.create ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g) in
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  let c = Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss in
  let root, theta_id, outputs = ids_of fwd in
  ignore root;
  Tensor.Backend.with_mode Tensor.Backend.Scalar @@ fun () ->
  match Plan.compile ~outputs ~grads:[| theta_id |] c with
  | Ok _ -> Alcotest.fail "compile must refuse the scalar backend"
  | Error _ -> ()

(* ------------------------------------------------------- whole runs *)

let run_cost mode g =
  let config =
    { default_cfg with Smoothe_config.max_iters = 12; patience = 50; plan = mode }
  in
  let run = Smoothe_extract.extract ~config g in
  (run.Smoothe_extract.result.Extractor.cost, run)

let test_extract_modes_agree () =
  (* the plan must never change results, only cost: off / on / check all
     land on the same incumbent, and check mode asserts bitwise equality
     internally on every replayed iteration *)
  let rng = Rng.create 17 in
  List.iter
    (fun classes ->
      let g = Test_util.random_egraph rng ~classes in
      let off, _ = run_cost Smoothe_config.Plan_off g in
      let on, run_on = run_cost Smoothe_config.Plan_on g in
      let check, _ = run_cost Smoothe_config.Plan_check g in
      Alcotest.(check (float 0.0)) "plan on = off" off on;
      Alcotest.(check (float 0.0)) "plan check = off" off check;
      (* the interesting case actually armed, and was never disabled *)
      let plan_events prefix =
        List.exists
          (fun e ->
            e.Health.kind = Health.Plan && String.starts_with ~prefix e.Health.detail)
          run_on.Smoothe_extract.health
      in
      Alcotest.(check bool) "plan armed on a static graph" true
        (plan_events "plan armed" && not (plan_events "plan disabled")))
    [ 6; 12 ]

let test_extract_agree_across_jobs () =
  (* bundled instances, interpreted vs replayed, at --jobs 1 and 4 *)
  let g = Fig1.egraph () in
  List.iter
    (fun jobs ->
      Pool.set_jobs jobs;
      Fun.protect
        ~finally:(fun () -> Pool.set_jobs 1)
        (fun () ->
          let off, _ = run_cost Smoothe_config.Plan_off g in
          let check, _ = run_cost Smoothe_config.Plan_check g in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "jobs %d: check mode bit-identical end to end" jobs)
            off check))
    [ 1; 4 ]

(* ------------------------------------------------- analysis properties *)

let capture_ir g =
  let config = default_cfg in
  let model = Cost_model.of_egraph g in
  let compiled = Relaxation.compile config g in
  let theta =
    Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
      (fun b w -> 0.1 *. float_of_int ((b * 7) + w mod 5))
  in
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  let root, theta_id, outputs = ids_of fwd in
  (Ad.ir fwd.Relaxation.tape, root, theta_id, outputs)

let prop_arena_sound =
  QCheck2.Test.make ~count:30 ~name:"arena never overlaps live ranges in a slot"
    (Test_util.arb_egraph ~max_classes:9 ())
    (fun g ->
      let ir, root, theta_id, outputs = capture_ir g in
      let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs ir in
      (* the analysis must accept its own assignment... *)
      Diagnostic.errors report.Plan_check.diags = 0
      && Diagnostic.warnings report.Plan_check.diags = 0
      &&
      (* ...and the verifier must reject every forced mis-placement: an
         assigned buffer moved to any earlier slot must trip PL001/PL002
         (the greedy scan already proved earlier slots conflict) *)
      let ok = ref true in
      Array.iteri
        (fun b s ->
          if s > 0 then
            for s' = 0 to s - 1 do
              let assign = Array.copy report.Plan_check.assign in
              assign.(b) <- s';
              let diags =
                Plan_check.verify_arena report
                  ~slot_sizes:report.Plan_check.slot_sizes ~assign
              in
              if Diagnostic.errors diags = 0 then ok := false
            done)
        report.Plan_check.assign;
      !ok)

(* One interpreted iteration against one replay of the compiled plan:
   loss, cp and the theta gradient agree bitwise. Also returns the
   replayed IR, for op coverage. *)
let replay_matches ?config ?model g =
  let plan, _, theta, model, compiled, config = compile_plan ?config ?model g in
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  Plan.run_forward plan;
  Ad.backward fwd.Relaxation.loss;
  Plan.run_backward plan;
  ( Tensor.bits_equal
      (Plan.value plan (Ad.node_id fwd.Relaxation.loss))
      (Ad.value fwd.Relaxation.loss)
    && Tensor.bits_equal
         (Plan.value plan (Ad.node_id fwd.Relaxation.cp))
         (Ad.value fwd.Relaxation.cp)
    && Tensor.bits_equal
         (Plan.grad_of plan (Ad.node_id fwd.Relaxation.theta))
         (Ad.grad fwd.Relaxation.theta),
    Ad.ir fwd.Relaxation.tape )

(* The relaxations a plan must replay: both matrix-exponential modes
   (they differ on cyclic graphs), the nonlinear cost models and the
   entropy bonus. *)
let scenarios g =
  let rng = Rng.create 41 in
  let mlp = Mlp.create rng ~input_dim:(Egraph.num_nodes g) in
  [
    ("batched matexp", default_cfg, Cost_model.of_egraph g);
    ( "per-seed matexp",
      { default_cfg with Smoothe_config.batched_matexp = false },
      Cost_model.of_egraph g );
    ("mlp_corrected", default_cfg, Cost_model.mlp_corrected ~linear:g.Egraph.costs mlp);
    ("fusion_of_egraph", default_cfg, Cost_model.fusion_of_egraph rng ~pairs:4 g);
    ("entropy", { default_cfg with Smoothe_config.entropy_weight = 0.1 }, Cost_model.of_egraph g);
  ]

let prop_replay_bit_identical =
  QCheck2.Test.make ~count:12 ~name:"replay bit-identical to interpreter"
    QCheck2.Gen.(pair (Test_util.arb_egraph ~max_classes:8 ~cycle_prob:0.35 ()) (int_bound 4))
    (fun (g, k) ->
      let _, config, model = List.nth (scenarios g) k in
      fst (replay_matches ~config ~model g))

(* A hand-built tape through the same gate: capture, analysis, arena
   and compile, then one interpreted sweep against one replay. *)
let replay_tape build x =
  let tape = Ad.tape () in
  let v = Ad.param tape x in
  let loss = build tape v in
  let cap = Plan.capture tape ~root:loss in
  let root = Ad.node_id loss and xid = Ad.node_id v in
  let report = Plan_check.analyze ~grads:[| xid |] ~root ~outputs:[||] cap.Plan.ir in
  match Plan.compile ~arena:(Plan_check.arena_spec report) ~outputs:[||] ~grads:[| xid |] cap with
  | Error e -> Alcotest.fail ("compile failed: " ^ e)
  | Ok plan ->
      Plan.run_forward plan;
      Ad.backward loss;
      Plan.run_backward plan;
      ( Tensor.bits_equal (Plan.value plan root) (Ad.value loss)
        && Tensor.bits_equal (Plan.grad_of plan xid) (Ad.grad v),
        cap.Plan.ir )

(* Every Op.t constructor, listed in one exhaustive match: a new op
   does not compile until it has a slot here, and the coverage test
   below fails until some replay exercises it. *)
let op_slot : Op.t -> int = function
  | Const -> 0
  | Param -> 1
  | Add -> 2
  | Sub -> 3
  | Mul -> 4
  | One_minus -> 5
  | Scale _ -> 6
  | Add_scalar _ -> 7
  | Relu -> 8
  | Log_safe -> 9
  | Gather _ -> 10
  | Segment_softmax _ -> 11
  | Segment_prod _ -> 12
  | Segment_max _ -> 13
  | Override_columns _ -> 14
  | Mean_rows -> 15
  | Slice_row _ -> 16
  | Sum_all -> 17
  | Dot_const _ -> 18
  | Linear -> 19
  | Matrix_of_entries _ -> 20
  | Expm_trace -> 21

let op_slots = 22

let test_replay_covers_every_op () =
  let covered = Array.make op_slots false in
  let check name (ok, ir) =
    if not ok then Alcotest.failf "%s: replay differs from the interpreter" name;
    Array.iter (fun nd -> covered.(op_slot nd.Ad.Ir.op) <- true) ir
  in
  (* cyclic, so the acyclicity penalty builds its matrix exponentials *)
  let g = Test_util.random_egraph (Rng.create 11) ~classes:8 ~cycle_prob:0.35 in
  List.iter
    (fun (name, config, model) -> check name (replay_matches ~config ~model g))
    (scenarios g);
  (* no relaxation subtracts *)
  check "sub"
    (replay_tape
       (fun tape v ->
         let c = Ad.const tape (Tensor.of_row [| 0.5; -1.0; 2.0 |]) in
         Ad.sum_all (Ad.mul (Ad.sub v c) (Ad.sub c v)))
       (Tensor.of_row [| 1.0; 2.0; -3.0 |]));
  Array.iteri
    (fun slot c -> if not c then Alcotest.failf "op slot %d: no replay test covers it" slot)
    covered

(* ------------------------------------------------------ stability *)

let mk_ir nodes = Array.of_list nodes
let nd ?(args = [||]) op batch width = { Ad.Ir.op; args; shape = { Op.batch; width }; context = "" }

let test_stability_codes () =
  let a = mk_ir [ nd Op.Param 1 4; nd Op.One_minus ~args:[| 0 |] 1 4 ] in
  Alcotest.(check int) "identical IRs are stable" 0
    (List.length (Plan_check.stability a a));
  let longer =
    mk_ir [ nd Op.Param 1 4; nd Op.One_minus ~args:[| 0 |] 1 4; nd Op.One_minus ~args:[| 1 |] 1 4 ]
  in
  (match Plan_check.stability a longer with
  | [ d ] -> Alcotest.(check string) "length divergence is PL006" "PL006" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic");
  let other_op = mk_ir [ nd Op.Param 1 4; nd Op.Relu ~args:[| 0 |] 1 4 ] in
  (match Plan_check.stability a other_op with
  | [ d ] -> Alcotest.(check string) "op divergence is PL006" "PL006" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic");
  let b1 = mk_ir [ nd Op.Param 1 4; nd (Op.Scale 2.0) ~args:[| 0 |] 1 4 ] in
  let b2 = mk_ir [ nd Op.Param 1 4; nd (Op.Scale 3.0) ~args:[| 0 |] 1 4 ] in
  match Plan_check.stability b1 b2 with
  | [ d ] ->
      Alcotest.(check string) "payload-only divergence is PL007" "PL007" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic"

(* The extraction loop's gate and the analysis share one comparator, so
   a change the gate refuses is never reported clean: here two tapes
   that differ only in a payload the IR's shapes do not show. *)
let test_payload_changes_are_pl007 () =
  let x = Tensor.of_row [| 1.0; 2.0; 3.0 |] in
  let capture build =
    let tape = Ad.tape () in
    let loss = build (Ad.param tape x) in
    Plan.capture tape ~root:loss
  in
  List.iter
    (fun (what, b1, b2) ->
      let c1 = capture b1 and c2 = capture b2 in
      (match Plan.stable c1 c2 with
      | Ok () -> Alcotest.failf "%s: the gate accepted a changed payload" what
      | Error _ -> ());
      match Plan_check.stability c1.Plan.ir c2.Plan.ir with
      | [ d ] -> Alcotest.(check string) what "PL007" d.Diagnostic.code
      | ds -> Alcotest.failf "%s: expected one PL007, got %d diagnostics" what (List.length ds))
    [
      ( "dot_const coefficients",
        (fun v -> Ad.dot_const v [| 1.0; 2.0; 3.0 |]),
        fun v -> Ad.dot_const v [| 1.0; 2.0; 4.0 |] );
      ( "gather permutation",
        (fun v -> Ad.sum_all (Ad.gather v [| 0; 1; 2 |])),
        fun v -> Ad.sum_all (Ad.gather v [| 2; 1; 0 |]) );
    ]

(* ----------------------------------------------- tape-identity guards *)

let test_cross_tape_mixing_raises () =
  let t1 = Ad.tape () and t2 = Ad.tape () in
  let x = Ad.param t1 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let y = Ad.param t2 (Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |]) in
  match Ad.add x y with
  | _ -> Alcotest.fail "mixing nodes from two tapes must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the tape mix" true
        (Test_util.contains msg "different tape")

let test_grad_before_backward_raises () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let _loss = Ad.sum_all (Ad.mul x x) in
  match Ad.grad x with
  | _ -> Alcotest.fail "grad before backward must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the missing sweep" true
        (Test_util.contains msg "not been swept")

let test_context_chain_in_diagnostics () =
  (* nested with_context joins outermost→innermost, and the analysis
     carries the full chain into rendered text and JSON *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let mk label =
    Ad.with_context "outer.loop" @@ fun () ->
    Ad.with_context label @@ fun () -> Ad.sum_all (Ad.one_minus x)
  in
  let _a = mk "inner.first" in
  let ir1 = Ad.ir tape in
  let tape2 = Ad.tape () in
  let x2 = Ad.param tape2 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let _b =
    Ad.with_context "outer.loop" @@ fun () ->
    Ad.with_context "inner.second" @@ fun () -> Ad.sum_all (Ad.one_minus x2)
  in
  let ir2 = Ad.ir tape2 in
  Alcotest.(check bool) "IR records the joined chain" true
    (Array.exists (fun nd -> nd.Ad.Ir.context = "outer.loop/inner.first") ir1);
  match Plan_check.stability ir1 ir2 with
  | [ d ] ->
      Alcotest.(check string) "divergent provenance is PL006" "PL006" d.Diagnostic.code;
      let text = Diagnostic.render d in
      Alcotest.(check bool) "text render carries both chains" true
        (Test_util.contains text "outer.loop/inner.first"
        && Test_util.contains text "outer.loop/inner.second");
      let json = Json.to_string (Diagnostic.to_json d) in
      Alcotest.(check bool) "json render carries the chain" true
        (Test_util.contains json "outer.loop/inner.first")
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one diagnostic, got %d" (List.length ds))

let test_analysis_arena_accounting () =
  let rng = Rng.create 29 in
  let g = Test_util.random_egraph rng ~classes:10 in
  let ir, root, theta_id, outputs = capture_ir g in
  let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs ir in
  Alcotest.(check bool) "arena smaller than interpreter allocation" true
    (report.Plan_check.arena_bytes < report.Plan_check.naive_bytes)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [
      ( "replay",
        [
          Alcotest.test_case "bit-identical across rounds" `Quick test_replay_bit_identical;
          Alcotest.test_case "allocates nothing" `Quick test_replay_allocates_nothing;
          Alcotest.test_case "minor words per step bounded" `Quick
            test_replay_minor_words_bounded;
          Alcotest.test_case "scalar backend refused" `Quick test_scalar_backend_refuses;
          Alcotest.test_case "covers every op" `Quick test_replay_covers_every_op;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "modes agree" `Slow test_extract_modes_agree;
          Alcotest.test_case "jobs 1 and 4 agree" `Slow test_extract_agree_across_jobs;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "stability codes" `Quick test_stability_codes;
          Alcotest.test_case "payload changes are PL007" `Quick test_payload_changes_are_pl007;
          Alcotest.test_case "arena accounting" `Quick test_analysis_arena_accounting;
          Alcotest.test_case "context chain in diagnostics" `Quick
            test_context_chain_in_diagnostics;
        ] );
      ( "guards",
        [
          Alcotest.test_case "cross-tape mixing raises" `Quick test_cross_tape_mixing_raises;
          Alcotest.test_case "grad before backward raises" `Quick
            test_grad_before_backward_raises;
        ] );
      ("properties", qcheck [ prop_arena_sound; prop_replay_bit_identical ]);
    ]
