(* Tests for the parallel execution layer: the domain pool's ordering
   and failure contracts, the fixed-boundary chunked kernels, and the
   determinism matrix — the same bits at --jobs 1 and --jobs 4 for
   tensor kernels, SmoothE extraction (results, metrics, checkpoints)
   and the portfolio. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Every test restores the default pool size and the cutoff, whatever
   happens inside: later cases assume the sequential default. *)
let with_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

let with_cutoff c f =
  let saved = !Parallel.sequential_cutoff in
  Parallel.sequential_cutoff := c;
  Fun.protect ~finally:(fun () -> Parallel.sequential_cutoff := saved) f

let with_tmpdir f =
  let dir = Filename.temp_file "smoothe-par" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let bits_of_tensor t =
  Array.map Int64.bits_of_float (Array.sub (Tensor.unsafe_data t) 0 (Tensor.numel t))

(* ------------------------------------------------------------------ pool *)

let test_pool_results_in_order () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let tasks =
    Array.init 100 (fun i () ->
        (* stagger completion so out-of-order finishes would show *)
        let acc = ref 0 in
        for _ = 1 to (100 - i) * 500 do
          incr acc
        done;
        ignore !acc;
        i * i)
  in
  let results = Pool.run_array pool tasks in
  Alcotest.(check bool) "input order" true (results = Array.init 100 (fun i -> i * i))

let test_pool_size1_inline () =
  let pool = Pool.create ~jobs:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let here = Domain.self () in
  let domains = Pool.run_array pool (Array.init 8 (fun _ () -> Domain.self ())) in
  Array.iter
    (fun d -> Alcotest.(check bool) "runs on the submitting domain" true (d = here))
    domains

let test_pool_lowest_index_failure () =
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let settled = Array.make 16 false in
  let tasks =
    Array.init 16 (fun i () ->
        if i = 3 then failwith "idx3";
        if i = 7 then failwith "idx7";
        settled.(i) <- true)
  in
  Alcotest.check_raises "lowest-indexed failure wins" (Failure "idx3") (fun () ->
      ignore (Pool.run_array pool tasks : unit array));
  (* the batch settles before the re-raise: no abandoned tasks *)
  Array.iteri
    (fun i ok ->
      if i <> 3 && i <> 7 then
        Alcotest.(check bool) (Printf.sprintf "task %d ran" i) true ok)
    settled

let test_pool_nested_submission () =
  (* a task that submits its own batch to the same pool must make
     progress even when every worker is busy with outer tasks — the
     submitting domain helps work the queue *)
  let pool = Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let outer =
    Pool.run_array pool
      (Array.init 4 (fun i () ->
           let inner = Pool.run_array pool (Array.init 8 (fun j () -> (i * 8) + j)) in
           Array.fold_left ( + ) 0 inner))
  in
  let expected =
    Array.init 4 (fun i -> Array.fold_left ( + ) 0 (Array.init 8 (fun j -> (i * 8) + j)))
  in
  Alcotest.(check bool) "nested batches complete" true (outer = expected)

let test_pool_run_list () =
  let pool = Pool.create ~jobs:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check (list int)) "list order" [ 0; 10; 20; 30; 40 ]
    (Pool.run_list pool (List.init 5 (fun i () -> i * 10)))

let test_pool_trace_task_order () =
  (* spans emitted inside pool tasks are captured per task and absorbed
     in task order at the join: the global store must read as if the
     tasks ran sequentially, whatever the actual interleaving *)
  Obs.enable ();
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.reset ())
  @@ fun () ->
  let pool = Pool.create ~jobs:4 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  ignore
    (Pool.run_array pool
       (Array.init 12 (fun i () ->
            Trace.with_span (Printf.sprintf "task%02d" i) (fun () ->
                Trace.with_span (Printf.sprintf "task%02d.inner" i) (fun () -> ()))))
      : unit array);
  let names = List.map (fun s -> s.Trace.name) (Trace.spans ()) in
  let expected =
    List.concat
      (List.init 12 (fun i ->
           [ Printf.sprintf "task%02d.inner" i; Printf.sprintf "task%02d" i ]))
  in
  Alcotest.(check (list string)) "spans in task order" expected names

(* ---------------------------------------------------------------- chunks *)

let chunks_covers_exactly_once =
  qtest "chunks touches every index exactly once (pooled)"
    QCheck2.Gen.(pair (int_range 0 2000) (int_range 1 512))
    (fun (n, grain) ->
      with_jobs 4 @@ fun () ->
      with_cutoff 1 @@ fun () ->
      let hits = Array.make (max 1 n) 0 in
      Parallel.chunks ~grain n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      n = 0 || Array.for_all (fun h -> h = 1) (Array.sub hits 0 n))

let fold_chunks_jobs_invariant =
  qtest "fold_chunks is bit-identical at jobs 1 and 4"
    QCheck2.Gen.(pair (list_size (int_range 1 800) (float_range (-1e6) 1e6)) (int_range 1 64))
    (fun (xs, grain) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      let sum () =
        Parallel.fold_chunks ~grain n
          ~chunk:(fun lo hi ->
            let s = ref 0.0 in
            for i = lo to hi - 1 do
              s := !s +. a.(i)
            done;
            !s)
          ~combine:( +. ) ~init:0.0
      in
      with_cutoff 1 @@ fun () ->
      let seq = with_jobs 1 sum in
      let par = with_jobs 4 sum in
      Int64.bits_of_float seq = Int64.bits_of_float par)

let test_chunks_inline_under_cutoff () =
  (* small inputs never touch the pool: one body call covering [0, n) *)
  with_jobs 4 @@ fun () ->
  let calls = ref [] in
  Parallel.chunks 100 (fun lo hi -> calls := (lo, hi) :: !calls);
  Alcotest.(check (list (pair int int))) "single inline call" [ (0, 100) ] !calls;
  (* cost weighting: 100 rows of width 200 is over the default cutoff,
     so a row-chunked kernel fans out even at a small row count *)
  let calls = ref 0 in
  Parallel.chunks ~grain:10 ~cost:200 100 (fun _ _ -> incr calls);
  Alcotest.(check int) "cost pushes it through the pool" 10 !calls

let test_chunks_rejects_bad_grain () =
  Alcotest.check_raises "grain 0" (Invalid_argument "Parallel.chunks: grain must be >= 1")
    (fun () -> Parallel.chunks ~grain:0 10 (fun _ _ -> ()))

(* -------------------------------------------------- tensor bit-identity *)

let random_tensor rng ~batch ~width =
  Tensor.init ~batch ~width (fun _ _ -> Rng.gaussian rng)

(* Run the parallelised kernels once sequentially and once over a
   4-slot pool (cutoff lowered so even these moderate shapes chunk)
   and require the same bits everywhere. *)
let kernel_outputs () =
  let rng = Rng.create 42 in
  let a = random_tensor rng ~batch:6 ~width:900 in
  let b = random_tensor rng ~batch:6 ~width:900 in
  (* 90 segments of lengths 9/10/11, summing to 900 *)
  let seg = Segments.of_lens (Array.init 90 (fun i -> 9 + (i mod 3))) in
  let m1 = random_tensor rng ~batch:24 ~width:32 in
  let m2 = random_tensor rng ~batch:24 ~width:32 in
  let soft = Segments.softmax a seg in
  let sums = Segments.sum a seg in
  let idx = Array.init 900 (fun i -> i * 7 mod 900) in
  let gathered = Segments.gather a idx in
  let acc = Tensor.create ~batch:6 ~width:900 in
  Segments.scatter_add ~into:acc idx b;
  let exped = Tensor.exp a in
  let logged = Tensor.create ~batch:6 ~width:900 in
  Tensor.log_safe_into ~out:logged soft;
  (* the propagation sweep over ~1,200 e-nodes with cyclic components,
     wide enough that its 6 rows split into chunks *)
  let eg = Test_util.random_egraph (Rng.create 9) ~classes:600 ~cycle_prob:0.3 in
  let sched = Relaxation.schedule Propagation.Hybrid eg in
  let ne = Egraph.num_nodes eg in
  let cp = Segments.softmax (random_tensor rng ~batch:6 ~width:ne) eg.Egraph.class_seg in
  let p = Tensor.create ~batch:6 ~width:ne in
  let st = Propagation.state sched ~batch:6 in
  Propagation.forward sched st ~out:p cp;
  let dcp = random_tensor rng ~batch:6 ~width:ne in
  Propagation.backward sched st (Propagation.scratch sched ~batch:6) ~cp ~p
    ~g:(random_tensor rng ~batch:6 ~width:ne) ~into:dcp;
  (* the fused adjoints Ad's pulls and Plan's backward steps share *)
  let grads = List.init 4 (fun _ -> Tensor.copy b) in
  (match grads with
  | [ g1; g2; g3; g4 ] ->
      Tensor.mul_grad ~into:g1 ~g:a b;
      Tensor.log_safe_grad ~into:g2 ~g:a soft;
      Tensor.relu_grad ~into:g3 ~g:b a;
      Segments.softmax_grad ~into:g4 ~g:a ~y:soft seg
  | _ -> assert false);
  let axpyd = Tensor.copy a in
  Tensor.axpy 0.37 b axpyd;
  let prod_mat = Tensor.matmul_nt m1 m2 in
  List.map bits_of_tensor
    ([ soft; sums; gathered; acc; exped; logged; axpyd; prod_mat; p; dcp ] @ grads)

let test_tensor_kernels_bit_identical () =
  let seq_bits = with_jobs 1 kernel_outputs in
  let par_bits = with_cutoff 64 (fun () -> with_jobs 4 kernel_outputs) in
  List.iteri
    (fun k (s, p) ->
      Alcotest.(check bool) (Printf.sprintf "kernel %d bit-identical" k) true (s = p))
    (List.combine seq_bits par_bits)

(* ---------------------------------------------------- determinism matrix *)

let counters_of_snapshot = function
  | Json.Object members ->
      List.filter_map
        (fun (name, v) ->
          match Json.member "type" v with
          | Json.String "counter" -> Some (name, Json.get_number (Json.member "value" v))
          | _ -> None)
        members
  | _ -> []

(* One SmoothE run at a given pool size: iteration-bounded (a wall-clock
   budget would make the iteration count timing-dependent), checkpointed,
   metrics captured. Returns everything the matrix compares. *)
let smoothe_run ~jobs =
  with_jobs jobs @@ fun () ->
  with_cutoff 64 @@ fun () ->
  with_tmpdir @@ fun dir ->
  let g = (Registry.find_instance "box_3").Registry.build () in
  let config =
    {
      Smoothe_config.default with
      Smoothe_config.batch = 6;
      max_iters = 12;
      time_limit = 0.0;
      seed = 11;
    }
  in
  let store = Checkpoint.store ~dir ~name:"matrix" () in
  Obs.enable ();
  Trace.reset ();
  Metrics.reset ();
  let run, counters =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Trace.reset ();
        Metrics.reset ())
      (fun () ->
        let run = Smoothe_extract.extract ~config ~checkpoint:store ~checkpoint_every:5 g in
        (run, counters_of_snapshot (Metrics.snapshot ())))
  in
  match Checkpoint.load_latest store with
  | Some (snap, _gen) -> (run, counters, snap)
  | None -> Alcotest.fail "no checkpoint written"

let test_determinism_matrix_smoothe () =
  let run1, counters1, snap1 = smoothe_run ~jobs:1 in
  let run4, counters4, snap4 = smoothe_run ~jobs:4 in
  let r1 = run1.Smoothe_extract.result and r4 = run4.Smoothe_extract.result in
  Alcotest.(check int) "same iteration count" run1.Smoothe_extract.iterations
    run4.Smoothe_extract.iterations;
  Alcotest.(check bool) "same cost bits" true
    (Int64.bits_of_float r1.Extractor.cost = Int64.bits_of_float r4.Extractor.cost);
  Alcotest.(check bool) "same solution" true (r1.Extractor.solution = r4.Extractor.solution);
  (* the observability stream: same counters, same values *)
  Alcotest.(check (list (pair string (float 0.0)))) "same metrics counters" counters1
    counters4;
  (* the durable state: a run is checkpoint-equivalent at any jobs *)
  Alcotest.(check string) "same fingerprint"
    (Checkpoint.fingerprint_to_string snap1.Checkpoint.fingerprint)
    (Checkpoint.fingerprint_to_string snap4.Checkpoint.fingerprint);
  Alcotest.(check int) "same checkpoint iter" snap1.Checkpoint.iter snap4.Checkpoint.iter;
  Alcotest.(check bool) "same rng state" true
    (snap1.Checkpoint.rng_state = snap4.Checkpoint.rng_state);
  Alcotest.(check bool) "same theta bits" true
    (bits_of_tensor snap1.Checkpoint.theta = bits_of_tensor snap4.Checkpoint.theta);
  Alcotest.(check int) "same adam step" snap1.Checkpoint.adam_step snap4.Checkpoint.adam_step;
  Alcotest.(check bool) "same best cost" true
    (Int64.bits_of_float snap1.Checkpoint.best_cost
    = Int64.bits_of_float snap4.Checkpoint.best_cost);
  Alcotest.(check bool) "same incumbent" true
    (snap1.Checkpoint.best_choice = snap4.Checkpoint.best_choice)

(* ------------------------------------------------------------- portfolio *)

(* Members bounded by iterations (not wall-clock) with a budget far
   larger than they need, so neither schedule ever hits the deadline:
   the parallel portfolio must then pick the same winner at the same
   cost as the sequential one. *)
let portfolio_config jobs =
  {
    Portfolio.default_config with
    Portfolio.time_budget = 120.0;
    use_ilp = true;
    use_smoothe = true;
    use_annealing = false;
    use_genetic = false;
    smoothe =
      { Smoothe_config.default with Smoothe_config.batch = 4; max_iters = 10; seed = 3 };
    jobs;
  }

let test_portfolio_jobs_invariant () =
  let g = (Registry.find_instance "box_3").Registry.build () in
  let run jobs = Portfolio.extract ~config:(portfolio_config jobs) (Rng.create 19) g in
  let seq = run 1 and par = run 4 in
  let costs o =
    List.map
      (fun m ->
        (m.Portfolio.member_name, Int64.bits_of_float m.Portfolio.result.Extractor.cost))
      o.Portfolio.members
  in
  Alcotest.(check (list (pair string int64))) "same member costs" (costs seq) (costs par);
  Alcotest.(check bool) "same best cost" true
    (Int64.bits_of_float seq.Portfolio.best.Extractor.cost
    = Int64.bits_of_float par.Portfolio.best.Extractor.cost);
  Alcotest.(check (option string)) "same winner"
    (List.assoc_opt "winner" seq.Portfolio.best.Extractor.notes)
    (List.assoc_opt "winner" par.Portfolio.best.Extractor.notes)

let test_portfolio_parallel_valid () =
  (* with wall-clock members the parallel portfolio is not reproducible
     across jobs — but it must still return a validated solution and
     per-member results *)
  let g = (Registry.find_instance "set_cover_small").Registry.build () in
  let config =
    { (portfolio_config 4) with Portfolio.time_budget = 5.0; use_annealing = true }
  in
  let out = Portfolio.extract ~config (Rng.create 23) g in
  Alcotest.(check int) "heuristics + 3 anytime members" 5 (List.length out.Portfolio.members);
  (match out.Portfolio.best.Extractor.solution with
  | Some s ->
      Alcotest.(check bool) "best validates" true
        (Egraph.Solution.validate g s = Egraph.Solution.Valid)
  | None -> Alcotest.fail "portfolio returned no solution");
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Portfolio.member_name ^ " cost no better than portfolio best")
        true
        (out.Portfolio.best.Extractor.cost <= m.Portfolio.result.Extractor.cost))
    out.Portfolio.members

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "results in input order" `Quick test_pool_results_in_order;
          Alcotest.test_case "size-1 runs inline" `Quick test_pool_size1_inline;
          Alcotest.test_case "lowest-index failure" `Quick test_pool_lowest_index_failure;
          Alcotest.test_case "nested submission" `Quick test_pool_nested_submission;
          Alcotest.test_case "run_list" `Quick test_pool_run_list;
          Alcotest.test_case "trace merged in task order" `Quick test_pool_trace_task_order;
        ] );
      ( "chunks",
        [
          chunks_covers_exactly_once;
          fold_chunks_jobs_invariant;
          Alcotest.test_case "inline under cutoff" `Quick test_chunks_inline_under_cutoff;
          Alcotest.test_case "rejects bad grain" `Quick test_chunks_rejects_bad_grain;
        ] );
      ( "tensor",
        [
          Alcotest.test_case "kernels bit-identical at jobs 4" `Quick
            test_tensor_kernels_bit_identical;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "smoothe identical at jobs 1 vs 4" `Slow
            test_determinism_matrix_smoothe;
          Alcotest.test_case "portfolio identical at jobs 1 vs 4" `Slow
            test_portfolio_jobs_invariant;
          Alcotest.test_case "parallel portfolio validates" `Slow
            test_portfolio_parallel_valid;
        ] );
    ]
