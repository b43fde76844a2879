(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (each runs serially, one extraction at a time). The batch
   workloads run SmoothE at the CLI's default seed (7) and --seed only
   orders their instances: their iteration counts and B&B effort swing
   by 15-50% with the SmoothE seed, which would drown any regression.
   serve_mixed generates its whole request schedule from --seed.

   - smoothe_plan: Smoothe_extract.extract as `smoothe extract` runs it
     with --plan on, preflight on, --jobs 1 and no wall-clock limit
     (patience or the iteration cap ends every run), on box_3, fir_5,
     ffmpeg_1 (acyclic) and NASNet-A, ResNet-50 (cyclic).
     Tensor, autodiff plan replay, Adam and sampling do the work; milp
     and serve are bypassed.
   - hybrid_exact: Hybrid_pipeline.extract to a proof of optimality on
     set_cover_mid and mcm_8 at --jobs 2 with an ample budget. LP
     pivots, B&B waves and e-class fixing do the work; the SmoothE
     stage is a small share and the tensor layer is nearly idle.
   - serve_mixed: an open loop against an in-process Serve_engine
     (daemon defaults: plan off, so the Ad interpreter runs; one
     executor; journal with fsync), run on one core (run.sh pins it).
     One seeded generator thread offers Poisson arrivals at a fixed rate
     of about a third of one executor's capacity: 80% SmoothE misses
     with fresh seeds, 10% exact repeats (cache hits), 10% greedy-DAG
     requests, on inline mcm_8, set_cover_small and mat-mul_3x3 (see
     sched.ml for why this mix). Every request is decoded from its JSON
     frame and every response encoded. Latency runs from the time a
     request was due.

   --trace 0 prints the end-to-end metrics, measured with Obs off.
   The JSON result line carries setup_s, latency_ms, cost_ratio and
   peak_heap_mb, on every workload. latency_ms is the median request
   latency on serve_mixed. On the batch workloads a request is one pass
   (a client submitting the instance set and waiting for all of it) and
   latency_ms is a pass with every instance at its fastest of the run:
   on a shared 2-vCPU VM the median pass (request_ms_p50) moves by a
   sixth between runs of one seed, the fastest by a twenty-fifth.
   peak_heap_mb is the largest single extraction's peak on the batch
   workloads. The table adds request_ms_p50/p95, pass_s_p50,
   per-extraction percentiles (the highest with ten samples beyond it),
   goodput_rps, proved_share and failed_share: tails move by a third or
   more between runs, too much to gate a change on; the shares are 0
   (no usable ratio base) on some workload; goodput is extractions per
   second on the batch workloads (the inverse of the mean pass) and, on
   serve_mixed, ok responses within serve_slo_ms per second. Failures
   also count in the result line's "failed".

   The default seed is 1. Claims made against this benchmark should be
   checked again on the held-out seed 4242, which no tuning used.

   --trace 1 runs untraced and traced passes. A traced batch pass runs
   the same extraction calls with Obs on, each inside a bench.extract
   span that takes in the spans the program records itself
   (Spans.program_names maps them to lib/ layer names); what no span
   covers is the unattributed residual. Calls the program does not
   span (lint, relaxation compile, plan dataflow analysis, ILP encode,
   root LP) and the serve layers the request path hides are timed by
   probes outside the passes, each call in a bench span. The run reads
   the program's Metrics counters, writes the spans to
   .perfbench/spans-<workload>-<seed>.json and prints per-layer
   metrics. Layer metrics a workload does not exercise read 0.

   Layer metric -> end-to-end metric it should move:
   - smoothe_plan -> latency_ms, pass_s: analysis.{lint,plan_check}_ms,
     core.{relax_compile_ms,iterations,sample_ms_per_iter},
     autodiff.{plan_build_ms,plan_fwd_ms_per_iter,plan_bwd_ms_per_iter,
     adam_us_per_iter}, tensor.segment_ops_per_iter
   - hybrid_exact -> latency_ms, pass_s: core.smoothe_stage_s,
     extraction.{ilp_encode_ms,hybrid_s,nodes_dropped_ratio},
     milp.{lp_solves,lp_pivots,lp_us_per_pivot,bnb_nodes}
   - serve_mixed -> latency_ms (the p50), request_ms_p95, goodput_rps:
     egraph.serial_parse_us, serve.{decode_us,offer_us_hit,
     offer_us_miss,journal_append_us,queue_ms_p95,exec_ms_p50,
     encode_us,cache_hit_ratio}, autodiff.{ad_fwd,ad_bwd}_ms_per_iter,
     tensor.bytes_per_iter (also peak_heap_mb)
   - every workload: egraph.build_ms and extraction.greedy_dag_ms ->
     setup_s; obs.trace_overhead; bench.unattributed_{ms,share} (pass
     time no span covers); gen.lag_ms_p95 (serve_mixed).
   NASNet-A and ResNet-50 have only one-class cycle blocks, whose
   matrix exponential is a scalar exp that Tensor.Matfun does not
   count, so no tensor.matexp_* metric is reported. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt
let now = Unix.gettimeofday
let work_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* results                                                             *)

type metric = { m_name : string; m_unit : string; m_value : float; m_n : int }

let metric ?(n = 1) m_name m_unit m_value = { m_name; m_unit; m_value; m_n = n }

let failures = ref []
let attempted = ref 0
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let env_line ~jobs =
  let commit = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT") in
  Printf.printf
    "env {\"commit\": %S, \"ocaml\": %S, \"nproc\": %d, \"workload\": %S, \"jobs\": %d, \
     \"seed\": %d, \"seconds\": %g, \"trace\": %d}\n"
    commit Sys.ocaml_version
    (Domain.recommended_domain_count ())
    !workload jobs !seed !seconds !trace

let print_table title rows =
  Printf.printf "\n%s\n%-34s %18s  %-6s %s\n" title "metric" "value" "unit" "n";
  List.iter
    (fun m ->
      Printf.printf "%-34s %18.6f  %-6s %d\n" m.m_name m.m_value m.m_unit m.m_n)
    rows

(* The last stdout line: the machine-readable result. Exits 1 when any
   check failed. *)
let finish metrics =
  let failed = List.length !failures in
  List.iter (fun f -> Printf.printf "CHECK FAILED: %s\n" f) (List.rev !failures);
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name (json_float m.m_value)
             m.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 !attempted) failed body;
  exit (if failed = 0 then 0 else 1)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median_of_list l = Pct.median (Array.of_list l)

let write_spans sp =
  Fsio.mkdir_p work_dir;
  let path = Printf.sprintf "%s/spans-%s-%d.json" work_dir !workload !seed in
  Fsio.write_atomic ~path (Spans.to_json sp);
  Printf.printf "spans written to %s (%d spans)\n" path (List.length (Spans.spans sp))

(* Self-time table of a traced run, with the residual no layer covers. *)
let print_self_times sp =
  Printf.printf "\n%-30s %8s %14s %14s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, c, tot, slf) ->
      Printf.printf "%-30s %8d %14.3f %14.3f\n" name c (tot *. 1e3) (slf *. 1e3))
    (Spans.totals sp);
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun (name, _, _, slf) ->
      let l = Spans.layer_of name in
      Hashtbl.replace by_layer l (slf +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    (Spans.totals sp);
  Printf.printf "\n%-30s %14s\n" "layer" "self_ms";
  List.iter
    (fun (l, s) -> Printf.printf "%-30s %14.3f\n" l (s *. 1e3))
    (List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) by_layer []))

(* A traced run reports every per-layer metric BENCHMARK.json lists, in
   its order and unit; 0 where the workload does not exercise the
   layer. *)
let per_layer_metrics values =
  let manifest = Json.parse (Fsio.read_file "BENCHMARK.json") in
  List.map
    (fun m ->
      let name = Json.get_string (Json.member "name" m) in
      let v, n = Option.value ~default:(0.0, 0) (List.assoc_opt name values) in
      metric ~n name (Json.get_string (Json.member "unit" m)) v)
    (Json.get_list (Json.member "per_layer" manifest))

let counter = Metrics.counter_value
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* set-up                                                              *)

type prepared = { name : string; g : Egraph.t; greedy_cost : float }

(* Build every instance and its greedy-DAG reference cost; the greedy
   solution goes through the oracle like every other result. *)
let prepare sp ~parent names =
  List.map
    (fun name ->
      let g =
        Spans.with_span sp ~parent "egraph.build" (fun _ ->
            (Registry.find_instance name).Registry.build ())
      in
      let r = Spans.with_span sp ~parent "extraction.greedy_dag" (fun _ -> Greedy_dag.extract g) in
      let greedy_cost =
        match r.Extractor.solution with
        | None -> fail "%s: greedy-DAG found no solution" name; infinity
        | Some s -> (
            match
              Oracle.check_reported g (Oracle.choices_of_solution s) ~reported:r.Extractor.cost
            with
            | Ok c -> c
            | Error e -> fail "%s: greedy-DAG solution rejected: %s" name e; infinity)
      in
      { name; g; greedy_cost })
    names

let setup_reps = 21

(* Set up [k] times and keep the last; setup_s is the median. Each
   repetition starts from a collected heap, so none of them pays for
   the garbage of the one before. *)
let setup_repeated ?(discard = ignore) sp ~k f =
  let times = ref [] and last = ref None in
  for _ = 1 to k do
    Gc.full_major ();
    let v, dt =
      time (fun () -> Spans.with_span sp "bench.setup" (fun parent -> f ~parent))
    in
    times := dt :: !times;
    Option.iter discard !last;
    last := Some v
  done;
  (Option.get !last, metric ~n:k "setup_s" "s" (median_of_list !times))

(* ------------------------------------------------------------------ *)
(* batch workloads: smoothe_plan, hybrid_exact                         *)

type outcome = {
  cost : float;
  choices : (int * int) list;
  proved : bool;
  work : int list;  (** iteration / node counts that must repeat exactly *)
  dropped : int;  (** e-nodes removed before exact solving (hybrid) *)
}

let outcome_of_result (r : Extractor.r) ~work ~dropped =
  {
    cost = r.Extractor.cost;
    choices = Option.fold ~none:[] ~some:Oracle.choices_of_solution r.Extractor.solution;
    proved = r.Extractor.proved_optimal;
    work;
    dropped;
  }

(* Oracle plus repeatability: every pass must reproduce the reference
   pass's cost and iteration counts exactly. *)
let check_outcome (p : prepared) ~reference (o : outcome) =
  incr attempted;
  let ok =
    match Oracle.check_reported p.g o.choices ~reported:o.cost with
    | Error e -> fail "%s: solution rejected: %s" p.name e; false
    | Ok _ -> true
  in
  match reference with
  | None -> ok
  | Some (r : outcome) ->
      if r.cost <> o.cost then begin
        fail "%s: cost %.17g differs from the first pass's %.17g" p.name o.cost r.cost;
        false
      end
      else if r.work <> o.work then begin
        fail "%s: iteration counts [%s] differ from the first pass's [%s]" p.name
          (String.concat "," (List.map string_of_int o.work))
          (String.concat "," (List.map string_of_int r.work));
        false
      end
      else ok

let smoothe_plan_instances = [ "box_3"; "fir_5"; "ffmpeg_1"; "NASNet-A"; "ResNet-50" ]

let smoothe_config =
  {
    Smoothe_config.default with
    Smoothe_config.plan = Smoothe_config.Plan_on;
    time_limit = 0.0;
  }

let smoothe_extract g =
  let run = Smoothe_extract.extract ~config:smoothe_config ~preflight:true g in
  outcome_of_result run.Smoothe_extract.result ~work:[ run.Smoothe_extract.iterations ] ~dropped:0

(* Layer probes outside the passes, on the same instances: the calls
   Smoothe_extract.extract makes before its first iteration, which no
   span of the program covers (lint, relaxation compile), and the plan
   dataflow analysis, which the program's plan.capture span lumps with
   the second capture and the plan compile. Each figure is the mean over
   instances of the median of [reps] calls. *)
let smoothe_probes sp prepared =
  let reps = 5 in
  let probe name f =
    let per_instance =
      List.map
        (fun p ->
          let x = f p.g in
          median_of_list
            (List.init reps (fun _ ->
                 snd (time (fun () -> Spans.with_span sp name (fun _ -> x ()))))))
        prepared
    in
    (List.fold_left ( +. ) 0.0 per_instance /. float_of_int (List.length prepared) *. 1e3,
     reps * List.length prepared)
  in
  let config = smoothe_config in
  let plan_check g =
    let compiled = Relaxation.compile config g in
    let fp =
      Device.footprint g ~prop_iters:compiled.Relaxation.prop_iters
        ~scc_decomposition:config.Smoothe_config.scc_decomposition
        ~batched_matexp:config.Smoothe_config.batched_matexp
    in
    let batch = min config.Smoothe_config.batch (Device.max_batch Device.a100 fp) in
    let rng = Rng.create config.Smoothe_config.seed in
    let theta =
      Tensor.init ~batch ~width:(Egraph.num_nodes g) (fun _ _ ->
          config.Smoothe_config.init_std *. Rng.gaussian rng)
    in
    let fwd =
      Device.run Device.a100 (fun () ->
          Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta)
    in
    let ir = (Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss).Plan.ir in
    let id = Ad.node_id in
    let outputs =
      [|
        id fwd.Relaxation.cp; id fwd.Relaxation.per_seed_cost; id fwd.Relaxation.penalty;
        id fwd.Relaxation.loss;
      |]
    in
    fun () ->
      ignore
        (Plan_check.analyze ~grads:[| id fwd.Relaxation.theta |] ~root:(id fwd.Relaxation.loss)
           ~outputs ir)
  in
  [
    ("analysis.lint_ms", probe "analysis.lint" (fun g () -> ignore (Egraph_lint.check g)));
    ( "core.relax_compile_ms",
      probe "core.relax_compile" (fun g () -> ignore (Relaxation.compile config g)) );
    ("analysis.plan_check_ms", probe "analysis.plan_check" plan_check);
  ]

let hybrid_instances = [ "set_cover_mid"; "mcm_8" ]

let hybrid_config =
  {
    Hybrid_pipeline.default_config with
    Hybrid_pipeline.time_budget = 600.0;
  }

let hybrid_outcome (h : Hybrid.outcome) ~smoothe_iters result =
  outcome_of_result result
    ~work:
      (smoothe_iters :: List.map (fun p -> p.Hybrid.phase_nodes) h.Hybrid.phases)
    ~dropped:(h.Hybrid.dropped_by_fixing + h.Hybrid.dropped_by_bound)

let hybrid_extract g =
  let run = Hybrid_pipeline.extract ~config:(hybrid_config) ~pool:(Pool.get ()) g in
  let smoothe_iters =
    Option.fold ~none:0
      ~some:(fun r -> r.Smoothe_extract.iterations)
      run.Hybrid_pipeline.smoothe_run
  in
  hybrid_outcome run.Hybrid_pipeline.hybrid ~smoothe_iters run.Hybrid_pipeline.result

type batch = {
  instances : string list;
  jobs : int;
  extract : Egraph.t -> outcome;
  probes : Spans.t -> prepared list -> (string * (float * int)) list;
      (** per-layer figures measured outside the passes *)
}

(* One pass over the instances. The pass time sums the extractions
   only; the oracle runs outside the timed calls. A rejected result
   counts as an infinite latency. With [collect] every extraction
   starts from a collected heap, so the process's peak heap after the
   pass is the largest single extraction's, whatever the order. Timed
   passes do not collect: each full collection hands the freed heap
   back to malloc, which returns it to the kernel, and the next pass
   then takes seven times the page faults (410k against 61k in a 12 s
   smoothe_plan run), a cost that swings with the VM host. *)
let run_pass ?(collect = false) ~extract ~reference prepared =
  let runs =
    List.map
      (fun p ->
        if collect then Gc.full_major ();
        time (fun () -> extract p.g))
      prepared
  in
  let lat =
    List.mapi
      (fun i (p, (o, t)) ->
        let reference = Option.map (fun r -> List.nth r i) reference in
        if check_outcome p ~reference o then t else infinity)
      (List.combine prepared runs)
  in
  (List.map fst runs, lat, List.fold_left (fun acc (_, t) -> acc +. t) 0.0 runs)

(* The traced pass: the same extractions with Obs on, each inside a
   bench.extract span that takes in the spans the program records. *)
let traced_pass sp ~extract prepared =
  Spans.with_span sp "bench.pass" (fun parent ->
      List.map
        (fun p ->
          Spans.with_span sp ~parent "bench.extract" (fun parent ->
              let o, evs = Trace.capturing (fun () -> extract p.g) in
              Spans.adopt sp ~parent evs;
              o))
        prepared)

let run_batch (b : batch) =
  Pool.set_jobs b.jobs;
  env_line ~jobs:b.jobs;
  let b =
    let order = Array.of_list b.instances in
    Rng.shuffle (Rng.create !seed) order;
    { b with instances = Array.to_list order }
  in
  let quiet = Spans.create ~on:false in
  if !trace = 0 then begin
    let prepared, setup_s =
      setup_repeated quiet ~k:setup_reps (fun ~parent -> prepare quiet ~parent b.instances)
    in
    (* one extraction's peak, not the run's: the run's grows with the
       number of passes the clock allows. It is taken on one domain:
       results are the same at any --jobs, and with two domains
       collecting in parallel the peak moved by a sixth between runs. *)
    Pool.set_jobs 1;
    let reference, _, _ = run_pass ~collect:true ~extract:b.extract ~reference:None prepared in
    let peak = peak_heap_mb () in
    Pool.set_jobs b.jobs;
    let reference = Some reference in
    let lats = ref [] and passes = ref [] and best = ref [] in
    let t_end = now () +. !seconds in
    while now () < t_end || List.length !passes < 2 do
      let _, lat, dt = run_pass ~extract:b.extract ~reference prepared in
      lats := lat @ !lats;
      best := (match !best with [] -> lat | b -> List.map2 Float.min b lat);
      passes := dt :: !passes
    done;
    (* latency_ms: one pass with every instance at its fastest of the
       run. Interference from the shared host only ever adds time, and it
       comes and goes over seconds, so the per-instance minimum is the
       steady estimate: over five seeds its IQR/median was 0.04 against
       0.17 for the median pass (request_ms_p50). *)
    let best_pass_ms = List.fold_left ( +. ) 0.0 !best *. 1e3 in
    let outs = Option.get reference in
    let n_inst = List.length prepared in
    let lat = Array.of_list (List.map (fun t -> t *. 1e3) !lats) in
    let ok = List.length (List.filter Float.is_finite !lats) in
    let total = List.fold_left ( +. ) 0.0 !passes in
    let cost_ratio =
      Pct.geomean (Array.of_list (List.map2 (fun p o -> o.cost /. p.greedy_cost) prepared outs))
    in
    let proved = List.length (List.filter (fun o -> o.proved) outs) in
    let n_lat = Array.length lat in
    let tail = Pct.tail_percentile n_lat in
    let pass_ms = Array.of_list (List.map (fun t -> t *. 1e3) !passes) in
    let n_pass = Array.length pass_ms in
    let metrics =
      [
        setup_s;
        metric ~n:n_pass "latency_ms" "ms" best_pass_ms;
        metric ~n:n_inst "cost_ratio" "ratio" cost_ratio;
        metric "peak_heap_mb" "MB" peak;
      ]
    in
    let extra =
      [
        metric ~n:n_pass "request_ms_p50" "ms" (Pct.median pass_ms);
        metric ~n:n_pass "request_ms_p95" "ms" (Pct.nearest_rank pass_ms 95.0);
        metric ~n:n_pass "pass_s_p50" "s" (Pct.median pass_ms /. 1e3);
        metric ~n:n_lat "extract_ms_p50" "ms" (Pct.median lat);
        metric ~n:ok "goodput_rps" "1/s" (float_of_int ok /. total);
        metric ~n:n_inst "proved_share" "ratio" (float_of_int proved /. float_of_int n_inst);
        metric ~n:n_lat "failed_share" "ratio"
          (float_of_int (List.length !failures) /. float_of_int (max 1 !attempted));
      ]
      @
      match tail with
      | Some p when p <> 50.0 ->
          [ metric ~n:n_lat (Printf.sprintf "extract_ms_p%g" p) "ms" (Pct.nearest_rank lat p) ]
      | _ -> []
    in
    print_table "end-to-end (Obs off)" (metrics @ extra);
    finish metrics
  end
  else begin
    let sp = Spans.create ~on:true in
    let prepared, _ = setup_repeated sp ~k:3 (fun ~parent -> prepare sp ~parent b.instances) in
    let reference, _, _ = run_pass ~extract:b.extract ~reference:None prepared in
    let untraced = ref [] and traced = ref [] in
    let outs = ref [] in
    Metrics.reset ();
    let t_end = now () +. !seconds in
    while now () < t_end || !traced = [] do
      let _, _, dt = run_pass ~extract:b.extract ~reference:(Some reference) prepared in
      untraced := dt :: !untraced;
      let pass, dt =
        Obs.with_enabled (fun () -> time (fun () -> traced_pass sp ~extract:b.extract prepared))
      in
      List.iter2
        (fun p (r, o) -> ignore (check_outcome p ~reference:(Some r) o))
        prepared (List.combine reference pass);
      outs := pass @ !outs;
      traced := dt :: !traced
    done;
    let counter =
      let counts =
        List.map
          (fun n -> (n, Metrics.counter_value n))
          [
            "tensor.segment_ops"; "tensor.bytes_allocated"; "lp.solves"; "lp.pivots";
            "bnb.nodes_explored";
          ]
      in
      fun n -> List.assoc n counts
    in
    let probes = Obs.with_enabled (fun () -> b.probes sp prepared) in
    let passes = float_of_int (List.length !traced) in
    let extractions = passes *. float_of_int (List.length prepared) in
    let iters =
      float_of_int (List.fold_left (fun acc o -> acc + List.hd o.work) 0 !outs)
    in
    let self = Spans.self_of sp and total = Spans.total_of sp in
    let per_call name = ratio (total name) (float_of_int (Spans.count_of sp name)) in
    let setups = float_of_int (Spans.count_of sp "bench.setup") in
    let nodes = List.fold_left (fun acc p -> acc + Egraph.num_nodes p.g) 0 prepared in
    let dropped = List.fold_left (fun acc o -> acc + o.dropped) 0 !outs in
    let n = List.length !traced in
    let unattributed = self "bench.pass" +. self "bench.extract" in
    let values =
      [
        ("core.iterations", (iters /. passes, n));
        ("core.sample_ms_per_iter", (per_call "core.sample" *. 1e3, n));
        ( "core.smoothe_stage_s",
          ((total "core.hybrid_pipeline" -. total "extraction.hybrid") /. passes, n) );
        ("autodiff.plan_build_ms", (total "autodiff.plan_build" /. extractions *. 1e3, n));
        ("autodiff.plan_fwd_ms_per_iter", (per_call "autodiff.plan_fwd" *. 1e3, n));
        ("autodiff.plan_bwd_ms_per_iter", (per_call "autodiff.plan_bwd" *. 1e3, n));
        ("autodiff.adam_us_per_iter", (per_call "autodiff.adam" *. 1e6, n));
        ("autodiff.ad_fwd_ms_per_iter", (per_call "autodiff.ad_fwd" *. 1e3, n));
        ("autodiff.ad_bwd_ms_per_iter", (per_call "autodiff.ad_bwd" *. 1e3, n));
        ("tensor.segment_ops_per_iter", (ratio (counter "tensor.segment_ops") iters, n));
        ("tensor.bytes_per_iter", (ratio (counter "tensor.bytes_allocated") iters, n));
        ("extraction.hybrid_s", (total "extraction.hybrid" /. passes, n));
        ( "extraction.nodes_dropped_ratio",
          (float_of_int dropped /. (passes *. float_of_int nodes), n) );
        ("extraction.greedy_dag_ms", (self "extraction.greedy_dag" /. setups *. 1e3, 3));
        ("milp.lp_solves", (counter "lp.solves" /. passes, n));
        ("milp.lp_pivots", (counter "lp.pivots" /. passes, n));
        ("milp.bnb_nodes", (counter "bnb.nodes_explored" /. passes, n));
        ("egraph.build_ms", (self "egraph.build" /. setups *. 1e3, 3));
        ( "obs.trace_overhead",
          (median_of_list !traced /. median_of_list !untraced -. 1.0, n) );
        ("bench.unattributed_ms", (unattributed /. passes *. 1e3, n));
        ("bench.unattributed_share", (unattributed /. List.fold_left ( +. ) 0.0 !traced, n));
      ]
      @ probes
    in
    write_spans sp;
    print_self_times sp;
    let metrics = per_layer_metrics values in
    print_table "per-layer (traced run)" metrics;
    finish metrics
  end

(* Layer probes measured outside the passes, on the same instances:
   the ILP encoding and the root LP relaxation, whose per-pivot cost
   the B&B pays on every node. *)
let hybrid_probes sp prepared =
  let reps = 3 in
  let encode_t = ref [] and lp_t = ref 0.0 in
  let pivots0 = counter "lp.pivots" in
  List.iter
    (fun p ->
      let t = ref [] in
      let enc = ref None in
      for _ = 1 to reps do
        let e, dt =
          time (fun () -> Spans.with_span sp "extraction.ilp_encode" (fun _ -> Ilp.encode p.g))
        in
        enc := Some e;
        t := dt :: !t
      done;
      encode_t := median_of_list !t :: !encode_t;
      let (), dt =
        time (fun () ->
            Spans.with_span sp "milp.lp_root" (fun _ ->
                ignore (Lp.solve (Option.get !enc).Ilp.problem)))
      in
      lp_t := !lp_t +. dt)
    prepared;
  let pivots = counter "lp.pivots" -. pivots0 in
  [
    ("extraction.ilp_encode_ms", (median_of_list !encode_t *. 1e3, List.length prepared));
    ("milp.lp_us_per_pivot", (ratio !lp_t pivots *. 1e6, int_of_float pivots));
  ]

(* ------------------------------------------------------------------ *)
(* serve_mixed                                                         *)

let serve_graphs = [ "mcm_8"; "set_cover_small"; "mat-mul_3x3" ]

(* Offered load, requests per second: about a third of what one
   executor on one core sustains on this mix (19-20 requests per busy
   second, the capacity_rps row, on a shared 2-vCPU x86-64 VM).
   At half capacity the host's swings pushed the queue into overload in some
   runs (p50 ranged 89-369 ms over five seeds); here queues form but
   stay short, and 32 s of arrivals still give the 200 samples a p95
   needs. *)
let serve_rate = 6.3

(* The latency limit goodput counts against: a few times the p50 of
   an executed miss at the offered rate. *)
let serve_slo_ms = 200.0

type served = { sg : Egraph.t; text : string; greedy : float }

type answer = {
  resp : Serve_protocol.response option;  (** [None]: the frame did not decode *)
  lat : float;  (** seconds from due to encoded response *)
  done_at : float;
  lag : float;  (** how late the generator offered it *)
  decode_s : float;
  offer_s : float;
  encode_s : float;
  queued : bool;
}

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* The graphs travel inline, so the oracle parses the same text the
   engine parses and sees the same node numbering. *)
let serve_prepare sp ~parent =
  Array.of_list
    (List.map
       (fun p ->
         let text = Egraph.Serial.to_string p.g in
         { sg = Egraph.Serial.of_string text; text; greedy = p.greedy_cost })
       (prepare sp ~parent serve_graphs))

type engine = { eng : Serve_engine.t; journal : Serve_journal.t; dir : string }

let engine_count = ref 0

let start_engine () =
  incr engine_count;
  let dir = Printf.sprintf "%s/journal-%d-%d" work_dir (Unix.getpid ()) !engine_count in
  rm_rf dir;
  Fsio.mkdir_p dir;
  let journal = Serve_journal.open_ ~fsync:true ~dir ~name:"bench" () in
  let eng =
    Serve_engine.create
      ~config:{ Serve_engine.default_config with Serve_engine.executors = 1 }
      ~journal ()
  in
  { eng; journal; dir }

let stop_engine e =
  Serve_engine.stop e.eng;
  Serve_journal.close e.journal;
  rm_rf e.dir

(* Open loop: the generator thread offers each frame when it is due,
   whatever the engine is doing; this thread collects queued tickets in
   order (the single executor completes them in that order). *)
let open_loop sp eng (items : Sched.item array) =
  let n = Array.length items in
  let answers = Array.make n None in
  let q = Queue.create () and m = Mutex.create () and cv = Condition.create () in
  let push x =
    Mutex.lock m;
    Queue.push x q;
    Condition.signal cv;
    Mutex.unlock m
  in
  let pop () =
    Mutex.lock m;
    while Queue.is_empty q do
      Condition.wait cv m
    done;
    let x = Queue.pop q in
    Mutex.unlock m;
    x
  in
  let start = now () +. 0.02 in
  let respond ~root ~req ~due ~lag ~decode_s ~offer_s ~queued i resp =
    let _, encode_s =
      time (fun () ->
          Spans.with_span sp ~parent:root ~req "serve.encode" (fun _ ->
              Json.to_string (Serve_protocol.response_to_json resp)))
    in
    let done_at = now () in
    Spans.record sp ~sid:root ~req "bench.request" ~t0:due ~t1:done_at;
    answers.(i) <-
      Some
        {
          resp = Some resp;
          lat = done_at -. due;
          done_at;
          lag;
          decode_s;
          offer_s;
          encode_s;
          queued;
        }
  in
  let generator () =
    Array.iteri
      (fun i (it : Sched.item) ->
        let due = start +. it.Sched.due in
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait;
        let lag = now () -. due in
        let req = Printf.sprintf "q%d" i in
        let root = Spans.reserve sp in
        let decoded, decode_s =
          time (fun () ->
              Spans.with_span sp ~parent:root ~req "serve.decode" (fun _ ->
                  match Json.parse it.Sched.frame with
                  | j -> Serve_protocol.request_of_json j
                  | exception e -> Error (Printexc.to_string e)))
        in
        match decoded with
        | Error e ->
            fail "%s: frame does not decode: %s" req e;
            let done_at = now () in
            answers.(i) <-
              Some
                {
                  resp = None;
                  lat = infinity;
                  done_at;
                  lag;
                  decode_s;
                  offer_s = 0.0;
                  encode_s = 0.0;
                  queued = false;
                }
        | Ok r -> (
            let outcome, offer_s =
              time (fun () ->
                  Spans.with_span sp ~parent:root ~req "serve.offer" (fun _ ->
                      Serve_engine.offer eng r))
            in
            match outcome with
            | Serve_engine.Done resp ->
                respond ~root ~req ~due ~lag ~decode_s ~offer_s ~queued:false i resp
            | Serve_engine.Queued tk ->
                push (Some (i, tk, root, req, due, lag, decode_s, offer_s))))
      items;
    push None
  in
  let th = Thread.create generator () in
  let rec collect () =
    match pop () with
    | None -> ()
    | Some (i, tk, root, req, due, lag, decode_s, offer_s) ->
        respond ~root ~req ~due ~lag ~decode_s ~offer_s ~queued:true i (Serve_engine.await tk);
        collect ()
  in
  collect ();
  Thread.join th;
  (Array.map Option.get answers, start)

(* Oracle for every response, plus: repeats must return the original's
   solution bit for bit, greedy-DAG requests the reference greedy cost. *)
let check_answers (graphs : served array) (items : Sched.item array) answers =
  let ok_body i =
    match answers.(i).resp with Some { Serve_protocol.body = Ok b; _ } -> Some b | _ -> None
  in
  Array.iteri
    (fun i (it : Sched.item) ->
      incr attempted;
      let gr = graphs.(it.Sched.graph) in
      match answers.(i).resp with
      | None -> ()
      | Some { Serve_protocol.body = Error e; _ } ->
          fail "q%d: %s: %s" i (Serve_protocol.error_code_name e.Serve_protocol.code)
            e.Serve_protocol.message
      | Some { Serve_protocol.body = Ok b; _ } -> (
          let check () =
            if not b.Serve_protocol.valid then Error "response says invalid"
            else
              match
                Oracle.check_reported gr.sg b.Serve_protocol.choices
                  ~reported:b.Serve_protocol.cost
              with
              | Error _ as e -> e
              | Ok cost -> (
                  match it.Sched.kind with
                  | Sched.Greedy when cost <> gr.greedy ->
                      Error (Printf.sprintf "greedy cost %.17g, reference %.17g" cost gr.greedy)
                  | Sched.Repeat j -> (
                      match ok_body j with
                      | Some o
                        when o.Serve_protocol.cost <> b.Serve_protocol.cost
                             || o.Serve_protocol.choices <> b.Serve_protocol.choices ->
                          Error (Printf.sprintf "repeat of q%d returned another solution" j)
                      | Some _ | None -> Ok ())
                  | Sched.Miss when b.Serve_protocol.iterations < 1 ->
                      Error "SmoothE request ran no iteration"
                  | Sched.Greedy | Sched.Miss -> Ok ())
          in
          match check () with Ok () -> () | Error e -> fail "q%d: %s" i e))
    items

let ok_answers answers =
  List.filter_map
    (fun a ->
      match a.resp with
      | Some { Serve_protocol.body = Ok b; _ } when Float.is_finite a.lat -> Some (a, b)
      | _ -> None)
    (Array.to_list answers)

let warm_up eng (graphs : served array) =
  Array.iter
    (fun gr ->
      List.iter
        (fun method_ ->
          ignore
            (Serve_engine.submit eng
               {
                 Serve_protocol.default_request with
                 Serve_protocol.id = "warm-up";
                 source = Serve_protocol.Inline gr.text;
                 method_;
                 seed = 0;
               }))
        [ Serve_protocol.Smoothe; Serve_protocol.Greedy_dag ])
    graphs

(* Layer probes outside the open loop: graph parsing, one fsynced
   journal append, and the interpreted forward/backward at the request
   configuration (serve runs with plan off). *)
let serve_probes sp (graphs : served array) =
  let reps f n = List.init n (fun _ -> snd (time f)) in
  let parse =
    Array.to_list
      (Array.map
         (fun gr ->
           median_of_list
             (reps
                (fun () ->
                  Spans.with_span sp "egraph.serial_parse" (fun _ ->
                      ignore (Egraph.Serial.of_string gr.text)))
                20))
         graphs)
  in
  let dir = Printf.sprintf "%s/journal-probe-%d" work_dir (Unix.getpid ()) in
  rm_rf dir;
  Fsio.mkdir_p dir;
  let j = Serve_journal.open_ ~fsync:true ~dir ~name:"probe" () in
  let req =
    {
      Serve_protocol.default_request with
      Serve_protocol.id = "probe";
      source = Serve_protocol.Inline graphs.(0).text;
    }
  in
  let k = ref 0 in
  let append =
    reps
      (fun () ->
        incr k;
        Spans.with_span sp "serve.journal_append" (fun _ ->
            Serve_journal.append_admitted j ~rid:(Printf.sprintf "p%d" !k) req))
      30
  in
  Serve_journal.close j;
  rm_rf dir;
  let fwd_t = ref [] and bwd_t = ref [] in
  Array.iter
    (fun gr ->
      let config =
        { Smoothe_config.default with Smoothe_config.batch = req.Serve_protocol.batch; seed = 1 }
      in
      let compiled = Relaxation.compile config gr.sg in
      let model = Cost_model.of_egraph gr.sg in
      let rng = Rng.create 1 in
      let theta =
        Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes gr.sg)
          (fun _ _ -> config.Smoothe_config.init_std *. Rng.gaussian rng)
      in
      Device.run Device.a100 (fun () ->
          for _ = 1 to 10 do
            let fwd, tf =
              time (fun () ->
                  Spans.with_span sp "autodiff.ad_fwd" (fun _ ->
                      Relaxation.forward compiled ~config ~model ~theta))
            in
            let (), tb =
              time (fun () ->
                  Spans.with_span sp "autodiff.ad_bwd" (fun _ -> Ad.backward fwd.Relaxation.loss))
            in
            fwd_t := tf :: !fwd_t;
            bwd_t := tb :: !bwd_t
          done))
    graphs;
  [
    ("egraph.serial_parse_us", (Pct.median (Array.of_list parse) *. 1e6, List.length parse));
    ("serve.journal_append_us", (median_of_list append *. 1e6, List.length append));
    ("autodiff.ad_fwd_ms_per_iter", (median_of_list !fwd_t *. 1e3, List.length !fwd_t));
    ("autodiff.ad_bwd_ms_per_iter", (median_of_list !bwd_t *. 1e3, List.length !bwd_t));
  ]

let run_serve () =
  Pool.set_jobs 1;
  env_line ~jobs:1;
  let setup sp ~k ~duration =
    let (graphs, items, e), setup_s =
      setup_repeated sp ~k
        ~discard:(fun (_, _, e) -> stop_engine e)
        (fun ~parent ->
          let graphs = serve_prepare sp ~parent in
          let items =
            Sched.generate ~seed:!seed ~rate:serve_rate ~duration
              ~graphs:(Array.map (fun g -> g.text) graphs)
          in
          (graphs, items, start_engine ()))
    in
    warm_up e.eng graphs;
    (graphs, items, e, setup_s)
  in
  let serve sp ~k ~duration =
    let graphs, items, e, setup_s = setup sp ~k ~duration in
    Metrics.reset ();
    let answers, start = open_loop sp e.eng items in
    stop_engine e;
    check_answers graphs items answers;
    (graphs, items, answers, start, setup_s)
  in
  let executed answers =
    List.filter (fun (a, _) -> a.queued) (ok_answers answers)
  in
  let exec_ms answers =
    Array.of_list
      (List.map (fun (a, _) -> (Option.get a.resp).Serve_protocol.elapsed_ms) (executed answers))
  in
  let lag_ms answers = Array.map (fun a -> a.lag *. 1e3) answers in
  if !trace = 0 then begin
    let quiet = Spans.create ~on:false in
    let graphs, items, answers, start, setup_s = serve quiet ~k:setup_reps ~duration:!seconds in
    let lat = Array.map (fun a -> a.lat *. 1e3) answers in
    let ok = ok_answers answers in
    let n = Array.length lat in
    let last_done = Array.fold_left (fun acc a -> Float.max acc a.done_at) start answers in
    let ratios =
      List.concat
        (List.mapi
           (fun i (it : Sched.item) ->
             match answers.(i).resp with
             | Some { Serve_protocol.body = Ok b; _ } ->
                 [ b.Serve_protocol.cost /. graphs.(it.Sched.graph).greedy ]
             | _ -> [])
           (Array.to_list items))
    in
    let hits = List.length (List.filter (fun (_, b) -> b.Serve_protocol.cache_hit) ok) in
    let n_ok = List.length ok in
    let in_slo = List.length (List.filter (fun (a, _) -> a.lat *. 1e3 <= serve_slo_ms) ok) in
    let metrics =
      [
        setup_s;
        metric ~n "latency_ms" "ms" (Pct.median lat);
        metric ~n:n_ok "cost_ratio" "ratio" (Pct.geomean (Array.of_list ratios));
        metric "peak_heap_mb" "MB" (peak_heap_mb ());
      ]
    in
    let tail =
      match Pct.tail_percentile n with
      | Some p when p <> 95.0 ->
          [ metric ~n (Printf.sprintf "request_ms_p%g" p) "ms" (Pct.nearest_rank lat p) ]
      | _ -> []
    in
    print_table "end-to-end (Obs off)"
      (metrics
      @ [
          metric ~n "request_ms_p50" "ms" (Pct.median lat);
          metric ~n "request_ms_p95" "ms" (Pct.nearest_rank lat 95.0);
          metric ~n:in_slo "goodput_rps" "1/s" (float_of_int in_slo /. (last_done -. start));
          metric ~n "failed_share" "ratio"
            (float_of_int (List.length !failures) /. float_of_int (max 1 !attempted));
          metric ~n:n_ok "cache_hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int n_ok));
          metric ~n "gen.lag_ms_p95" "ms" (Pct.nearest_rank (lag_ms answers) 95.0);
          (* requests of this mix one executor completes per busy second *)
          metric ~n "capacity_rps" "1/s"
            (float_of_int n /. (Array.fold_left ( +. ) 0.0 (exec_ms answers) /. 1e3));
        ]
      @ tail);
    finish metrics
  end
  else begin
    let half = !seconds /. 2.0 in
    let _, _, untraced, _, _ = serve (Spans.create ~on:false) ~k:1 ~duration:half in
    let sp = Spans.create ~on:true in
    Obs.enable ();
    let graphs, _, answers, _, _ = serve sp ~k:1 ~duration:half in
    let bytes = counter "tensor.bytes_allocated" in
    let probes = serve_probes sp graphs in
    Obs.disable ();
    let ok = ok_answers answers in
    let hits = List.filter (fun (_, b) -> b.Serve_protocol.cache_hit) ok in
    let executed = executed answers in
    let n_exec = List.length executed in
    let iters =
      float_of_int (List.fold_left (fun acc (_, b) -> acc + b.Serve_protocol.iterations) 0 executed)
    in
    let med f l = median_of_list (List.map f l) in
    let n = Array.length answers in
    let all = Array.to_list answers in
    let queued = List.filter (fun a -> a.queued) all in
    let values =
      [
        ("core.iterations", (iters, n_exec));
        ("tensor.bytes_per_iter", (ratio bytes iters, n_exec));
        ("serve.decode_us", (med (fun a -> a.decode_s *. 1e6) all, n));
        ("serve.offer_us_hit", (med (fun (a, _) -> a.offer_s *. 1e6) hits, List.length hits));
        ("serve.offer_us_miss", (med (fun a -> a.offer_s *. 1e6) queued, List.length queued));
        ("serve.encode_us", (med (fun a -> a.encode_s *. 1e6) all, n));
        ( "serve.queue_ms_p95",
          ( Pct.nearest_rank
              (Array.of_list
                 (List.map (fun (a, _) -> (Option.get a.resp).Serve_protocol.queue_ms) executed))
              95.0,
            n_exec ) );
        ("serve.exec_ms_p50", (Pct.median (exec_ms answers), n_exec));
        ( "serve.cache_hit_ratio",
          ( ratio (float_of_int (List.length hits)) (float_of_int (List.length ok)),
            List.length ok ) );
        ("egraph.build_ms", (Spans.self_of sp "egraph.build" *. 1e3, 1));
        ("extraction.greedy_dag_ms", (Spans.self_of sp "extraction.greedy_dag" *. 1e3, 1));
        ( "obs.trace_overhead",
          (Pct.median (exec_ms answers) /. Pct.median (exec_ms untraced) -. 1.0, n) );
        ("gen.lag_ms_p95", (Pct.nearest_rank (lag_ms untraced) 95.0, Array.length untraced));
      ]
      @ probes
    in
    write_spans sp;
    print_self_times sp;
    let metrics = per_layer_metrics values in
    print_table "per-layer (traced run)" metrics;
    finish metrics
  end

(* ------------------------------------------------------------------ *)

let () =
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  smoothe_plan | hybrid_exact | serve_mixed");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured region");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced per-layer run (1)");
    ]
  in
  Arg.parse spec (fun a -> die "unexpected argument %S" a) "bench.exe --workload W [options]";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  match !workload with
  | "smoothe_plan" ->
      run_batch
        {
          instances = smoothe_plan_instances;
          jobs = 1;
          extract = smoothe_extract;
          probes = smoothe_probes;
        }
  | "hybrid_exact" ->
      run_batch
        {
          instances = hybrid_instances;
          jobs = 2;
          extract = hybrid_extract;
          probes = hybrid_probes;
        }
  | "serve_mixed" -> run_serve ()
  | w -> die "unknown workload %S (smoothe_plan, hybrid_exact, serve_mixed)" w
