(* smoothe: command-line front end for the e-graph extraction library.

     smoothe list                        -- datasets and instances
     smoothe stats NASRNN                -- e-graph statistics
     smoothe dump fir_5 out.egraph       -- serialize an instance
     smoothe extract fir_5 -m smoothe    -- run one extractor
     smoothe compare fir_5               -- run every extractor
     smoothe serve --socket /tmp/s.sock  -- run the extraction daemon
     smoothe request fir_5 --socket ...  -- send one request to it
*)

open Cmdliner

(* Budget/deadline/limit flags are validated before anything starts:
   zero, negative or non-finite values die with a one-line error here
   instead of propagating into the runtime as a deadline that never
   expires or a queue that admits nothing. The rules are the request
   decoder's, so a flag and a wire field fail alike. *)
let require what = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n" what msg;
      exit 1

let checked_pos_float ~flag v = require flag (Serve_protocol.positive_float ~what:flag v)
let checked_pos_int ~flag v = require flag (Serve_protocol.positive_int ~what:flag v)
let checked_nonneg_int ~flag v = require flag (Serve_protocol.non_negative_int ~what:flag v)

let checked_nonneg_float ~flag v =
  require flag (Serve_protocol.non_negative_float ~what:flag v)

(* a serialized e-graph file (.json = extraction-gym format, anything
   else = the native text format); one that does not load ends the run
   with one line naming the file *)
let read_egraph_file path =
  try
    if Filename.check_suffix path ".json" then Gym.read_file path
    else Egraph.Serial.read_file path
  with Failure msg | Json.Parse_error msg | Sys_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 1

(* an instance name from the registry, or an e-graph file *)
let load_egraph spec =
  if Sys.file_exists spec then read_egraph_file spec
  else
    match Registry.find_instance spec with
    | inst -> inst.Registry.build ()
    | exception Not_found ->
        Printf.eprintf "unknown instance or file %S (try `smoothe list`)\n" spec;
        exit 1

let instance_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EGRAPH" ~doc:"Instance name (see $(b,list)) or serialized e-graph file.")

(* ------------------------------------------------------------------ list *)

let list_cmd =
  let run () =
    List.iter
      (fun ds ->
        Printf.printf "%-10s %-24s assumption=%s\n" ds.Registry.ds_name ds.Registry.task
          ds.Registry.assumption;
        List.iter
          (fun i ->
            let g = i.Registry.build () in
            Printf.printf "    %-20s N=%-6d M=%-6d %s\n" i.Registry.inst_name
              (Egraph.num_nodes g) (Egraph.num_classes g)
              (if Egraph.is_cyclic g then "cyclic" else "acyclic"))
          ds.Registry.instances)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List bundled datasets and e-graph instances.")
    Term.(const run $ const ())

(* ----------------------------------------------------------------- stats *)

let stats_cmd =
  let run spec =
    let g = load_egraph spec in
    Format.printf "%a@." Egraph.Stats.pp (Egraph.Stats.compute g)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print e-graph statistics.") Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ dump *)

let dump_cmd =
  let run spec path =
    let g = load_egraph spec in
    (if Filename.check_suffix path ".json" then Gym.write_file path g
     else if Filename.check_suffix path ".dot" then Dot.write_file path g
     else Egraph.Serial.write_file path g);
    Printf.printf "wrote %s (%d e-nodes, %d e-classes)\n" path (Egraph.num_nodes g)
      (Egraph.num_classes g)
  in
  let path =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Output path; extension selects the format: .json = extraction-gym, .dot = \
             Graphviz, anything else = the native text format.")
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Serialize an instance (native text, extraction-gym JSON or DOT).")
    Term.(const run $ instance_arg $ path)

(* --------------------------------------------------------------- extract *)

let method_conv =
  Arg.enum
    [
      ("smoothe", `Smoothe);
      ("greedy", `Greedy);
      ("greedy-dag", `Greedy_dag);
      ("ilp-cplex", `Ilp Bnb.cplex_like);
      ("ilp-scip", `Ilp Bnb.scip_like);
      ("ilp-cbc", `Ilp Bnb.cbc_like);
      ("genetic", `Genetic);
      ("annealing", `Annealing);
      ("ilp-pruned", `Ilp_pruned);
      ("hybrid", `Hybrid);
      ("portfolio", `Portfolio);
    ]

let run_method g ~method_ ~time_limit ~batch ~iters ~assumption ~lambda ~seed ~plan ~health
    ~checkpoint_dir ~checkpoint_every ~resume ~show_term ~preflight ~jobs ~fix_threshold
    ~hybrid_gap =
  if resume && checkpoint_dir = None then begin
    Printf.eprintf "--resume needs --checkpoint-dir (where should the snapshot come from?)\n";
    exit 1
  end;
  let result =
    match method_ with
    | `Greedy -> Greedy.extract g
    | `Greedy_dag -> Greedy_dag.extract g
    | `Ilp profile ->
        let warm = (Greedy_dag.extract g).Extractor.solution in
        Ilp.extract ~time_limit ?warm_start:warm ~profile g
    | `Genetic ->
        Genetic.extract
          ~config:{ Genetic.default_config with Genetic.time_limit }
          (Rng.create seed) g
    | `Annealing ->
        Annealing.extract
          ~config:{ Annealing.default_config with Annealing.time_limit }
          (Rng.create seed) g
    | `Ilp_pruned -> Acyclic_prune.extract ~time_limit g
    | `Hybrid ->
        let config =
          {
            Hybrid_pipeline.default_config with
            Hybrid_pipeline.time_budget = time_limit;
            smoothe =
              {
                Smoothe_config.default with
                Smoothe_config.batch;
                max_iters = iters;
                seed;
                assumption = Smoothe_config.assumption_of_string assumption;
                lambda_ = lambda;
                plan = Smoothe_config.plan_mode_of_string plan;
              };
            fix_threshold;
            bound_gap = hybrid_gap;
          }
        in
        let run = Hybrid_pipeline.extract ~config ~health g in
        (match run.Hybrid_pipeline.smoothe_run with
        | Some r ->
            Printf.printf "stage smoothe: %d iterations, incumbent %.6g\n"
              r.Smoothe_extract.iterations r.Smoothe_extract.result.Extractor.cost
        | None -> Printf.printf "stage smoothe: skipped (greedy incumbent)\n");
        let h = run.Hybrid_pipeline.hybrid in
        List.iter
          (fun p ->
            Printf.printf
              "stage %s: %d e-nodes, %d B&B nodes, obj %.6g, bound %.6g%s (%.2fs)\n"
              p.Hybrid.phase_name p.Hybrid.phase_vars p.Hybrid.phase_nodes p.Hybrid.phase_obj
              p.Hybrid.phase_bound
              (if p.Hybrid.phase_proved then ", proved" else "")
              p.Hybrid.phase_time)
          h.Hybrid.phases;
        Printf.printf "fixed %d classes (dropped %d by fixing, %d by bound cut), gap %.6g\n"
          h.Hybrid.fixed_classes h.Hybrid.dropped_by_fixing h.Hybrid.dropped_by_bound
          h.Hybrid.gap;
        run.Hybrid_pipeline.result
    | `Portfolio ->
        let out =
          Portfolio.extract
            ~config:
              {
                Portfolio.default_config with
                Portfolio.time_budget = time_limit;
                checkpoint_dir;
                checkpoint_every;
                jobs;
              }
            ~health (Rng.create seed) g
        in
        List.iter
          (fun m ->
            Format.printf "  member %a%s@." Extractor.pp m.Portfolio.result
              (match m.Portfolio.status with
              | Portfolio.Completed -> ""
              | Portfolio.Timed_out -> " [timed out]"
              | Portfolio.Faulted e -> Printf.sprintf " [faulted: %s]" e))
          out.Portfolio.members;
        out.Portfolio.best
    | `Smoothe ->
        let config =
          {
            Smoothe_config.default with
            Smoothe_config.batch;
            max_iters = iters;
            time_limit;
            seed;
            assumption = Smoothe_config.assumption_of_string assumption;
            lambda_ = lambda;
            plan = Smoothe_config.plan_mode_of_string plan;
          }
        in
        let store =
          Option.map
            (fun dir -> Checkpoint.store ~dir ~name:(g.Egraph.name ^ "-smoothe") ())
            checkpoint_dir
        in
        let resume_from =
          if not resume then None
          else
            match Option.map (Checkpoint.load_latest ~health ~member:"cli") store with
            | Some (Some (snap, gen)) ->
                Printf.printf "resuming from checkpoint generation %d (iteration %d)\n" gen
                  snap.Checkpoint.iter;
                Some snap
            | Some None | None ->
                Printf.printf "no usable checkpoint found; starting fresh\n";
                None
        in
        let run =
          Smoothe_extract.extract ~config ~health ?checkpoint:store ~checkpoint_every
            ?resume_from ~preflight g
        in
        Printf.printf "iterations=%d batch=%d prop_iters=%d\n" run.Smoothe_extract.iterations
          run.Smoothe_extract.batch_used run.Smoothe_extract.prop_iters;
        run.Smoothe_extract.result
  in
  Format.printf "%a@." Extractor.pp result;
  (match result.Extractor.solution with
  | Some s when show_term ->
      Printf.printf "%s\n" (Extract_term.render_dag (Extract_term.dag_of_solution g s))
  | Some _ | None -> ());
  result

let method_flag =
  Arg.(
    value
    & opt method_conv `Smoothe
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Extraction method: $(b,smoothe), $(b,greedy), $(b,greedy-dag), $(b,ilp-cplex), \
           $(b,ilp-scip), $(b,ilp-cbc), $(b,ilp-pruned), $(b,hybrid) (SmoothE-pruned, \
           bound-cut, warm-started exact solving), $(b,genetic), $(b,annealing) or \
           $(b,portfolio).")

let time_limit_flag =
  Arg.(value & opt float 60.0 & info [ "t"; "time-limit" ] ~docv:"SECONDS" ~doc:"Time limit.")

let fix_threshold_flag =
  Arg.(
    value
    & opt float 0.9
    & info [ "fix-threshold" ]
        ~docv:"P"
        ~doc:
          "Hybrid: fix an e-class to the incumbent's choice when its within-class marginal \
           reaches P (and it is the class argmax); values > 1 disable fixing.")

let hybrid_gap_flag =
  Arg.(
    value
    & opt float 0.0
    & info [ "hybrid-gap" ]
        ~docv:"G"
        ~doc:
          "Hybrid: extra relative slack on the incumbent bound cut (rhs = UB + tol + \
           G*max(1,|UB|)). 0 cuts exactly at the incumbent.")

let batch_flag =
  Arg.(value & opt int 16 & info [ "b"; "batch" ] ~docv:"B" ~doc:"SmoothE seed-batch size.")

let iters_flag =
  Arg.(value & opt int 150 & info [ "iters" ] ~docv:"K" ~doc:"SmoothE iteration cap.")

let assumption_flag =
  Arg.(
    value
    & opt (enum [ ("independent", "independent"); ("correlated", "correlated"); ("hybrid", "hybrid") ])
        "hybrid"
    & info [ "assumption" ] ~docv:"A" ~doc:"SmoothE correlation assumption.")

let lambda_flag =
  Arg.(value & opt float 100.0 & info [ "lambda" ] ~docv:"L" ~doc:"NOTEARS penalty weight.")

let plan_flag =
  Arg.(
    value
    & opt (enum [ ("off", "off"); ("on", "on"); ("check", "check") ]) "on"
    & info [ "plan" ] ~docv:"MODE"
        ~doc:
          "SmoothE static-plan replay: $(b,on) (the default) captures the iteration IR, \
           verifies it with the plan-level dataflow analysis and replays later \
           iterations over a preallocated arena with zero tensor allocation, \
           bit-identical to the interpreter; $(b,off) interprets every iteration; \
           $(b,check) replays AND interprets every iteration, asserting bit-identical \
           losses, probabilities and gradients (differential testing).")

let seed_flag = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let show_term_flag =
  Arg.(value & flag & info [ "show-term" ] ~doc:"Print the extracted program (DAG form).")

let checkpoint_dir_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Durable runs: write rotated, checksummed SmoothE checkpoints to $(docv) (created \
           if missing). With $(b,-m portfolio), also turns on supervised retry of the \
           SmoothE member from its latest checkpoint.")

let checkpoint_every_flag =
  Arg.(
    value
    & opt int 25
    & info [ "checkpoint-every" ] ~docv:"K"
        ~doc:"Checkpoint every $(docv) iterations (0 disables the periodic writes).")

let resume_flag =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume from the newest usable checkpoint in $(b,--checkpoint-dir); the completed \
           run is bit-identical to an uninterrupted one at the same seed. Starts fresh (with \
           a note) when no usable snapshot exists.")

let fault_plan_flag =
  Arg.(
    value
    & opt string ""
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault injection: comma-separated $(b,nan\\@K) (poison the K-th \
           SmoothE iteration's gradient), $(b,mem\\@SCALE) (memory pressure), $(b,stall) \
           (LP solver stall), $(b,skew\\@S) (clock jump). The run must still return a valid \
           extraction.")

let health_report_flag =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "health-report" ] ~docv:"FILE"
        ~doc:
          "Report the supervision log: injected faults, recoveries, deratings, timeouts. \
           Without a value (or with $(b,-)) the report goes to stdout; otherwise it is \
           written to $(docv).")

let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record hierarchical spans and write them to $(docv): Chrome trace_event JSON \
           (open in chrome://tracing or Perfetto), or folded stacks when $(docv) ends in \
           $(b,.folded).")

let metrics_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Record counters/gauges/histograms and write a JSON snapshot to $(docv).")

let jobs_flag =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the domain pool: tensor kernels chunk their element loops over $(docv) \
           domains, and $(b,-m portfolio) runs its anytime members concurrently (each with \
           the full remaining budget). Results are bit-identical at any $(docv) for \
           iteration-bounded runs. Default 1 (sequential).")

let no_preflight_flag =
  Arg.(
    value & flag
    & info [ "no-preflight" ]
        ~doc:
          "Skip the static pre-flight e-graph lint before a SmoothE run. Use for \
           deliberately malformed stress inputs (fault-injection experiments) where the \
           findings are expected and would only add noise to the health log.")

let parse_fault_plan spec =
  match Fault_plan.of_string spec with
  | plan -> plan
  | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let render_health_report health =
  if Health.is_empty health then "health: healthy\n"
  else Format.asprintf "health: %s@.%a@." (Health.summary health) Health.pp health

let write_health_report health = function
  | None -> ()
  | Some "-" -> print_string (render_health_report health)
  | Some path ->
      (* tmp + rename: a crash mid-write never leaves a truncated report *)
      Fsio.write_atomic ~path (render_health_report health);
      Printf.printf "health report written to %s\n" path

let write_metrics_snapshot ?(format = `Json) = function
  | None -> ()
  | Some path ->
      let body =
        match format with
        | `Json -> Json.to_string ~pretty:true (Metrics.snapshot ()) ^ "\n"
        | `Prom -> Prom.render ()
      in
      Fsio.write_atomic ~path body;
      Printf.printf "metrics written to %s\n" path

let extract_cmd =
  let run spec method_ time_limit batch iters assumption lambda seed plan fault_plan
      health_report trace_out metrics_out checkpoint_dir checkpoint_every resume show_term
      no_preflight jobs fix_threshold hybrid_gap =
    let jobs = checked_pos_int ~flag:"--jobs" jobs in
    let batch = checked_pos_int ~flag:"--batch" batch in
    let iters = checked_pos_int ~flag:"--iters" iters in
    let lambda = checked_nonneg_float ~flag:"--lambda" lambda in
    let checkpoint_every = checked_nonneg_int ~flag:"--checkpoint-every" checkpoint_every in
    Pool.set_jobs jobs;
    let g = load_egraph spec in
    let health = Health.create () in
    if trace_out <> None || metrics_out <> None then begin
      Obs.enable ();
      Trace.reset ();
      Metrics.reset ()
    end;
    let finish () =
      (* injections fired inside unsupervised methods (greedy, plain
         ILP, ...) are still reported *)
      List.iter
        (fun what -> Health.record health ~member:"cli" Health.Fault_injected what)
        (Fault_plan.drain_injections ());
      write_health_report health health_report;
      (match trace_out with
      | Some path ->
          Trace.write_file path;
          Printf.printf "trace written to %s (%d events)\n" path
            (List.length (Trace.events ()))
      | None -> ());
      write_metrics_snapshot metrics_out
    in
    Fault_plan.with_plan (parse_fault_plan fault_plan) (fun () ->
        Fun.protect ~finally:finish (fun () ->
            ignore
              (run_method g ~method_ ~time_limit ~batch ~iters ~assumption ~lambda ~seed
                 ~plan ~health ~checkpoint_dir ~checkpoint_every ~resume ~show_term
                 ~preflight:(not no_preflight) ~jobs ~fix_threshold ~hybrid_gap)))
  in
  Cmd.v (Cmd.info "extract" ~doc:"Extract an optimised program from an e-graph.")
    Term.(
      const run $ instance_arg $ method_flag $ time_limit_flag $ batch_flag $ iters_flag
      $ assumption_flag $ lambda_flag $ seed_flag $ plan_flag $ fault_plan_flag
      $ health_report_flag $ trace_flag $ metrics_flag $ checkpoint_dir_flag
      $ checkpoint_every_flag $ resume_flag $ show_term_flag $ no_preflight_flag $ jobs_flag
      $ fix_threshold_flag $ hybrid_gap_flag)

(* --------------------------------------------------------------- analyze *)

(* Two probe forwards at the tape probe's tiny configuration (batch 2;
   {!Smoothe_extract.tape_diagnostics}): enough to prove
   the iteration IR static (PL006/PL007) and to run the plan-level
   dataflow analysis — liveness, arena assignment — exactly as the
   extraction gate would before arming a replay. *)
let plan_diagnostics g =
  let config = { Smoothe_config.default with Smoothe_config.batch = 2 } in
  match
    let compiled = Relaxation.compile config g in
    let model = Cost_model.of_egraph g in
    let theta = Tensor.create ~batch:2 ~width:(Egraph.num_nodes g) in
    let fwd1 = Relaxation.forward compiled ~config ~model ~theta in
    let c1 = Plan.capture fwd1.Relaxation.tape ~root:fwd1.Relaxation.loss in
    let fwd2 = Relaxation.forward compiled ~config ~model ~theta in
    let c2 = Plan.capture fwd2.Relaxation.tape ~root:fwd2.Relaxation.loss in
    let stab = Plan_check.stability c1.Plan.ir c2.Plan.ir in
    let root = Ad.node_id fwd2.Relaxation.loss in
    let outputs =
      [|
        Ad.node_id fwd2.Relaxation.cp;
        Ad.node_id fwd2.Relaxation.per_seed_cost;
        Ad.node_id fwd2.Relaxation.penalty;
        root;
      |]
    in
    let report =
      Plan_check.analyze ~grads:[| Ad.node_id fwd2.Relaxation.theta |] ~root ~outputs
        c2.Plan.ir
    in
    (stab @ report.Plan_check.diags, Some report)
  with
  | r -> r
  | exception e ->
      ( [
          Diagnostic.error ~code:"AN001" Diagnostic.Graph
            "building the plan probe failed: %s" (Printexc.to_string e);
        ],
        None )

let plan_stats_line (r : Plan_check.report) =
  Printf.sprintf
    "plan: %d nodes, %d arena slots (%d KiB, interpreter allocates %d KiB/iter)"
    r.Plan_check.nodes
    (Array.length r.Plan_check.slot_sizes)
    (r.Plan_check.arena_bytes / 1024)
    (r.Plan_check.naive_bytes / 1024)

let plan_stats_json (r : Plan_check.report) =
  Json.Object
    [
      ("nodes", Json.Number (float_of_int r.Plan_check.nodes));
      ("arena_slots", Json.Number (float_of_int (Array.length r.Plan_check.slot_sizes)));
      ("arena_bytes", Json.Number (float_of_int r.Plan_check.arena_bytes));
      ("dedicated_bytes", Json.Number (float_of_int r.Plan_check.dedicated_bytes));
      ("naive_bytes", Json.Number (float_of_int r.Plan_check.naive_bytes));
    ]

let analyze_cmd =
  let run specs all json strict plan =
    let targets =
      if all then
        List.concat_map
          (fun ds -> List.map (fun i -> i.Registry.inst_name) ds.Registry.instances)
          Registry.all
      else specs
    in
    if targets = [] then begin
      Printf.eprintf "nothing to analyze: give instance names or files, or pass --all\n";
      exit 2
    end;
    let reports =
      List.map
        (fun target ->
          let lint, g_opt =
            if Sys.file_exists target then Egraph_lint.check_file target
            else
              match Registry.find_instance target with
              | inst ->
                  let g = inst.Registry.build () in
                  (Egraph_lint.check g, Some g)
              | exception Not_found ->
                  ( [
                      Diagnostic.error ~code:"EG010" Diagnostic.Graph
                        "unknown instance or file %S (try `smoothe list`)" target;
                    ],
                    None )
          in
          let tape_ds =
            match g_opt with Some g -> Smoothe_extract.tape_diagnostics g | None -> []
          in
          let plan_ds, plan_report =
            match g_opt with
            | Some g when plan -> plan_diagnostics g
            | _ -> ([], None)
          in
          (target, g_opt, lint @ tape_ds @ plan_ds, plan_report))
        targets
    in
    (if json then begin
       let doc =
         Json.Array
           (List.map
              (fun (t, _, ds, pr) ->
                match (Diagnostic.report_to_json ~source:t ds, pr) with
                | Json.Object fields, Some r ->
                    Json.Object (fields @ [ ("plan", plan_stats_json r) ])
                | other, _ -> other)
              reports)
       in
       print_string (Json.to_string ~pretty:true doc);
       print_newline ()
     end
     else
       List.iter
         (fun (t, g_opt, ds, pr) ->
           print_string (Diagnostic.render_report ~source:t ds);
           (match g_opt with
           | Some g -> Printf.printf "%s\n" (Egraph_lint.stats_line g)
           | None -> ());
           (match pr with
           | Some r -> Printf.printf "%s\n" (plan_stats_line r)
           | None -> ());
           print_newline ())
         reports);
    let all_ds = List.concat_map (fun (_, _, ds, _) -> ds) reports in
    if not (Diagnostic.ok ~strict all_ds) then exit 1
  in
  let specs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EGRAPH"
          ~doc:"Instance names (see $(b,list)) or serialized e-graph files; repeatable.")
  in
  let all_flag =
    Arg.(value & flag & info [ "all" ] ~doc:"Analyze every bundled instance.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as a JSON report.")
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero on warnings too (errors always fail); infos never fail.")
  in
  let plan_flag =
    Arg.(
      value & flag
      & info [ "plan" ]
          ~doc:
            "Also run the plan-level dataflow analysis: capture the iteration IR twice, \
             check iteration-stability (PL006/PL007), compute liveness and the buffer \
             arena, and verify the assignment (PL001–PL003).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static pre-flight analysis: e-graph lint (well-formedness, costs, cycle \
          feasibility), tape shape check, gradient-flow lint and (with $(b,--plan)) the \
          plan-level dataflow analysis. Exits 1 when findings exceed the allowed severity.")
    Term.(const run $ specs $ all_flag $ json_flag $ strict_flag $ plan_flag)

(* --------------------------------------------------------- trace-summary *)

let trace_summary_cmd =
  let run path out =
    let src = Fsio.read_file path in
    let j = Json.parse src in
    let events = Json.get_list (Json.member "traceEvents" j) in
    let tbl : (string, float Vec.t) Hashtbl.t = Hashtbl.create 32 in
    let instants = ref [] in
    List.iter
      (fun e ->
        let ph = Json.get_string (Json.member "ph" e) in
        let name = Json.get_string (Json.member "name" e) in
        if ph = "X" then begin
          let dur = Json.get_number (Json.member "dur" e) in
          let durs =
            match Hashtbl.find_opt tbl name with
            | Some v -> v
            | None ->
                let v = Vec.create () in
                Hashtbl.add tbl name v;
                v
          in
          Vec.push durs dur
        end
        else if ph = "i" then instants := name :: !instants)
      events;
    let rows =
      Hashtbl.fold
        (fun name durs acc ->
          let xs = Array.of_list (Vec.to_list durs) in
          let total = Array.fold_left ( +. ) 0.0 xs in
          (* exact per-span quantiles: the trace keeps every duration,
             unlike the live bucketed histograms *)
          (name, Array.length xs, total, Stats.percentile xs 50.0, Stats.percentile xs 95.0)
          :: acc)
        tbl []
    in
    let rows = List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> compare b a) rows in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "%-24s %8s %12s %10s %10s\n" "span" "count" "total_ms" "p50_ms" "p95_ms");
    List.iter
      (fun (name, c, t, p50, p95) ->
        Buffer.add_string buf
          (Printf.sprintf "%-24s %8d %12.3f %10.3f %10.3f\n" name c (t /. 1000.0)
             (p50 /. 1000.0) (p95 /. 1000.0)))
      rows;
    Buffer.add_string buf
      (Printf.sprintf "%d instant event(s)%s\n" (List.length !instants)
         (match List.sort_uniq compare !instants with
         | [] -> ""
         | names -> ": " ^ String.concat ", " names));
    match out with
    | None -> print_string (Buffer.contents buf)
    | Some out_path ->
        Fsio.write_atomic ~path:out_path (Buffer.contents buf);
        Printf.printf "trace summary written to %s\n" out_path
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"Chrome trace JSON file written by $(b,--trace).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the summary to $(docv) (atomic tmp+rename write) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace-summary"
       ~doc:"Summarise a recorded trace: per-span counts and total durations.")
    Term.(const run $ path $ out)

(* ----------------------------------------------------------------- serve *)

let socket_flag =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let metrics_format_flag =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("prom", `Prom) ]) `Json
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:
          "Format of the $(b,--metrics) snapshot: $(b,json) (the registry snapshot) or \
           $(b,prom) (Prometheus text exposition).")

let log_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write request-scoped structured logs (one JSON object per line, each stamped \
           with the request id minted at admission) to $(docv); $(b,-) logs to stderr.")

let serve_cmd =
  let run socket queue_limit executors default_budget max_budget retry_attempts
      cache_capacity preflight plan jobs metrics_out metrics_format log_out health_report
      trace_out journal_dir supervise max_restarts restart_window read_timeout
      max_frame_bytes =
    let queue_limit = checked_pos_int ~flag:"--queue-limit" queue_limit in
    let default_budget = checked_pos_float ~flag:"--default-budget" default_budget in
    let max_budget = checked_pos_float ~flag:"--max-budget" max_budget in
    let retry_attempts = checked_pos_int ~flag:"--retry-attempts" retry_attempts in
    let executors = checked_nonneg_int ~flag:"--executors" executors in
    let cache_capacity = checked_nonneg_int ~flag:"--cache-capacity" cache_capacity in
    let jobs = checked_pos_int ~flag:"--jobs" jobs in
    let max_restarts = checked_pos_int ~flag:"--max-restarts" max_restarts in
    let restart_window = checked_pos_float ~flag:"--restart-window" restart_window in
    let read_timeout = checked_pos_float ~flag:"--read-timeout" read_timeout in
    let max_frame_bytes = checked_pos_int ~flag:"--max-frame-bytes" max_frame_bytes in
    let run_daemon () =
      Pool.set_jobs jobs;
      (* the daemon always keeps the metrics/trace sink live: the
         [telemetry] control op and [smoothe top] must have data without
         a restart (extraction results are unaffected — instrumentation
         never feeds back into the numerics) *)
      Obs.enable ();
      Trace.reset ();
      Metrics.reset ();
      let log_channel =
        match log_out with
        | None ->
            Log.set_sink Log.Silent;
            None
        | Some "-" ->
            Log.set_sink (Log.Channel stderr);
            None
        | Some path ->
            let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
            Log.set_sink (Log.Channel oc);
            Some oc
      in
      let config =
        {
          Serve_engine.queue_limit;
          executors;
          default_budget;
          max_budget;
          retry_attempts;
          cache_capacity;
          preflight;
          plan = Smoothe_config.plan_mode_of_string plan;
        }
      in
      let journal =
        match journal_dir with
        | None -> None
        | Some dir -> (
            match Serve_journal.open_ ~dir ~name:"requests" () with
            | j -> Some j
            | exception e ->
                Printf.eprintf "serve: cannot open request journal in %s: %s\n" dir
                  (Printexc.to_string e);
                exit 1)
      in
      let engine =
        match Serve_engine.validate_config config with
        | Ok c -> Serve_engine.create ~config:c ?journal ()
        | Error msg ->
            Printf.eprintf "serve: %s\n" msg;
            exit 1
      in
      (* replay what a dead predecessor was holding before the socket
         starts accepting, so recovered work is first in line *)
      (match journal with
      | Some j ->
          let replayed = Serve_engine.recover engine in
          Printf.printf
            "smoothe serve: journal %s (generation %d): warmed %d cache entries, replayed \
             %d pending request(s)%s\n\
             %!"
            (Serve_journal.file j) (Serve_journal.generation j)
            (Serve_engine.warmed engine) replayed
            (match Serve_journal.torn j with
            | [] -> ""
            | torn -> Printf.sprintf ", dropped %d torn frame tail(s)" (List.length torn))
      | None -> ());
      let srv =
        Serve_socket.create ~read_timeout ~max_frame:max_frame_bytes ~engine ~path:socket
          ()
      in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> Serve_socket.shutdown srv)))
        [ Sys.sigterm; Sys.sigint ];
      Printf.printf
        "smoothe serve: listening on %s (queue limit %d, %d executor(s), budgets %g/%gs, \
         cache %d)\n\
         %!"
        socket queue_limit executors default_budget max_budget cache_capacity;
      Serve_socket.run srv;
      (match journal with Some j -> Serve_journal.close j | None -> ());
      let s = Serve_engine.stats engine in
      Printf.printf
        "smoothe serve: drained cleanly (admitted %d, completed %d, shed %d, refused %d, \
         cache hits %d)\n"
        s.Serve_engine.admission.Admission.admitted
        s.Serve_engine.admission.Admission.completed s.Serve_engine.admission.Admission.shed
        s.Serve_engine.admission.Admission.refused s.Serve_engine.cache_hits;
      write_health_report (Serve_engine.health engine) health_report;
      (match trace_out with
      | Some path ->
          Trace.write_file path;
          Printf.printf "trace written to %s\n" path
      | None -> ());
      write_metrics_snapshot ~format:metrics_format metrics_out;
      match log_channel with
      | Some oc ->
          Log.set_sink Log.Silent;
          close_out oc
      | None -> ()
    in
    if not supervise then run_daemon ()
    else begin
      (* watchdog mode: fork a fresh daemon per attempt, BEFORE any
         engine state or thread exists in this process (fork and
         threads do not mix), and restart it on abnormal exit *)
      Log.set_sink (Log.Channel stderr);
      let stopping = ref false in
      let child = ref (-1) in
      let forward signal _ =
        stopping := true;
        if !child > 0 then try Unix.kill !child signal with Unix.Unix_error _ -> ()
      in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (forward Sys.sigterm)))
        [ Sys.sigterm; Sys.sigint ];
      let spawn ~attempt:_ =
        match Unix.fork () with
        | 0 ->
            (* child: drop the watchdog's handlers (run_daemon installs
               its own drain handlers) and its stderr log sink *)
            List.iter
              (fun s -> Sys.set_signal s Sys.Signal_default)
              [ Sys.sigterm; Sys.sigint ];
            Log.set_sink Log.Silent;
            (match run_daemon () with
            | () -> Stdlib.exit 0
            | exception e ->
                Printf.eprintf "smoothe serve: daemon died: %s\n" (Printexc.to_string e);
                Stdlib.exit 70)
        | pid -> (
            child := pid;
            let rec wait () =
              match Unix.waitpid [] pid with
              | _, status -> status
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
            in
            let status = wait () in
            child := -1;
            (* an exit while the operator is stopping us counts as
               clean: the drain was interrupted on purpose *)
            match status with
            | _ when !stopping -> Watchdog.Exited 0
            | Unix.WEXITED code -> Watchdog.Exited code
            | Unix.WSIGNALED sg | Unix.WSTOPPED sg -> Watchdog.Signaled sg)
      in
      let health = Health.create () in
      let policy =
        { Watchdog.default_policy with Watchdog.max_restarts; window = restart_window }
      in
      match Watchdog.supervise ~policy ~health ~name:"smoothe-serve" spawn with
      | Watchdog.Clean_exit -> ()
      | Watchdog.Crash_loop { crashes; window } ->
          Printf.eprintf
            "smoothe serve: crash-loop breaker tripped (%d abnormal exits within %.0fs); \
             giving up\n"
            crashes window;
          write_health_report health health_report;
          exit 70
    end
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission-queue bound: requests beyond $(docv) waiting are shed with a \
             structured $(b,overloaded) response instead of queueing without limit.")
  in
  let executors =
    Arg.(
      value & opt int 1
      & info [ "executors" ] ~docv:"N"
          ~doc:
            "Executor domains pulling from the admission queue. 0 only admits (useful for \
             protocol debugging); per-request fault plans require at most 1.")
  in
  let default_budget =
    Arg.(
      value & opt float 30.0
      & info [ "default-budget" ] ~docv:"SECONDS"
          ~doc:"Compute budget for requests that name none.")
  in
  let max_budget =
    Arg.(
      value & opt float 300.0
      & info [ "max-budget" ] ~docv:"SECONDS" ~doc:"Per-request compute-budget ceiling.")
  in
  let retry_attempts =
    Arg.(
      value & opt int 2
      & info [ "retry-attempts" ] ~docv:"N"
          ~doc:
            "Supervised attempts per request (shared deadline, capped exponential \
             backoff); a request that crashes on every attempt gets a structured \
             $(b,crashed) response and the daemon lives on.")
  in
  let cache_capacity =
    Arg.(
      value & opt int 128
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Solution-cache entries (LRU, keyed by e-graph fingerprint + content CRC); 0 \
             disables caching.")
  in
  let preflight =
    Arg.(
      value & flag
      & info [ "preflight" ] ~doc:"Run the static e-graph lint gate inside each request.")
  in
  let plan =
    Arg.(
      value
      & opt (enum [ ("off", "off"); ("on", "on"); ("check", "check") ]) "off"
      & info [ "plan" ] ~docv:"MODE"
          ~doc:
            "Static-plan replay for SmoothE requests: $(b,off) (the default) interprets; \
             $(b,on) arms verified zero-allocation replay of each request's iteration \
             IR, $(b,check) also interprets and asserts bitwise identity; gate failures \
             fall back to the interpreter per request. The default stays $(b,off) \
             because each request captures its own plan, and a replay pays only over \
             many iterations: it starts after two interpreted capture iterations and a \
             plan build and check, while typical requests run a handful.")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-dir" ] ~docv:"DIR"
          ~doc:
            "Write-ahead request journal directory: every admitted request is journaled \
             durably before execution and marked completed on fulfilment, so a crashed \
             daemon replays unanswered work on restart (and serves already-answered \
             replays from the warmed solution cache). Without this flag a crash loses \
             queued and in-flight requests.")
  in
  let supervise =
    Arg.(
      value & flag
      & info [ "supervise" ]
          ~doc:
            "Watchdog mode: fork the daemon and restart it on abnormal exit with capped \
             exponential backoff; $(b,--max-restarts) abnormal exits within \
             $(b,--restart-window) seconds trip the crash-loop breaker and give up with a \
             structured health event. A clean SIGTERM drain ends supervision.")
  in
  let max_restarts =
    Arg.(
      value & opt int 5
      & info [ "max-restarts" ] ~docv:"N"
          ~doc:"Crash-loop breaker threshold (with $(b,--supervise)).")
  in
  let restart_window =
    Arg.(
      value & opt float 60.0
      & info [ "restart-window" ] ~docv:"SECONDS"
          ~doc:"Crash-loop breaker window (with $(b,--supervise)).")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-connection frame-read deadline: a client that dribbles or stalls \
             mid-frame is answered with a structured $(b,timeout) error and \
             disconnected.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "max-frame-bytes" ] ~docv:"N"
          ~doc:
            "Request-line length cap; longer frames are answered with a structured \
             $(b,frame_too_long) error and disconnected.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant extraction daemon: line-framed JSON requests over a Unix \
          socket, bounded admission with load shedding, per-request deadlines and \
          supervised retry, fingerprint-keyed solution cache, graceful drain on SIGTERM; \
          optionally crash-only ($(b,--journal-dir)) and supervised by a restart watchdog \
          ($(b,--supervise)).")
    Term.(
      const run $ socket_flag $ queue_limit $ executors $ default_budget $ max_budget
      $ retry_attempts $ cache_capacity $ preflight $ plan $ jobs_flag $ metrics_flag
      $ metrics_format_flag $ log_flag $ health_report_flag $ trace_flag $ journal_dir
      $ supervise $ max_restarts $ restart_window $ read_timeout $ max_frame_bytes)

(* --------------------------------------------------------------- request *)

let request_cmd =
  let run spec socket ping stats method_name budget deadline_ms seed batch iters lambda
      fault_plan no_cache id retries =
    let retries = checked_nonneg_int ~flag:"--retries" retries in
    let frame =
      if ping then Json.Object [ ("op", Json.String "ping") ]
      else if stats then Json.Object [ ("op", Json.String "stats") ]
      else begin
        let spec =
          match spec with
          | Some s -> s
          | None ->
              Printf.eprintf
                "request: give an instance name or e-graph file (or --ping / --stats)\n";
              exit 1
        in
        let budget =
          Option.map (fun b -> checked_pos_float ~flag:"--budget" b) budget
        in
        let deadline_ms =
          Option.map (fun d -> checked_pos_float ~flag:"--deadline-ms" d) deadline_ms
        in
        let batch = checked_pos_int ~flag:"--batch" batch in
        let iters = checked_pos_int ~flag:"--iters" iters in
        let lambda = checked_nonneg_float ~flag:"--lambda" lambda in
        let source =
          if Sys.file_exists spec then
            Serve_protocol.Inline (Egraph.Serial.to_string (read_egraph_file spec))
          else Serve_protocol.Instance spec
        in
        let method_ =
          match Serve_protocol.method_of_name method_name with
          | Some m -> m
          | None ->
              Printf.eprintf "request: unknown method %S\n" method_name;
              exit 1
        in
        Serve_protocol.request_to_json
          {
            Serve_protocol.default_request with
            Serve_protocol.id;
            source;
            method_;
            budget;
            deadline_ms;
            seed;
            batch;
            iters;
            lambda_ = lambda;
            fault_plan;
            use_cache = not no_cache;
          }
      end
    in
    match Serve_socket.call ~retries ~rng:(Rng.create seed) ~path:socket frame with
    | resp ->
        print_endline (Json.to_string resp);
        let status =
          match Json.member "status" resp with Json.String s -> s | _ -> "error"
        in
        if status <> "ok" then exit 3
    | exception Failure msg ->
        Printf.eprintf "request: %s\n" msg;
        exit 1
  in
  let spec =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"EGRAPH"
          ~doc:"Instance name (resolved by the daemon) or serialized e-graph file (sent \
                inline).")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe.") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch admission/cache counters.")
  in
  let method_name =
    Arg.(
      value & opt string "smoothe"
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:"Extraction method: $(b,smoothe), $(b,greedy) or $(b,greedy-dag).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS" ~doc:"Compute budget (daemon default if absent).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Overall deadline including queue wait; expired requests are answered \
                $(b,deadline_expired) without running.")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "b"; "batch" ] ~docv:"B" ~doc:"SmoothE seed batch.")
  in
  let iters =
    Arg.(value & opt int 60 & info [ "iters" ] ~docv:"K" ~doc:"SmoothE iteration cap.")
  in
  let lambda =
    Arg.(value & opt float 100.0 & info [ "lambda" ] ~docv:"L" ~doc:"NOTEARS weight.")
  in
  let fault_plan =
    Arg.(
      value & opt string ""
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Test-only deterministic faults applied to this request's execution (single-\
             executor daemons only), e.g. $(b,crash\\@5).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the daemon's solution cache.")
  in
  let id =
    Arg.(value & opt string "cli" & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed back.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "When the daemon sheds with $(b,overloaded), honor its $(b,retry_after_ms) \
             hint and re-send up to $(docv) times (exponential backoff, deterministic \
             jitter). 0 returns the shed response immediately.")
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one extraction request (or a $(b,--ping)/$(b,--stats) probe) to a running \
          $(b,smoothe serve) daemon and print the JSON response. Exits 0 on an $(b,ok) \
          response, 3 on a structured error response.")
    Term.(
      const run $ spec $ socket_flag $ ping $ stats $ method_name $ budget $ deadline_ms
      $ seed_flag $ batch $ iters $ lambda $ fault_plan $ no_cache $ id $ retries)

(* ------------------------------------------------------------------- top *)

(* The monitor's single data source is the daemon's [telemetry] control
   op: one frame per poll, so a busy daemon pays one registry
   transaction per refresh, never one lock round-trip per metric. *)
let top_cmd =
  let run socket interval once as_json as_prom =
    let interval = checked_pos_float ~flag:"--interval" interval in
    if as_json && as_prom then begin
      Printf.eprintf "top: --json and --prom are mutually exclusive\n";
      exit 1
    end;
    let num j = match (j : Json.t) with Json.Number v -> v | _ -> 0.0 in
    let fetch () =
      let frame =
        Json.Object
          (("op", Json.String "telemetry")
          :: (if as_prom then [ ("format", Json.String "prom") ] else []))
      in
      match Serve_socket.call ~path:socket frame with
      | reply -> reply
      | exception Failure msg ->
          Printf.eprintf "top: %s\n" msg;
          exit 1
    in
    (* a metric that saw no traffic yet has no cell at all: read its
       fields as Null / 0 instead of raising on member-of-Null *)
    let field name f metrics =
      match Json.member name metrics with
      | Json.Object _ as m -> Json.member f m
      | _ -> Json.Null
    in
    (* a flat scrape-friendly summary: rates from the meters, quantiles
       from the bucketed histograms, depths from the admission stats *)
    let summary reply =
      let stats = Json.member "stats" reply in
      let metrics = Json.member "metrics" reply in
      let stat f = Json.member f stats in
      let met name f = field name f metrics in
      let rate name f = Json.Number (num (met name f)) in
      Json.Object
        [
          ("uptime_s", stat "uptime_s");
          ("state", stat "state");
          ("qps_1s", rate "serve.offered.rate" "rate_1s");
          ("qps_10s", rate "serve.offered.rate" "rate_10s");
          ("qps_60s", rate "serve.offered.rate" "rate_60s");
          ("shed_per_s_10s", rate "serve.shed.rate" "rate_10s");
          ("completed_per_s_10s", rate "serve.completed.rate" "rate_10s");
          ("queue_depth", stat "queued");
          ("queue_limit", stat "queue_limit");
          ("inflight", stat "inflight");
          ("cache_hit_rate", stat "cache_hit_rate");
          ("request_ms_p50", met "serve.request_ms" "p50");
          ("request_ms_p95", met "serve.request_ms" "p95");
          ("request_ms_p99", met "serve.request_ms" "p99");
          ("request_ms_count", met "serve.request_ms" "count");
          ("queue_ms_p50", met "serve.queue_ms" "p50");
          ("queue_ms_p95", met "serve.queue_ms" "p95");
          ("queue_ms_p99", met "serve.queue_ms" "p99");
          ("requests", stat "admitted");
          ("completed", stat "completed");
          ("shed", stat "shed");
          ("refused", stat "refused");
          ("cache_hits", stat "cache_hits");
          ("cache_misses", stat "cache_misses");
        ]
    in
    let render_human reply =
      let stats = Json.member "stats" reply in
      let metrics = Json.member "metrics" reply in
      let stat f = num (Json.member f stats) in
      let met name f = num (field name f metrics) in
      let hist_line label name =
        Printf.printf "  %-12s %9.3f %9.3f %9.3f %9.3f %9.0f\n" label (met name "p50")
          (met name "p95") (met name "p99") (met name "mean") (met name "count")
      in
      Printf.printf "smoothe top — %s    up %.0fs    state %s\n\n" socket (stat "uptime_s")
        (match Json.member "state" stats with Json.String s -> s | _ -> "?");
      Printf.printf "  %-12s 1s %6.1f   10s %6.1f   60s %6.1f\n" "qps"
        (met "serve.offered.rate" "rate_1s")
        (met "serve.offered.rate" "rate_10s")
        (met "serve.offered.rate" "rate_60s");
      Printf.printf "  %-12s 1s %6.1f   10s %6.1f   60s %6.1f\n" "done/s"
        (met "serve.completed.rate" "rate_1s")
        (met "serve.completed.rate" "rate_10s")
        (met "serve.completed.rate" "rate_60s");
      Printf.printf "  %-12s 1s %6.1f   10s %6.1f   60s %6.1f\n" "shed/s"
        (met "serve.shed.rate" "rate_1s")
        (met "serve.shed.rate" "rate_10s")
        (met "serve.shed.rate" "rate_60s");
      Printf.printf "  %-12s %.0f / %.0f waiting, %.0f in flight\n" "queue"
        (stat "queued") (stat "queue_limit") (stat "inflight");
      Printf.printf "  %-12s %.0f%% hit rate (%.0f hits / %.0f misses, %.0f / %.0f entries)\n\n"
        "cache"
        (100.0 *. stat "cache_hit_rate")
        (stat "cache_hits") (stat "cache_misses") (stat "cache_size")
        (stat "cache_capacity");
      Printf.printf "  %-12s %9s %9s %9s %9s %9s\n" "latency ms" "p50" "p95" "p99" "mean"
        "count";
      hist_line "request" "serve.request_ms";
      hist_line "queue" "serve.queue_ms";
      Printf.printf "\n  %-12s requests %.0f  admitted %.0f  completed %.0f  shed %.0f  \
                     refused %.0f\n"
        "counters"
        (met "serve.requests" "value")
        (stat "admitted") (stat "completed") (stat "shed") (stat "refused")
    in
    let rec loop first =
      let reply = fetch () in
      if as_prom then print_string (Json.get_string (Json.member "prom" reply))
      else if as_json then print_endline (Json.to_string (summary reply))
      else begin
        (* repaint in place, like top(1); the first frame keeps the
           scrollback so --once output survives in a pipe *)
        if not first then print_string "\027[H\027[2J";
        render_human reply
      end;
      flush stdout;
      if not once then begin
        Unix.sleepf interval;
        loop false
      end
    in
    loop true
  in
  let interval =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period between polls.")
  in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Print one sample and exit (for scripts).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One flat JSON summary per sample (rates, depths, latency quantiles, \
             counters) instead of the screen display.")
  in
  let prom =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"Print the daemon's Prometheus text exposition instead of the screen \
                display.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live monitor for a running $(b,smoothe serve) daemon: polls the $(b,telemetry) \
          control op and shows qps, shed and completion rates, queue depth, cache hit \
          rate and latency quantiles. $(b,--once --json) emits one machine-readable \
          sample.")
    Term.(const run $ socket_flag $ interval $ once $ json $ prom)

(* --------------------------------------------------------------- compare *)

let compare_cmd =
  let run spec time_limit =
    let g = load_egraph spec in
    Format.printf "%a@.@." Egraph.Stats.pp (Egraph.Stats.compute g);
    let methods =
      [
        `Greedy; `Greedy_dag; `Genetic; `Annealing; `Ilp_pruned; `Ilp Bnb.cplex_like;
        `Smoothe; `Hybrid;
      ]
    in
    List.iter
      (fun method_ ->
        ignore
          (run_method g ~method_ ~time_limit ~batch:16 ~iters:150 ~assumption:"hybrid"
             ~lambda:100.0 ~seed:7 ~plan:"off" ~health:(Health.create ()) ~checkpoint_dir:None
             ~checkpoint_every:25 ~resume:false ~show_term:false ~preflight:false ~jobs:1
             ~fix_threshold:0.9 ~hybrid_gap:0.0))
      methods
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run every extraction method on one e-graph.")
    Term.(const run $ instance_arg $ time_limit_flag)

let () =
  let info =
    Cmd.info "smoothe" ~version:"1.0.0"
      ~doc:"Differentiable e-graph extraction (SmoothE, ASPLOS 2025) and baselines."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; stats_cmd; dump_cmd; analyze_cmd; extract_cmd; compare_cmd;
            trace_summary_cmd; serve_cmd; request_cmd; top_cmd;
          ]))
