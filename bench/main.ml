(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (via the Harness experiment runners) and micro-benchmarks
   the hot kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                  # everything, default budget
     dune exec bench/main.exe -- table2 fig7   # selected experiments
     dune exec bench/main.exe -- --quick all   # smoke-test budget
     dune exec bench/main.exe -- --jobs 4 all  # fan sweeps over 4 domains
     dune exec bench/main.exe -- kernels       # Bechamel micro-benchmarks *)

let kernels () =
  let open Bechamel in
  Report.heading "Bechamel kernel micro-benchmarks";
  let rover = (Registry.find_instance "box_3").Registry.build () in
  let setcov = (Registry.find_instance "set_cover_small").Registry.build () in
  let config = { Smoothe_config.default with Smoothe_config.batch = 8 } in
  let compiled = Relaxation.compile config rover in
  let model = Cost_model.of_egraph rover in
  let rng = Rng.create 3 in
  let theta =
    Tensor.init ~batch:8 ~width:(Egraph.num_nodes rover) (fun _ _ -> Rng.gaussian rng)
  in
  let cp_tensor =
    let fwd = Relaxation.forward compiled ~config ~model ~theta in
    Ad.value fwd.Relaxation.cp
  in
  let mat =
    Tensor.init ~batch:64 ~width:64 (fun i j -> if i = j then 0.1 else 0.3 /. 64.0)
  in
  let lp_enc = Ilp.encode ((Registry.find_instance "mcm_8").Registry.build ()) in
  (* a depth-1 B&B child of mcm_8: the most fractional root variable
     fixed to 0, re-solved from the root's tableau *)
  let lp_resolve =
    match Lp.solve_root lp_enc.Ilp.problem with
    | Lp.Optimal { x; _ }, Some root ->
        let frac j = Float.abs (x.(j) -. Float.round x.(j)) in
        let j = ref 0 in
        Array.iteri (fun k _ -> if frac k > frac !j then j := k) x;
        let upper = Array.copy lp_enc.Ilp.problem.Lp.upper in
        upper.(!j) <- 0.0;
        let child = { lp_enc.Ilp.problem with Lp.upper } in
        let scratch = Lp.scratch root in
        fun () -> ignore (Lp.resolve root scratch child)
    | _ -> failwith "kernels: mcm_8's root LP is not optimal"
  in
  let tests =
    [
      (* Tables 2/3: one SmoothE optimisation step (forward + backward) *)
      Test.make ~name:"smoothe_fwd_bwd_step(table2/3)"
        (Staged.stage (fun () ->
             let fwd = Relaxation.forward compiled ~config ~model ~theta in
             Ad.backward fwd.Relaxation.loss));
      (* §3.5 sampling: decode + score a full seed batch *)
      Test.make ~name:"sampler_batch(fig8)"
        (Staged.stage (fun () -> ignore (Sampler.best_of_batch rover ~model ~cp:cp_tensor)));
      (* §4.3: the matrix exponential behind the NOTEARS term *)
      Test.make ~name:"matexp_64x64(fig6)"
        (Staged.stage (fun () -> ignore (Tensor.Matfun.expm mat)));
      (* Eq. 1: the LP relaxation at the root of the ILP branch-and-bound *)
      Test.make ~name:"lp_relaxation_mcm8(table2)"
        (Staged.stage (fun () -> ignore (Lp.solve lp_enc.Ilp.problem)));
      (* the same LP's depth-1 child, as B&B solves every node after the root *)
      Test.make ~name:"lp_resolve_mcm8(table2)" (Staged.stage lp_resolve);
      (* the egg worklist heuristic (baseline of every table) *)
      Test.make ~name:"greedy_worklist(table4)"
        (Staged.stage (fun () -> ignore (Greedy.class_costs setcov)));
      (* segment softmax: Eq. 3b's per-class normalisation *)
      Test.make ~name:"segment_softmax(table2)"
        (Staged.stage (fun () -> ignore (Segments.softmax theta rover.Egraph.class_seg)));
    ]
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Report.set_columns [ 40; 16 ];
  Report.row [ "kernel"; "time/run" ];
  Report.rule ();
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
          let show =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Report.row [ name; show ]
      | Some _ | None -> Report.row [ name; "-" ])
    (List.sort compare rows)

(* --record: serialise exactly what an experiment printed — the Report
   tables, captured cell by cell — into a schema-versioned result file,
   so CI and later sessions can diff bench output structurally instead
   of scraping stdout. *)
let record_schema_version = 1

let write_record ~name ~quick tables =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let doc =
    Json.Object
      [
        ("schema_version", Json.Number (float_of_int record_schema_version));
        ("experiment", Json.String name);
        ("budget", Json.String (if quick then "quick" else "default"));
        ( "tables",
          Json.Array
            (List.map
               (fun (title, rows) ->
                 Json.Object
                   [
                     ("title", Json.String title);
                     ( "rows",
                       Json.Array
                         (List.map
                            (fun cells ->
                              Json.Array (List.map (fun c -> Json.String c) cells))
                            rows) );
                   ])
               tables) );
      ]
  in
  Fsio.write_atomic ~path (Json.to_string ~pretty:true doc ^ "\n");
  Printf.printf "[recorded %s]\n%!" path

let () =
  let quick = ref false in
  let record = ref false in
  let selected = ref [] in
  let spec =
    [
      ("--quick", Arg.Set quick, "use the fast smoke-test budget");
      ( "--record",
        Arg.Set record,
        " write each experiment's tables to BENCH_<experiment>.json (atomic, \
         schema-versioned)" );
      ( "--jobs",
        Arg.Int
          (fun j ->
            if j < 1 then raise (Arg.Bad "--jobs must be >= 1");
            Pool.set_jobs j),
        "N  size of the domain pool the sweeps and tensor kernels fan over (default 1; \
         results are bit-identical at any value)" );
    ]
  in
  Arg.parse spec
    (fun name -> selected := name :: !selected)
    "bench [--quick] [--record] [--jobs N] [experiments...]";
  let budget = if !quick then Budget.quick else Budget.default in
  let bank = Runbank.create budget in
  let wanted = List.rev !selected in
  let recording name f =
    if !record then begin
      let (), tables = Report.record f in
      write_record ~name ~quick:!quick tables
    end
    else f ()
  in
  let run_one name =
    match name with
    | "all" ->
        recording "all" (fun () ->
            Experiments.all bank;
            kernels ())
    | "kernels" -> recording "kernels" kernels
    | name -> (
        match Experiments.by_name name with
        | Some f ->
            let (), t = Timer.time (fun () -> recording name (fun () -> f bank)) in
            Printf.printf "[%s completed in %.1fs]\n%!" name t
        | None ->
            Printf.eprintf "unknown experiment %S; available: %s, kernels, all\n" name
              (String.concat ", " Experiments.names);
            exit 1)
  in
  match wanted with
  | [] ->
      Experiments.all bank;
      kernels ()
  | names -> List.iter run_one names
