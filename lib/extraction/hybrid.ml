type config = {
  time_limit : float;
  node_limit : int;
  profile : Bnb.profile;
  fix_threshold : float;
  bound_gap : float;
  verify : bool;
}

let default_config =
  {
    time_limit = 60.0;
    node_limit = 200_000;
    profile = Bnb.cplex_like;
    fix_threshold = 0.9;
    bound_gap = 0.0;
    verify = true;
  }

type phase = {
  phase_name : string;
  phase_vars : int;
  phase_nodes : int;
  phase_obj : float;
  phase_bound : float;
  phase_proved : bool;
  phase_time : float;
}

type outcome = {
  result : Extractor.r;
  fixed_classes : int;
  dropped_by_fixing : int;
  dropped_by_bound : int;
  phases : phase list;
  bound : float;
  gap : float;
}

let member = "hybrid"

(* The objective bound cut's right-hand side: the incumbent cost plus
   the solver's own relative tolerance (so the incumbent itself, and any
   solution within round-off of it, stays feasible under the cut) plus
   the user's optional relative slack. *)
let cut_rhs config ub =
  if Float.is_finite ub then
    Some (ub +. Bnb.tolerance ub +. (config.bound_gap *. Float.max 1.0 (Float.abs ub)))
  else None

let extract ?(config = default_config) ?pool ?health ?incumbent ?marginals g =
  Trace.with_span ~cat:"extraction"
    ~attrs:
      (if !Obs.on then
         [
           ("profile", config.profile.Bnb.profile_name);
           ("classes", string_of_int (Egraph.num_classes g));
         ]
       else [])
    "hybrid.extract"
  @@ fun () ->
  let deadline = Timer.deadline_after config.time_limit in
  let record kind detail =
    match health with Some log -> Health.record log ~member kind detail | None -> ()
  in
  let n = Egraph.num_nodes g in
  (* ------------------------------------------------------------------
     Stage 0: an incumbent. The caller's (SmoothE's, typically), or the
     free greedy-DAG heuristic. Everything downstream — the bound cut,
     the class fixing, the warm start — hangs off it. *)
  let seed_incumbent =
    let caller =
      match incumbent with
      | Some s when Egraph.Solution.is_valid g s -> Some s
      | Some _ ->
          record Health.Warm_start_rejected
            "hybrid incumbent is not a valid extraction; using greedy";
          None
      | None -> None
    in
    (* the free heuristic is always worth the look: the cut, the fixing
       and the warm start all hang off the seed, so seed from the better
       of the caller's incumbent and greedy-DAG — the pipeline then can
       never lose to the heuristic it gets for free *)
    match (caller, (Greedy_dag.extract g).Extractor.solution) with
    | Some a, Some b ->
        Some
          (if Egraph.Solution.dag_cost g b < Egraph.Solution.dag_cost g a then b else a)
    | Some a, None -> Some a
    | None, b -> b
  in
  let ub0 =
    match seed_incumbent with Some s -> Egraph.Solution.dag_cost g s | None -> infinity
  in
  let trace_acc = ref [] in
  let best_cost = ref infinity in
  let note_cost c =
    if c < !best_cost then begin
      best_cost := c;
      trace_acc := (Timer.elapsed deadline, c) :: !trace_acc
    end
  in
  if Float.is_finite ub0 then note_cost ub0;
  let best = ref seed_incumbent in
  let consider lifted =
    match lifted with
    | Some s when Egraph.Solution.is_valid g s ->
        let c = Egraph.Solution.dag_cost g s in
        if c < !best_cost then begin
          best := Some s;
          note_cost c
        end
    | _ -> ()
  in
  (* ------------------------------------------------------------------
     Stage 1: the heuristic shrink. A class is fixed to the incumbent's
     choice when the marginals are concentrated on it (>= fix_threshold
     after within-class normalisation, and it is the class argmax):
     every other member of the class is dropped. This prunes
     aggressively and can, in principle, exclude the optimum — which is
     exactly why stage 3 re-proves on a soundly-reduced full problem. *)
  let keep = Array.make n true in
  let fixed_classes = ref 0 in
  let dropped_by_fixing = ref 0 in
  (match (seed_incumbent, marginals) with
  | Some s, Some cp when config.fix_threshold <= 1.0 && Array.length cp = n ->
      for c = 0 to Egraph.num_classes g - 1 do
        match s.Egraph.Solution.choice.(c) with
        | Some pick ->
            let members = g.Egraph.class_nodes.(c) in
            if Array.length members > 1 then begin
              let total =
                Array.fold_left (fun acc i -> acc +. Float.max 0.0 cp.(i)) 0.0 members
              in
              if total > 0.0 then begin
                let p_pick = Float.max 0.0 cp.(pick) /. total in
                let is_argmax = Array.for_all (fun i -> cp.(i) <= cp.(pick)) members in
                if is_argmax && p_pick >= config.fix_threshold then begin
                  incr fixed_classes;
                  Array.iter
                    (fun i ->
                      if i <> pick && keep.(i) then begin
                        keep.(i) <- false;
                        incr dropped_by_fixing
                      end)
                    members
                end
              end
            end
        | None -> ()
      done
  | _ -> ());
  (* The safe reduction: with nonnegative costs, a node whose own cost
     already exceeds the bound cut cannot appear in any solution at
     least as good as the incumbent — dropping it preserves the optimum
     exactly, so it is allowed in the proving phase too. *)
  let nonneg = Array.for_all (fun c -> c >= 0.0) g.Egraph.costs in
  let safe_drops ub acc_counter mask =
    match cut_rhs config ub with
    | Some cut when nonneg ->
        for i = 0 to n - 1 do
          if mask.(i) && g.Egraph.costs.(i) > cut then begin
            mask.(i) <- false;
            incr acc_counter
          end
        done
    | _ -> ()
  in
  let dropped_by_bound = ref 0 in
  safe_drops ub0 dropped_by_bound keep;
  (* ------------------------------------------------------------------
     A solve over a restricted copy of the graph: rebuild, map the warm
     start forward, encode, branch-and-bound, lift the incumbent back to
     original node ids. *)
  let solve_on ~keep_mask ~budget ~warm =
    match Egraph.restrict g ~keep:keep_mask with
    | None -> None
    | Some (sub, old_of_new) ->
        let new_of_old = Array.make n (-1) in
        Array.iteri (fun nn on -> new_of_old.(on) <- nn) old_of_new;
        let warm_sub =
          match warm with
          | Some s ->
              let sel = Egraph.Solution.selected_nodes g s in
              if sel <> [] && List.for_all (fun i -> new_of_old.(i) >= 0) sel then
                Some
                  (Egraph.Solution.of_choices sub
                     (List.map
                        (fun i ->
                          (sub.Egraph.node_class.(new_of_old.(i)), new_of_old.(i)))
                        sel))
              else None
          | None -> None
        in
        (* the bound cut enters as node *elimination* (safe_drops), not
           as an LP row: an explicit [sum cost_i s_i <= UB] row is sound
           but measurably slows every simplex solve (it is dense), and
           branch-and-bound already prunes on the incumbent — the
           warm-started incumbent gives it the same information free *)
        let enc = Ilp.encode sub in
        let warm_pt =
          match warm_sub with
          | Some s when config.profile.Bnb.use_warm_start -> Ilp.warm_start_point sub enc s
          | _ -> None
        in
        let options =
          {
            Bnb.profile = config.profile;
            time_limit = budget;
            node_limit = config.node_limit;
            warm_start = warm_pt;
          }
        in
        let outcome, t =
          Timer.time (fun () ->
              Bnb.solve ?pool ?health enc.Ilp.problem ~integer_vars:enc.Ilp.integer_vars
                options)
        in
        let lifted =
          Option.map
            (fun x ->
              let s_sub = Ilp.decode sub x in
              Egraph.Solution.of_choices g
                (List.map
                   (fun nn ->
                     let on = old_of_new.(nn) in
                     (g.Egraph.node_class.(on), on))
                   (Egraph.Solution.selected_nodes sub s_sub)))
            outcome.Bnb.incumbent
        in
        Some (outcome, lifted, Egraph.num_nodes sub, t)
  in
  let phases = ref [] in
  let push_phase name (o : Bnb.outcome) vars t =
    phases :=
      {
        phase_name = name;
        phase_vars = vars;
        phase_nodes = o.Bnb.nodes;
        phase_obj = o.Bnb.objective;
        phase_bound = o.Bnb.best_bound;
        phase_proved = o.Bnb.proved_optimal;
        phase_time = t;
      }
      :: !phases
  in
  let heuristic_fixes = !dropped_by_fixing > 0 in
  let proved = ref false in
  let final_bound = ref neg_infinity in
  let remaining () =
    let rem = Timer.remaining deadline in
    Float.max 1e-3 (if Float.is_finite rem then rem else config.time_limit)
  in
  (* ------------------------------------------------------------------
     Stage 2: the heuristically-pruned solve. Only worth a separate
     phase when fixing actually removed something; its job is a strong
     incumbent fast, not a proof (its "optimal" is optimal for the
     pruned space only). *)
  if heuristic_fixes then begin
    let budget = if config.verify then remaining () /. 2.0 else remaining () in
    match solve_on ~keep_mask:keep ~budget ~warm:seed_incumbent with
    | None ->
        record Health.Degraded
          "heuristic fixing emptied the root class; skipping the pruned phase"
    | Some (o, lifted, vars, t) ->
        push_phase "pruned" o vars t;
        consider lifted;
        if not config.verify then begin
          (* without the verification solve the pruned bound is only a
             bound for the pruned space; never claim a proof from it *)
          if o.Bnb.proved_optimal then
            record Health.Degraded
              "pruned phase proved its shrunken problem; full-problem proof skipped (verify=false)"
        end
  end;
  (* ------------------------------------------------------------------
     Stage 3: the proving solve on the full problem, reduced only by the
     safe bound-cut eliminations (recomputed against the best incumbent
     so far) and warm-started from it. Its bound and proof are valid for
     the original problem. *)
  if config.verify || not heuristic_fixes then begin
    let ub = !best_cost in
    let keep_safe = Array.make n true in
    let dropped = ref 0 in
    safe_drops ub dropped keep_safe;
    if !dropped > !dropped_by_bound then dropped_by_bound := !dropped;
    match solve_on ~keep_mask:keep_safe ~budget:(remaining ()) ~warm:!best with
    | None -> record Health.Degraded "safe reduction emptied the root class (unexpected)"
    | Some (o, lifted, vars, t) ->
        push_phase (if heuristic_fixes then "verify" else "full") o vars t;
        consider lifted;
        if o.Bnb.proved_optimal then proved := true;
        if o.Bnb.best_bound > !final_bound then final_bound := o.Bnb.best_bound
  end;
  let time_s = Timer.elapsed deadline in
  let gap =
    if !proved then 0.0
    else if Float.is_finite !best_cost && !final_bound > neg_infinity then
      Float.max 0.0 ((!best_cost -. !final_bound) /. Float.max 1.0 (Float.abs !best_cost))
    else infinity
  in
  let phases = List.rev !phases in
  let notes =
    [
      ("fixed_classes", string_of_int !fixed_classes);
      ("dropped_fix", string_of_int !dropped_by_fixing);
      ("dropped_bound", string_of_int !dropped_by_bound);
      ("nodes", string_of_int (List.fold_left (fun a p -> a + p.phase_nodes) 0 phases));
      ("bound", Printf.sprintf "%.6g" !final_bound);
      ("gap", Printf.sprintf "%.6g" gap);
      ("phases", String.concat "+" (List.map (fun p -> p.phase_name) phases));
    ]
  in
  let result =
    Extractor.make ~proved_optimal:!proved
      ~trace:(List.rev !trace_acc)
      ~notes ~method_name:"hybrid" ~time_s g !best
  in
  {
    result;
    fixed_classes = !fixed_classes;
    dropped_by_fixing = !dropped_by_fixing;
    dropped_by_bound = !dropped_by_bound;
    phases;
    bound = !final_bound;
    gap;
  }
