type encoding = { problem : Lp.problem; t_var : int array; integer_vars : int array }

let encode g =
  let n = Egraph.num_nodes g and m = Egraph.num_classes g in
  let scc = g.Egraph.scc_of_class in
  (* rows (1e)-(1f) read t only for a class in a cyclic SCC of size > 1 *)
  let in_cycle c = Array.length g.Egraph.sccs.(scc.(c)) > 1 in
  let t_var = Array.make m (-1) in
  let nvars = ref n in
  for c = 0 to m - 1 do
    if in_cycle c then begin
      t_var.(c) <- !nvars;
      incr nvars
    end
  done;
  let nvars = !nvars in
  let objective = Array.make nvars 0.0 in
  Array.blit g.Egraph.costs 0 objective 0 n;
  let lower = Array.make nvars 0.0 and upper = Array.make nvars 1.0 in
  let constraints = ref [] in
  let addc c = constraints := c :: !constraints in
  (* (1b) exactly one root e-node *)
  addc
    {
      Lp.coeffs = Array.to_list (Array.map (fun k -> k, 1.0) g.Egraph.class_nodes.(g.Egraph.root));
      rel = Lp.Eq;
      rhs = 1.0;
    };
  (* (1c) completeness: s_i <= sum of child class members *)
  for i = 0 to n - 1 do
    let seen = Hashtbl.create 4 in
    Array.iter
      (fun j ->
        if not (Hashtbl.mem seen j) then begin
          Hashtbl.add seen j ();
          let coeffs =
            (i, 1.0) :: Array.to_list (Array.map (fun k -> k, -1.0) g.Egraph.class_nodes.(j))
          in
          addc { Lp.coeffs; rel = Lp.Le; rhs = 0.0 }
        end)
      g.Egraph.children.(i)
  done;
  (* (1e)-(1f) big-M topological ordering, restricted to intra-SCC edges *)
  let epsilon = 1.0 /. (2.0 *. float_of_int (max 1 m)) in
  let big_a = 2.0 in
  for i = 0 to n - 1 do
    let ci = g.Egraph.node_class.(i) in
    let seen = Hashtbl.create 4 in
    Array.iter
      (fun j ->
        if (not (Hashtbl.mem seen j)) && scc.(j) = scc.(ci) && (in_cycle j || j = ci) then begin
          Hashtbl.add seen j ();
          if j = ci then
            (* self-dependence: choosing i always closes a cycle *)
            addc { Lp.coeffs = [ (i, 1.0) ]; rel = Lp.Le; rhs = 0.0 }
          else
            (* t_ci - t_j - A*s_i >= eps - A *)
            addc
              {
                Lp.coeffs = [ (t_var.(ci), 1.0); (t_var.(j), -1.0); (i, -.big_a) ];
                rel = Lp.Ge;
                rhs = epsilon -. big_a;
              }
        end)
      g.Egraph.children.(i)
  done;
  {
    problem = { Lp.nvars; objective; constraints = List.rev !constraints; lower; upper };
    t_var;
    integer_vars = Array.init n Fun.id;
  }

let decode g x =
  let choice = ref [] in
  for c = 0 to Egraph.num_classes g - 1 do
    let members = g.Egraph.class_nodes.(c) in
    let chosen = ref (-1) in
    Array.iter (fun k -> if x.(k) > 0.5 then chosen := k) members;
    if !chosen >= 0 then choice := (c, !chosen) :: !choice
  done;
  Egraph.Solution.of_choices g !choice

let warm_start_point g enc s =
  if not (Egraph.Solution.is_valid g s) then None
  else begin
    let nvars = enc.problem.Lp.nvars in
    let x = Array.make nvars 0.5 in
    for i = 0 to Egraph.num_nodes g - 1 do
      x.(i) <- 0.0
    done;
    List.iter (fun i -> x.(i) <- 1.0) (Egraph.Solution.selected_nodes g s);
    (* Topological positions for the selected classes: children first. *)
    let m = Egraph.num_classes g in
    let succ =
      Array.init m (fun c ->
          match s.Egraph.Solution.choice.(c) with
          | Some node -> g.Egraph.children.(node)
          | None -> [||])
    in
    (match Graph_algo.topological_order succ with
    | None -> ()
    | Some order ->
        (* order lists parents before children; assign descending ranks
           so t(parent) > t(child). *)
        let rank = Array.make m 0.0 in
        let total = float_of_int (max 1 m) in
        Array.iteri (fun pos c -> rank.(c) <- (total -. float_of_int pos) /. (total +. 1.0)) order;
        Array.iteri (fun c k -> if k >= 0 then x.(k) <- rank.(c)) enc.t_var);
    if Lp.check_feasible enc.problem x then Some x else None
  end

(* relative optimality gap of a solve: 0 when proved, infinite when
   either side is unknown *)
let gap_of (outcome : Bnb.outcome) =
  if outcome.Bnb.objective = infinity || outcome.Bnb.best_bound = neg_infinity then infinity
  else
    Float.max 0.0
      ((outcome.Bnb.objective -. outcome.Bnb.best_bound)
      /. Float.max 1.0 (Float.abs outcome.Bnb.objective))

let extract ?(time_limit = 60.0) ?(node_limit = 200_000) ?warm_start ?pool ?health
    ~profile g =
  Trace.with_span ~cat:"extraction"
    ~attrs:
      (if !Obs.on then
         [
           ("profile", profile.Bnb.profile_name);
           ("classes", string_of_int (Egraph.num_classes g));
         ]
       else [])
    "ilp.extract"
  @@ fun () ->
  let run () =
    let enc = encode g in
    let warm =
      match warm_start with
      | Some s when profile.Bnb.use_warm_start -> warm_start_point g enc s
      | Some _ | None -> None
    in
    let options = { Bnb.profile; time_limit; node_limit; warm_start = warm } in
    let outcome = Bnb.solve ?pool ?health enc.problem ~integer_vars:enc.integer_vars options in
    enc, outcome
  in
  let (_, outcome), time_s = Timer.time run in
  let solution = Option.map (decode g) outcome.Bnb.incumbent in
  let notes =
    [
      "nodes", string_of_int outcome.Bnb.nodes;
      "bound", Printf.sprintf "%.6g" outcome.Bnb.best_bound;
      "gap", Printf.sprintf "%.6g" (gap_of outcome);
    ]
  in
  Extractor.make
    ~proved_optimal:outcome.Bnb.proved_optimal
    ~trace:outcome.Bnb.trace ~notes
    ~method_name:("ilp-" ^ profile.Bnb.profile_name)
    ~time_s g solution
