type branch_rule = Most_fractional | First_fractional
type search_order = Best_bound | Depth_first

type profile = {
  profile_name : string;
  branch_rule : branch_rule;
  search : search_order;
  rounding_every : int option;
  use_warm_start : bool;
}

let cplex_like =
  {
    profile_name = "cplex-like";
    branch_rule = Most_fractional;
    search = Best_bound;
    rounding_every = Some 1;
    use_warm_start = true;
  }

let scip_like =
  {
    profile_name = "scip-like";
    branch_rule = Most_fractional;
    search = Best_bound;
    rounding_every = Some 20;
    use_warm_start = false;
  }

let cbc_like =
  {
    profile_name = "cbc-like";
    branch_rule = First_fractional;
    search = Depth_first;
    rounding_every = None;
    use_warm_start = false;
  }

type options = {
  profile : profile;
  time_limit : float;
  node_limit : int;
  warm_start : float array option;
}

let default_options profile =
  { profile; time_limit = 60.0; node_limit = 200_000; warm_start = None }

type outcome = {
  incumbent : float array option;
  objective : float;
  best_bound : float;
  proved_optimal : bool;
  nodes : int;
  solve_time : float;
  trace : (float * float) list;
}

let int_tol = 1e-6

(* The one acceptance/pruning epsilon, scaled to the magnitude of the
   value it guards. An absolute 1e-9 is simultaneously too tight for
   large-cost instances (MCM datapaths with costs ~1e6+, where LP
   round-off alone exceeds it and equal-bound nodes never prune) and
   meaninglessly loose for unit-cost graphs. *)
let rel_tol = 1e-9
let tolerance v = rel_tol *. Float.max 1.0 (Float.abs v)

(* How many frontier nodes each exploration wave pops and LP-solves on
   the domain pool. Fixed — never derived from the pool size — so the
   explored node sequence, and therefore the incumbent, the bound and
   the node count, are bit-identical at any [--jobs]. *)
let wave_width = 8

(* A node fixes a subset of binaries by their bounds: value 0 drops the
   upper bound to 0, value 1 raises the lower bound to 1; the LP's rows
   stay those of the root. [seq] is a monotonic push counter giving the
   frontier a strict total order. *)
type bnode = { fixes : (int * int) list; bound : float; depth : int; seq : int }

let is_integral x j = Float.abs (x.(j) -. Float.round x.(j)) <= int_tol

let apply_fixes (p : Lp.problem) fixes =
  let lower = Array.copy p.lower and upper = Array.copy p.upper in
  List.iter (fun (j, v) -> if v = 0 then upper.(j) <- 0.0 else lower.(j) <- 1.0) fixes;
  { p with Lp.lower; upper }

let solve ?pool ?health (p : Lp.problem) ~integer_vars options =
  Array.iter
    (fun j ->
      if p.Lp.upper.(j) > 1.0 +. int_tol then
        invalid_arg "Bnb.solve: integer variables must be binary (upper bound 1)";
      if p.Lp.lower.(j) < -.int_tol then
        invalid_arg "Bnb.solve: integer variables must be binary (lower bound 0)")
    integer_vars;
  Trace.with_span ~cat:"milp"
    ~attrs:
      (if !Obs.on then
         [ ("profile", options.profile.profile_name); ("nvars", string_of_int p.Lp.nvars) ]
       else [])
    "bnb.solve"
  @@ fun () ->
  let deadline = Timer.deadline_after options.time_limit in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let trace = ref [] in
  (* [improves v] decides both incumbent acceptance and node pruning
     (prune when the node's bound does NOT improve), so the two can
     never disagree about which side of the incumbent a value is on. *)
  let improves v = !incumbent = None || v < !incumbent_obj -. tolerance !incumbent_obj in
  let accept x obj =
    if improves obj then begin
      incumbent := Some (Array.copy x);
      incumbent_obj := obj;
      trace := (Timer.elapsed deadline, obj) :: !trace;
      if !Obs.on then Metrics.observe "bnb.incumbent" obj
    end
  in
  (match options.warm_start with
  | Some x when options.profile.use_warm_start ->
      (* an infeasible or fractional warm start must not seed the
         incumbent: pruning against its objective would cut off the
         true optimum. Reject it loudly instead of silently. *)
      let feasible = Lp.check_feasible p x in
      let integral = Array.for_all (fun j -> is_integral x j) integer_vars in
      if feasible && integral then accept x (Lp.eval_objective p x)
      else begin
        let why =
          if not feasible then "violates the LP constraints"
          else "is fractional on integer variables"
        in
        (match health with
        | Some log ->
            Health.record log ~member:"bnb" Health.Warm_start_rejected
              (Printf.sprintf "warm start %s; solving cold" why)
        | None -> ());
        if !Obs.on then Metrics.incr "bnb.warm_start_rejected"
      end
  | Some _ | None -> ());
  let try_rounding x =
    let rounded = Array.copy x in
    Array.iter (fun j -> rounded.(j) <- Float.round rounded.(j)) integer_vars;
    if Lp.check_feasible p rounded then accept rounded (Lp.eval_objective p rounded)
  in
  let pick_branch x =
    match options.profile.branch_rule with
    | First_fractional ->
        let found = ref (-1) in
        (try
           Array.iter
             (fun j ->
               if not (is_integral x j) then begin
                 found := j;
                 raise Exit
               end)
             integer_vars
         with Exit -> ());
        !found
    | Most_fractional ->
        let best = ref (-1) and best_frac = ref int_tol in
        Array.iter
          (fun j ->
            let f = Float.abs (x.(j) -. Float.round x.(j)) in
            if f > !best_frac then begin
              best_frac := f;
              best := j
            end)
          integer_vars;
        !best
  in
  (* Frontier: a heap for best-bound, a LIFO-ish stack for DFS ordered
     on depth. The [seq] tie-break makes the pop order a strict total
     order, so exploration is deterministic however the heap happens to
     arrange equal keys. *)
  let leq =
    match options.profile.search with
    | Best_bound ->
        fun a b -> a.bound < b.bound || (a.bound = b.bound && a.seq <= b.seq)
    | Depth_first -> fun a b -> a.depth > b.depth || (a.depth = b.depth && a.seq >= b.seq)
  in
  let frontier = Heap.create ~leq in
  let seq = ref 0 in
  let push ~fixes ~bound ~depth =
    incr seq;
    Heap.push frontier { fixes; bound; depth; seq = !seq }
  in
  push ~fixes:[] ~bound:neg_infinity ~depth:0;
  let nodes = ref 0 in
  let exhausted = ref false in
  let hit_limit = ref false in
  let frontier_min_bound () =
    (* the proven global lower bound is the weakest open-node bound.
       Scan the whole frontier: the DFS heap is ordered on depth, not
       bound, so its top says nothing about the weakest bound (the old
       neg_infinity answer made every timed-out cbc-like gap useless). *)
    if Heap.is_empty frontier then !incumbent_obj
    else Heap.fold (fun acc n -> Float.min acc n.bound) infinity frontier
  in
  let pool = match pool with Some p -> p | None -> Pool.get () in
  (* The root's optimal tableau, kept for the rest of the call, and one
     scratch tableau per wave slice, made on first use and reused. *)
  let root = ref None in
  let scratch = Array.make (min (Pool.size pool) wave_width) None in
  let solve_slice r k nodes =
    let s =
      match scratch.(k) with
      | Some s -> s
      | None ->
          let s = Lp.scratch r in
          scratch.(k) <- Some s;
          s
    in
    Array.map (fun node -> Lp.resolve ~deadline r s (apply_fixes p node.fixes)) nodes
  in
  let wave = Vec.create () in
  let rec loop () =
    if Heap.is_empty frontier then exhausted := true
    else if Timer.poll deadline !nodes || !nodes >= options.node_limit then hit_limit := true
    else begin
      (* Assemble one wave: up to [wave_width] not-yet-pruned nodes, in
         strict frontier order, capped by the remaining node budget. *)
      Vec.clear wave;
      let width = min wave_width (options.node_limit - !nodes) in
      while Vec.length wave < width && not (Heap.is_empty frontier) do
        let node = Heap.pop frontier in
        if improves node.bound then Vec.push wave node
      done;
      if Vec.is_empty wave then loop ()
      else begin
        (* The root is alone in the first wave; its tableau is where
           every later node's re-solve starts. A later wave runs as one
           contiguous slice per pool slot, solved in order on that
           slice's scratch. A node's result depends only on the root
           and its fixes, and [Pool.run_array] joins in input order, so
           the results arrive exactly as a sequential left-to-right
           solve would produce them whatever the pool size. *)
        let results =
          if !nodes = 0 then begin
            let res, handle = Lp.solve_root ~deadline (apply_fixes p (Vec.get wave 0).fixes) in
            root := handle;
            [| res |]
          end
          else
            (* only an optimal root branches, and it comes with its tableau *)
            let r = Option.get !root in
            let all = Vec.to_array wave in
            let n = Array.length all in
            let slices = min (Array.length scratch) n in
            let slice k =
              let lo = k * n / slices in
              Array.sub all lo (((k + 1) * n / slices) - lo)
            in
            Pool.run_array pool (Array.init slices (fun k () -> solve_slice r k (slice k)))
            |> Array.to_list |> Array.concat
        in
        (* Incumbent updates, rounding and branching stay sequential and
           in wave order: the only state they touch is deterministic. *)
        Array.iteri
          (fun i res ->
            let node = Vec.get wave i in
            incr nodes;
            if !Obs.on then Metrics.incr "bnb.nodes_explored";
            match res with
            | Lp.Timeout ->
                (* the node's subtree is unexplored: put it back so the
                   reported best_bound still accounts for it *)
                hit_limit := true;
                push ~fixes:node.fixes ~bound:node.bound ~depth:node.depth
            | Lp.Infeasible | Lp.Unbounded -> ()
            | Lp.Optimal { x; obj } ->
                if improves obj then begin
                  let j = pick_branch x in
                  if j < 0 then accept x obj
                  else begin
                    (match options.profile.rounding_every with
                    | Some k when !nodes mod k = 0 -> try_rounding x
                    | Some _ | None -> ());
                    push ~fixes:((j, 0) :: node.fixes) ~bound:obj ~depth:(node.depth + 1);
                    push ~fixes:((j, 1) :: node.fixes) ~bound:obj ~depth:(node.depth + 1)
                  end
                end)
          results;
        if not !hit_limit then loop ()
      end
    end
  in
  loop ();
  let best_bound =
    if !exhausted then !incumbent_obj else Float.min (frontier_min_bound ()) !incumbent_obj
  in
  let proved_optimal =
    !incumbent <> None
    && (!exhausted || !incumbent_obj -. best_bound <= tolerance !incumbent_obj)
  in
  {
    incumbent = !incumbent;
    objective = !incumbent_obj;
    best_bound;
    proved_optimal;
    nodes = !nodes;
    solve_time = Timer.elapsed deadline;
    trace = List.rev !trace;
  }
