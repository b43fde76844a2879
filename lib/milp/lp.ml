type relation = Le | Ge | Eq

type constr = { coeffs : (int * float) list; rel : relation; rhs : float }

type problem = {
  nvars : int;
  objective : float array;
  constraints : constr list;
  lower : float array;
  upper : float array;
}

type result =
  | Optimal of { x : float array; obj : float }
  | Infeasible
  | Unbounded
  | Timeout

let eps = 1e-9
let feas_tol = 1e-6

(* Dense-tableau capacity: beyond this the solver would need gigabytes;
   real solvers switch to sparse revised simplex, ours declines (the
   caller sees a Timeout, i.e. "no solution within resources"). *)
let max_tableau_cells = 30_000_000

let eval_objective p x =
  let acc = ref 0.0 in
  for j = 0 to p.nvars - 1 do
    acc := !acc +. (p.objective.(j) *. x.(j))
  done;
  !acc

let check_feasible ?(tol = feas_tol) p x =
  let ok = ref true in
  for j = 0 to p.nvars - 1 do
    if x.(j) < p.lower.(j) -. tol || x.(j) > p.upper.(j) +. tol then ok := false
  done;
  List.iter
    (fun c ->
      let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x.(j))) 0.0 c.coeffs in
      (match c.rel with
      | Le -> if lhs > c.rhs +. tol then ok := false
      | Ge -> if lhs < c.rhs -. tol then ok := false
      | Eq -> if Float.abs (lhs -. c.rhs) > tol then ok := false))
    p.constraints;
  !ok

(* Bounded-variable tableau over x' = x - lower, one dense row per
   constraint:
     columns : structural vars | slacks/surpluses | artificials
   Column j ranges over [0, range.(j)]. A nonbasic column sits at 0, or at
   its range when [at_upper.(j)]; [value.(i)] is row i's basic value.
   Row m holds the reduced costs, which the pivots keep current. Phase 1
   minimises the artificial sum; phase 2 the true objective, with the
   artificials' range cut to 0 so they never enter again. *)
type tableau = {
  m : int;  (* constraint rows *)
  ncols : int;
  t : float array array;  (* m rows of ncols, then the reduced costs *)
  value : float array;
  basis : int array;  (* basic column of each row *)
  range : float array;
  at_upper : bool array;
  art_start : int;  (* first artificial column *)
  nz : int array;  (* scratch: the pivot row's nonzero columns *)
}

let build_tableau p =
  let rows = Array.of_list p.constraints in
  let m = Array.length rows in
  (* right-hand sides over x' = x - lower; a row whose side is negative
     is negated, so its relation flips *)
  let rhs =
    Array.map
      (fun c -> List.fold_left (fun acc (j, a) -> acc -. (a *. p.lower.(j))) c.rhs c.coeffs)
      rows
  in
  let rel i =
    if rhs.(i) < 0.0 then (match rows.(i).rel with Le -> Ge | Ge -> Le | Eq -> Eq)
    else rows.(i).rel
  in
  (* Le gets a slack; Ge a surplus and an artificial; Eq an artificial. *)
  let nslack = ref 0 and nart = ref 0 in
  for i = 0 to m - 1 do
    match rel i with
    | Le -> incr nslack
    | Ge ->
        incr nslack;
        incr nart
    | Eq -> incr nart
  done;
  let ncols = p.nvars + !nslack + !nart in
  let art_start = p.nvars + !nslack in
  let t = Array.make_matrix (m + 1) ncols 0.0 in
  let value = Array.make m 0.0 in
  let basis = Array.make m (-1) in
  let range = Array.make ncols infinity in
  for j = 0 to p.nvars - 1 do
    range.(j) <- p.upper.(j) -. p.lower.(j)
  done;
  let next_slack = ref p.nvars and next_art = ref art_start in
  Array.iteri
    (fun i c ->
      let sign = if rhs.(i) < 0.0 then -1.0 else 1.0 in
      List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. (sign *. a)) c.coeffs;
      value.(i) <- sign *. rhs.(i);
      match rel i with
      | Le ->
          t.(i).(!next_slack) <- 1.0;
          basis.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          t.(i).(!next_slack) <- -1.0;
          incr next_slack;
          t.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art
      | Eq ->
          t.(i).(!next_art) <- 1.0;
          basis.(i) <- !next_art;
          incr next_art)
    rows;
  {
    m;
    ncols;
    t;
    value;
    basis;
    range;
    at_upper = Array.make ncols false;
    art_start;
    nz = Array.make ncols 0;
  }

(* Scale the pivot row and collect its nonzero columns once; every other
   row, the reduced costs included, changes only at those columns, and
   only if its entry in the pivot column is nonzero. *)
let pivot tb row col =
  if !Obs.on then Metrics.incr "lp.pivots";
  let t = tb.t and nz = tb.nz in
  let prow = t.(row) in
  let inv = 1.0 /. prow.(col) in
  let k = ref 0 in
  for j = 0 to tb.ncols - 1 do
    let v = prow.(j) in
    if v <> 0.0 then begin
      prow.(j) <- v *. inv;
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to tb.m do
    if i <> row then begin
      let r = t.(i) in
      let f = r.(col) in
      if Float.abs f > 0.0 then begin
        for q = 0 to k - 1 do
          let j = nz.(q) in
          r.(j) <- r.(j) -. (f *. prow.(j))
        done;
        r.(col) <- 0.0
      end
    end
  done;
  prow.(col) <- 1.0;
  tb.basis.(row) <- col

(* Move nonbasic column [e] by [step] in x': every basic value follows
   along e's tableau column. *)
let shift tb e step =
  for i = 0 to tb.m - 1 do
    let a = tb.t.(i).(e) in
    if a <> 0.0 then tb.value.(i) <- tb.value.(i) -. (step *. a)
  done

type phase_result = Popt | Punbounded | Ptimeout

(* Minimise cᵀx' over the current tableau. *)
let run_phase ?(deadline = Timer.no_deadline) tb cost =
  (* reduced costs c_j - c_B B^{-1} A_j, read off the tableau once *)
  let d = tb.t.(tb.m) in
  Array.blit cost 0 d 0 tb.ncols;
  for i = 0 to tb.m - 1 do
    let cb = cost.(tb.basis.(i)) in
    if cb <> 0.0 then begin
      let row = tb.t.(i) in
      for j = 0 to tb.ncols - 1 do
        let v = row.(j) in
        if v <> 0.0 then d.(j) <- d.(j) -. (cb *. v)
      done
    end
  done;
  (* the objective's fall per unit move of nonbasic column j off its
     bound; basic columns have d = 0, and a fixed column never moves *)
  let gain j =
    if tb.range.(j) > 0.0 then if tb.at_upper.(j) then d.(j) else -.d.(j) else 0.0
  in
  let iter_cap = (50 * (tb.m + tb.ncols)) + 1000 in
  let rec loop iter bland =
    if Timer.poll deadline iter then Ptimeout
    else if iter > iter_cap then Ptimeout
    else begin
      (* entering column *)
      let entering = ref (-1) in
      if bland then begin
        (try
           for j = 0 to tb.ncols - 1 do
             if gain j > eps then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ())
      end
      else begin
        let best = ref eps in
        for j = 0 to tb.ncols - 1 do
          let g = gain j in
          if g > !best then begin
            best := g;
            entering := j
          end
        done
      end;
      if !entering < 0 then Popt
      else begin
        (* ratio test: the entering column moves by [sigma] per unit of
           step; each basic value stops at 0 or at its range *)
        let e = !entering in
        let sigma = if tb.at_upper.(e) then -1.0 else 1.0 in
        let leave = ref (-1) and leave_up = ref false in
        let best_ratio = ref infinity in
        for i = 0 to tb.m - 1 do
          let a = sigma *. tb.t.(i).(e) in
          let limit =
            if a > eps then tb.value.(i) /. a
            else if a < -.eps then (tb.range.(tb.basis.(i)) -. tb.value.(i)) /. -.a
            else infinity
          in
          let ratio = Float.max 0.0 limit in
          if
            limit < infinity
            && (ratio < !best_ratio -. eps
               || (ratio < !best_ratio +. eps && !leave >= 0
                  && tb.basis.(i) < tb.basis.(!leave)))
          then begin
            best_ratio := ratio;
            leave := i;
            leave_up := a < 0.0
          end
        done;
        (* switch to Bland's rule if we appear to be stalling *)
        let bland = bland || iter > 5 * (tb.m + tb.ncols) in
        if tb.range.(e) <= !best_ratio then
          if tb.range.(e) = infinity then Punbounded
          else begin
            (* the entering column reaches its other bound first: it flips
               and the basis stays *)
            if !Obs.on then Metrics.incr "lp.bound_flips";
            shift tb e (sigma *. tb.range.(e));
            tb.at_upper.(e) <- not tb.at_upper.(e);
            loop (iter + 1) bland
          end
        else begin
          let r = !leave and step = sigma *. !best_ratio in
          shift tb e step;
          tb.value.(r) <- (if tb.at_upper.(e) then tb.range.(e) else 0.0) +. step;
          tb.at_upper.(tb.basis.(r)) <- !leave_up;
          tb.at_upper.(e) <- false;
          pivot tb r e;
          loop (iter + 1) bland
        end
      end
    end
  in
  loop 0 false

let tableau_cells p =
  let rows = List.length p.constraints in
  (* columns <= nvars + one slack + one artificial per row *)
  rows * (p.nvars + (2 * rows) + 1)

let solve ?(deadline = Timer.no_deadline) p =
  if !Obs.on then Metrics.incr "lp.solves";
  if p.nvars = 0 then Optimal { x = [||]; obj = 0.0 }
  else if Array.exists2 ( > ) p.lower p.upper then Infeasible
  else if tableau_cells p > max_tableau_cells then Timeout
  else if Fault_plan.stall_solver deadline then
    (* injected stall: the solver makes no progress until its deadline
       passes, exactly like a pathological simplex instance *)
    Timeout
  else begin
    let tb = build_tableau p in
    let has_artificials = tb.art_start < tb.ncols in
    let phase1_outcome =
      if not has_artificials then Popt
      else begin
        let cost1 = Array.make tb.ncols 0.0 in
        for j = tb.art_start to tb.ncols - 1 do
          cost1.(j) <- 1.0
        done;
        run_phase ~deadline tb cost1
      end
    in
    match phase1_outcome with
    | Ptimeout -> Timeout
    | Punbounded -> Infeasible (* phase 1 is bounded below by 0; treat as numerical failure *)
    | Popt ->
        let art_value = ref 0.0 in
        for i = 0 to tb.m - 1 do
          if tb.basis.(i) >= tb.art_start then art_value := !art_value +. tb.value.(i)
        done;
        if !art_value > feas_tol then Infeasible
        else begin
          (* Drive remaining (zero-valued) artificials out of the basis;
             the entering column keeps its bound value. *)
          for i = 0 to tb.m - 1 do
            if tb.basis.(i) >= tb.art_start then begin
              let found = ref (-1) in
              (try
                 for j = 0 to tb.art_start - 1 do
                   if Float.abs tb.t.(i).(j) > eps then begin
                     found := j;
                     raise Exit
                   end
                 done
               with Exit -> ());
              let j = !found in
              if j >= 0 then begin
                tb.value.(i) <- (if tb.at_upper.(j) then tb.range.(j) else 0.0);
                tb.at_upper.(j) <- false;
                pivot tb i j
              end
              (* else: redundant row; leave the artificial basic at 0 *)
            end
          done;
          Array.fill tb.range tb.art_start (tb.ncols - tb.art_start) 0.0;
          let cost2 = Array.make tb.ncols 0.0 in
          Array.blit p.objective 0 cost2 0 p.nvars;
          match run_phase ~deadline tb cost2 with
          | Ptimeout -> Timeout
          | Punbounded -> Unbounded
          | Popt ->
              let x =
                Array.init p.nvars (fun j ->
                    if tb.at_upper.(j) then p.upper.(j) else p.lower.(j))
              in
              for i = 0 to tb.m - 1 do
                let b = tb.basis.(i) in
                if b < p.nvars then x.(b) <- p.lower.(b) +. tb.value.(i)
              done;
              (* clean round-off just outside a bound *)
              for j = 0 to p.nvars - 1 do
                if x.(j) < p.lower.(j) && x.(j) > p.lower.(j) -. feas_tol then
                  x.(j) <- p.lower.(j)
                else if x.(j) > p.upper.(j) && x.(j) < p.upper.(j) +. feas_tol then
                  x.(j) <- p.upper.(j)
              done;
              Optimal { x; obj = eval_objective p x }
        end
  end
