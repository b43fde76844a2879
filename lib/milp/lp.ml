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

(* A weight is a squared norm; the floor keeps round-off from driving one
   to zero or below. *)
let min_weight = 1e-12

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
     columns : structural vars | one slack per row
   A Ge row is negated into a Le row, and an Eq row's slack has range 0.
   Column j ranges over [0, range.(j)]. A nonbasic column sits at 0, or at
   its range when [at_upper.(j)]; [value.(i)] is row i's basic value,
   which may lie outside its column's range until the dual simplex
   drives it in. Row m holds the reduced costs, which the pivots keep
   current. The slack columns hold B⁻¹, and [beta.(i)] is row i's dual
   steepest-edge weight ‖e_iᵀB⁻¹‖², the squared norm of its slack part,
   which the pivots keep current too. *)
type tableau = {
  m : int;  (* constraint rows *)
  ncols : int;
  t : float array array;  (* m rows of ncols, then the reduced costs *)
  value : float array;
  basis : int array;  (* basic column of each row *)
  range : float array;
  at_upper : bool array;
  beta : float array;  (* dual steepest-edge weight of each row *)
  nz : int array;  (* scratch: the pivot row's nonzero columns *)
}

(* The slack basis: every slack is basic at its row's right-hand side
   over x' = x - lower, every structural column nonbasic at 0. B = I, so
   every weight is 1. *)
let build_tableau p =
  let rows = Array.of_list p.constraints in
  let m = Array.length rows in
  let ncols = p.nvars + m in
  let t = Array.make_matrix (m + 1) ncols 0.0 in
  let range = Array.make ncols infinity in
  for j = 0 to p.nvars - 1 do
    range.(j) <- p.upper.(j) -. p.lower.(j)
  done;
  let value =
    Array.mapi
      (fun i c ->
        let sign = if c.rel = Ge then -1.0 else 1.0 in
        List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. (sign *. a)) c.coeffs;
        t.(i).(p.nvars + i) <- 1.0;
        if c.rel = Eq then range.(p.nvars + i) <- 0.0;
        sign *. List.fold_left (fun acc (j, a) -> acc -. (a *. p.lower.(j))) c.rhs c.coeffs)
      rows
  in
  {
    m;
    ncols;
    t;
    value;
    basis = Array.init m (fun i -> p.nvars + i);
    range;
    at_upper = Array.make ncols false;
    beta = Array.make m 1.0;
    nz = Array.make ncols 0;
  }

(* Scale the pivot row and collect its nonzero columns once; every other
   row, the reduced costs included, changes only at those columns, and
   only if its entry in the pivot column is nonzero. The same pass keeps
   the weights exact (Forrest & Goldfarb, Math. Prog. 1992): with α_r the
   pivot element, f = α_i and τ_i the product of row i with the scaled
   pivot row over the slack columns, read before row i changes,
   β_i ← β_i − 2fτ_i + f²β_r/α_r² and β_r ← β_r/α_r². The slack columns
   are the last m, so they are a suffix of [nz], and only that suffix
   accumulates τ. *)
let pivot tb row col =
  if !Obs.on then Metrics.incr "lp.pivots";
  let t = tb.t and nz = tb.nz and beta = tb.beta in
  let prow = t.(row) in
  let alpha = prow.(col) in
  let inv = 1.0 /. alpha in
  let k = ref 0 in
  let collect lo hi =
    for j = lo to hi do
      let v = prow.(j) in
      if v <> 0.0 then begin
        prow.(j) <- v *. inv;
        nz.(!k) <- j;
        incr k
      end
    done
  in
  let slacks = tb.ncols - tb.m in
  collect 0 (slacks - 1);
  let s = !k in
  collect slacks (tb.ncols - 1);
  let k = !k in
  let beta_r = beta.(row) /. (alpha *. alpha) in
  for i = 0 to tb.m do
    if i <> row then begin
      let r = t.(i) in
      let f = r.(col) in
      if Float.abs f > 0.0 then begin
        for q = 0 to s - 1 do
          let j = nz.(q) in
          r.(j) <- r.(j) -. (f *. prow.(j))
        done;
        let tau = ref 0.0 in
        for q = s to k - 1 do
          let j = nz.(q) in
          let v = r.(j) and p = prow.(j) in
          tau := !tau +. (v *. p);
          r.(j) <- v -. (f *. p)
        done;
        if i < tb.m then
          beta.(i) <- Float.max min_weight (beta.(i) -. (2.0 *. f *. !tau) +. (f *. f *. beta_r));
        r.(col) <- 0.0
      end
    end
  done;
  beta.(row) <- beta_r;
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

(* Both simplex loops give up after this many iterations. *)
let iter_cap tb = (50 * (tb.m + tb.ncols)) + 1000

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
  let iter_cap = iter_cap tb in
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
  (rows + 1) * (p.nvars + rows)

(* The optimal point the tableau describes, with round-off just outside a
   bound cleaned. *)
let optimal p tb =
  let x = Array.init p.nvars (fun j -> if tb.at_upper.(j) then p.upper.(j) else p.lower.(j)) in
  for i = 0 to tb.m - 1 do
    let b = tb.basis.(i) in
    if b < p.nvars then x.(b) <- p.lower.(b) +. tb.value.(i)
  done;
  for j = 0 to p.nvars - 1 do
    if x.(j) < p.lower.(j) && x.(j) > p.lower.(j) -. feas_tol then x.(j) <- p.lower.(j)
    else if x.(j) > p.upper.(j) && x.(j) < p.upper.(j) +. feas_tol then x.(j) <- p.upper.(j)
  done;
  Optimal { x; obj = eval_objective p x }

type dual_result = Dfeasible | Dinfeasible | Dgave_up

(* Bounded dual simplex: the reduced costs stay dual feasible while
   pivots drive every basic value into [0, range]. *)
let run_dual ~deadline tb =
  let d = tb.t.(tb.m) in
  let iter_cap = iter_cap tb in
  let rec loop iter =
    if Timer.poll deadline iter || iter > iter_cap then Dgave_up
    else begin
      (* leaving row, by dual steepest edge: of the rows whose bound
         violation exceeds eps, the largest violation²/β, the lowest row
         on a tie *)
      let r = ref (-1) and best = ref 0.0 in
      for i = 0 to tb.m - 1 do
        let v = tb.value.(i) in
        let violation = Float.max (-.v) (v -. tb.range.(tb.basis.(i))) in
        if violation > eps then begin
          let score = violation *. violation /. tb.beta.(i) in
          if !r < 0 || score > !best then begin
            best := score;
            r := i
          end
        end
      done;
      if !r < 0 then Dfeasible
      else begin
        let r = !r in
        let leave = tb.basis.(r) in
        let above = tb.value.(r) > tb.range.(leave) in
        let row = tb.t.(r) in
        (* entering column: a unit move off its bound changes the
           leaving value by -sa (sa = a at lower, -a at upper). Of the
           columns that move it back toward its bound, the smallest
           |d_j / a| keeps every reduced cost's sign; a tie goes to the
           larger |a|, then to the lower index. *)
        let e = ref (-1) and best = ref infinity and best_a = ref 0.0 in
        for j = 0 to tb.ncols - 1 do
          let a = row.(j) in
          if j <> leave && tb.range.(j) > 0.0 && Float.abs a > eps then begin
            let sa = if tb.at_upper.(j) then -.a else a in
            if (above && sa > 0.0) || ((not above) && sa < 0.0) then begin
              let ratio = Float.abs (d.(j) /. a) in
              if ratio < !best -. eps || (ratio <= !best +. eps && Float.abs a > !best_a)
              then begin
                best := ratio;
                best_a := Float.abs a;
                e := j
              end
            end
          end
        done;
        if !e < 0 then Dinfeasible
        else begin
          let e = !e in
          let target = if above then tb.range.(leave) else 0.0 in
          let step = (tb.value.(r) -. target) /. row.(e) in
          shift tb e step;
          tb.value.(r) <- (if tb.at_upper.(e) then tb.range.(e) else 0.0) +. step;
          tb.at_upper.(leave) <- above;
          tb.at_upper.(e) <- false;
          pivot tb r e;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

(* The tail every solve shares: dual simplex until the basis is primal
   feasible, then one primal pass on the true costs, which takes up
   round-off and prices what the dual pass priced at 0. [None] when
   either pass gave up, at the deadline or the iteration cap. *)
let finish ~deadline p tb cost =
  match run_dual ~deadline tb with
  | Dgave_up -> None
  | Dinfeasible -> Some Infeasible
  | Dfeasible -> (
      match run_phase ~deadline tb cost with
      | Ptimeout -> None
      | Punbounded -> Some Unbounded
      | Popt -> Some (optimal p tb))

(* The root's optimal tableau over x' = x - lower, its weights
   included, with the bounds it was solved at and the true costs.
   Read-only once built, so any number of re-solves may start from it
   concurrently. *)
type root = { tb : tableau; lower : float array; upper : float array; cost : float array }
type scratch = tableau

(* The cold path starts from the slack basis with each structural column
   at the bound its cost favours, at upper when c_j < 0, so every
   reduced cost already has the sign an optimum needs. A column with
   c_j < 0 and no finite range stays at lower and is priced at 0 for the
   dual pass. An optimal result comes with its final tableau. *)
let cold ~deadline p =
  if p.nvars = 0 then (Optimal { x = [||]; obj = 0.0 }, None)
  else if Array.exists2 ( > ) p.lower p.upper then (Infeasible, None)
  else if tableau_cells p > max_tableau_cells then (Timeout, None)
  else if Fault_plan.stall_solver deadline then
    (* injected stall: the solver makes no progress until its deadline
       passes, exactly like a pathological simplex instance *)
    (Timeout, None)
  else begin
    let tb = build_tableau p in
    let d = tb.t.(tb.m) in
    for j = 0 to p.nvars - 1 do
      let c = p.objective.(j) in
      if c >= 0.0 then d.(j) <- c
      else if Float.is_finite tb.range.(j) then begin
        d.(j) <- c;
        tb.at_upper.(j) <- true;
        shift tb j tb.range.(j)
      end
    done;
    let cost = Array.make tb.ncols 0.0 in
    Array.blit p.objective 0 cost 0 p.nvars;
    match finish ~deadline p tb cost with
    | None -> (Timeout, None)
    | Some (Optimal _ as res) ->
        (res, Some { tb; lower = Array.copy p.lower; upper = Array.copy p.upper; cost })
    | Some res -> (res, None)
  end

let solve_root ?(deadline = Timer.no_deadline) p =
  if !Obs.on then Metrics.incr "lp.solves";
  cold ~deadline p

let solve ?deadline p = fst (solve_root ?deadline p)

let scratch root =
  let src = root.tb in
  {
    src with
    t = Array.make_matrix (src.m + 1) src.ncols 0.0;
    value = Array.make src.m 0.0;
    basis = Array.make src.m 0;
    range = Array.make src.ncols 0.0;
    at_upper = Array.make src.ncols false;
    beta = Array.make src.m 0.0;
    nz = Array.make src.ncols 0;
  }

let resolve ?(deadline = Timer.no_deadline) root tb p =
  let src = root.tb in
  let n = Array.length root.lower in
  if
    p.nvars <> n
    || Array.length p.lower <> n
    || Array.length p.upper <> n
    || List.compare_length_with p.constraints src.m <> 0
    || tb.m <> src.m
    || tb.ncols <> src.ncols
  then invalid_arg "Lp.resolve: problem or scratch does not match the root";
  if !Obs.on then Metrics.incr "lp.solves";
  let answer res =
    if !Obs.on then Metrics.incr "lp.resolves";
    res
  in
  (* a deadline that has passed counts as a fallback but leaves no time
     for the cold path, so it answers Timeout without building a tableau *)
  let fall_back () =
    if !Obs.on then Metrics.incr "lp.resolve_fallbacks";
    if Timer.expired deadline then Timeout else fst (cold ~deadline p)
  in
  if Array.exists2 ( > ) p.lower p.upper then answer Infeasible
  else if Fault_plan.stall_solver deadline then answer Timeout
  else if Timer.expired deadline then fall_back ()
  else begin
    for i = 0 to src.m do
      Array.blit src.t.(i) 0 tb.t.(i) 0 src.ncols
    done;
    Array.blit src.value 0 tb.value 0 src.m;
    Array.blit src.basis 0 tb.basis 0 src.m;
    Array.blit src.range 0 tb.range 0 src.ncols;
    Array.blit src.at_upper 0 tb.at_upper 0 src.ncols;
    Array.blit src.beta 0 tb.beta 0 src.m;
    (* Move to the new bounds in x' = x - lower; B stays, and so do the
       weights. The pivot's scratch holds each column's basic row (-1 if
       nonbasic) until the first pivot overwrites it. *)
    let row_of = tb.nz in
    Array.fill row_of 0 tb.ncols (-1);
    for i = 0 to tb.m - 1 do
      row_of.(tb.basis.(i)) <- i
    done;
    let finite = ref true in
    for j = 0 to n - 1 do
      let dl = p.lower.(j) -. root.lower.(j) in
      tb.range.(j) <- p.upper.(j) -. p.lower.(j);
      if row_of.(j) >= 0 then
        (* basic: the value is unchanged, its offset from lower is not *)
        tb.value.(row_of.(j)) <- tb.value.(row_of.(j)) -. dl
      else begin
        (* nonbasic: to the new bound on the same side, so d_j keeps its
           sign; the basic values follow along the column *)
        let step = if tb.at_upper.(j) then p.upper.(j) -. root.upper.(j) else dl in
        if not (Float.is_finite step) then finite := false
        else if step <> 0.0 then shift tb j step
      end
    done;
    if not !finite then fall_back ()
    else match finish ~deadline p tb root.cost with None -> fall_back () | Some res -> answer res
  end
