(* Tests for the LP simplex and branch-and-bound MILP solver. *)

let qtest ?(count = 80) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let lp ~nvars ~objective ~constraints ~upper =
  { Lp.nvars; objective; constraints; lower = Array.make nvars 0.0; upper }

let constr coeffs rel rhs = { Lp.coeffs; rel; rhs }

(* ------------------------------------------------------------------- LP *)

let test_lp_textbook () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min -3x -5y)
     optimum at (2, 6), objective -36 *)
  let p =
    lp ~nvars:2 ~objective:[| -3.0; -5.0 |]
      ~constraints:
        [
          constr [ (0, 1.0) ] Lp.Le 4.0;
          constr [ (1, 2.0) ] Lp.Le 12.0;
          constr [ (0, 3.0); (1, 2.0) ] Lp.Le 18.0;
        ]
      ~upper:[| infinity; infinity |]
  in
  match Lp.solve p with
  | Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"x" 2.0 x.(0);
      Test_util.check_close ~msg:"y" 6.0 x.(1);
      Test_util.check_close ~msg:"obj" (-36.0) obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_equality_and_ge () =
  (* min x + y s.t. x + y = 10, x >= 3, y >= 2 -> 10 at e.g. x∈[3,8] *)
  let p =
    lp ~nvars:2 ~objective:[| 1.0; 1.0 |]
      ~constraints:
        [
          constr [ (0, 1.0); (1, 1.0) ] Lp.Eq 10.0;
          constr [ (0, 1.0) ] Lp.Ge 3.0;
          constr [ (1, 1.0) ] Lp.Ge 2.0;
        ]
      ~upper:[| infinity; infinity |]
  in
  match Lp.solve p with
  | Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"obj" 10.0 obj;
      Alcotest.(check bool) "x >= 3" true (x.(0) >= 3.0 -. 1e-6);
      Alcotest.(check bool) "y >= 2" true (x.(1) >= 2.0 -. 1e-6)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_infeasible () =
  let p =
    lp ~nvars:1 ~objective:[| 1.0 |]
      ~constraints:[ constr [ (0, 1.0) ] Lp.Ge 5.0; constr [ (0, 1.0) ] Lp.Le 3.0 ]
      ~upper:[| infinity |]
  in
  Alcotest.(check bool) "infeasible" true (Lp.solve p = Lp.Infeasible)

let test_lp_unbounded () =
  let p =
    lp ~nvars:1 ~objective:[| -1.0 |] ~constraints:[ constr [ (0, 1.0) ] Lp.Ge 0.0 ]
      ~upper:[| infinity |]
  in
  Alcotest.(check bool) "unbounded" true (Lp.solve p = Lp.Unbounded)

let test_lp_upper_bounds () =
  (* min -x with x <= 0.7 via the box bound *)
  let p = lp ~nvars:1 ~objective:[| -1.0 |] ~constraints:[] ~upper:[| 0.7 |] in
  match Lp.solve p with
  | Lp.Optimal { x; _ } -> Test_util.check_close ~msg:"x at bound" 0.7 x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_negative_rhs () =
  (* -x <= -2  <=>  x >= 2 *)
  let p =
    lp ~nvars:1 ~objective:[| 1.0 |] ~constraints:[ constr [ (0, -1.0) ] Lp.Le (-2.0) ]
      ~upper:[| infinity |]
  in
  match Lp.solve p with
  | Lp.Optimal { x; _ } -> Test_util.check_close ~msg:"x" 2.0 x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_degenerate () =
  (* multiple redundant constraints through one vertex: must not cycle *)
  let p =
    lp ~nvars:2 ~objective:[| -1.0; -1.0 |]
      ~constraints:
        [
          constr [ (0, 1.0); (1, 1.0) ] Lp.Le 1.0;
          constr [ (0, 1.0); (1, 1.0) ] Lp.Le 1.0;
          constr [ (0, 2.0); (1, 2.0) ] Lp.Le 2.0;
          constr [ (0, 1.0) ] Lp.Le 1.0;
          constr [ (1, 1.0) ] Lp.Le 1.0;
        ]
      ~upper:[| infinity; infinity |]
  in
  match Lp.solve p with
  | Lp.Optimal { obj; _ } -> Test_util.check_close ~msg:"obj" (-1.0) obj
  | _ -> Alcotest.fail "expected optimal"

(* random LPs: solver's optimum must be feasible and no random feasible
   point may beat it *)
let random_lp_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 2 + Rng.int rng 4 in
      let ncons = 1 + Rng.int rng 5 in
      let objective = Array.init nvars (fun _ -> Rng.float rng 4.0 -. 2.0) in
      let constraints =
        List.init ncons (fun _ ->
            let coeffs =
              List.init nvars (fun j -> j, Rng.float rng 2.0)
              |> List.filter (fun (_, a) -> a > 0.2)
            in
            constr coeffs Lp.Le (1.0 +. Rng.float rng 5.0))
      in
      seed, lp ~nvars ~objective ~constraints ~upper:(Array.make nvars 1.0))
    QCheck2.Gen.(int_bound 1_000_000)

let lp_optimum_dominates_random_points =
  qtest "LP optimum is feasible and dominates sampled feasible points" random_lp_gen
    (fun (seed, p) ->
      match Lp.solve p with
      | Lp.Optimal { x; obj } ->
          let feas = Lp.check_feasible p x in
          let rng = Rng.create (seed + 1) in
          let dominated = ref true in
          for _ = 1 to 100 do
            let y = Array.init p.Lp.nvars (fun _ -> Rng.float rng 1.0) in
            if Lp.check_feasible p y && Lp.eval_objective p y < obj -. 1e-6 then
              dominated := false
          done;
          feas && !dominated
      | Lp.Infeasible | Lp.Unbounded | Lp.Timeout -> false (* all-Le with x=0 is feasible *))

(* Random bounded LPs against an exact oracle: every vertex is the
   solution of n active constraints drawn from the rows and the 2n
   bounds. Every variable has finite bounds, so the region is a polytope
   and, when it is not empty, its optimum is attained at a vertex. *)
let bounded_lp_gen =
  let open QCheck2.Gen in
  (* whole numbers too, so that degenerate vertices and ties come up *)
  let num lo hi =
    oneof [ float_range lo hi; map float_of_int (int_range (truncate lo) (truncate hi)) ]
  in
  let* nvars = int_range 2 4 in
  let* lower = array_repeat nvars (oneofl [ 0.0; 1.0 ]) in
  let* upper = flatten_a (Array.map (fun lo -> oneofl [ lo; 1.0; 2.5 ]) lower) in
  let* objective = array_repeat nvars (num (-2.0) 2.0) in
  let row =
    let* coeffs = list_repeat nvars (num (-2.0) 2.0) in
    let* rel = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] and* rhs = num (-2.0) 3.0 in
    return (constr (List.mapi (fun j a -> (j, a)) coeffs) rel rhs)
  in
  let+ constraints = list_size (int_range 1 4) row in
  { Lp.nvars; objective; constraints; lower; upper }

(* Solve A x = b by Gaussian elimination with partial pivoting; [None]
   when the system is singular. *)
let gauss a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  try
    for c = 0 to n - 1 do
      let p = ref c in
      for r = c + 1 to n - 1 do
        if Float.abs a.(r).(c) > Float.abs a.(!p).(c) then p := r
      done;
      if Float.abs a.(!p).(c) < 1e-9 then raise Exit;
      let t = a.(c) in
      a.(c) <- a.(!p);
      a.(!p) <- t;
      let t = b.(c) in
      b.(c) <- b.(!p);
      b.(!p) <- t;
      for r = 0 to n - 1 do
        if r <> c then begin
          let f = a.(r).(c) /. a.(c).(c) in
          for k = c to n - 1 do
            a.(r).(k) <- a.(r).(k) -. (f *. a.(c).(k))
          done;
          b.(r) <- b.(r) -. (f *. b.(c))
        end
      done
    done;
    Some (Array.init n (fun i -> b.(i) /. a.(i).(i)))
  with Exit -> None

(* the best objective over the feasible vertices, [None] if none *)
let best_vertex p =
  let n = p.Lp.nvars in
  let dense c = Array.init n (fun j -> try List.assoc j c.Lp.coeffs with Not_found -> 0.0) in
  let unit j = Array.init n (fun k -> if k = j then 1.0 else 0.0) in
  let planes =
    Array.of_list
      (List.map (fun c -> (dense c, c.Lp.rhs)) p.Lp.constraints
      @ List.init n (fun j -> (unit j, p.Lp.lower.(j)))
      @ List.init n (fun j -> (unit j, p.Lp.upper.(j))))
  in
  let best = ref None in
  (* every n-subset of the planes, as increasing index lists *)
  let rec choose k from acc =
    if k = 0 then begin
      let active = Array.of_list (List.rev acc) in
      let a = Array.map (fun i -> fst planes.(i)) active
      and b = Array.map (fun i -> snd planes.(i)) active in
      match gauss a b with
      | Some x when Lp.check_feasible ~tol:1e-9 p x ->
          let v = Lp.eval_objective p x in
          (match !best with Some b when b <= v -> () | _ -> best := Some v)
      | Some _ | None -> ()
    end
    else
      for i = from to Array.length planes - k do
        choose (k - 1) (i + 1) (i :: acc)
      done
  in
  choose n 0 [];
  !best

let lp_matches_vertex_oracle =
  qtest ~count:500 "LP optimum matches the best vertex on random bounded LPs" bounded_lp_gen
    (fun p ->
      match (best_vertex p, Lp.solve p) with
      | Some v, Lp.Optimal { x; obj } ->
          Float.abs (obj -. v) <= 1e-6 *. Float.max 1.0 (Float.abs v) && Lp.check_feasible p x
      | None, Lp.Infeasible -> true
      | _ -> false)

(* A solve's answer, with its pivot and bound-flip counts. *)
let counting_steps solve =
  Metrics.scoped (fun () ->
      let res = Obs.with_enabled solve in
      (res, Metrics.counter_value "lp.pivots", Metrics.counter_value "lp.bound_flips"))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

(* Branch-and-bound's re-solve against two oracles: tighten a solved
   root's bounds at random, as fixes do, and [Lp.resolve] must agree
   with the best vertex and with a cold solve. The scratch first holds
   the re-solve of another child, its basis, flags, values and weights,
   since a result may not depend on what the scratch held: its x bits
   and its pivot count must equal a re-solve's from a fresh scratch. *)
let lp_resolve_matches_cold =
  let moves = QCheck2.Gen.(array_repeat 4 (int_range 0 3)) in
  qtest ~count:3000 "re-solve from the root basis = cold solve"
    QCheck2.Gen.(triple bounded_lp_gen moves moves)
    (fun (p, moves, earlier) ->
      let child moves =
        let lower = Array.copy p.Lp.lower and upper = Array.copy p.Lp.upper in
        for j = 0 to p.Lp.nvars - 1 do
          match moves.(j) with
          | 0 -> upper.(j) <- lower.(j) (* fix at lower *)
          | 1 -> lower.(j) <- upper.(j) (* fix at upper *)
          | 2 -> upper.(j) <- Float.min upper.(j) (lower.(j) +. 1.0)
          | _ -> ()
        done;
        { p with Lp.lower; upper }
      in
      match Lp.solve_root p with
      | _, None -> true
      | _, Some root ->
          let q = child moves in
          let fresh, fresh_pivots, _ =
            counting_steps (fun () -> Lp.resolve root (Lp.scratch root) q)
          in
          let scratch = Lp.scratch root in
          ignore (Lp.resolve root scratch (child earlier));
          let res, pivots, _ = counting_steps (fun () -> Lp.resolve root scratch q) in
          let close v obj = Float.abs (obj -. v) <= 1e-6 *. Float.max 1.0 (Float.abs v) in
          pivots = fresh_pivots
          &&
          match (best_vertex q, Lp.solve q, res, fresh) with
          | Some v, Lp.Optimal { obj = cold; _ }, Lp.Optimal { x; obj }, Lp.Optimal { x = x'; _ }
            ->
              close v obj && close v cold && Lp.check_feasible q x && same_bits x x'
          | None, Lp.Infeasible, Lp.Infeasible, Lp.Infeasible -> true
          | _ -> false)

(* The leaving row by dual steepest edge, with exact weights. min
   4 x0 + 4 x1 with x0 + x1 >= 4, 3 x0 + x1 >= 3 and 3 x0 + 2 x1 >= 5.
   Every weight starts at 1: both rules leave row 2 (violation 5), x0
   enters, then row 0, x1 enters. Rows 1 and 2 are then violated by 5
   and 3, with slack parts (3, 1, -2) and (2, 0, -1), so weights 14 and
   5. The largest violation leaves row 1 and takes two more pivots;
   steepest edge leaves row 2 (9/5 > 25/14) and takes one. Weights
   updated without the τ term would read 12 and 41/9 and leave row 1
   too. *)
let test_lp_steepest_edge () =
  let p =
    lp ~nvars:2 ~objective:[| 4.0; 4.0 |]
      ~constraints:
        [
          constr [ (0, 1.0); (1, 1.0) ] Lp.Ge 4.0;
          constr [ (0, 3.0); (1, 1.0) ] Lp.Ge 3.0;
          constr [ (0, 3.0); (1, 2.0) ] Lp.Ge 5.0;
        ]
      ~upper:[| infinity; infinity |]
  in
  let res, pivots, _ = counting_steps (fun () -> Lp.solve p) in
  (match res with
  | Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"obj" 16.0 obj;
      Alcotest.(check (array (float 1e-12))) "x" [| 0.0; 4.0 |] x
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check (float 0.0)) "three pivots" 3.0 pivots

(* A dual-degenerate cold LP: equal costs tie every ratio, and all four
   rows tie on violation 2 at weight 1, rows 0 and 1 as duplicates and
   rows 2 and 3 scaled by 2. The dual simplex has no anti-cycling rule,
   so this checks that the lowest-row and lowest-column tie breaks
   still end at the vertex oracle's optimum. *)
let test_lp_dual_degenerate () =
  let p =
    lp ~nvars:3 ~objective:[| 1.0; 1.0; 1.0 |]
      ~constraints:
        [
          constr [ (0, 1.0); (1, 1.0); (2, 1.0) ] Lp.Ge 2.0;
          constr [ (0, 1.0); (1, 1.0); (2, 1.0) ] Lp.Ge 2.0;
          constr [ (0, 2.0); (1, 2.0) ] Lp.Ge 2.0;
          constr [ (1, 2.0); (2, 2.0) ] Lp.Ge 2.0;
        ]
      ~upper:[| 1.0; 1.0; 1.0 |]
  in
  match (best_vertex p, Lp.solve p) with
  | Some v, Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"vertex oracle" 2.0 v;
      Test_util.check_close ~msg:"obj" v obj;
      Alcotest.(check bool) "feasible" true (Lp.check_feasible p x)
  | _ -> Alcotest.fail "expected optimal"

let test_lp_bound_flip () =
  (* min -x0 + x1 with x0 - 2 x1 <= 0: x0 has no finite upper bound, so
     it starts at 0 and enters the basis at a degenerate pivot; x1 then
     flips to its upper bound, which lets x0 rise to 2 *)
  let p =
    lp ~nvars:2 ~objective:[| -1.0; 1.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, -2.0) ] Lp.Le 0.0 ]
      ~upper:[| infinity; 1.0 |]
  in
  let res, pivots, flips = counting_steps (fun () -> Lp.solve p) in
  (match res with
  | Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"obj" (-1.0) obj;
      Alcotest.(check (array (float 1e-12))) "x" [| 2.0; 1.0 |] x
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check (float 0.0)) "one pivot" 1.0 pivots;
  Alcotest.(check (float 0.0)) "one flip" 1.0 flips

let test_lp_favoured_bounds () =
  (* min -x0 - x1 with x0 + x1 <= 5 never binding: the cold start puts
     both columns at the upper bound their costs favour, which is
     already optimal *)
  let p =
    lp ~nvars:2 ~objective:[| -1.0; -1.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, 1.0) ] Lp.Le 5.0 ]
      ~upper:[| 1.0; 1.0 |]
  in
  let res, pivots, flips = counting_steps (fun () -> Lp.solve p) in
  (match res with
  | Lp.Optimal { x; obj } ->
      Test_util.check_close ~msg:"obj" (-2.0) obj;
      Alcotest.(check (array (float 0.0))) "x at upper bounds" [| 1.0; 1.0 |] x
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check (float 0.0)) "no pivot" 0.0 pivots;
  Alcotest.(check (float 0.0)) "no flip" 0.0 flips

let test_lp_fix_through_lower () =
  (* x0 fixed to 1 by its lower bound, as B&B fixes a binary: the row
     x0 + x1 <= 1 then forces x1 to 0 although its cost is negative *)
  let p =
    {
      (lp ~nvars:2 ~objective:[| 1.0; -1.0 |]
         ~constraints:[ constr [ (0, 1.0); (1, 1.0) ] Lp.Le 1.0 ]
         ~upper:[| 1.0; 1.0 |])
      with
      Lp.lower = [| 1.0; 0.0 |];
    }
  in
  match Lp.solve p with
  | Lp.Optimal { x; obj } ->
      Alcotest.(check (array (float 0.0))) "x" [| 1.0; 0.0 |] x;
      Test_util.check_close ~msg:"obj" 1.0 obj
  | _ -> Alcotest.fail "expected optimal"

let test_lp_crossed_bounds () =
  let p =
    { (lp ~nvars:2 ~objective:[| 1.0; 1.0 |] ~constraints:[] ~upper:[| 1.0; 0.5 |]) with
      Lp.lower = [| 0.0; 1.0 |] }
  in
  Alcotest.(check bool) "lower > upper is infeasible" true (Lp.solve p = Lp.Infeasible)

(* The re-solve's two ways out to [lp.resolve_fallbacks], from the root
   of [test_lp_favoured_bounds], whose optimum leaves both columns
   nonbasic at their upper bound 1. *)
let flip_root () =
  let p =
    lp ~nvars:2 ~objective:[| -1.0; -1.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, 1.0) ] Lp.Le 5.0 ]
      ~upper:[| 1.0; 1.0 |]
  in
  match Lp.solve_root p with
  | _, Some root -> (p, root, Lp.scratch root)
  | _, None -> Alcotest.fail "expected an optimal root"

let counting_fallbacks f =
  Metrics.scoped (fun () ->
      let res = Obs.with_enabled f in
      (res, Metrics.counter_value "lp.resolve_fallbacks"))

let test_lp_resolve_past_deadline () =
  let p, root, scratch = flip_root () in
  let d = Timer.deadline_after 1e-9 in
  Unix.sleepf 0.001;
  let res, fallbacks = counting_fallbacks (fun () -> Lp.resolve ~deadline:d root scratch p) in
  Alcotest.(check bool) "times out" true (res = Lp.Timeout);
  Alcotest.(check (float 0.0)) "counted as a fallback" 1.0 fallbacks

let test_lp_resolve_infinite_bound () =
  (* x0 sits at its upper bound; lifting that bound to infinity leaves
     no finite bound to move it to, so the node is solved cold, and the
     row x0 + x1 <= 5 now binds *)
  let p, root, scratch = flip_root () in
  let q = { p with Lp.upper = [| infinity; 1.0 |] } in
  let res, fallbacks = counting_fallbacks (fun () -> Lp.resolve root scratch q) in
  (match (res, Lp.solve q) with
  | Lp.Optimal { x; obj }, Lp.Optimal { obj = cold; _ } ->
      Test_util.check_close ~msg:"cold objective" cold obj;
      Test_util.check_close ~msg:"obj" (-5.0) obj;
      Alcotest.(check bool) "feasible" true (Lp.check_feasible q x)
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check (float 0.0)) "counted as a fallback" 1.0 fallbacks

(* A re-solve must not keep the flags of the scratch's last use. Child
   A's re-solve leaves x0 nonbasic at its upper bound, where the root
   has it at its lower one; child B is then re-solved from the same
   scratch and must match a cold solve. min 3 x0 + 2 x1 + 4 x2 with
   x0 + x1 + x2 >= 1.5: the root takes x1 = 1.5; A caps x1 at 0, so x0
   rises to its upper bound 1 and x2 makes up 0.5; B caps x1 at 1, so
   x0 makes up 0.5. *)
let test_lp_resolve_after_upper () =
  let p =
    lp ~nvars:3 ~objective:[| 3.0; 2.0; 4.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, 1.0); (2, 1.0) ] Lp.Ge 1.5 ]
      ~upper:[| 1.0; 2.0; 1.0 |]
  in
  let optimal what = function
    | Lp.Optimal { x; obj } -> (x, obj)
    | _ -> Alcotest.failf "%s: expected optimal" what
  in
  match Lp.solve_root p with
  | _, None -> Alcotest.fail "expected an optimal root"
  | res, Some root ->
      Alcotest.(check (array (float 1e-12))) "root x" [| 0.0; 1.5; 0.0 |] (fst (optimal "root" res));
      let scratch = Lp.scratch root in
      let a = { p with Lp.upper = [| 1.0; 0.0; 1.0 |] } in
      let xa, obj_a = optimal "child A" (Lp.resolve root scratch a) in
      Alcotest.(check (array (float 1e-12))) "child A x" [| 1.0; 0.0; 0.5 |] xa;
      Test_util.check_close ~msg:"child A objective" 5.0 obj_a;
      let b = { p with Lp.upper = [| 1.0; 1.0; 1.0 |] } in
      let xb, obj_b = optimal "child B" (Lp.resolve root scratch b) in
      let _, cold = optimal "cold B" (Lp.solve b) in
      Test_util.check_close ~msg:"child B = cold" cold obj_b;
      Test_util.check_close ~msg:"child B objective" 3.5 obj_b;
      Alcotest.(check bool) "child B feasible" true (Lp.check_feasible b xb)

let test_lp_resolve_allocation () =
  (* a depth-1 child of mcm_8's ILP, re-solved from the root into a
     pre-made scratch, allocates its answer and nothing tableau-sized *)
  let p = (Ilp.encode ((Registry.find_instance "mcm_8").Registry.build ())).Ilp.problem in
  match Lp.solve_root p with
  | Lp.Optimal { x; _ }, Some root ->
      let frac k = Float.abs (x.(k) -. Float.round x.(k)) in
      let j = ref 0 in
      Array.iteri (fun k _ -> if frac k > frac !j then j := k) x;
      Alcotest.(check bool) "root is fractional" true (frac !j > 1e-6);
      let upper = Array.copy p.Lp.upper in
      upper.(!j) <- 0.0;
      let child = { p with Lp.upper } in
      let scratch = Lp.scratch root in
      let before = Test_util.allocated_words () in
      let res = Lp.resolve root scratch child in
      let words = Test_util.allocated_words () -. before in
      let rows = List.length p.Lp.constraints in
      (* the tableau: one slack per row *)
      let tableau_words = float_of_int ((rows + 1) * (p.Lp.nvars + rows)) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words < a tenth of %.0f" words tableau_words)
        true (words < tableau_words /. 10.0);
      (match (res, Lp.solve child) with
      | Lp.Optimal { obj; _ }, Lp.Optimal { obj = cold; _ } ->
          Test_util.check_close ~msg:"same objective as cold" cold obj
      | _ -> Alcotest.fail "expected optimal")
  | _ -> Alcotest.fail "expected an optimal root"

(* The root LP of every bundled instance, the relaxation of its Eq. (1)
   encoding: each one whose tableau fits answers a feasible optimum, and
   the two past the capacity guard decline at once. *)
let test_lp_bundled_roots () =
  let over_capacity = [ "mul_512"; "BERT" ] in
  List.iter
    (fun ds ->
      List.iter
        (fun inst ->
          let name = inst.Registry.inst_name in
          let p = (Ilp.encode (inst.Registry.build ())).Ilp.problem in
          let res, wall = Timer.time (fun () -> Lp.solve p) in
          match (List.mem name over_capacity, res) with
          | false, Lp.Optimal { x; obj } ->
              Alcotest.(check bool) (name ^ " feasible") true (Lp.check_feasible ~tol:1e-6 p x);
              Alcotest.(check (float 0.0)) (name ^ " objective") (Lp.eval_objective p x) obj
          | true, Lp.Timeout ->
              Alcotest.(check bool)
                (Printf.sprintf "%s declined in %.3f s" name wall)
                true (wall < 1.0)
          | _ -> Alcotest.failf "%s: unexpected LP answer" name)
        ds.Registry.instances)
    Registry.all

(* ------------------------------------------------------------------ MILP *)

let brute_force_binary p =
  (* enumerate all binary assignments *)
  let n = p.Lp.nvars in
  let best = ref infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let x = Array.init n (fun j -> if mask land (1 lsl j) <> 0 then 1.0 else 0.0) in
    if Lp.check_feasible p x then begin
      let v = Lp.eval_objective p x in
      if v < !best then best := v
    end
  done;
  !best

let random_binary_milp_gen =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      let nvars = 2 + Rng.int rng 6 in
      let ncons = 1 + Rng.int rng 4 in
      let objective = Array.init nvars (fun _ -> Rng.float rng 10.0 -. 5.0) in
      let constraints =
        List.init ncons (fun _ ->
            let coeffs = List.init nvars (fun j -> j, Rng.float rng 3.0 -. 1.0) in
            let rel = if Rng.bool rng then Lp.Le else Lp.Ge in
            constr coeffs rel (Rng.float rng 3.0 -. 1.0))
      in
      lp ~nvars ~objective ~constraints ~upper:(Array.make nvars 1.0))
    QCheck2.Gen.(int_bound 1_000_000)

let bnb_matches_brute_force profile =
  qtest ~count:60
    (Printf.sprintf "B&B (%s) matches brute force on random binary MILPs"
       profile.Bnb.profile_name)
    random_binary_milp_gen
    (fun p ->
      let opts = { (Bnb.default_options profile) with Bnb.time_limit = 10.0 } in
      let outcome = Bnb.solve p ~integer_vars:(Array.init p.Lp.nvars Fun.id) opts in
      let expected = brute_force_binary p in
      if Float.is_finite expected then
        outcome.Bnb.proved_optimal && Test_util.float_close expected outcome.Bnb.objective
      else outcome.Bnb.incumbent = None)

let test_bnb_knapsack () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6 -> a + c (17) vs b+c (20) *)
  let p =
    lp ~nvars:3 ~objective:[| -10.0; -13.0; -7.0 |]
      ~constraints:[ constr [ (0, 3.0); (1, 4.0); (2, 2.0) ] Lp.Le 6.0 ]
      ~upper:[| 1.0; 1.0; 1.0 |]
  in
  let outcome =
    Bnb.solve p ~integer_vars:[| 0; 1; 2 |] (Bnb.default_options Bnb.cplex_like)
  in
  Test_util.check_close ~msg:"knapsack optimum" (-20.0) outcome.Bnb.objective;
  Alcotest.(check bool) "proved" true outcome.Bnb.proved_optimal

let test_bnb_warm_start_trace () =
  let p =
    lp ~nvars:2 ~objective:[| 1.0; 1.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, 1.0) ] Lp.Ge 1.0 ]
      ~upper:[| 1.0; 1.0 |]
  in
  let warm = [| 1.0; 1.0 |] in
  let opts =
    { (Bnb.default_options Bnb.cplex_like) with Bnb.warm_start = Some warm }
  in
  let outcome = Bnb.solve p ~integer_vars:[| 0; 1 |] opts in
  Test_util.check_close ~msg:"optimum 1" 1.0 outcome.Bnb.objective;
  (* warm start (cost 2) recorded first, then the improvement to 1 *)
  Alcotest.(check bool) "trace has >= 2 entries" true (List.length outcome.Bnb.trace >= 2);
  Test_util.check_close ~msg:"first trace entry is warm start" 2.0
    (snd (List.hd outcome.Bnb.trace))

let test_bnb_rejects_general_integers () =
  let p =
    lp ~nvars:1 ~objective:[| 1.0 |] ~constraints:[] ~upper:[| 5.0 |]
  in
  Alcotest.check_raises "binaries only"
    (Invalid_argument "Bnb.solve: integer variables must be binary (upper bound 1)") (fun () ->
      ignore (Bnb.solve p ~integer_vars:[| 0 |] (Bnb.default_options Bnb.cbc_like)))

let test_bnb_rejects_negative_lower () =
  (* x in [-3, 1], x >= -1.5: a child fixing x to 0 keeps the same LP,
     so B&B used to loop to its node limit on it *)
  let p =
    {
      (lp ~nvars:1 ~objective:[| 1.0 |] ~constraints:[ constr [ (0, 1.0) ] Lp.Ge (-1.5) ]
         ~upper:[| 1.0 |])
      with
      Lp.lower = [| -3.0 |];
    }
  in
  let opts = { (Bnb.default_options Bnb.cplex_like) with Bnb.node_limit = 2_000 } in
  Alcotest.check_raises "binaries only"
    (Invalid_argument "Bnb.solve: integer variables must be binary (lower bound 0)") (fun () ->
      ignore (Bnb.solve p ~integer_vars:[| 0 |] opts))

let test_bnb_time_limit () =
  (* a moderately hard feasibility-tight instance with a microscopic
     budget must stop quickly and say "not proved" *)
  let rng = Rng.create 4 in
  let nvars = 24 in
  let objective = Array.init nvars (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let constraints =
    List.init 16 (fun _ ->
        let coeffs = List.init nvars (fun j -> j, Rng.float rng 2.0 -. 1.0) in
        constr coeffs Lp.Le (Rng.float rng 2.0))
  in
  let p = lp ~nvars ~objective ~constraints ~upper:(Array.make nvars 1.0) in
  let opts = { (Bnb.default_options Bnb.scip_like) with Bnb.time_limit = 0.05 } in
  let outcome, wall = Timer.time (fun () -> Bnb.solve p ~integer_vars:(Array.init nvars Fun.id) opts) in
  Alcotest.(check bool) "respects limit" true (wall < 2.0);
  Alcotest.(check bool) "bound <= objective" true
    (outcome.Bnb.best_bound <= outcome.Bnb.objective +. 1e-9)

let bnb_bound_is_valid =
  qtest ~count:40 "best_bound never exceeds the true optimum" random_binary_milp_gen (fun p ->
      let opts = { (Bnb.default_options Bnb.scip_like) with Bnb.time_limit = 5.0 } in
      let outcome = Bnb.solve p ~integer_vars:(Array.init p.Lp.nvars Fun.id) opts in
      let expected = brute_force_binary p in
      if Float.is_finite expected then outcome.Bnb.best_bound <= expected +. 1e-6 else true)

(* ------------------------------------------- warm-start validation *)

let test_bnb_warm_start_rejected () =
  (* an infeasible warm start must be rejected loudly (health event) and
     must not poison the incumbent; same for a fractional one *)
  let p =
    lp ~nvars:2 ~objective:[| 1.0; 1.0 |]
      ~constraints:[ constr [ (0, 1.0); (1, 1.0) ] Lp.Ge 1.0 ]
      ~upper:[| 1.0; 1.0 |]
  in
  let health = Health.create () in
  let opts =
    { (Bnb.default_options Bnb.cplex_like) with Bnb.warm_start = Some [| 0.0; 0.0 |] }
  in
  let outcome = Bnb.solve ~health p ~integer_vars:[| 0; 1 |] opts in
  Alcotest.(check int) "infeasible warm start recorded" 1
    (Health.count health Health.Warm_start_rejected);
  Test_util.check_close ~msg:"still solves to 1" 1.0 outcome.Bnb.objective;
  Alcotest.(check bool) "still proved" true outcome.Bnb.proved_optimal;
  (* [0.5; 0.7] satisfies the constraints but is fractional on the
     integer variables: rejected for integrality, not feasibility *)
  let health2 = Health.create () in
  let opts2 = { opts with Bnb.warm_start = Some [| 0.5; 0.7 |] } in
  let outcome2 = Bnb.solve ~health:health2 p ~integer_vars:[| 0; 1 |] opts2 in
  Alcotest.(check int) "fractional warm start recorded" 1
    (Health.count health2 Health.Warm_start_rejected);
  Test_util.check_close ~msg:"objective unaffected" 1.0 outcome2.Bnb.objective;
  (* a genuinely feasible integral warm start raises no event *)
  let health3 = Health.create () in
  let opts3 = { opts with Bnb.warm_start = Some [| 1.0; 0.0 |] } in
  ignore (Bnb.solve ~health:health3 p ~integer_vars:[| 0; 1 |] opts3);
  Alcotest.(check int) "valid warm start accepted silently" 0
    (Health.count health3 Health.Warm_start_rejected)

(* ----------------------------------------- frontier bound reporting *)

let test_bnb_dfs_best_bound_finite () =
  (* regression: depth-first search used to report the frontier bound as
     -infinity whenever nodes were still open (the heap minimum is not
     the bound minimum under DFS order); the bound must be finite once
     the root LP has been solved, and still valid *)
  let rng = Rng.create 21 in
  let nvars = 14 in
  let objective = Array.init nvars (fun _ -> Rng.float rng 10.0 -. 5.0) in
  let constraints =
    List.init 10 (fun _ ->
        let coeffs = List.init nvars (fun j -> (j, Rng.float rng 3.0 -. 1.0)) in
        constr coeffs Lp.Le (Rng.float rng 3.0))
  in
  let p = lp ~nvars ~objective ~constraints ~upper:(Array.make nvars 1.0) in
  let opts =
    { (Bnb.default_options Bnb.cbc_like) with Bnb.time_limit = 10.0; node_limit = 5 }
  in
  let outcome = Bnb.solve p ~integer_vars:(Array.init nvars Fun.id) opts in
  Alcotest.(check bool) "bound finite with open nodes" true
    (Float.is_finite outcome.Bnb.best_bound);
  let expected = brute_force_binary p in
  Alcotest.(check bool) "bound valid" true (outcome.Bnb.best_bound <= expected +. 1e-6)

(* --------------------------------------------- parallel determinism *)

let test_bnb_jobs_bit_identical () =
  (* the wave-parallel search promises bit-identical outcomes at any
     pool size: same incumbent, bound, node count and trace costs *)
  let rng = Rng.create 33 in
  let nvars = 16 in
  let objective = Array.init nvars (fun _ -> Rng.float rng 10.0 -. 5.0) in
  let constraints =
    List.init 12 (fun _ ->
        let coeffs = List.init nvars (fun j -> (j, Rng.float rng 3.0 -. 1.0)) in
        constr coeffs Lp.Le (Rng.float rng 3.0))
  in
  let p = lp ~nvars ~objective ~constraints ~upper:(Array.make nvars 1.0) in
  let opts =
    { (Bnb.default_options Bnb.cplex_like) with Bnb.time_limit = 60.0; node_limit = 300 }
  in
  let solve_with jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Bnb.solve ~pool p ~integer_vars:(Array.init nvars Fun.id) opts)
  in
  (* on one domain every counter lands in this scope *)
  let a, resolves, fallbacks =
    Metrics.scoped (fun () ->
        let a = Obs.with_enabled (fun () -> solve_with 1) in
        (a, Metrics.counter_value "lp.resolves", Metrics.counter_value "lp.resolve_fallbacks"))
  in
  Alcotest.(check bool) "nodes re-solved from the root" true (resolves > 0.0);
  Alcotest.(check (float 0.0)) "no re-solve fell back" 0.0 fallbacks;
  let b = solve_with 4 in
  Alcotest.(check bool) "objective identical" true (a.Bnb.objective = b.Bnb.objective);
  Alcotest.(check bool) "bound identical" true (a.Bnb.best_bound = b.Bnb.best_bound);
  Alcotest.(check int) "node count identical" a.Bnb.nodes b.Bnb.nodes;
  Alcotest.(check bool) "incumbent identical" true (a.Bnb.incumbent = b.Bnb.incumbent);
  Alcotest.(check (list (float 0.0))) "trace costs identical"
    (List.map snd a.Bnb.trace) (List.map snd b.Bnb.trace)

(* ---------------------------------------------- relative tolerance *)

let test_bnb_relative_tolerance_scaled () =
  (* the knapsack at 1e10 cost scale: an absolute 1e-9 epsilon is far
     below one ulp there, so acceptance/pruning/proof must all use the
     shared relative tolerance to still close the gap *)
  let scale = 1e10 in
  let p =
    lp ~nvars:3
      ~objective:[| -10.0 *. scale; -13.0 *. scale; -7.0 *. scale |]
      ~constraints:[ constr [ (0, 3.0); (1, 4.0); (2, 2.0) ] Lp.Le 6.0 ]
      ~upper:[| 1.0; 1.0; 1.0 |]
  in
  let outcome =
    Bnb.solve p ~integer_vars:[| 0; 1; 2 |] (Bnb.default_options Bnb.cplex_like)
  in
  Alcotest.(check bool) "optimum at scale" true
    (Float.abs (outcome.Bnb.objective -. (-20.0 *. scale)) <= Bnb.tolerance (20.0 *. scale));
  Alcotest.(check bool) "proved at scale" true outcome.Bnb.proved_optimal

let test_lp_capacity_guard () =
  (* a problem whose dense tableau would exceed the solver's capacity
     must decline quickly instead of allocating gigabytes *)
  let nvars = 6000 in
  let constraints =
    List.init 6000 (fun i -> constr [ (i mod nvars, 1.0) ] Lp.Le 1.0)
  in
  let p = lp ~nvars ~objective:(Array.make nvars 1.0) ~constraints ~upper:(Array.make nvars 1.0) in
  let outcome, wall = Timer.time (fun () -> Lp.solve p) in
  Alcotest.(check bool) "declined" true (outcome = Lp.Timeout);
  Alcotest.(check bool) "fast" true (wall < 1.0)

let test_lp_deadline () =
  let rng = Rng.create 8 in
  let nvars = 60 in
  let constraints =
    List.init 80 (fun _ ->
        constr (List.init nvars (fun j -> j, Rng.float rng 2.0 -. 1.0)) Lp.Le (Rng.float rng 2.0))
  in
  let p =
    lp ~nvars
      ~objective:(Array.init nvars (fun _ -> Rng.float rng 2.0 -. 1.0))
      ~constraints ~upper:(Array.make nvars 1.0)
  in
  (* an already-expired deadline must abort the solve *)
  let d = Timer.deadline_after 1e-9 in
  Unix.sleepf 0.001;
  Alcotest.(check bool) "expired deadline aborts" true (Lp.solve ~deadline:d p = Lp.Timeout)

let () =
  Alcotest.run "milp"
    [
      ( "lp",
        [
          Alcotest.test_case "textbook" `Quick test_lp_textbook;
          Alcotest.test_case "equality and >=" `Quick test_lp_equality_and_ge;
          Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
          Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
          Alcotest.test_case "upper bounds" `Quick test_lp_upper_bounds;
          Alcotest.test_case "negative rhs" `Quick test_lp_negative_rhs;
          Alcotest.test_case "degenerate" `Quick test_lp_degenerate;
          Alcotest.test_case "capacity guard" `Quick test_lp_capacity_guard;
          Alcotest.test_case "deadline" `Quick test_lp_deadline;
          Alcotest.test_case "bound flip" `Quick test_lp_bound_flip;
          Alcotest.test_case "leaving row by steepest edge" `Quick test_lp_steepest_edge;
          Alcotest.test_case "dual-degenerate ties" `Quick test_lp_dual_degenerate;
          Alcotest.test_case "cold start at the favoured bounds" `Quick test_lp_favoured_bounds;
          Alcotest.test_case "fix through lower" `Quick test_lp_fix_through_lower;
          Alcotest.test_case "lower > upper" `Quick test_lp_crossed_bounds;
          lp_optimum_dominates_random_points;
          lp_matches_vertex_oracle;
          Alcotest.test_case "re-solve allocation" `Quick test_lp_resolve_allocation;
          Alcotest.test_case "re-solve after a column left at upper" `Quick
            test_lp_resolve_after_upper;
          lp_resolve_matches_cold;
          Alcotest.test_case "re-solve past its deadline" `Quick test_lp_resolve_past_deadline;
          Alcotest.test_case "re-solve to an infinite bound" `Quick
            test_lp_resolve_infinite_bound;
          Alcotest.test_case "root LPs of the bundled instances" `Slow test_lp_bundled_roots;
        ] );
      ( "bnb",
        [
          Alcotest.test_case "knapsack" `Quick test_bnb_knapsack;
          bnb_matches_brute_force Bnb.cplex_like;
          bnb_matches_brute_force Bnb.scip_like;
          bnb_matches_brute_force Bnb.cbc_like;
          Alcotest.test_case "warm start + trace" `Quick test_bnb_warm_start_trace;
          Alcotest.test_case "warm start rejection" `Quick test_bnb_warm_start_rejected;
          Alcotest.test_case "rejects general integers" `Quick test_bnb_rejects_general_integers;
          Alcotest.test_case "time limit" `Quick test_bnb_time_limit;
          Alcotest.test_case "DFS bound finite" `Quick test_bnb_dfs_best_bound_finite;
          Alcotest.test_case "jobs 1 = jobs 4" `Quick test_bnb_jobs_bit_identical;
          Alcotest.test_case "relative tolerance at 1e10" `Quick
            test_bnb_relative_tolerance_scaled;
          bnb_bound_is_valid;
          Alcotest.test_case "rejects negative lower bounds" `Quick
            test_bnb_rejects_negative_lower;
        ] );
    ]
