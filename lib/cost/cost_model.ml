type kind =
  | Linear
  | Mlp_corrected of Mlp.t
  | Pairwise of { ia : int array; ib : int array; w : float array }

type t = { u : float array; kind : kind }

let linear u = { u = Array.copy u; kind = Linear }

let mlp_corrected ~linear:u mlp =
  if Mlp.input_dim mlp <> Array.length u then
    invalid_arg "Cost_model.mlp_corrected: dimension mismatch";
  { u = Array.copy u; kind = Mlp_corrected mlp }

let pairwise ~linear:u terms =
  let n = Array.length u in
  List.iter
    (fun (i, j, _) ->
      if i < 0 || i >= n || j < 0 || j >= n then
        invalid_arg "Cost_model.pairwise: index out of range")
    terms;
  let arr = Array.of_list terms in
  {
    u = Array.copy u;
    kind =
      Pairwise
        {
          ia = Array.map (fun (i, _, _) -> i) arr;
          ib = Array.map (fun (_, j, _) -> j) arr;
          w = Array.map (fun (_, _, w) -> w) arr;
        };
  }

let fusion_of_egraph rng ?pairs ?(discount = 0.4) g =
  let n = Egraph.num_nodes g in
  let pairs = match pairs with Some p -> p | None -> max 1 (n / 4) in
  (* candidate fusions: (parent e-node, member of one of its child
     e-classes) with both costs positive *)
  let candidates = Vec.create () in
  for i = 0 to n - 1 do
    Array.iter
      (fun c ->
        Array.iter
          (fun j ->
            if g.Egraph.costs.(i) > 0.0 && g.Egraph.costs.(j) > 0.0 then
              Vec.push candidates (i, j))
          g.Egraph.class_nodes.(c))
      g.Egraph.children.(i)
  done;
  let all = Vec.to_array candidates in
  let terms =
    if Array.length all = 0 then []
    else begin
      Rng.shuffle rng all;
      List.init
        (min pairs (Array.length all))
        (fun k ->
          let i, j = all.(k) in
          (i, j, -.discount *. Float.min g.Egraph.costs.(i) g.Egraph.costs.(j)))
    end
  in
  pairwise ~linear:g.Egraph.costs terms

let of_egraph g = linear g.Egraph.costs

let name m =
  match m.kind with
  | Linear -> "linear"
  | Mlp_corrected _ -> "linear+mlp"
  | Pairwise _ -> "linear+pairwise"
let is_linear m = m.kind = Linear
let dim m = Array.length m.u

let relaxed m tape p =
  Ad.with_context "cost_model.relaxed" @@ fun () ->
  let base = Ad.dot_const p m.u in
  match m.kind with
  | Linear -> base
  | Mlp_corrected mlp -> Ad.add base (Mlp.forward tape mlp p)
  | Pairwise { ia; ib; w } ->
      if Array.length w = 0 then base
      else begin
        let pa = Ad.gather p ia and pb = Ad.gather p ib in
        Ad.add base (Ad.dot_const (Ad.mul pa pb) w)
      end

let dense m x =
  if Array.length x <> Array.length m.u then invalid_arg "Cost_model.dense: dimension mismatch";
  (* unselected nodes contribute nothing, even under a non-finite
     coefficient — 0 * nan would otherwise poison every solution's cost
     instead of only the solutions that actually select the bad node *)
  let lin = ref 0.0 in
  Array.iteri (fun i u -> if x.(i) <> 0.0 then lin := !lin +. (u *. x.(i))) m.u;
  match m.kind with
  | Linear -> !lin
  | Mlp_corrected mlp -> !lin +. Mlp.predict mlp x
  | Pairwise { ia; ib; w } ->
      let quad = ref 0.0 in
      Array.iteri
        (fun k wk ->
          let xa = x.(ia.(k)) and xb = x.(ib.(k)) in
          if xa <> 0.0 && xb <> 0.0 then quad := !quad +. (wk *. xa *. xb))
        w;
      !lin +. !quad

let dense_solution m g s =
  if not (Egraph.Solution.is_valid g s) then infinity
  else dense m (Egraph.Solution.to_dense g s)
