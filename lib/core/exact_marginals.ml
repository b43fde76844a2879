let space_limit = 1 lsl 22

let node_marginals g ~cp =
  let n = Egraph.num_nodes g and m = Egraph.num_classes g in
  if Array.length cp <> n then invalid_arg "Exact_marginals: cp length mismatch";
  let space =
    Array.fold_left
      (fun acc members -> acc * max 1 (Array.length members))
      1 g.Egraph.class_nodes
  in
  if space > space_limit || space <= 0 then
    invalid_arg
      (Printf.sprintf "Exact_marginals: choice space %d exceeds the limit %d" space space_limit);
  let marginals = Array.make n 0.0 in
  let pick = Array.map (fun members -> members.(0)) g.Egraph.class_nodes in
  (* enumerate class assignments depth-first, carrying the product of
     conditional probabilities; zero-probability branches prune *)
  let rec enumerate c weight =
    if weight = 0.0 then ()
    else if c = m then begin
      (* decode: classes reachable from the root through the picks *)
      let stack = Vec.create () in
      let seen = Array.make m false in
      seen.(g.Egraph.root) <- true;
      Vec.push stack g.Egraph.root;
      while not (Vec.is_empty stack) do
        let cls = Vec.pop stack in
        let node = pick.(cls) in
        marginals.(node) <- marginals.(node) +. weight;
        Array.iter
          (fun child ->
            if not seen.(child) then begin
              seen.(child) <- true;
              Vec.push stack child
            end)
          g.Egraph.children.(node)
      done
    end
    else begin
      let members = g.Egraph.class_nodes.(c) in
      Array.iter
        (fun node ->
          pick.(c) <- node;
          enumerate (c + 1) (weight *. cp.(node)))
        members
    end
  in
  enumerate 0 1.0;
  marginals

let assumption_error g ~cp assumption =
  let n = Egraph.num_nodes g in
  let exact = node_marginals g ~cp in
  (* logits whose per-class softmax reproduces cp *)
  let theta =
    Tensor.of_array ~batch:1 ~width:n (Array.map (fun p -> log (Float.max p 1e-12)) cp)
  in
  let config = { Smoothe_config.default with Smoothe_config.assumption } in
  let compiled = Relaxation.compile config g in
  let fwd =
    Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta
  in
  let approx = Tensor.row (Ad.value fwd.Relaxation.p) 0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (exact.(i) -. approx.(i))
  done;
  !acc /. float_of_int n
