(* An extraction checker written independently of the extractors' own
   validator: it walks the selection from the root, so it sees exactly
   the classes a consumer of the solution would read. A selection is
   accepted when the root class is selected, every class reachable
   through selected nodes has exactly one selected node that belongs to
   it, and the reachable selection has no cycle. Its cost is recomputed
   from the node costs, counting each reachable node once (DAG cost). *)

let check (g : Egraph.t) (choices : (int * int) list) : (float, string) result =
  let classes = Egraph.num_classes g and nodes = Egraph.num_nodes g in
  let pick = Array.make classes (-1) in
  let bad = ref None in
  let fail msg = if !bad = None then bad := Some msg in
  List.iter
    (fun (c, n) ->
      if c < 0 || c >= classes then fail (Printf.sprintf "class %d out of range" c)
      else if n < 0 || n >= nodes then fail (Printf.sprintf "node %d out of range" n)
      else if g.Egraph.node_class.(n) <> c then
        fail (Printf.sprintf "node %d does not belong to class %d" n c)
      else if pick.(c) >= 0 && pick.(c) <> n then
        fail (Printf.sprintf "class %d has two selected nodes" c)
      else pick.(c) <- n)
    choices;
  match !bad with
  | Some msg -> Error msg
  | None ->
      (* colour: 0 unvisited, 1 on the DFS stack, 2 finished *)
      let colour = Array.make classes 0 in
      let cost = ref 0.0 in
      let rec visit c =
        if !bad = None then
          match colour.(c) with
          | 1 -> fail (Printf.sprintf "cycle through class %d" c)
          | 2 -> ()
          | _ ->
              if pick.(c) < 0 then fail (Printf.sprintf "reachable class %d has no node" c)
              else begin
                colour.(c) <- 1;
                let n = pick.(c) in
                cost := !cost +. g.Egraph.costs.(n);
                Array.iter visit g.Egraph.children.(n);
                colour.(c) <- 2
              end
      in
      if pick.(g.Egraph.root) < 0 then Error "root class not selected"
      else begin
        visit g.Egraph.root;
        match !bad with Some msg -> Error msg | None -> Ok !cost
      end

let choices_of_solution (s : Egraph.Solution.s) =
  let acc = ref [] in
  Array.iteri
    (fun c n -> match n with Some n -> acc := (c, n) :: !acc | None -> ())
    s.Egraph.Solution.choice;
  List.rev !acc

(* Recomputed cost of a reported solution, also checking the reported
   cost against it. *)
let check_reported g choices ~reported =
  match check g choices with
  | Error _ as e -> e
  | Ok cost ->
      let tol = 1e-9 *. Float.max 1.0 (Float.abs cost) in
      if Float.abs (cost -. reported) > tol then
        Error (Printf.sprintf "reported cost %.17g but the selection costs %.17g" reported cost)
      else Ok cost
