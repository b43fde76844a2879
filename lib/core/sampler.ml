(* One iterative depth-first walk per seed over its cp row in place. A
   grey (on-stack) child is a back edge: the seed is cyclic. A black
   child is skipped, so repeated operand classes need no dedup, and the
   black classes are the selection [Egraph.Solution.of_node_choice]
   builds from the same picks. *)

let white = 0
let grey = 1
let black = 2

let best_of_batch ?(repair = false) g ~model ~cp =
  let m = Egraph.num_classes g and n = Egraph.num_nodes g in
  if cp.Tensor.width <> n then invalid_arg "Sampler.best_of_batch: cp width is not the node count";
  let data = Tensor.unsafe_data cp in
  (* per-call scratch; [ranks] (repair's demotions) is all 0 between
     seeds; [stack_edge] is the next child index at each depth *)
  let pick = Array.make m 0 and colour = Array.make m white and ranks = Array.make m 0 in
  let stack_class = Array.make m 0 and stack_edge = Array.make m 0 in
  (* class [c]'s member at its rank: rank 0 is the first-listed argmax
     (a later member must be strictly greater to win), rank r the
     (r+1)-th best cp *)
  let choose off c =
    let members = g.Egraph.class_nodes.(c) in
    if ranks.(c) = 0 then begin
      let best = ref members.(0) in
      for k = 1 to Array.length members - 1 do
        if data.(off + members.(k)) > data.(off + !best) then best := members.(k)
      done;
      !best
    end
    else begin
      let pairs = Array.map (fun k -> k, data.(off + k)) members in
      Array.sort (fun (_, a) (_, b) -> compare b a) pairs;
      fst pairs.(ranks.(c))
    end
  in
  let enter off depth c =
    colour.(c) <- grey;
    pick.(c) <- choose off c;
    stack_class.(depth) <- c;
    stack_edge.(depth) <- 0
  in
  (* -1 when the row's selection is acyclic, otherwise the class on top
     of the stack when the first back edge is found *)
  let walk off =
    Array.fill colour 0 m white;
    enter off 0 g.Egraph.root;
    let depth = ref 1 and closing = ref (-1) in
    while !depth > 0 && !closing < 0 do
      let top = !depth - 1 in
      let c = stack_class.(top) and e = stack_edge.(top) in
      let kids = g.Egraph.children.(pick.(c)) in
      if e = Array.length kids then begin
        colour.(c) <- black;
        decr depth
      end
      else begin
        stack_edge.(top) <- e + 1;
        if colour.(kids.(e)) = grey then closing := c
        else if colour.(kids.(e)) = white then begin
          enter off !depth kids.(e);
          incr depth
        end
      end
    done;
    !closing
  in
  (* a linear model sums u over the black classes' picks in class order,
     which is node order (class-major numbering): [Cost_model.dense]'s
     terms in its order. Other models score a reused 0/1 vector. *)
  let linear = Cost_model.is_linear model in
  let picked = Array.make (if linear then m else 0) 0 in
  let x = Array.make (if linear then 0 else n) 0.0 in
  let mark v =
    for c = 0 to m - 1 do
      if colour.(c) = black then x.(pick.(c)) <- v
    done
  in
  (* the batch best's pick in each selected class, -1 elsewhere *)
  let best = Array.make m (-1) in
  let best_seed = ref (-1) and best_cost = ref infinity and accepted = ref 0 in
  for seed = 0 to cp.Tensor.batch - 1 do
    let off = seed * n in
    let closing = ref (walk off) and tries = ref 16 in
    (* repair: demote the class that closes the cycle and walk again *)
    while
      repair && !closing >= 0 && !tries > 0
      && ranks.(!closing) + 1 < Array.length g.Egraph.class_nodes.(!closing)
    do
      ranks.(!closing) <- ranks.(!closing) + 1;
      if !Obs.on then Metrics.incr "sampler.repairs";
      decr tries;
      closing := walk off
    done;
    if !tries < 16 then Array.fill ranks 0 m 0;
    if !closing < 0 then begin
      let cost =
        if linear then begin
          let k = ref 0 in
          for c = 0 to m - 1 do
            picked.(!k) <- pick.(c);
            k := !k + Bool.to_int (colour.(c) = black)
          done;
          Cost_model.selected model picked !k
        end
        else begin
          mark 1.0;
          let cost = Cost_model.dense model x in
          mark 0.0;
          cost
        end
      in
      if Float.is_finite cost then begin
        incr accepted;
        (* strict: the earlier seed keeps a tie *)
        if cost < !best_cost then begin
          best_seed := seed;
          best_cost := cost;
          for c = 0 to m - 1 do
            best.(c) <- (if colour.(c) = black then pick.(c) else -1)
          done
        end
      end
    end
  done;
  if !Obs.on then begin
    Metrics.incr ~by:(float_of_int cp.Tensor.batch) "sampler.samples";
    Metrics.incr ~by:(float_of_int !accepted) "sampler.accepted"
  end;
  if !best_seed < 0 then None
  else
    let choice = Array.map (fun k -> if k < 0 then None else Some k) best in
    Some (!best_seed, { Egraph.Solution.choice }, !best_cost)
