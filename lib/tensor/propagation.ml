type rule = Independent | Correlated | Hybrid

type schedule = {
  rule : rule;
  root : int;
  nodes : Segments.t;
  parent_node : int array;
  parents : Segments.t;
  node_class : int array;
  order : int array;
  comp_start : int array;
  comp_of : int array;
  cyclic : bool array;
  rounds : int array;
  q_at : int array;
  q_len : int;
  max_parents : int;
  any_cyclic : bool;
}

let make ~rule ~root ~nodes ~parent_node ~parents ~components ~local_rounds =
  let m = Segments.count nodes in
  let fail fmt = Printf.ksprintf invalid_arg ("Propagation.make: " ^^ fmt) in
  if Segments.count parents <> m then
    fail "%d parent segments for %d classes" (Segments.count parents) m;
  if parents.Segments.width <> Array.length parent_node then
    fail "parent segments cover %d edges, %d given" parents.Segments.width
      (Array.length parent_node);
  if root < 0 || root >= m then fail "root %d outside %d classes" root m;
  let width = nodes.Segments.width in
  let node_class = Array.make width 0 in
  for c = 0 to m - 1 do
    let st = nodes.Segments.starts.(c) in
    for n = st to st + nodes.Segments.lens.(c) - 1 do
      node_class.(n) <- c
    done
  done;
  Array.iter
    (fun k -> if k < 0 || k >= width then fail "parent node %d outside %d" k width)
    parent_node;
  let ncomp = Array.length components in
  let comp_of = Array.make m (-1) in
  Array.iteri
    (fun k comp ->
      Array.iter
        (fun c ->
          if c < 0 || c >= m || comp_of.(c) <> -1 then fail "class %d misplaced" c;
          comp_of.(c) <- k)
        comp)
    components;
  Array.iteri (fun c k -> if k < 0 then fail "class %d in no component" c) comp_of;
  (* parents come first: every parent edge stays in its component or
     reaches back to an earlier one; an edge inside marks it cyclic *)
  let cyclic = Array.make ncomp false in
  let max_parents = ref 0 in
  for c = 0 to m - 1 do
    let st = parents.Segments.starts.(c) and len = parents.Segments.lens.(c) in
    if len > !max_parents then max_parents := len;
    for e = st to st + len - 1 do
      let d = node_class.(parent_node.(e)) in
      if comp_of.(d) > comp_of.(c) then
        fail "class %d precedes its parent class %d" c d
      else if comp_of.(d) = comp_of.(c) then cyclic.(comp_of.(c)) <- true
    done
  done;
  let rounds =
    Array.mapi
      (fun k comp -> if cyclic.(k) then Stdlib.max 1 (local_rounds (Array.length comp)) else 1)
      components
  in
  let order = Array.concat (Array.to_list components) in
  let comp_start = Array.make (ncomp + 1) 0 in
  let q_at = Array.make m 0 in
  let q_len = ref 0 in
  for k = 0 to ncomp - 1 do
    let size = Array.length components.(k) in
    comp_start.(k + 1) <- comp_start.(k) + size;
    Array.iteri (fun i c -> q_at.(c) <- !q_len + i) components.(k);
    q_len := !q_len + (rounds.(k) * size)
  done;
  {
    rule;
    root;
    nodes;
    parent_node;
    parents;
    node_class;
    order;
    comp_start;
    comp_of;
    cyclic;
    rounds;
    q_at;
    q_len = !q_len;
    max_parents = !max_parents;
    any_cyclic = Array.exists Fun.id cyclic;
  }

let width s = s.nodes.Segments.width

type state = { q : float array; arg : int array }
type scratch = { adj : float array; alt : float array; ys : float array; others : float array }

let state s ~batch =
  {
    q = Array.make (batch * s.q_len) 0.0;
    arg = (if s.rule = Independent then [||] else Array.make (batch * s.q_len) (-1));
  }

let scratch s ~batch =
  let w = width s and mp = s.max_parents in
  {
    adj = Array.make (batch * w) 0.0;
    alt = (if s.any_cyclic then Array.make (batch * w) 0.0 else [||]);
    ys = Array.make (batch * mp) 0.0;
    others = Array.make (batch * mp) 0.0;
  }

(* Kernel launch counter, one bump per call like the Segments kernels *)
let count_op label =
  if !Obs.on then begin
    Metrics.incr "tensor.segment_ops";
    Metrics.incr label
  end

(* One read of an input element: direct on the Vectorized backend,
   through [Tensor.Backend.scalar_read] on the Scalar one. Inlined, so
   the Vectorized path boxes nothing; both paths then run the same
   arithmetic in the same order and give identical bits. *)
let[@inline] rd scalar a i = if scalar then Tensor.Backend.scalar_read a i else Array.unsafe_get a i

(* ---- Forward ---------------------------------------------------------- *)

(* q of class [c] from its parents' current p (the row at [base] of
   [p]), stored at [q.(qi)] with the argmax edge at [arg.(qi)]:
   ind = 1 + (-Π (1 + (-x))) multiplied in edge order, cor = the first
   maximum in edge order (0 and -1 without parents), hybrid
   0.5 (ind + cor), the root pinned at 1. Computing 1 - x as 1 + (-x)
   flips a NaN's sign; the order fixes the rounding, so an acyclic
   class gets the bits an exact topological evaluation gets. *)
let class_q s ~scalar ~p ~base ~q ~arg ~qi c =
  if c = s.root then begin
    q.(qi) <- 1.0;
    if s.rule <> Independent then arg.(qi) <- -1
  end
  else begin
    let pn = s.parent_node in
    let st = s.parents.Segments.starts.(c) and len = s.parents.Segments.lens.(c) in
    let ind =
      if s.rule = Correlated then 0.0
      else begin
        let prod = ref 1.0 in
        for e = st to st + len - 1 do
          prod := !prod *. (1.0 +. -.rd scalar p (base + Array.unsafe_get pn e))
        done;
        1.0 +. -. !prod
      end
    in
    let cor =
      if s.rule = Independent then 0.0
      else if len = 0 then begin
        arg.(qi) <- -1;
        0.0
      end
      else begin
        let best = ref (rd scalar p (base + pn.(st))) and besti = ref st in
        for e = st + 1 to st + len - 1 do
          let v = rd scalar p (base + Array.unsafe_get pn e) in
          if v > !best then begin
            best := v;
            besti := e
          end
        done;
        arg.(qi) <- !besti;
        !best
      end
    in
    q.(qi) <-
      (match s.rule with Independent -> ind | Correlated -> cor | Hybrid -> 0.5 *. (ind +. cor))
  end

(* p_n = cp_n q_c for the nodes of class [c] *)
let class_p s ~scalar ~cp ~p ~base ~q ~qi c =
  let qc = rd scalar q qi in
  let st = s.nodes.Segments.starts.(c) in
  for n = base + st to base + st + s.nodes.Segments.lens.(c) - 1 do
    p.(n) <- rd scalar cp n *. qc
  done

let forward_row s ~scalar ~cp ~p st b =
  let base = b * width s and qbase = b * s.q_len in
  let q = st.q and arg = st.arg in
  for k = 0 to Array.length s.rounds - 1 do
    let lo = s.comp_start.(k) and hi = s.comp_start.(k + 1) in
    let size = hi - lo in
    if s.cyclic.(k) then
      (* round 0 of a cyclic component: q = 0, the root at 1 *)
      for i = lo to hi - 1 do
        let c = s.order.(i) in
        let q0 = if c = s.root then 1.0 else 0.0 in
        let nst = s.nodes.Segments.starts.(c) in
        for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
          p.(n) <- rd scalar cp n *. q0
        done
      done;
    (* Jacobi inside the component: every q of a round reads the p of
       the round before, then every p moves *)
    for r = 0 to s.rounds.(k) - 1 do
      for i = lo to hi - 1 do
        let c = s.order.(i) in
        class_q s ~scalar ~p ~base ~q ~arg ~qi:(qbase + s.q_at.(c) + (r * size)) c
      done;
      for i = lo to hi - 1 do
        let c = s.order.(i) in
        class_p s ~scalar ~cp ~p ~base ~q ~qi:(qbase + s.q_at.(c) + (r * size)) c
      done
    done
  done

let check_shape name s (t : Tensor.t) ~batch =
  if t.Tensor.batch <> batch || t.Tensor.width <> width s then
    invalid_arg
      (Printf.sprintf "Propagation.%s: tensor (%d,%d), expected (%d,%d)" name t.Tensor.batch
         t.Tensor.width batch (width s))

let check_state name s st ~batch =
  if Array.length st.q <> batch * s.q_len then
    invalid_arg (Printf.sprintf "Propagation.%s: state sized for another batch" name)

(* [row scalar b] for every row: chunked at fixed boundaries on the
   Vectorized backend, one row after another on the Scalar one *)
let each_row s batch row =
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      let w = Stdlib.max 1 (width s) in
      Parallel.chunks ~grain:(Stdlib.max 1 (Parallel.default_grain / w)) ~cost:w batch
        (fun lo hi ->
          for b = lo to hi - 1 do
            row false b
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to batch - 1 do
        row true b
      done

let forward s st ~out cp =
  let batch = cp.Tensor.batch in
  check_shape "forward" s cp ~batch;
  check_shape "forward" s out ~batch;
  check_state "forward" s st ~batch;
  count_op "tensor.segment_ops.propagate";
  let cpd = Tensor.unsafe_data cp and p = Tensor.unsafe_data out in
  each_row s batch (fun scalar b -> forward_row s ~scalar ~cp:cpd ~p st b)

(* ---- Backward --------------------------------------------------------- *)

(* Reverse of class [c]'s update in local round [r] of component [k].
   [cur] holds the adjoints of the p this round wrote; they reach cp
   through p_n = cp_n q_c, and q_c's adjoint reaches the parents' p:
   into [nxt] for a parent inside the component (the p of round r - 1),
   into [adj] for one outside (its final p). *)
let class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur ~nxt ~b ~k ~r c =
  let base = b * width s and qbase = b * s.q_len in
  let size = s.comp_start.(k + 1) - s.comp_start.(k) in
  let qi = qbase + s.q_at.(c) + (r * size) in
  let qc = rd scalar st.q qi in
  let gq = ref 0.0 in
  let nst = s.nodes.Segments.starts.(c) in
  for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
    let a = cur.(n) in
    into.(n) <- rd scalar into n +. (a *. qc);
    gq := !gq +. (a *. rd scalar cp n)
  done;
  (* the pinned root passes nothing to its parents *)
  if c <> s.root then begin
    let pn = s.parent_node and adj = sc.adj in
    let pst = s.parents.Segments.starts.(c) and plen = s.parents.Segments.lens.(c) in
    let obase = b * s.max_parents in
    let gi = match s.rule with Independent -> !gq | Correlated -> 0.0 | Hybrid -> 0.5 *. !gq in
    let gc = match s.rule with Independent -> 0.0 | Correlated -> !gq | Hybrid -> 0.5 *. !gq in
    if s.rule <> Correlated then begin
      (* y_e = 1 + (-x_e) at the parents' values this round read; then
         the product of the others by prefix and suffix, no division *)
      let ys = sc.ys and others = sc.others in
      for e = pst to pst + plen - 1 do
        let kk = pn.(e) in
        let d = s.node_class.(kk) in
        let x =
          if s.comp_of.(d) <> k then rd scalar p (base + kk)
          else if r = 0 then rd scalar cp (base + kk) *. if d = s.root then 1.0 else 0.0
          else rd scalar cp (base + kk) *. rd scalar st.q (qbase + s.q_at.(d) + ((r - 1) * size))
        in
        ys.(obase + e - pst) <- 1.0 +. -.x
      done;
      let acc = ref 1.0 in
      for j = obase to obase + plen - 1 do
        others.(j) <- !acc;
        acc := !acc *. ys.(j)
      done;
      let acc = ref 1.0 in
      for e = pst + plen - 1 downto pst do
        let j = obase + e - pst in
        let kk = pn.(e) in
        let t = if s.comp_of.(s.node_class.(kk)) = k then nxt else adj in
        t.(base + kk) <- t.(base + kk) +. (gi *. (others.(j) *. !acc));
        acc := !acc *. ys.(j)
      done
    end;
    if s.rule <> Independent then begin
      let e = st.arg.(qi) in
      if e >= 0 then begin
        let kk = pn.(e) in
        let t = if s.comp_of.(s.node_class.(kk)) = k then nxt else adj in
        t.(base + kk) <- t.(base + kk) +. gc
      end
    end
  end

let backward_row s ~scalar ~cp ~p ~g ~into st sc b =
  let w = width s in
  let base = b * w in
  let adj = sc.adj in
  for n = base to base + w - 1 do
    adj.(n) <- rd scalar g n
  done;
  for k = Array.length s.rounds - 1 downto 0 do
    let lo = s.comp_start.(k) and hi = s.comp_start.(k + 1) in
    if not s.cyclic.(k) then
      class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur:adj ~nxt:adj ~b ~k ~r:0 s.order.(lo)
    else begin
      (* the final p's adjoints sit in [adj]; each round's pass leaves
         the previous round's in the other buffer *)
      let cur = ref adj and nxt = ref sc.alt in
      for r = s.rounds.(k) - 1 downto 0 do
        for i = lo to hi - 1 do
          let nst = base + s.nodes.Segments.starts.(s.order.(i)) in
          Array.fill !nxt nst s.nodes.Segments.lens.(s.order.(i)) 0.0
        done;
        for i = lo to hi - 1 do
          class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur:!cur ~nxt:!nxt ~b ~k ~r s.order.(i)
        done;
        let t = !cur in
        cur := !nxt;
        nxt := t
      done;
      (* round 0's p = cp q⁰ *)
      for i = lo to hi - 1 do
        let c = s.order.(i) in
        let q0 = if c = s.root then 1.0 else 0.0 in
        let nst = s.nodes.Segments.starts.(c) in
        for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
          into.(n) <- rd scalar into n +. (!cur.(n) *. q0)
        done
      done
    end
  done

let backward s st sc ~cp ~p ~g ~into =
  let batch = cp.Tensor.batch in
  check_shape "backward" s cp ~batch;
  check_shape "backward" s p ~batch;
  check_shape "backward" s g ~batch;
  check_shape "backward" s into ~batch;
  check_state "backward" s st ~batch;
  if Array.length sc.adj <> batch * width s then
    invalid_arg "Propagation.backward: scratch sized for another batch";
  count_op "tensor.segment_ops.propagate_grad";
  let cp = Tensor.unsafe_data cp and p = Tensor.unsafe_data p in
  let g = Tensor.unsafe_data g and into = Tensor.unsafe_data into in
  each_row s batch (fun scalar b -> backward_row s ~scalar ~cp ~p ~g ~into st sc b)
