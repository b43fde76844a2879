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

(* Per-row values live in row-indexed arrays: a (round, class) slot's
   q and argmax edge at [slot * batch + b], a class's running product
   and adjoint sums at [b], edge [j]'s factor and prefix product at
   [j * batch + b]. A chunk of rows [lo, hi) touches only its own
   slots, so chunks on different domains never share a location. *)
type state = { q : float array; arg : int array; prod : float array }

type scratch = {
  adj : float array;
  alt : float array;
  gq : float array;
  acc : float array;
  ys : float array;
  others : float array;
}

let state s ~batch =
  {
    q = Array.make (batch * s.q_len) 0.0;
    arg = (if s.rule = Independent then [||] else Array.make (batch * s.q_len) (-1));
    prod = (if s.rule = Correlated then [||] else Array.make batch 0.0);
  }

let scratch s ~batch =
  let w = width s and products = s.rule <> Correlated in
  let per_edge = if products then batch * s.max_parents else 0 in
  {
    adj = Array.make (batch * w) 0.0;
    alt = (if s.any_cyclic then Array.make (batch * w) 0.0 else [||]);
    gq = Array.make batch 0.0;
    acc = Array.make (if products then batch else 0) 0.0;
    ys = Array.make per_edge 0.0;
    others = Array.make per_edge 0.0;
  }

(* Kernel launch counter, one bump per call like the Segments kernels *)
let count_op label =
  if !Obs.on then begin
    Metrics.incr "tensor.segment_ops";
    Metrics.incr label
  end

(* Unchecked access for the kernels' inner loops. Every index there is
   a row's slot of an array [state], [scratch] or the shape checks
   sized, at a position [make] checked against the segmentations. A
   bare [get] as the left operand of [+.] or [*.] would let the
   compiler swap the operands, and with two NaN operands the hardware
   returns the left one, sign included; so such a load is let-bound
   first, which keeps the operand order, and every NaN's sign, of the
   expression as written. *)
external get : float array -> int -> float = "%array_unsafe_get"
external set : float array -> int -> float -> unit = "%array_unsafe_set"

(* One read of an input element: direct on the Vectorized backend,
   through [Tensor.Backend.scalar_read] on the Scalar one. Inlined, so
   the Vectorized path boxes nothing; both paths then run the same
   arithmetic in the same order and give identical bits. *)
let[@inline] rd scalar a i = if scalar then Tensor.Backend.scalar_read a i else Array.unsafe_get a i

(* ---- Forward ---------------------------------------------------------- *)

(* q of class [c] in rows [lo, hi) from its parents' current p, into
   [q.(o + b)] with the argmax edge at [arg.(o + b)]: ind = 1 + (-Π (1
   + (-x))) multiplied in edge order, cor = the first maximum in edge
   order (0 and -1 without parents), hybrid 0.5 (ind + cor), the root
   pinned at 1. Each edge is one pass over the rows, so every row
   multiplies and compares in edge order. Computing 1 - x as 1 + (-x)
   flips a NaN's sign; the order fixes the rounding, so an acyclic
   class gets the bits an exact topological evaluation gets. *)
let class_q s st ~scalar ~p ~o lo hi c =
  let q = st.q and arg = st.arg and prod = st.prod and w = width s and pn = s.parent_node in
  let e0 = s.parents.Segments.starts.(c) and len = s.parents.Segments.lens.(c) in
  match s.rule with
  | _ when c = s.root ->
      for b = lo to hi - 1 do
        set q (o + b) 1.0
      done;
      if s.rule <> Independent then
        for b = lo to hi - 1 do
          Array.unsafe_set arg (o + b) (-1)
        done
  | Independent ->
      for b = lo to hi - 1 do
        set prod b 1.0
      done;
      for e = e0 to e0 + len - 1 do
        let kk = pn.(e) in
        for b = lo to hi - 1 do
          let x = get prod b in
          set prod b (x *. (1.0 +. -.rd scalar p ((b * w) + kk)))
        done
      done;
      for b = lo to hi - 1 do
        set q (o + b) (1.0 +. -.get prod b)
      done
  | Correlated | Hybrid when len = 0 ->
      (* hybrid: 0.5 ((1 + (-1)) + 0) = 0 *)
      for b = lo to hi - 1 do
        set q (o + b) 0.0;
        Array.unsafe_set arg (o + b) (-1)
      done
  | Correlated ->
      (* the first edge seeds the maximum; a later one wins only if
         strictly greater *)
      let kk = pn.(e0) in
      for b = lo to hi - 1 do
        set q (o + b) (rd scalar p ((b * w) + kk));
        Array.unsafe_set arg (o + b) e0
      done;
      for e = e0 + 1 to e0 + len - 1 do
        let kk = pn.(e) in
        for b = lo to hi - 1 do
          let v = rd scalar p ((b * w) + kk) in
          if v > get q (o + b) then begin
            set q (o + b) v;
            Array.unsafe_set arg (o + b) e
          end
        done
      done
  | Hybrid ->
      (* the product and the maximum in one pass over the edges *)
      let kk = pn.(e0) in
      for b = lo to hi - 1 do
        let v = rd scalar p ((b * w) + kk) in
        set prod b (1.0 *. (1.0 +. -.v));
        set q (o + b) v;
        Array.unsafe_set arg (o + b) e0
      done;
      for e = e0 + 1 to e0 + len - 1 do
        let kk = pn.(e) in
        for b = lo to hi - 1 do
          let v = rd scalar p ((b * w) + kk) in
          let x = get prod b in
          set prod b (x *. (1.0 +. -.v));
          if v > get q (o + b) then begin
            set q (o + b) v;
            Array.unsafe_set arg (o + b) e
          end
        done
      done;
      for b = lo to hi - 1 do
        set q (o + b) (0.5 *. (1.0 +. -.get prod b +. get q (o + b)))
      done

(* p_n = cp_n q_c for the nodes of class [c] in rows [lo, hi), q_c read
   from [q.(o + b)] *)
let class_p s ~scalar ~cp ~p ~q ~o lo hi c =
  let w = width s and st = s.nodes.Segments.starts.(c) and len = s.nodes.Segments.lens.(c) in
  for b = lo to hi - 1 do
    let qc = rd scalar q (o + b) and base = (b * w) + st in
    for n = base to base + len - 1 do
      set p n (rd scalar cp n *. qc)
    done
  done

(* The sweep over rows [lo, hi) of a (batch, width) cp *)
let forward_rows s st ~scalar ~cp ~p ~batch lo hi =
  let w = width s in
  for k = 0 to Array.length s.rounds - 1 do
    let first = s.comp_start.(k) and last = s.comp_start.(k + 1) - 1 in
    let size = last - first + 1 in
    if s.cyclic.(k) then
      (* round 0 of a cyclic component: q = 0, the root at 1 *)
      for i = first to last do
        let c = s.order.(i) in
        let q0 = if c = s.root then 1.0 else 0.0 in
        let nst = s.nodes.Segments.starts.(c) and len = s.nodes.Segments.lens.(c) in
        for b = lo to hi - 1 do
          for n = (b * w) + nst to (b * w) + nst + len - 1 do
            set p n (rd scalar cp n *. q0)
          done
        done
      done;
    (* Jacobi inside the component: every q of a round reads the p of
       the round before, then every p moves *)
    for r = 0 to s.rounds.(k) - 1 do
      for i = first to last do
        let c = s.order.(i) in
        class_q s st ~scalar ~p ~o:((s.q_at.(c) + (r * size)) * batch) lo hi c
      done;
      for i = first to last do
        let c = s.order.(i) in
        class_p s ~scalar ~cp ~p ~q:st.q ~o:((s.q_at.(c) + (r * size)) * batch) lo hi c
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

(* [body lo hi] for every chunk of rows, at fixed boundaries: the
   Vectorized backend's schedule (the Scalar one runs all rows as one
   chunk) *)
let chunks s batch body =
  let w = Stdlib.max 1 (width s) in
  Parallel.chunks ~grain:(Stdlib.max 1 (Parallel.default_grain / w)) ~cost:w batch body

let scalar () = Tensor.Backend.current () = Tensor.Backend.Scalar

let forward s st ~out cp =
  let batch = cp.Tensor.batch in
  check_shape "forward" s cp ~batch;
  check_shape "forward" s out ~batch;
  check_state "forward" s st ~batch;
  count_op "tensor.segment_ops.propagate";
  let cpd = Tensor.unsafe_data cp and p = Tensor.unsafe_data out in
  if scalar () then forward_rows s st ~scalar:true ~cp:cpd ~p ~batch 0 batch
  else chunks s batch (fun lo hi -> forward_rows s st ~scalar:false ~cp:cpd ~p ~batch lo hi)

(* ---- Backward --------------------------------------------------------- *)

(* edge slot [yo]'s factor [y] in row [b], after the product of the
   factors before it *)
let[@inline] factor ~ys ~others ~acc ~yo b y =
  let a = get acc b in
  set ys (yo + b) y;
  set others (yo + b) a;
  set acc b (a *. y)

(* Reverse of class [c]'s update in local round [r] of component [k],
   for rows [lo, hi). [cur] holds the adjoints of the p this round
   wrote; they reach cp through p_n = cp_n q_c, and q_c's adjoint
   reaches the parents' p: into [nxt] for a parent inside the component
   (the p of round r - 1), into [adj] for one outside (its final p).
   Per row, the node pass, the factors with their prefix products, the
   suffix pass and the argmax edge run in that order, as a
   row-at-a-time loop runs them. *)
let class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur ~nxt ~batch ~k ~r lo hi c =
  let w = width s in
  let size = s.comp_start.(k + 1) - s.comp_start.(k) in
  let o = (s.q_at.(c) + (r * size)) * batch in
  let q = st.q and gq = sc.gq and half = s.rule = Hybrid in
  let nst = s.nodes.Segments.starts.(c) and nlen = s.nodes.Segments.lens.(c) in
  (* gq holds q_c's adjoint, halved under Hybrid: both terms take half *)
  for b = lo to hi - 1 do
    let qc = rd scalar q (o + b) and base = (b * w) + nst in
    let acc = ref 0.0 in
    for n = base to base + nlen - 1 do
      let a = get cur n in
      set into n (rd scalar into n +. (a *. qc));
      acc := !acc +. (a *. rd scalar cp n)
    done;
    set gq b (if half then 0.5 *. !acc else !acc)
  done;
  (* the pinned root passes nothing to its parents *)
  if c <> s.root then begin
    let pn = s.parent_node and adj = sc.adj in
    let e0 = s.parents.Segments.starts.(c) and len = s.parents.Segments.lens.(c) in
    if s.rule <> Correlated then begin
      (* y_e = 1 + (-x_e) at the parents' values this round read, with
         the product of the factors before it; then the product of the
         others by prefix and suffix, no division *)
      let ys = sc.ys and others = sc.others and acc = sc.acc in
      for b = lo to hi - 1 do
        set acc b 1.0
      done;
      for j = 0 to len - 1 do
        let kk = pn.(e0 + j) and yo = j * batch in
        let d = s.node_class.(kk) in
        if s.comp_of.(d) <> k then
          for b = lo to hi - 1 do
            factor ~ys ~others ~acc ~yo b (1.0 +. -.rd scalar p ((b * w) + kk))
          done
        else if r = 0 then begin
          let q0 = if d = s.root then 1.0 else 0.0 in
          for b = lo to hi - 1 do
            factor ~ys ~others ~acc ~yo b (1.0 +. -.(rd scalar cp ((b * w) + kk) *. q0))
          done
        end
        else begin
          let qo = (s.q_at.(d) + ((r - 1) * size)) * batch in
          for b = lo to hi - 1 do
            factor ~ys ~others ~acc ~yo b
              (1.0 +. -.(rd scalar cp ((b * w) + kk) *. rd scalar q (qo + b)))
          done
        end
      done;
      for b = lo to hi - 1 do
        set acc b 1.0
      done;
      for j = len - 1 downto 0 do
        let kk = pn.(e0 + j) and yo = j * batch in
        let t = if s.comp_of.(s.node_class.(kk)) = k then nxt else adj in
        for b = lo to hi - 1 do
          let i = (b * w) + kk and a = get acc b in
          let ti = get t i and gb = get gq b and ob = get others (yo + b) in
          set t i (ti +. (gb *. (ob *. a)));
          set acc b (a *. get ys (yo + b))
        done
      done
    end;
    if s.rule <> Independent then
      for b = lo to hi - 1 do
        let e = Array.unsafe_get st.arg (o + b) in
        if e >= 0 then begin
          let kk = pn.(e) in
          let t = if s.comp_of.(s.node_class.(kk)) = k then nxt else adj in
          let i = (b * w) + kk in
          let ti = get t i in
          set t i (ti +. get gq b)
        end
      done
  end

let backward_rows s ~scalar ~cp ~p ~g ~into st sc ~batch lo hi =
  let w = width s in
  let adj = sc.adj in
  for n = lo * w to (hi * w) - 1 do
    set adj n (rd scalar g n)
  done;
  for k = Array.length s.rounds - 1 downto 0 do
    let first = s.comp_start.(k) and last = s.comp_start.(k + 1) - 1 in
    if not s.cyclic.(k) then
      class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur:adj ~nxt:adj ~batch ~k ~r:0 lo hi
        s.order.(first)
    else begin
      (* the final p's adjoints sit in [adj]; each round's pass leaves
         the previous round's in the other buffer *)
      let cur = ref adj and nxt = ref sc.alt in
      for r = s.rounds.(k) - 1 downto 0 do
        let t = !nxt in
        for i = first to last do
          let c = s.order.(i) in
          let nst = s.nodes.Segments.starts.(c) and len = s.nodes.Segments.lens.(c) in
          for b = lo to hi - 1 do
            for n = (b * w) + nst to (b * w) + nst + len - 1 do
              set t n 0.0
            done
          done
        done;
        for i = first to last do
          class_backward s ~scalar ~cp ~p ~into ~st ~sc ~cur:!cur ~nxt:t ~batch ~k ~r lo hi
            s.order.(i)
        done;
        nxt := !cur;
        cur := t
      done;
      (* round 0's p = cp q⁰ *)
      let cur = !cur in
      for i = first to last do
        let c = s.order.(i) in
        let q0 = if c = s.root then 1.0 else 0.0 in
        let nst = s.nodes.Segments.starts.(c) and len = s.nodes.Segments.lens.(c) in
        for b = lo to hi - 1 do
          for n = (b * w) + nst to (b * w) + nst + len - 1 do
            let a = get cur n in
            set into n (rd scalar into n +. (a *. q0))
          done
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
  if Array.length sc.gq <> batch then
    invalid_arg "Propagation.backward: scratch sized for another batch";
  count_op "tensor.segment_ops.propagate_grad";
  let cp = Tensor.unsafe_data cp and p = Tensor.unsafe_data p in
  let g = Tensor.unsafe_data g and into = Tensor.unsafe_data into in
  if scalar () then backward_rows s ~scalar:true ~cp ~p ~g ~into st sc ~batch 0 batch
  else chunks s batch (fun lo hi -> backward_rows s ~scalar:false ~cp ~p ~g ~into st sc ~batch lo hi)
