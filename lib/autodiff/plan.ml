(* Compiles a captured tape into a static replay schedule: one closure
   per forward op and per backward pull, over buffers allocated once at
   compile time. Every closure mirrors the corresponding interpreter
   kernel expression-for-expression — same rounding steps, same
   accumulation order — so a replayed iteration is bit-identical to an
   interpreted one. The interpreter's lazily-zeroed gradient buffers
   become explicit [fill 0.0] steps scheduled immediately before each
   buffer's first writer; its fresh per-op outputs become arena slots
   (placement supplied by the caller, verified independently by
   lib/analysis/plan_check) or dedicated buffers. *)

type capture = {
  ir : Ad.Ir.t;
  pay : Ad.payload array;
  vals : Tensor.t array;
  root : int;
}

let capture tp ~root =
  { ir = Ad.ir tp; pay = Ad.payloads tp; vals = Ad.values tp; root = Ad.node_id root }

(* ---- Op facts ----------------------------------------------------- *)

let op_supported = function
  | "const" | "param" | "add" | "sub" | "mul" | "neg" | "scale" | "add_scalar"
  | "log_safe" | "relu" | "gather" | "segment_softmax" | "segment_sum" | "segment_prod"
  | "segment_max" | "override_columns" | "mean_rows" | "slice_row" | "sum_width"
  | "sum_all" | "dot_const" | "linear" | "matrix_of_entries" | "expm_trace" ->
      true
  | _ -> false

let is_leaf = function "const" | "param" -> true | _ -> false

let backward_reads_arg op k =
  match op, k with
  | "mul", _ -> true
  | ("log_safe" | "relu" | "segment_prod"), 0 -> true
  | "linear", (0 | 1) -> true
  | _ -> false

let backward_reads_self op = String.equal op "segment_softmax"
let fusable_elementwise = function "neg" | "scale" | "add_scalar" -> true | _ -> false

(* Ad.log_safe clamps at 1e-12 (Tensor.log_safe uses a different floor;
   the tape op is the one a plan replays). *)
let log_floor = 1e-12

(* ---- Stability ---------------------------------------------------- *)

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let float_bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let meta_equal i (m1 : Ad.Ir.meta) (m2 : Ad.Ir.meta) =
  let ok =
    match m1, m2 with
    | Ad.Ir.M_none, Ad.Ir.M_none -> true
    | M_scalar a, M_scalar b -> float_bits_equal a b
    | ( M_gather { count = c1; index_min = lo1; index_max = hi1 },
        M_gather { count = c2; index_min = lo2; index_max = hi2 } ) ->
        c1 = c2 && lo1 = lo2 && hi1 = hi2
    | ( M_segments { seg_count = s1; seg_width = w1; empty_segments = e1; max_len = m1 },
        M_segments { seg_count = s2; seg_width = w2; empty_segments = e2; max_len = m2 } ) ->
        s1 = s2 && w1 = w2 && e1 = e2 && m1 = m2
    | M_columns a, M_columns b ->
        Array.length a = Array.length b
        && Array.for_all2 (fun (c1, x1) (c2, x2) -> c1 = c2 && float_bits_equal x1 x2) a b
    | M_row a, M_row b -> a = b
    | M_width a, M_width b -> a = b
    | ( M_matrix { dim = d1; class_min = cl1; class_max = ch1; col_max = cm1 },
        M_matrix { dim = d2; class_min = cl2; class_max = ch2; col_max = cm2 } ) ->
        d1 = d2 && cl1 = cl2 && ch1 = ch2 && cm1 = cm2
    | _ -> false
  in
  if not ok then failf "node %d: metadata changed between captures" i

let payload_equal i (p1 : Ad.payload) (p2 : Ad.payload) =
  let ok =
    match p1, p2 with
    | Ad.P_none, Ad.P_none -> true
    | P_indices a, P_indices b -> a == b || a = b
    | P_segments a, P_segments b ->
        a == b
        || (a.Segments.starts = b.Segments.starts && a.Segments.lens = b.Segments.lens)
    | P_coeffs a, P_coeffs b ->
        a == b || (Array.length a = Array.length b && Array.for_all2 float_bits_equal a b)
    | P_entries { dim = d1; entries = e1 }, P_entries { dim = d2; entries = e2 } ->
        d1 = d2 && (e1 == e2 || e1 = e2)
    | _ -> false
  in
  if not ok then failf "node %d: runtime payload changed between captures" i

let stable c1 c2 =
  try
    let n1 = Array.length c1.ir and n2 = Array.length c2.ir in
    if n1 <> n2 then failf "tape length changed: %d nodes, then %d" n1 n2;
    if c1.root <> c2.root then failf "root moved: node %d, then node %d" c1.root c2.root;
    for i = 0 to n1 - 1 do
      let a = c1.ir.(i) and b = c2.ir.(i) in
      if not (String.equal a.Ad.Ir.op b.Ad.Ir.op) then
        failf "node %d: op %s became %s" i a.Ad.Ir.op b.Ad.Ir.op;
      if a.args <> b.args then failf "node %d (%s): operands changed" i a.op;
      if a.shape <> b.shape then
        failf "node %d (%s): shape %s became %s" i a.op
          (Ad.Ir.shape_to_string a.shape)
          (Ad.Ir.shape_to_string b.shape);
      if not (String.equal a.context b.context) then
        failf "node %d (%s): context %s became %s" i a.op a.context b.context;
      meta_equal i a.meta b.meta;
      payload_equal i c1.pay.(i) c2.pay.(i);
      match a.op with
      | "param" ->
          if c1.vals.(i) != c2.vals.(i) then
            failf "node %d: param rebound to a different tensor" i
      | "const" ->
          if not (Tensor.bits_equal c1.vals.(i) c2.vals.(i)) then
            failf "node %d: const leaf value changed between captures" i
      | _ -> ()
    done;
    Ok ()
  with Fail msg -> Error msg

(* ---- Compilation -------------------------------------------------- *)

type arena_spec = { slot_sizes : int array; assign : int array }

type stats = {
  nodes : int;
  steps_forward : int;
  steps_backward : int;
  arena_bytes : int;
  dedicated_bytes : int;
  scratch_bytes : int;
  chains : int;
  fused_nodes : int;
}

type t = {
  n : int;
  fwd_steps : (unit -> unit) option array;
  bwd_cores : (unit -> unit) option array;
  bwd_fills : Tensor.t list array;
  seed : unit -> unit;
  node_vals : Tensor.t option array;
  node_grads : Tensor.t option array;
  plan_stats : stats;
}

let row_grain width = Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 width)

let compile ?arena ?(chains = [||]) ~outputs ~grads cap =
  try
    if Tensor.Backend.current () <> Tensor.Backend.Vectorized then
      failf "replay requires the Vectorized backend (Scalar models an interpreter)";
    let ir = cap.ir in
    let n = Array.length ir in
    if n = 0 then failf "empty capture";
    if cap.root < 0 || cap.root >= n then failf "root node %d out of range" cap.root;
    let check_id what i =
      if i < 0 || i >= n then failf "%s node %d out of range (tape has %d nodes)" what i n
    in
    Array.iter (check_id "output") outputs;
    Array.iter (check_id "gradient-request") grads;
    Array.iteri
      (fun i nd ->
        if not (op_supported nd.Ad.Ir.op) then
          failf "node %d: op %s has no replay kernel" i nd.Ad.Ir.op)
      ir;
    let shape_of i = ir.(i).Ad.Ir.shape in
    let numel_of i =
      let s = shape_of i in
      s.Ad.Ir.batch * s.Ad.Ir.width
    in
    let is_output = Array.make n false in
    Array.iter (fun i -> is_output.(i) <- true) outputs;
    is_output.(cap.root) <- true;
    let requested = Array.make n false in
    Array.iter (fun i -> requested.(i) <- true) grads;
    (* consumers, descending by construction (later nodes pushed last) *)
    let cons = Array.make n [] in
    Array.iteri (fun i nd -> Array.iter (fun a -> cons.(a) <- i :: cons.(a)) nd.Ad.Ir.args) ir;
    (* feeds_root: the backward sweep reaches this node's adjoint *)
    let feeds_root = Array.make n false in
    feeds_root.(cap.root) <- true;
    for i = n - 1 downto 0 do
      if feeds_root.(i) && not (is_leaf ir.(i).op) then
        Array.iter (fun a -> feeds_root.(a) <- true) ir.(i).args
    done;
    (* carries: the subtree holds a param or an explicitly requested
       gradient, so skipping this adjoint could change what a caller
       reads. Gradients that feed only const subtrees are provably
       unread and never materialised. *)
    let carries = Array.make n false in
    for i = 0 to n - 1 do
      carries.(i) <-
        String.equal ir.(i).op "param"
        || requested.(i)
        || Array.exists (fun a -> carries.(a)) ir.(i).args
    done;
    (* chain validation and marks *)
    let member = Array.make n false in
    let interior = Array.make n false in
    let chain_at = Array.make n (-1) in
    Array.iteri
      (fun ci cs ->
        let k = Array.length cs in
        if k < 2 then failf "chain %d has %d nodes; fusion needs at least 2" ci k;
        Array.iteri
          (fun m c ->
            check_id "chain" c;
            if member.(c) then failf "node %d appears in two chains" c;
            member.(c) <- true;
            let nd = ir.(c) in
            if not (fusable_elementwise nd.op) then
              failf "chain %d: node %d (%s) is not a fusable elementwise op" ci c nd.op;
            if Array.length nd.args <> 1 then
              failf "chain %d: node %d (%s) is not unary" ci c nd.op;
            if m > 0 && nd.args.(0) <> cs.(m - 1) then
              failf "chain %d: node %d does not consume its predecessor %d" ci c cs.(m - 1);
            if nd.shape <> ir.(cs.(0)).shape then
              failf "chain %d: shape changes at node %d" ci c;
            if m < k - 1 then begin
              (match cons.(c) with
              | [ j ] when j = cs.(m + 1) -> ()
              | _ -> failf "chain %d: interior node %d has consumers outside the chain" ci c);
              if c = cap.root then failf "chain %d: root cannot be a chain interior" ci;
              if is_output.(c) then failf "chain %d: output node %d is a chain interior" ci c;
              if requested.(c) then
                failf "chain %d: node %d's gradient is requested but would be fused away" ci c;
              interior.(c) <- true
            end)
          cs;
        chain_at.(cs.(0)) <- ci)
      chains;
    (* gradient materialisation: exactly where the interpreter's sweep
       would write values some reader can observe *)
    let grad_mat =
      Array.init n (fun i ->
          (i = cap.root || (feeds_root.(i) && carries.(i))) && not interior.(i))
    in
    let has_gbuf = Array.init n (fun i -> grad_mat.(i) || (requested.(i) && not interior.(i))) in
    (* buffers *)
    let slot_sizes, assign =
      match arena with
      | None -> ([||], Array.make (2 * n) (-1))
      | Some a ->
          if Array.length a.assign <> 2 * n then
            failf "arena assign has %d entries, expected %d" (Array.length a.assign) (2 * n);
          Array.iter (fun sz -> if sz <= 0 then failf "arena slot size %d" sz) a.slot_sizes;
          Array.iter
            (fun s ->
              if s < -1 || s >= Array.length a.slot_sizes then failf "arena slot id %d out of range" s)
            a.assign;
          (a.slot_sizes, a.assign)
    in
    let slot_arrays = Array.map (fun sz -> Array.make sz 0.0) slot_sizes in
    let dedicated_floats = ref 0 in
    let dedicated i =
      let s = shape_of i in
      dedicated_floats := !dedicated_floats + (s.Ad.Ir.batch * s.Ad.Ir.width);
      Tensor.create ~batch:s.Ad.Ir.batch ~width:s.Ad.Ir.width
    in
    let view i slot =
      if numel_of i <> slot_sizes.(slot) then
        failf "node %d: %d elements do not fit arena slot %d (%d elements)" i (numel_of i)
          slot slot_sizes.(slot);
      let s = shape_of i in
      Tensor.of_array ~batch:s.Ad.Ir.batch ~width:s.Ad.Ir.width slot_arrays.(slot)
    in
    let node_vals = Array.make n None in
    for i = 0 to n - 1 do
      let slot = assign.(i) in
      if is_leaf ir.(i).op then begin
        if slot <> -1 then failf "leaf node %d must not live in the arena" i;
        node_vals.(i) <- Some cap.vals.(i)
      end
      else if interior.(i) then begin
        if slot <> -1 then failf "chain-interior node %d has no buffer to place in slot %d" i slot
      end
      else if is_output.(i) then begin
        if slot <> -1 then failf "output node %d must not live in the arena" i;
        node_vals.(i) <- Some (dedicated i)
      end
      else if slot >= 0 then node_vals.(i) <- Some (view i slot)
      else node_vals.(i) <- Some (dedicated i)
    done;
    let node_grads = Array.make n None in
    for i = 0 to n - 1 do
      let slot = assign.(n + i) in
      if has_gbuf.(i) then begin
        let pinned = i = cap.root || requested.(i) || is_leaf ir.(i).op in
        if pinned && slot <> -1 then
          failf "pinned gradient of node %d must not live in the arena" i;
        node_grads.(i) <- Some (if slot >= 0 then view i slot else dedicated i)
      end
      else if slot <> -1 then
        failf "node %d materialises no gradient yet the arena assigns it slot %d" i slot
    done;
    let v i =
      match node_vals.(i) with
      | Some t -> t
      | None -> failf "internal: node %d has no value buffer" i
    in
    let g i =
      match node_grads.(i) with
      | Some t -> t
      | None -> failf "internal: node %d has no gradient buffer" i
    in
    let data = Tensor.unsafe_data in
    let scratch_floats = ref 0 in
    let scratch ~batch ~width =
      scratch_floats := !scratch_floats + (batch * width);
      Tensor.create ~batch ~width
    in
    (* payload accessors *)
    let seg_of i =
      match cap.pay.(i) with
      | Ad.P_segments s -> s
      | _ -> failf "node %d (%s): segment payload missing" i ir.(i).op
    in
    let idx_of i =
      match cap.pay.(i) with
      | Ad.P_indices a -> a
      | _ -> failf "node %d (%s): index payload missing" i ir.(i).op
    in
    let coeffs_of i =
      match cap.pay.(i) with
      | Ad.P_coeffs u -> u
      | _ -> failf "node %d (%s): coefficient payload missing" i ir.(i).op
    in
    let entries_of i =
      match cap.pay.(i) with
      | Ad.P_entries { dim; entries } -> (dim, entries)
      | _ -> failf "node %d (%s): entries payload missing" i ir.(i).op
    in
    let scalar_of i =
      match ir.(i).meta with
      | Ad.Ir.M_scalar k -> k
      | _ -> failf "node %d (%s): scalar metadata missing" i ir.(i).op
    in
    (* per-node state shared between the forward and backward emitters *)
    let argmaxes = Array.make n None in
    let expm_es = Array.make n None in
    (* chain jam stages: tag 0 = neg, 1 = scale, 2 = add_scalar *)
    let stage_tag i =
      match ir.(i).op with
      | "neg" -> (0, 0.0)
      | "scale" -> (1, scalar_of i)
      | _ -> (2, scalar_of i)
    in
    (* ---- forward steps ---- *)
    let emit_forward i =
      let nd = ir.(i) in
      let a k = nd.Ad.Ir.args.(k) in
      match nd.op with
      | "const" | "param" -> None
      | "add" ->
          let o = v i and x = v (a 0) and y = v (a 1) in
          Some (fun () -> Tensor.add_into ~out:o x y)
      | "sub" ->
          let o = v i and x = v (a 0) and y = v (a 1) in
          Some (fun () -> Tensor.sub_into ~out:o x y)
      | "mul" ->
          let o = v i and x = v (a 0) and y = v (a 1) in
          Some (fun () -> Tensor.mul_into ~out:o x y)
      | "neg" ->
          let o = v i and x = v (a 0) in
          Some (fun () -> Tensor.neg_into ~out:o x)
      | "scale" ->
          let o = v i and x = v (a 0) and k = scalar_of i in
          Some (fun () -> Tensor.scale_into ~out:o k x)
      | "add_scalar" ->
          let o = v i and x = v (a 0) and k = scalar_of i in
          Some (fun () -> Tensor.add_scalar_into ~out:o k x)
      | "relu" ->
          let o = v i and x = v (a 0) in
          Some (fun () -> Tensor.relu_into ~out:o x)
      | "log_safe" ->
          let od = data (v i) and xd = data (v (a 0)) and nn = numel_of i in
          Some
            (fun () ->
              Parallel.chunks nn (fun lo hi ->
                  for p = lo to hi - 1 do
                    Array.unsafe_set od p
                      (Stdlib.log (Float.max (Array.unsafe_get xd p) log_floor))
                  done))
      | "gather" ->
          let o = v i and x = v (a 0) and idx = idx_of i in
          Some (fun () -> Segments.gather_into ~out:o x idx)
      | "segment_softmax" ->
          let o = v i and x = v (a 0) and seg = seg_of i in
          Some (fun () -> Segments.softmax_into ~out:o x seg)
      | "segment_sum" ->
          let o = v i and x = v (a 0) and seg = seg_of i in
          Some (fun () -> Segments.sum_into ~out:o x seg)
      | "segment_prod" ->
          let o = v i and x = v (a 0) and seg = seg_of i in
          Some (fun () -> Segments.prod_into ~out:o x seg)
      | "segment_max" ->
          let o = v i and x = v (a 0) and seg = seg_of i in
          let arg = Array.make (numel_of i) (-1) in
          argmaxes.(i) <- Some arg;
          Some (fun () -> Segments.max_into ~out:o ~arg x seg)
      | "override_columns" ->
          let o = v i and x = v (a 0) in
          let pins =
            match nd.meta with
            | Ad.Ir.M_columns pins -> pins
            | _ -> failf "node %d: column metadata missing" i
          in
          let od = data o and w = o.Tensor.width and bt = o.Tensor.batch in
          Some
            (fun () ->
              Tensor.copy_into ~out:o x;
              Array.iter
                (fun (col, c) ->
                  for b = 0 to bt - 1 do
                    od.((b * w) + col) <- c
                  done)
                pins)
      | "mean_rows" ->
          let o = v i and x = v (a 0) in
          let od = data o and xd = data x in
          let w = x.Tensor.width and bt = x.Tensor.batch in
          let inv = 1.0 /. float_of_int (Stdlib.max 1 bt) in
          Some
            (fun () ->
              Array.fill od 0 w 0.0;
              for b = 0 to bt - 1 do
                let base = b * w in
                for p = 0 to w - 1 do
                  od.(p) <- od.(p) +. xd.(base + p)
                done
              done;
              for p = 0 to w - 1 do
                od.(p) <- od.(p) *. inv
              done)
      | "slice_row" ->
          let o = v i and x = v (a 0) in
          let r = match nd.meta with Ad.Ir.M_row r -> r | _ -> failf "node %d: row missing" i in
          let od = data o and xd = data x and w = x.Tensor.width in
          Some (fun () -> Array.blit xd (r * w) od 0 w)
      | "sum_width" ->
          let o = v i and x = v (a 0) in
          let od = data o and xd = data x in
          let w = x.Tensor.width and bt = x.Tensor.batch in
          Some
            (fun () ->
              for b = 0 to bt - 1 do
                let acc = ref 0.0 in
                let base = b * w in
                for p = 0 to w - 1 do
                  acc := !acc +. Array.unsafe_get xd (base + p)
                done;
                od.(b) <- !acc
              done)
      | "sum_all" ->
          let od = data (v i) and xd = data (v (a 0)) and nn = numel_of (a 0) in
          Some
            (fun () ->
              let acc = ref 0.0 in
              for p = 0 to nn - 1 do
                acc := !acc +. xd.(p)
              done;
              od.(0) <- !acc)
      | "dot_const" ->
          let o = v i and x = v (a 0) and u = coeffs_of i in
          let od = data o and xd = data x in
          let w = x.Tensor.width and bt = x.Tensor.batch in
          Some
            (fun () ->
              for b = 0 to bt - 1 do
                let acc = ref 0.0 in
                let base = b * w in
                for p = 0 to w - 1 do
                  acc := !acc +. (xd.(base + p) *. u.(p))
                done;
                od.(b) <- !acc
              done)
      | "linear" ->
          let o = v i and x = v (a 0) and wt = v (a 1) and bias = v (a 2) in
          let od = data o and bd = data bias in
          let h = wt.Tensor.batch in
          Some
            (fun () ->
              Tensor.matmul_nt_into ~out:o x wt;
              for r = 0 to o.Tensor.batch - 1 do
                for j = 0 to h - 1 do
                  od.((r * h) + j) <- od.((r * h) + j) +. bd.(j)
                done
              done)
      | "matrix_of_entries" ->
          let o = v i and x = v (a 0) in
          let dim, entries = entries_of i in
          let od = data o and xd = data x in
          Some
            (fun () ->
              Array.fill od 0 (dim * dim) 0.0;
              Array.iter
                (fun (col, r, c) -> od.((r * dim) + c) <- od.((r * dim) + c) +. xd.(col))
                entries)
      | "expm_trace" ->
          let o = v i and x = v (a 0) in
          let d = x.Tensor.width in
          let ws = Tensor.Matfun.workspace d in
          scratch_floats := !scratch_floats + (16 * d * d) + d;
          let cur_e = ref x in
          expm_es.(i) <- Some cur_e;
          let od = data o in
          Some
            (fun () ->
              cur_e := Tensor.Matfun.expm_into ws x;
              od.(0) <- Tensor.Matfun.trace !cur_e)
      | op -> failf "node %d: op %s has no forward kernel" i op
    in
    let fwd_jam ci =
      let cs = chains.(ci) in
      let k = Array.length cs in
      let head = cs.(0) and last = cs.(k - 1) in
      let x = ir.(head).Ad.Ir.args.(0) in
      let tags = Array.make k 0 and ks = Array.make k 0.0 in
      Array.iteri
        (fun m c ->
          let t, kv = stage_tag c in
          tags.(m) <- t;
          ks.(m) <- kv)
        cs;
      let od = data (v last) and xd = data (v x) and nn = numel_of last in
      fun () ->
        Parallel.chunks nn (fun lo hi ->
            let acc = ref 0.0 in
            for p = lo to hi - 1 do
              acc := Array.unsafe_get xd p;
              for s = 0 to k - 1 do
                match Array.unsafe_get tags s with
                | 0 -> acc := -. !acc
                | 1 -> acc := Array.unsafe_get ks s *. !acc
                | _ -> acc := Array.unsafe_get ks s +. !acc
              done;
              Array.unsafe_set od p !acc
            done)
    in
    let fwd_steps =
      Array.init n (fun i ->
          if chain_at.(i) >= 0 then Some (fwd_jam chain_at.(i))
          else if member.(i) then None
          else emit_forward i)
    in
    (* ---- backward cores ---- *)
    let emit_backward j =
      let nd = ir.(j) in
      let a k = nd.Ad.Ir.args.(k) in
      let gj = g j in
      let gjd = data gj in
      let gb k = node_grads.(a k) in
      match nd.op with
      | "add" ->
          let ta = gb 0 and tb = gb 1 in
          Some
            (fun () ->
              (match ta with Some ga -> Tensor.add_inplace ga gj | None -> ());
              match tb with Some gbt -> Tensor.add_inplace gbt gj | None -> ())
      | "sub" ->
          let ta = gb 0 and tb = gb 1 in
          Some
            (fun () ->
              (match ta with Some ga -> Tensor.add_inplace ga gj | None -> ());
              match tb with Some gbt -> Tensor.axpy (-1.0) gj gbt | None -> ())
      | "mul" ->
          let ta = gb 0 and tb = gb 1 in
          let ad = data (v (a 0)) and bd = data (v (a 1)) and nn = numel_of j in
          (* interpreter: ga += fl(g *. b), then gb += fl(g *. a) *)
          Some
            (fun () ->
              (match ta with
              | Some ga ->
                  let gad = data ga in
                  Parallel.chunks nn (fun lo hi ->
                      for p = lo to hi - 1 do
                        Array.unsafe_set gad p
                          (Array.unsafe_get gad p
                          +. (Array.unsafe_get gjd p *. Array.unsafe_get bd p))
                      done)
              | None -> ());
              match tb with
              | Some gbt ->
                  let gbd = data gbt in
                  Parallel.chunks nn (fun lo hi ->
                      for p = lo to hi - 1 do
                        Array.unsafe_set gbd p
                          (Array.unsafe_get gbd p
                          +. (Array.unsafe_get gjd p *. Array.unsafe_get ad p))
                      done)
              | None -> ())
      | "neg" -> (
          match gb 0 with
          | Some ga -> Some (fun () -> Tensor.axpy (-1.0) gj ga)
          | None -> None)
      | "scale" -> (
          let k = scalar_of j in
          match gb 0 with Some ga -> Some (fun () -> Tensor.axpy k gj ga) | None -> None)
      | "add_scalar" -> (
          match gb 0 with
          | Some ga -> Some (fun () -> Tensor.add_inplace ga gj)
          | None -> None)
      | "log_safe" -> (
          match gb 0 with
          | Some ga ->
              let gad = data ga and xd = data (v (a 0)) and nn = numel_of j in
              (* interpreter: inv = fl(1 / max x floor); ga += fl(g *. inv) *)
              Some
                (fun () ->
                  Parallel.chunks nn (fun lo hi ->
                      for p = lo to hi - 1 do
                        Array.unsafe_set gad p
                          (Array.unsafe_get gad p
                          +. Array.unsafe_get gjd p
                             *. (1.0 /. Float.max (Array.unsafe_get xd p) log_floor))
                      done))
          | None -> None)
      | "relu" -> (
          match gb 0 with
          | Some ga ->
              let gad = data ga and xd = data (v (a 0)) and nn = numel_of j in
              (* keep the mask multiply: fl(g *. 0.0) preserves the
                 interpreter's signed zeros *)
              Some
                (fun () ->
                  Parallel.chunks nn (fun lo hi ->
                      for p = lo to hi - 1 do
                        let m = if Array.unsafe_get xd p > 0.0 then 1.0 else 0.0 in
                        Array.unsafe_set gad p
                          (Array.unsafe_get gad p +. (Array.unsafe_get gjd p *. m))
                      done))
          | None -> None)
      | "gather" -> (
          match gb 0 with
          | Some ga ->
              let idx = idx_of j in
              Some (fun () -> Segments.scatter_add ~into:ga idx gj)
          | None -> None)
      | "segment_softmax" -> (
          match gb 0 with
          | Some ga ->
              let seg = seg_of j in
              let yd = data (v j) and gad = data ga in
              let starts = seg.Segments.starts and lens = seg.Segments.lens in
              let nsegs = Array.length starts and w = seg.Segments.width in
              let bt = (shape_of (a 0)).Ad.Ir.batch in
              Some
                (fun () ->
                  Parallel.chunks ~grain:(row_grain w) ~cost:(Stdlib.max 1 w) bt
                    (fun blo bhi ->
                      for b = blo to bhi - 1 do
                        let base = b * w in
                        for s = 0 to nsegs - 1 do
                          let st = base + starts.(s) and ln = lens.(s) in
                          let dot = ref 0.0 in
                          for p = st to st + ln - 1 do
                            dot :=
                              !dot +. (Array.unsafe_get gjd p *. Array.unsafe_get yd p)
                          done;
                          let dv = !dot in
                          for p = st to st + ln - 1 do
                            Array.unsafe_set gad p
                              (Array.unsafe_get gad p
                              +. Array.unsafe_get yd p *. (Array.unsafe_get gjd p -. dv))
                          done
                        done
                      done))
          | None -> None)
      | "segment_sum" -> (
          match gb 0 with
          | Some ga ->
              let seg = seg_of j in
              let owner = Segments.seg_of_index seg in
              let gad = data ga in
              let w = seg.Segments.width and nsegs = Segments.count seg in
              let bt = (shape_of (a 0)).Ad.Ir.batch in
              Some
                (fun () ->
                  Parallel.chunks ~grain:(row_grain w) ~cost:(Stdlib.max 1 w) bt
                    (fun blo bhi ->
                      for b = blo to bhi - 1 do
                        let base = b * w and gbase = b * nsegs in
                        for p = 0 to w - 1 do
                          Array.unsafe_set gad (base + p)
                            (Array.unsafe_get gad (base + p)
                            +. Array.unsafe_get gjd (gbase + Array.unsafe_get owner p))
                        done
                      done))
          | None -> None)
      | "segment_prod" -> (
          match gb 0 with
          | Some ga ->
              let seg = seg_of j in
              let owner = Segments.seg_of_index seg in
              let x = v (a 0) in
              let others = scratch ~batch:x.Tensor.batch ~width:x.Tensor.width in
              let gad = data ga and othd = data others in
              let w = seg.Segments.width and nsegs = Segments.count seg in
              Some
                (fun () ->
                  Segments.prod_grad_scratch_into ~out:others x seg;
                  Parallel.chunks ~grain:(row_grain w) ~cost:(Stdlib.max 1 w) x.Tensor.batch
                    (fun blo bhi ->
                      for b = blo to bhi - 1 do
                        let base = b * w and gbase = b * nsegs in
                        for p = 0 to w - 1 do
                          Array.unsafe_set gad (base + p)
                            (Array.unsafe_get gad (base + p)
                            +. Array.unsafe_get gjd (gbase + Array.unsafe_get owner p)
                               *. Array.unsafe_get othd (base + p))
                        done
                      done))
          | None -> None)
      | "segment_max" -> (
          match gb 0 with
          | Some ga ->
              let arg =
                match argmaxes.(j) with
                | Some arr -> arr
                | None -> failf "internal: node %d argmax scratch missing" j
              in
              let gad = data ga in
              Some
                (fun () ->
                  Array.iteri
                    (fun flat src_pos ->
                      if src_pos >= 0 then gad.(src_pos) <- gad.(src_pos) +. gjd.(flat))
                    arg)
          | None -> None)
      | "override_columns" -> (
          match gb 0 with
          | Some ga ->
              let w = (shape_of j).Ad.Ir.width and bt = (shape_of j).Ad.Ir.batch in
              let pinned = Array.make w false in
              (match nd.meta with
              | Ad.Ir.M_columns pins -> Array.iter (fun (col, _) -> pinned.(col) <- true) pins
              | _ -> failf "node %d: column metadata missing" j);
              let gad = data ga in
              Some
                (fun () ->
                  Parallel.chunks ~grain:(row_grain w) ~cost:(Stdlib.max 1 w) bt
                    (fun blo bhi ->
                      for b = blo to bhi - 1 do
                        let base = b * w in
                        for p = 0 to w - 1 do
                          let gv =
                            if Array.unsafe_get pinned p then 0.0
                            else Array.unsafe_get gjd (base + p)
                          in
                          Array.unsafe_set gad (base + p)
                            (Array.unsafe_get gad (base + p) +. gv)
                        done
                      done))
          | None -> None)
      | "mean_rows" -> (
          match gb 0 with
          | Some ga ->
              let s = shape_of (a 0) in
              let bt = s.Ad.Ir.batch and w = s.Ad.Ir.width in
              let inv = 1.0 /. float_of_int (Stdlib.max 1 bt) in
              let gad = data ga in
              Some
                (fun () ->
                  for b = 0 to bt - 1 do
                    for p = 0 to w - 1 do
                      gad.((b * w) + p) <- gad.((b * w) + p) +. (gjd.(p) *. inv)
                    done
                  done)
          | None -> None)
      | "slice_row" -> (
          match gb 0 with
          | Some ga ->
              let r =
                match nd.meta with Ad.Ir.M_row r -> r | _ -> failf "node %d: row missing" j
              in
              let w = (shape_of (a 0)).Ad.Ir.width in
              let gad = data ga in
              Some
                (fun () ->
                  for p = 0 to w - 1 do
                    gad.((r * w) + p) <- gad.((r * w) + p) +. gjd.(p)
                  done)
          | None -> None)
      | "sum_width" -> (
          match gb 0 with
          | Some ga ->
              let s = shape_of (a 0) in
              let bt = s.Ad.Ir.batch and w = s.Ad.Ir.width in
              let gad = data ga in
              Some
                (fun () ->
                  for b = 0 to bt - 1 do
                    let gv = gjd.(b) in
                    for p = 0 to w - 1 do
                      gad.((b * w) + p) <- gad.((b * w) + p) +. gv
                    done
                  done)
          | None -> None)
      | "sum_all" -> (
          match gb 0 with
          | Some ga ->
              let nn = numel_of (a 0) in
              let gad = data ga in
              Some
                (fun () ->
                  let gv = gjd.(0) in
                  for p = 0 to nn - 1 do
                    gad.(p) <- gad.(p) +. gv
                  done)
          | None -> None)
      | "dot_const" -> (
          match gb 0 with
          | Some ga ->
              let u = coeffs_of j in
              let s = shape_of (a 0) in
              let bt = s.Ad.Ir.batch and w = s.Ad.Ir.width in
              let gad = data ga in
              Some
                (fun () ->
                  for b = 0 to bt - 1 do
                    let gv = gjd.(b) in
                    let base = b * w in
                    for p = 0 to w - 1 do
                      gad.(base + p) <- gad.(base + p) +. (gv *. u.(p))
                    done
                  done)
          | None -> None)
      | "linear" ->
          let xv = v (a 0) and wv = v (a 1) in
          let t_in = gb 0 and t_w = gb 1 and t_b = gb 2 in
          let bt = xv.Tensor.batch and nf = xv.Tensor.width and h = wv.Tensor.batch in
          let in_step =
            match t_in with
            | Some gin ->
                let wT = scratch ~batch:nf ~width:h in
                let dx = scratch ~batch:bt ~width:nf in
                Some
                  (fun () ->
                    Tensor.transpose_into ~out:wT wv;
                    Tensor.matmul_nt_into ~out:dx gj wT;
                    Tensor.add_inplace gin dx)
            | None -> None
          in
          let w_step =
            match t_w with
            | Some gw ->
                let gT = scratch ~batch:h ~width:bt in
                let xT = scratch ~batch:nf ~width:bt in
                let dW = scratch ~batch:h ~width:nf in
                Some
                  (fun () ->
                    Tensor.transpose_into ~out:gT gj;
                    Tensor.transpose_into ~out:xT xv;
                    Tensor.matmul_nt_into ~out:dW gT xT;
                    Tensor.add_inplace gw dW)
            | None -> None
          in
          let b_step =
            match t_b with
            | Some gbias ->
                let gbd = data gbias in
                Some
                  (fun () ->
                    for r = 0 to bt - 1 do
                      for jj = 0 to h - 1 do
                        gbd.(jj) <- gbd.(jj) +. gjd.((r * h) + jj)
                      done
                    done)
            | None -> None
          in
          if in_step = None && w_step = None && b_step = None then None
          else
            Some
              (fun () ->
                (match in_step with Some f -> f () | None -> ());
                (match w_step with Some f -> f () | None -> ());
                match b_step with Some f -> f () | None -> ())
      | "matrix_of_entries" -> (
          match gb 0 with
          | Some ga ->
              let dim, entries = entries_of j in
              let gad = data ga in
              Some
                (fun () ->
                  Array.iter
                    (fun (col, r, c) -> gad.(col) <- gad.(col) +. gjd.((r * dim) + c))
                    entries)
          | None -> None)
      | "expm_trace" -> (
          match gb 0 with
          | Some ga ->
              let cur_e =
                match expm_es.(j) with
                | Some r -> r
                | None -> failf "internal: node %d expm state missing" j
              in
              let d = (v (a 0)).Tensor.width in
              let eT = scratch ~batch:d ~width:d in
              Some
                (fun () ->
                  let gv = gjd.(0) in
                  Tensor.transpose_into ~out:eT !cur_e;
                  Tensor.axpy gv eT ga)
          | None -> None)
      | op -> failf "node %d: op %s has no backward kernel" j op
    in
    (* Backward jam: gradient flows from grad(ck) through the pulls of
       ck..c2 — each of which the interpreter stages into a
       freshly-zeroed interior adjoint, hence the literal [+. 0.0] —
       then c1's pull accumulates into the chain input's gradient. *)
    let bwd_jam ci =
      let cs = chains.(ci) in
      let k = Array.length cs in
      let head = cs.(0) and last = cs.(k - 1) in
      let x = ir.(head).Ad.Ir.args.(0) in
      match node_grads.(x) with
      | None -> None
      | Some gx ->
          let nstages = k - 1 in
          let tags = Array.make (Stdlib.max 1 nstages) 0
          and ks = Array.make (Stdlib.max 1 nstages) 0.0 in
          for m = 0 to nstages - 1 do
            let t, kv = stage_tag cs.(k - 1 - m) in
            tags.(m) <- t;
            ks.(m) <- kv
          done;
          let head_tag, head_k = stage_tag head in
          let gd = data (g last) and gxd = data gx in
          let nn = numel_of last in
          Some
            (fun () ->
              Parallel.chunks nn (fun lo hi ->
                  let acc = ref 0.0 in
                  for p = lo to hi - 1 do
                    acc := Array.unsafe_get gd p;
                    for s = 0 to nstages - 1 do
                      match Array.unsafe_get tags s with
                      | 0 -> acc := (-1.0 *. !acc) +. 0.0
                      | 1 -> acc := (Array.unsafe_get ks s *. !acc) +. 0.0
                      | _ -> acc := 0.0 +. !acc
                    done;
                    (match head_tag with
                    | 0 ->
                        Array.unsafe_set gxd p ((-1.0 *. !acc) +. Array.unsafe_get gxd p)
                    | 1 -> Array.unsafe_set gxd p ((head_k *. !acc) +. Array.unsafe_get gxd p)
                    | _ -> Array.unsafe_set gxd p (Array.unsafe_get gxd p +. !acc))
                  done))
    in
    let bwd_cores =
      Array.init n (fun j ->
          if chain_at.(j) >= 0 then
            if grad_mat.(chains.(chain_at.(j)).(Array.length chains.(chain_at.(j)) - 1)) then
              bwd_jam chain_at.(j)
            else None
          else if member.(j) || is_leaf ir.(j).op || not grad_mat.(j) then None
          else emit_backward j)
    in
    (* emits_bwd: does position j's backward step write into buffered
       argument gradients? (chain heads write the chain input) *)
    let emits_bwd = Array.map (fun c -> c <> None) bwd_cores in
    (* zero-fill scheduling: each gradient buffer is zeroed immediately
       before its first writer — the largest consumer whose backward
       step is emitted — mirroring the interpreter's lazily-zeroed
       gradient materialisation. Buffers no step ever writes (requested
       gradients off the root path) are zeroed at the seed. *)
    let bwd_fills = Array.make n [] in
    let seed_zeros = ref [] in
    for i = 0 to n - 1 do
      if has_gbuf.(i) && i <> cap.root then begin
        let rec first_writer = function
          | [] -> None
          | j :: rest -> if emits_bwd.(j) then Some j else first_writer rest
        in
        match first_writer cons.(i) with
        | Some j -> bwd_fills.(j) <- g i :: bwd_fills.(j)
        | None -> seed_zeros := g i :: !seed_zeros
      end
    done;
    let root_grad = g cap.root in
    let seed_list = !seed_zeros in
    let seed () =
      List.iter (fun t -> Tensor.fill t 0.0) seed_list;
      Tensor.fill root_grad 1.0
    in
    let count_some a = Array.fold_left (fun acc s -> if s = None then acc else acc + 1) 0 a in
    let plan_stats =
      {
        nodes = n;
        steps_forward = count_some fwd_steps;
        steps_backward = count_some bwd_cores;
        arena_bytes = 8 * Array.fold_left ( + ) 0 slot_sizes;
        dedicated_bytes = 8 * !dedicated_floats;
        scratch_bytes = 8 * !scratch_floats;
        chains = Array.length chains;
        fused_nodes = Array.fold_left (fun acc cs -> acc + Array.length cs) 0 chains;
      }
    in
    Ok { n; fwd_steps; bwd_cores; bwd_fills; seed; node_vals; node_grads; plan_stats }
  with Fail msg -> Error msg

let stats t = t.plan_stats

let run_forward t =
  Array.iter (function Some f -> f () | None -> ()) t.fwd_steps

let run_backward t =
  t.seed ();
  for j = t.n - 1 downto 0 do
    match t.bwd_cores.(j) with
    | Some core ->
        List.iter (fun gt -> Tensor.fill gt 0.0) t.bwd_fills.(j);
        core ()
    | None -> ()
  done

let value t i =
  match t.node_vals.(i) with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Plan.value: node %d was fused away" i)

let grad_of t i =
  match t.node_grads.(i) with
  | Some g -> g
  | None ->
      invalid_arg
        (Printf.sprintf
           "Plan.grad_of: node %d has no gradient buffer — request it at compile time" i)
