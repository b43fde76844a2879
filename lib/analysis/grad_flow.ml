module D = Diagnostic
module Ir = Ad.Ir

(* ---------- interval domain ---------- *)

type itv = { lo : float; hi : float }

let top = { lo = Float.neg_infinity; hi = Float.infinity }

(* nan-safe constructor: any nan bound (0 * inf etc.) widens to top *)
let mk lo hi = if Float.is_nan lo || Float.is_nan hi then top else { lo; hi }

(* interval-safe product of two bounds: 0 absorbs even against inf *)
let bmul a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let imul a b =
  let p1 = bmul a.lo b.lo and p2 = bmul a.lo b.hi in
  let p3 = bmul a.hi b.lo and p4 = bmul a.hi b.hi in
  mk (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))

let iadd a b = mk (a.lo +. b.lo) (a.hi +. b.hi)
let ineg a = { lo = -.a.hi; hi = -.a.lo }
let isub a b = iadd a (ineg b)
let ihull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let iscale k a = imul { lo = k; hi = k } a
let ishift k a = mk (a.lo +. k) (a.hi +. k)

let itv_to_string a = Printf.sprintf "[%g, %g]" a.lo a.hi

(* ---------- the lint ---------- *)

let check ?root (ir : Ir.t) =
  let n = Array.length ir in
  if n = 0 then []
  else begin
    let root = match root with Some r -> r | None -> n - 1 in
    if root < 0 || root >= n then
      invalid_arg (Printf.sprintf "Grad_flow.check: root %d outside IR of %d nodes" root n);
    let ds = ref [] in
    let add d = ds := d :: !ds in
    (* forward: which nodes have a parameter somewhere upstream *)
    let has_param = Array.make n false in
    for i = 0 to n - 1 do
      has_param.(i) <-
        ir.(i).Ir.op = Op.Param
        || Array.exists (fun a -> a >= 0 && a < i && has_param.(a)) ir.(i).Ir.args
    done;
    (* backward: which nodes the loss depends on *)
    let feeds_root = Array.make n false in
    feeds_root.(root) <- true;
    for i = n - 1 downto 0 do
      if feeds_root.(i) then
        Array.iter (fun a -> if a >= 0 && a < i then feeds_root.(a) <- true) ir.(i).Ir.args
    done;
    (* GF001 / GF002: parameter-to-loss connectivity *)
    let params = ref [] in
    Array.iteri (fun i nd -> if nd.Ir.op = Op.Param then params := i :: !params) ir;
    let params = List.rev !params in
    let connected = List.filter (fun p -> feeds_root.(p)) params in
    List.iter
      (fun p ->
        if not (feeds_root.(p)) then
          add
            (D.error ~code:"GF001" (D.Tape_node p)
               "parameter at node %d (built in %s) has no path to the loss at node %d: its \
                gradient will stay zero and training is a silent no-op for it (detached θ)"
               p ir.(p).Ir.context root))
      params;
    if connected = [] then
      add
        (D.warning ~code:"GF002" (D.Tape_node root)
           "the loss at node %d depends on no parameter: every gradient of this tape is zero"
           root);
    (* GF003: const-blocked region feeding the loss *)
    let blocked = ref 0 in
    for i = 0 to n - 1 do
      if (not (Op.is_leaf ir.(i).Ir.op)) && feeds_root.(i) && not has_param.(i) then incr blocked
    done;
    if !blocked > 0 then
      add
        (D.info ~code:"GF003" D.Graph
           "%d op node%s feed%s the loss through constants only (no parameter upstream); \
            expected for cost vectors and propagation seeds, suspicious elsewhere"
           !blocked
           (if !blocked = 1 then "" else "s")
           (if !blocked = 1 then "s" else ""));
    (* interval pass: GF004 domain boundaries, GF005 empty segments *)
    let itv = Array.make n top in
    for i = 0 to n - 1 do
      let nd = ir.(i) in
      let name = Op.name nd.Ir.op in
      let arg k =
        let a = nd.Ir.args.(k) in
        if a >= 0 && a < i then itv.(a) else top
      in
      let empty_segments seg =
        let empty = Array.fold_left (fun c l -> if l = 0 then c + 1 else c) 0 seg.Segments.lens in
        if empty > 0 then
          let count = Segments.count seg in
          match nd.Ir.op with
          | Op.Segment_softmax _ ->
              add
                (D.warning ~code:"GF005" (D.Tape_node i)
                   "`segment_softmax` at node %d (built in %s): %d of %d segments are empty — \
                    an e-class with no candidate e-nodes has no probability distribution"
                   i nd.Ir.context empty count)
          | _ ->
              add
                (D.info ~code:"GF005" (D.Tape_node i)
                   "`%s` at node %d (built in %s): %d of %d segments are empty (reduces to the \
                    neutral element; expected for the root's parent list)"
                   name i nd.Ir.context empty count)
      in
      let out =
        if Array.length nd.Ir.args <> Op.arity nd.Ir.op then top
        else
          match nd.Ir.op with
          | Op.Const | Op.Param -> top
          | Op.Add -> iadd (arg 0) (arg 1)
          | Op.Sub -> isub (arg 0) (arg 1)
          | Op.Mul -> imul (arg 0) (arg 1)
          | Op.One_minus -> ishift 1.0 (ineg (arg 0))
          | Op.Scale k -> iscale k (arg 0)
          | Op.Add_scalar k -> ishift k (arg 0)
          | Op.Relu ->
              let a = arg 0 in
              { lo = Float.max 0.0 a.lo; hi = Float.max 0.0 a.hi }
          | Op.Log_safe ->
              let a = arg 0 in
              if a.lo <= 0.0 then
                add
                  (D.warning ~code:"GF004" (D.Tape_node i)
                     "`%s` at node %d (built in %s): operand interval %s admits values ≤ 0 — \
                      the value is clamped at the floor but the gradient can reach 1/%g there"
                     name i nd.Ir.context (itv_to_string a) Tensor.log_floor);
              mk
                (Stdlib.log (Float.max a.lo Tensor.log_floor))
                (Stdlib.log (Float.max a.hi Tensor.log_floor))
          | Op.Segment_softmax seg ->
              empty_segments seg;
              (* outputs are mathematically in (0,1]: strictly positive *)
              { lo = Float.min_float; hi = 1.0 }
          | Op.Segment_prod seg ->
              empty_segments seg;
              let a = arg 0 in
              if a.lo >= 0.0 && a.hi <= 1.0 then { lo = 0.0; hi = 1.0 }
              else if a.lo >= 0.0 then { lo = 0.0; hi = Float.infinity }
              else top
          | Op.Segment_max seg ->
              empty_segments seg;
              let a = arg 0 in
              (* empty segments contribute 0 *)
              { lo = min a.lo 0.0; hi = max a.hi 0.0 }
          | Op.Gather _ | Op.Mean_rows | Op.Slice_row _ -> arg 0
          | Op.Override_columns pins ->
              Array.fold_left (fun acc (_, v) -> ihull acc { lo = v; hi = v }) (arg 0) pins
          | Op.Sum_all ->
              let a = arg 0 and s = ir.(nd.Ir.args.(0)).Ir.shape in
              let l = float_of_int (s.Op.batch * s.Op.width) in
              mk (min 0.0 (bmul l a.lo)) (max 0.0 (bmul l a.hi))
          | Op.Dot_const _ | Op.Linear | Op.Matrix_of_entries _ | Op.Expm_trace -> top
      in
      itv.(i) <- out
    done;
    D.sort !ds
  end
