(* The tape carries a parallel, side-effect-free op-graph IR so static
   analyses (lib/analysis: Shape_check, Grad_flow) can inspect what a
   forward pass built without re-running any tensor kernel. Recording is
   always on: it is one small immutable record per tape node, does not
   touch any tensor, and therefore cannot perturb numerics. *)
module Ir = struct
  type shape = { batch : int; width : int }

  type meta =
    | M_none
    | M_scalar of float
    | M_gather of { count : int; index_min : int; index_max : int }
    | M_segments of {
        seg_count : int;
        seg_width : int;
        empty_segments : int;
        max_len : int;
      }
    | M_columns of (int * float) array
    | M_row of int
    | M_width of int
    | M_matrix of { dim : int; class_min : int; class_max : int; col_max : int }

  type node = {
    op : string;
    args : int array;
    shape : shape;
    context : string;
    meta : meta;
  }

  type t = node array

  let shape_to_string { batch; width } = Printf.sprintf "(%d,%d)" batch width
end

(* Runtime payloads the IR's [meta] summarises but does not carry: the
   exact index arrays, segmentations, coefficient vectors and scatter
   entries an op closed over. The plan replay engine (Plan) needs them
   verbatim to re-execute a captured graph; analyses keep using the
   summarised [meta]. One payload per tape node, [P_none] for ops whose
   behaviour is fully determined by op + meta. *)
type payload =
  | P_none
  | P_indices of int array  (* gather *)
  | P_segments of Segments.t  (* segment_* *)
  | P_coeffs of float array  (* dot_const *)
  | P_entries of { dim : int; entries : (int * int * int) array }  (* matrix_of_entries *)

type v = {
  tp : tape;
  id : int;  (* position on the tape = index into the IR *)
  value : Tensor.t;
  mutable grad : Tensor.t option;
  mutable pull : (unit -> unit) option;
      (* reads this node's adjoint and accumulates into its parents *)
}

and tape = {
  nodes : v Vec.t;
  ir : Ir.node Vec.t;
  pay : payload Vec.t;
  mutable swept : bool;
}

let tape () = { nodes = Vec.create (); ir = Vec.create (); pay = Vec.create (); swept = false }
let node_count tp = Vec.length tp.nodes
let ir tp = Vec.to_array tp.ir
let payloads tp = Vec.to_array tp.pay
let values tp = Array.init (Vec.length tp.nodes) (fun i -> (Vec.get tp.nodes i).value)
let node_id n = n.id
let swept tp = tp.swept

let value n = n.value

(* Ambient provenance chain recorded into every IR node, so diagnostics
   can say where on the tape an op was built. Nested [with_context]
   calls stack; the recorded label joins the chain outermost→innermost
   ("smoothe.forward/cost_model.relaxed"), memoised per push so [node]
   pays one field read. Domain-local: concurrent pool extractions keep
   independent chains. *)
let context_key : (string list * string) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([], "(toplevel)"))

let context_label () = snd !(Domain.DLS.get context_key)

let with_context label f =
  let cell = Domain.DLS.get context_key in
  let saved = !cell in
  let chain = label :: fst saved in
  cell := (chain, String.concat "/" (List.rev chain));
  Fun.protect ~finally:(fun () -> cell := saved) f

let grad_tensor n =
  match n.grad with
  | Some g -> g
  | None ->
      let g = Tensor.create ~batch:n.value.Tensor.batch ~width:n.value.Tensor.width in
      n.grad <- Some g;
      g

let grad n =
  if not n.tp.swept then
    invalid_arg
      "Ad.grad: this node's tape has not been swept — call Ad.backward on a node of the \
       same tape first (a node from a different tape than the one swept reads as zeros \
       otherwise)";
  grad_tensor n

let node ?(meta = Ir.M_none) ?(payload = P_none) ~op ~args tp value pull =
  Array.iter
    (fun a ->
      if a.tp != tp then
        invalid_arg
          (Printf.sprintf
             "Ad.%s: operand node %d was built on a different tape — mixing tapes silently \
              detaches gradients"
             op a.id))
    args;
  let n = { tp; id = Vec.length tp.nodes; value; grad = None; pull } in
  Vec.push tp.nodes n;
  Vec.push tp.ir
    {
      Ir.op;
      args = Array.map (fun a -> a.id) args;
      shape = { Ir.batch = value.Tensor.batch; width = value.Tensor.width };
      context = context_label ();
      meta;
    };
  Vec.push tp.pay payload;
  n

let const tp t = node ~op:"const" ~args:[||] tp t None
let param tp t = node ~op:"param" ~args:[||] tp t None
let owner n = n.tp

let backward out =
  let tp = owner out in
  if tp.swept then
    invalid_arg
      "Ad.backward: tape already swept — tapes are single-use (one \
       forward/backward pair per tape); build a fresh tape for the next pass";
  tp.swept <- true;
  let sweep () =
    (* Seed with ones: differentiates the sum of the output's entries. *)
    Tensor.fill (grad_tensor out) 1.0;
    for i = Vec.length tp.nodes - 1 downto 0 do
      let n = Vec.get tp.nodes i in
      match n.pull, n.grad with
      | Some pull, Some _ -> pull ()
      | Some _, None | None, _ -> ()
    done
  in
  if !Obs.on then begin
    Metrics.observe "ad.tape_nodes" (float_of_int (Vec.length tp.nodes));
    Trace.with_span ~cat:"ad"
      ~attrs:[ ("nodes", string_of_int (Vec.length tp.nodes)) ]
      "ad.backward" sweep
  end
  else sweep ()

let add a b =
  let tp = owner a in
  let out = node ~op:"add" ~args:[| a; b |] tp (Tensor.add a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.add_inplace (grad_tensor a) g;
        Tensor.add_inplace (grad_tensor b) g);
  out

let sub a b =
  let tp = owner a in
  let out = node ~op:"sub" ~args:[| a; b |] tp (Tensor.sub a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.add_inplace (grad_tensor a) g;
        Tensor.axpy (-1.0) g (grad_tensor b));
  out

let mul a b =
  let tp = owner a in
  let out = node ~op:"mul" ~args:[| a; b |] tp (Tensor.mul a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.mul_grad ~into:(grad_tensor a) ~g b.value;
        Tensor.mul_grad ~into:(grad_tensor b) ~g a.value);
  out

let neg a =
  let tp = owner a in
  let out = node ~op:"neg" ~args:[| a |] tp (Tensor.neg a.value) None in
  out.pull <- Some (fun () -> Tensor.axpy (-1.0) (grad_tensor out) (grad_tensor a));
  out

let scale k a =
  let tp = owner a in
  let out =
    node ~op:"scale" ~meta:(Ir.M_scalar k) ~args:[| a |] tp (Tensor.scale k a.value) None
  in
  out.pull <- Some (fun () -> Tensor.axpy k (grad_tensor out) (grad_tensor a));
  out

let add_scalar k a =
  let tp = owner a in
  let out =
    node ~op:"add_scalar" ~meta:(Ir.M_scalar k) ~args:[| a |] tp
      (Tensor.add_scalar k a.value) None
  in
  out.pull <- Some (fun () -> Tensor.add_inplace (grad_tensor a) (grad_tensor out));
  out

let one_minus a = add_scalar 1.0 (neg a)

let log_safe a =
  let tp = owner a in
  let y = Tensor.create ~batch:a.value.Tensor.batch ~width:a.value.Tensor.width in
  Tensor.log_safe_into ~out:y a.value;
  let out = node ~op:"log_safe" ~args:[| a |] tp y None in
  out.pull <-
    Some (fun () -> Tensor.log_safe_grad ~into:(grad_tensor a) ~g:(grad_tensor out) a.value);
  out

let relu a =
  let tp = owner a in
  let out = node ~op:"relu" ~args:[| a |] tp (Tensor.relu a.value) None in
  out.pull <-
    Some (fun () -> Tensor.relu_grad ~into:(grad_tensor a) ~g:(grad_tensor out) a.value);
  out

let gather_meta idx =
  let count = Array.length idx in
  let index_min = Array.fold_left min max_int idx in
  let index_max = Array.fold_left max min_int idx in
  Ir.M_gather { count; index_min = (if count = 0 then 0 else index_min);
                index_max = (if count = 0 then -1 else index_max) }

let gather a idx =
  let tp = owner a in
  let out =
    node ~op:"gather" ~meta:(gather_meta idx) ~payload:(P_indices idx) ~args:[| a |] tp
      (Segments.gather a.value idx) None
  in
  out.pull <- Some (fun () -> Segments.scatter_add ~into:(grad_tensor a) idx (grad_tensor out));
  out

let segments_meta (seg : Segments.t) =
  let empty = Array.fold_left (fun n l -> if l = 0 then n + 1 else n) 0 seg.Segments.lens in
  let max_len = Array.fold_left max 0 seg.Segments.lens in
  Ir.M_segments
    {
      seg_count = Array.length seg.Segments.lens;
      seg_width = seg.Segments.width;
      empty_segments = empty;
      max_len;
    }

let segment_softmax a seg =
  let tp = owner a in
  let y = Segments.softmax a.value seg in
  let out = node ~op:"segment_softmax" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp y None in
  out.pull <-
    Some (fun () -> Segments.softmax_grad ~into:(grad_tensor a) ~g:(grad_tensor out) ~y seg);
  out

let segment_sum a seg =
  let tp = owner a in
  let out =
    node ~op:"segment_sum" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp
      (Segments.sum a.value seg) None
  in
  out.pull <- Some (fun () -> Segments.sum_grad ~into:(grad_tensor a) ~g:(grad_tensor out) seg);
  out

let segment_prod a seg =
  let tp = owner a in
  let out =
    node ~op:"segment_prod" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp
      (Segments.prod a.value seg) None
  in
  out.pull <-
    Some
      (fun () ->
        let scratch = Tensor.create ~batch:a.value.Tensor.batch ~width:a.value.Tensor.width in
        Segments.prod_grad ~into:(grad_tensor a) ~g:(grad_tensor out) ~scratch a.value seg);
  out

let segment_max a seg =
  let tp = owner a in
  let y, argmax = Segments.max a.value seg in
  let out = node ~op:"segment_max" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp y None in
  out.pull <-
    Some (fun () -> Segments.max_grad ~into:(grad_tensor a) ~g:(grad_tensor out) ~arg:argmax);
  out

let override_columns a pins =
  let tp = owner a in
  let pins = Array.of_list pins in
  let y = Tensor.create ~batch:a.value.Tensor.batch ~width:a.value.Tensor.width in
  Tensor.override_columns_into ~out:y pins a.value;
  let out = node ~op:"override_columns" ~meta:(Ir.M_columns pins) ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () -> Tensor.override_columns_grad ~into:(grad_tensor a) ~g:(grad_tensor out) pins);
  out

let mean_rows a =
  let tp = owner a in
  let out = node ~op:"mean_rows" ~args:[| a |] tp (Tensor.mean_rows a.value) None in
  out.pull <- Some (fun () -> Tensor.mean_rows_grad ~into:(grad_tensor a) ~g:(grad_tensor out));
  out

let slice_row a b =
  let tp = owner a in
  let y = Tensor.create ~batch:1 ~width:a.value.Tensor.width in
  Tensor.slice_row_into ~out:y a.value b;
  let out = node ~op:"slice_row" ~meta:(Ir.M_row b) ~args:[| a |] tp y None in
  out.pull <- Some (fun () -> Tensor.slice_row_grad ~into:(grad_tensor a) ~g:(grad_tensor out) b);
  out

let sum_width a =
  let tp = owner a in
  let y = Tensor.create ~batch:a.value.Tensor.batch ~width:1 in
  Tensor.sum_rows_into ~out:y a.value;
  let out = node ~op:"sum_width" ~args:[| a |] tp y None in
  out.pull <- Some (fun () -> Tensor.sum_rows_grad ~into:(grad_tensor a) ~g:(grad_tensor out));
  out

let sum_all a =
  let tp = owner a in
  let y = Tensor.create ~batch:1 ~width:1 in
  Tensor.sum_all_into ~out:y a.value;
  let out = node ~op:"sum_all" ~args:[| a |] tp y None in
  out.pull <- Some (fun () -> Tensor.sum_all_grad ~into:(grad_tensor a) ~g:(grad_tensor out));
  out

let mean_all a =
  let n = float_of_int (Tensor.numel a.value) in
  scale (1.0 /. n) (sum_all a)

let dot_const a u =
  if Array.length u <> a.value.Tensor.width then invalid_arg "Ad.dot_const: width mismatch";
  let tp = owner a in
  let y = Tensor.create ~batch:a.value.Tensor.batch ~width:1 in
  Tensor.dot_const_into ~out:y a.value u;
  let out =
    node ~op:"dot_const" ~meta:(Ir.M_width (Array.length u)) ~payload:(P_coeffs u) ~args:[| a |] tp y None
  in
  out.pull <- Some (fun () -> Tensor.dot_const_grad ~into:(grad_tensor a) ~g:(grad_tensor out) u);
  out

let linear ~input ~weight ~bias =
  let tp = owner input in
  let x = input.value and w = weight.value and b = bias.value in
  if w.Tensor.width <> x.Tensor.width then invalid_arg "Ad.linear: in_features mismatch";
  if b.Tensor.width <> w.Tensor.batch then invalid_arg "Ad.linear: bias width mismatch";
  let y = Tensor.matmul_nt x w in
  Tensor.add_bias_rows ~out:y b;
  let out = node ~op:"linear" ~args:[| input; weight; bias |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        (* dX = G · W        : (B,H)x(H,N) -> (B,N) *)
        Tensor.add_inplace (grad_tensor input) (Tensor.matmul g w);
        (* dW = Gᵀ · X       : (H,B)x(B,N) -> (H,N) *)
        Tensor.add_inplace (grad_tensor weight) (Tensor.matmul (Tensor.transpose g) x);
        (* db = column sums of G *)
        Tensor.linear_bias_grad ~into:(grad_tensor bias) ~g);
  out

let mse ~pred ~target =
  let diff = sub pred target in
  mean_all (mul diff diff)

let matrix_of_entries cp ~dim entries =
  let tp = owner cp in
  if cp.value.Tensor.batch <> 1 then invalid_arg "Ad.matrix_of_entries: expected a (1,N) input";
  let a = Tensor.create ~batch:dim ~width:dim in
  Tensor.matrix_of_entries_into ~out:a ~dim entries cp.value;
  let class_min =
    Array.fold_left (fun m (_, i, j) -> min m (min i j)) (if Array.length entries = 0 then 0 else max_int) entries
  in
  let class_max = Array.fold_left (fun m (_, i, j) -> max m (max i j)) (-1) entries in
  let col_max = Array.fold_left (fun m (c, _, _) -> max m c) (-1) entries in
  let out =
    node ~op:"matrix_of_entries"
      ~meta:(Ir.M_matrix { dim; class_min; class_max; col_max })
      ~payload:(P_entries { dim; entries })
      ~args:[| cp |] tp a None
  in
  out.pull <-
    Some
      (fun () ->
        Tensor.matrix_of_entries_grad ~into:(grad_tensor cp) ~g:(grad_tensor out) ~dim entries);
  out

let expm_trace a =
  let tp = owner a in
  let e = Tensor.Matfun.expm a.value in
  let y = Tensor.of_array ~batch:1 ~width:1 [| Tensor.Matfun.trace e |] in
  let out = node ~op:"expm_trace" ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = Tensor.get (grad_tensor out) 0 0 in
        Tensor.axpy g (Tensor.transpose e) (grad_tensor a));
  out

let finite_difference ~f ~x ~eps =
  let g = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  let xd = Tensor.unsafe_data x and gd = Tensor.unsafe_data g in
  for i = 0 to Tensor.numel x - 1 do
    let saved = xd.(i) in
    xd.(i) <- saved +. eps;
    let up = f x in
    xd.(i) <- saved -. eps;
    let down = f x in
    xd.(i) <- saved;
    gd.(i) <- (up -. down) /. (2.0 *. eps)
  done;
  g
