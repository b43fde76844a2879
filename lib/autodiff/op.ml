type shape = { batch : int; width : int }

let shape_to_string { batch; width } = Printf.sprintf "(%d,%d)" batch width

type t =
  | Const
  | Param
  | Add
  | Sub
  | Mul
  | Scale of float
  | Add_scalar of float
  | Relu
  | Log_safe
  | Gather of int array
  | Segment_softmax of Segments.t
  | Mean_rows
  | Slice_row of int
  | Sum_all
  | Dot_const of float array
  | Linear
  | Matrix_of_entries of { dim : int; entries : (int * int * int) array }
  | Expm_trace
  | Propagate of Propagation.schedule

let name = function
  | Const -> "const"
  | Param -> "param"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Scale _ -> "scale"
  | Add_scalar _ -> "add_scalar"
  | Relu -> "relu"
  | Log_safe -> "log_safe"
  | Gather _ -> "gather"
  | Segment_softmax _ -> "segment_softmax"
  | Mean_rows -> "mean_rows"
  | Slice_row _ -> "slice_row"
  | Sum_all -> "sum_all"
  | Dot_const _ -> "dot_const"
  | Linear -> "linear"
  | Matrix_of_entries _ -> "matrix_of_entries"
  | Expm_trace -> "expm_trace"
  | Propagate _ -> "propagate"

let arity = function
  | Const | Param -> 0
  | Add | Sub | Mul -> 2
  | Linear -> 3
  | Scale _ | Add_scalar _ | Relu | Log_safe | Gather _ | Segment_softmax _ | Mean_rows
  | Slice_row _ | Sum_all | Dot_const _ | Matrix_of_entries _ | Expm_trace | Propagate _ ->
      1

let is_leaf = function Const | Param -> true | _ -> false

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  match a, b with
  | Scale x, Scale y | Add_scalar x, Add_scalar y -> bits_equal x y
  | Gather x, Gather y -> x == y || x = y
  | Segment_softmax x, Segment_softmax y ->
      x == y || (x.Segments.starts = y.Segments.starts && x.Segments.lens = y.Segments.lens)
  | Dot_const x, Dot_const y ->
      x == y || (Array.length x = Array.length y && Array.for_all2 bits_equal x y)
  | Matrix_of_entries x, Matrix_of_entries y ->
      x.dim = y.dim && (x.entries == y.entries || x.entries = y.entries)
  | Propagate x, Propagate y -> x == y || x = y
  | _ -> a = b  (* constant constructors, [Slice_row], or two different ops *)

(* ---- Shape rules ---------------------------------------------------- *)

(* (min, max) of [f] over [xs]; (max_int, min_int) when empty *)
let bounds (f : 'a -> int) xs =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to Array.length xs - 1 do
    let v = f (Array.unsafe_get xs i) in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  (!lo, !hi)

let shape op (xs : shape array) =
  let errs = ref [] in
  let err code fmt = Printf.ksprintf (fun m -> errs := (code, m) :: !errs) fmt in
  let str = shape_to_string in
  let out =
    match op with
    | Const | Param -> None
    | Add | Sub | Mul ->
        if xs.(0) <> xs.(1) then err "SC001" "%s vs %s" (str xs.(0)) (str xs.(1));
        Some xs.(0)
    | Scale _ | Add_scalar _ | Relu | Log_safe -> Some xs.(0)
    | Gather idx ->
        let lo, hi = bounds Fun.id idx in
        if Array.length idx > 0 && (lo < 0 || hi >= xs.(0).width) then
          err "SC002" "index range [%d,%d] outside operand width %d" lo hi xs.(0).width;
        Some { xs.(0) with width = Array.length idx }
    | Segment_softmax seg ->
        if seg.Segments.width <> xs.(0).width then
          err "SC003" "segmentation covers %d elements but the operand is %s" seg.Segments.width
            (str xs.(0));
        Some xs.(0)
    | Mean_rows -> Some { xs.(0) with batch = 1 }
    | Slice_row r ->
        if r < 0 || r >= xs.(0).batch then err "SC010" "row %d outside batch %d" r xs.(0).batch;
        Some { xs.(0) with batch = 1 }
    | Sum_all -> Some { batch = 1; width = 1 }
    | Dot_const u ->
        if Array.length u <> xs.(0).width then
          err "SC004" "%d coefficients against operand %s" (Array.length u) (str xs.(0));
        Some { xs.(0) with width = 1 }
    | Linear ->
        let x = xs.(0) and w = xs.(1) and b = xs.(2) in
        if w.width <> x.width then
          err "SC004" "weight expects %d input features, input is %s" w.width (str x);
        if b.width <> w.batch then err "SC004" "bias %s against %d output neurons" (str b) w.batch;
        Some { batch = x.batch; width = w.batch }
    | Matrix_of_entries { dim; entries } ->
        let a = xs.(0) in
        let col_lo, col_hi = bounds (fun (c, _, _) -> c) entries in
        let cls_lo, _ = bounds (fun (_, i, j) -> min i j) entries in
        let _, cls_hi = bounds (fun (_, i, j) -> max i j) entries in
        if a.batch <> 1 then err "SC006" "expected a (1,N) operand, got %s" (str a);
        if Array.length entries > 0 then begin
          if col_lo < 0 || col_hi >= a.width then
            err "SC006" "source column %d outside operand width %d" col_hi a.width;
          if cls_lo < 0 || cls_hi >= dim then
            err "SC006" "entry target (%d..%d) outside %dx%d matrix" cls_lo cls_hi dim dim
        end;
        Some { batch = dim; width = dim }
    | Expm_trace ->
        if xs.(0).batch <> xs.(0).width then err "SC005" "matrix %s is not square" (str xs.(0));
        Some { batch = 1; width = 1 }
    | Propagate s ->
        if Propagation.width s <> xs.(0).width then
          err "SC003" "propagation covers %d e-nodes but the operand is %s" (Propagation.width s)
            (str xs.(0));
        Some xs.(0)
  in
  match !errs with [] -> Ok out | es -> Error (List.rev es)

(* ---- Dataflow facts -------------------------------------------------- *)

let reads_arg op k =
  match op with
  | Mul -> true
  | Relu | Log_safe | Propagate _ -> k = 0
  | Linear -> k < 2
  | _ -> false

let reads_out = function Segment_softmax _ | Propagate _ -> true | _ -> false

(* ---- Kernels ---------------------------------------------------------- *)

type state = Stateless | Exponential of Tensor.t | Swept of Propagation.state

type scratch =
  | No_scratch
  | Bufs of Tensor.t array
  | Workspace of Tensor.Matfun.ws
  | Sweep of Propagation.scratch

let state op xs =
  match op with
  | Expm_trace ->
      let d = xs.(0).Tensor.width in
      Exponential (Tensor.create ~batch:d ~width:d)
  | Propagate s -> Swept (Propagation.state s ~batch:xs.(0).Tensor.batch)
  | _ -> Stateless

let forward_scratch op xs =
  match op with Expm_trace -> Workspace (Tensor.Matfun.workspace xs.(0).Tensor.width) | _ -> No_scratch

let backward_scratch op xs ~k =
  let buf batch width = Tensor.create ~batch ~width in
  match op, k with
  | Linear, (0 | 1) ->
      let x = xs.(0) and w = xs.(1) in
      let b = x.Tensor.batch and nf = x.Tensor.width and h = w.Tensor.batch in
      (* dX = G · W via Wᵀ; dW = Gᵀ · X via Gᵀ and Xᵀ *)
      Bufs (if k = 0 then [| buf nf h; buf b nf |] else [| buf h b; buf nf b; buf h nf |])
  | Expm_trace, _ ->
      let d = xs.(0).Tensor.width in
      Bufs [| buf d d |]
  | Propagate s, _ -> Sweep (Propagation.scratch s ~batch:xs.(0).Tensor.batch)
  | _ -> No_scratch

let exponential = function Exponential e -> e | _ -> invalid_arg "Op: expm_trace without e^A"
let bufs = function Bufs b -> b | _ -> invalid_arg "Op: backward scratch missing"
let workspace = function Workspace ws -> ws | _ -> invalid_arg "Op: expm workspace missing"
let swept = function Swept st -> st | _ -> invalid_arg "Op: propagate without its state"
let sweep = function Sweep sc -> sc | _ -> invalid_arg "Op: propagate scratch missing"

let forward op st sc ~out xs =
  match op with
  | Const | Param -> ()
  | Add -> Tensor.add_into ~out xs.(0) xs.(1)
  | Sub -> Tensor.sub_into ~out xs.(0) xs.(1)
  | Mul -> Tensor.mul_into ~out xs.(0) xs.(1)
  | Scale k -> Tensor.scale_into ~out k xs.(0)
  | Add_scalar k -> Tensor.add_scalar_into ~out k xs.(0)
  | Relu -> Tensor.relu_into ~out xs.(0)
  | Log_safe -> Tensor.log_safe_into ~out xs.(0)
  | Gather idx -> Segments.gather_into ~out xs.(0) idx
  | Segment_softmax seg -> Segments.softmax_into ~out xs.(0) seg
  | Mean_rows -> Tensor.mean_rows_into ~out xs.(0)
  | Slice_row r -> Tensor.slice_row_into ~out xs.(0) r
  | Sum_all -> Tensor.sum_all_into ~out xs.(0)
  | Dot_const u -> Tensor.dot_const_into ~out xs.(0) u
  | Linear ->
      Tensor.matmul_nt_into ~out xs.(0) xs.(1);
      Tensor.add_bias_rows ~out xs.(2)
  | Matrix_of_entries { dim; entries } -> Tensor.matrix_of_entries_into ~out ~dim entries xs.(0)
  | Expm_trace ->
      let e = exponential st in
      Tensor.copy_into ~out:e (Tensor.Matfun.expm_into (workspace sc) xs.(0));
      (Tensor.unsafe_data out).(0) <- Tensor.Matfun.trace e
  | Propagate s -> Propagation.forward s (swept st) ~out xs.(0)

let backward op st sc ~y ~g xs ~k ~into =
  match op with
  | Const | Param -> ()
  | Add | Add_scalar _ -> Tensor.add_inplace into g
  | Sub -> if k = 0 then Tensor.add_inplace into g else Tensor.axpy (-1.0) g into
  | Mul -> Tensor.mul_grad ~into ~g xs.(1 - k)
  | Scale c -> Tensor.axpy c g into
  | Relu -> Tensor.relu_grad ~into ~g xs.(0)
  | Log_safe -> Tensor.log_safe_grad ~into ~g xs.(0)
  | Gather idx -> Segments.scatter_add ~into idx g
  | Segment_softmax seg -> Segments.softmax_grad ~into ~g ~y seg
  | Mean_rows -> Tensor.mean_rows_grad ~into ~g
  | Slice_row r -> Tensor.slice_row_grad ~into ~g r
  | Sum_all -> Tensor.sum_all_grad ~into ~g
  | Dot_const u -> Tensor.dot_const_grad ~into ~g u
  | Linear -> (
      match k with
      | 0 ->
          let b = bufs sc in
          Tensor.transpose_into ~out:b.(0) xs.(1);
          Tensor.matmul_nt_into ~out:b.(1) g b.(0);
          Tensor.add_inplace into b.(1)
      | 1 ->
          let b = bufs sc in
          Tensor.transpose_into ~out:b.(0) g;
          Tensor.transpose_into ~out:b.(1) xs.(0);
          Tensor.matmul_nt_into ~out:b.(2) b.(0) b.(1);
          Tensor.add_inplace into b.(2)
      | _ -> Tensor.linear_bias_grad ~into ~g)
  | Matrix_of_entries { dim; entries } -> Tensor.matrix_of_entries_grad ~into ~g ~dim entries
  | Expm_trace ->
      let et = (bufs sc).(0) in
      Tensor.transpose_into ~out:et (exponential st);
      Tensor.axpy (Tensor.unsafe_data g).(0) et into
  | Propagate s -> Propagation.backward s (swept st) (sweep sc) ~cp:xs.(0) ~p:y ~g ~into
