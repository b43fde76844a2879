type t = { data : float array; batch : int; width : int }

module Backend = struct
  type mode = Vectorized | Scalar

  (* Domain-local: [Device.run] installs the mode around a whole
     extraction, and under the pool that extraction lives on one
     domain — per-domain state lets concurrent pool tasks run
     different backends (the phases sweep pits scalar against
     vectorised cases). Kernels read the mode once at entry, on the
     task's own domain, so the chunk bodies a Vectorized kernel fans
     out never re-read it. Fresh domains start Vectorized. *)
  let mode_key : mode ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Vectorized)

  let set m = Domain.DLS.get mode_key := m
  let current () = !(Domain.DLS.get mode_key)

  let with_mode m f =
    let cell = Domain.DLS.get mode_key in
    let saved = !cell in
    cell := m;
    Fun.protect ~finally:(fun () -> cell := saved) f

  (* The Scalar execution model: every element access goes through an
     indirect call (a mutable function cell the compiler cannot inline,
     like an interpreter's dispatch) and boxes its result. This is the
     honest stand-in for the paper's unvectorised CPU baseline; the
     Vectorized mode reads flat arrays in fused loops. *)
  let scalar_read_cell : (float array -> int -> float) ref =
    ref (fun a i ->
        let r = ref (Array.get a i) in
        Sys.opaque_identity !r)

  let scalar_read a i = (Sys.opaque_identity !scalar_read_cell) a i
end

(* Allocation accounting (8 bytes per float element). One branch when
   the observability sink is off; a counter bump when it is on. *)
let count_alloc n = if !Obs.on then Metrics.incr ~by:(float_of_int (8 * n)) "tensor.bytes_allocated"

let create ~batch ~width =
  count_alloc (batch * width);
  { data = Array.make (batch * width) 0.0; batch; width }

let full ~batch ~width x =
  count_alloc (batch * width);
  { data = Array.make (batch * width) x; batch; width }

let of_array ~batch ~width data =
  if Array.length data <> batch * width then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape (%d, %d)" (Array.length data) batch
         width);
  count_alloc (batch * width);
  { data; batch; width }

let of_row src =
  count_alloc (Array.length src);
  { data = Array.copy src; batch = 1; width = Array.length src }

let copy t =
  count_alloc (Array.length t.data);
  { t with data = Array.copy t.data }

let identity d =
  let t = create ~batch:d ~width:d in
  for i = 0 to d - 1 do
    t.data.((i * d) + i) <- 1.0
  done;
  t

let init ~batch ~width f =
  count_alloc (batch * width);
  let data = Array.make (batch * width) 0.0 in
  for b = 0 to batch - 1 do
    for i = 0 to width - 1 do
      data.((b * width) + i) <- f b i
    done
  done;
  { data; batch; width }

let get t b i = t.data.((b * t.width) + i)
let set t b i x = t.data.((b * t.width) + i) <- x
let numel t = t.batch * t.width
let row t b = Array.sub t.data (b * t.width) t.width
let blit_row ~src t b = Array.blit src 0 t.data (b * t.width) t.width
let fill t x = Array.fill t.data 0 (Array.length t.data) x
let unsafe_data t = t.data

let check_same_shape name a b =
  if a.batch <> b.batch || a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.%s: shape mismatch (%d,%d) vs (%d,%d)" name a.batch a.width b.batch
         b.width)

(* ---- Elementwise kernels -------------------------------------------

   Every kernel is one function holding two loops, picked by one
   [Backend.current ()] read at entry. The Vectorized loop is
   monomorphic: it reads and writes the flat arrays directly under
   [Parallel.chunks], with no closure call per element, so no float is
   boxed; elementwise bodies write disjoint indices, so any chunk
   schedule is bit-identical to the sequential loop. The Scalar loop
   ([scalar_map] and friends) goes element by element, sequentially,
   reading through [Backend.scalar_read] and applying the op through an
   opaque closure call — the paper's unvectorised CPU baseline,
   computing identical bits.

   The [_into] form writes a caller-owned output (which may alias an
   input) and never allocates; the allocating form is [create] plus
   the [_into] form, so the tape interpreter (lib/autodiff/ad) and
   the plan replay engine (lib/autodiff/plan) run one definition of
   every op. *)

let scalar_map ~out a f =
  let f = Sys.opaque_identity f in
  for i = 0 to numel a - 1 do
    Array.set out.data i (f (Backend.scalar_read a.data i))
  done

let scalar_map2 ~out a b f =
  let f = Sys.opaque_identity f in
  for i = 0 to numel a - 1 do
    let x = Backend.scalar_read a.data i and y = Backend.scalar_read b.data i in
    Array.set out.data i (f x y)
  done

(* [into_i <- f into_i g_i x_i], the Scalar loop of the adjoints *)
let scalar_acc ~into g x f =
  let f = Sys.opaque_identity f in
  for i = 0 to numel g - 1 do
    let acc = Backend.scalar_read into.data i in
    let gv = Backend.scalar_read g.data i and xv = Backend.scalar_read x.data i in
    Array.set into.data i (f acc gv xv)
  done

let check_into name ~out a b =
  check_same_shape name a b;
  check_same_shape name out a

let add_into ~out a b =
  check_into "add_into" ~out a b;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and db = b.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (Array.unsafe_get da i +. Array.unsafe_get db i)
          done)
  | Backend.Scalar -> scalar_map2 ~out a b ( +. )

let sub_into ~out a b =
  check_into "sub_into" ~out a b;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and db = b.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (Array.unsafe_get da i -. Array.unsafe_get db i)
          done)
  | Backend.Scalar -> scalar_map2 ~out a b ( -. )

let mul_into ~out a b =
  check_into "mul_into" ~out a b;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and db = b.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (Array.unsafe_get da i *. Array.unsafe_get db i)
          done)
  | Backend.Scalar -> scalar_map2 ~out a b ( *. )

(* [1 + (-x)], not [1 - x]: the two differ in the sign of a NaN *)
let one_minus_into ~out a =
  check_same_shape "one_minus_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (1.0 +. (-.Array.unsafe_get da i))
          done)
  | Backend.Scalar -> scalar_map ~out a (fun x -> 1.0 +. (-.x))

let scale_into ~out k a =
  check_same_shape "scale_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (k *. Array.unsafe_get da i)
          done)
  | Backend.Scalar -> scalar_map ~out a (fun x -> k *. x)

let add_scalar_into ~out k a =
  check_same_shape "add_scalar_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (k +. Array.unsafe_get da i)
          done)
  | Backend.Scalar -> scalar_map ~out a (fun x -> k +. x)

let relu_into ~out a =
  check_same_shape "relu_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            let x = Array.unsafe_get da i in
            Array.unsafe_set dd i (if x > 0.0 then x else 0.0)
          done)
  | Backend.Scalar -> scalar_map ~out a (fun x -> if x > 0.0 then x else 0.0)

let exp_into ~out a =
  check_same_shape "exp_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (Stdlib.exp (Array.unsafe_get da i))
          done)
  | Backend.Scalar -> scalar_map ~out a Stdlib.exp

let log_floor = 1e-12

let log_safe_into ~out a =
  check_same_shape "log_safe_into" out a;
  match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (Stdlib.log (Float.max (Array.unsafe_get da i) log_floor))
          done)
  | Backend.Scalar -> scalar_map ~out a (fun x -> Stdlib.log (Float.max x log_floor))

let copy_into ~out src =
  check_same_shape "copy_into" out src;
  Array.blit src.data 0 out.data 0 (numel src)

let override_columns_into ~out pins a =
  copy_into ~out a;
  for k = 0 to Array.length pins - 1 do
    let col, c = pins.(k) in
    if col < 0 || col >= a.width then
      invalid_arg (Printf.sprintf "Tensor.override_columns_into: column %d of %d" col a.width);
    for b = 0 to a.batch - 1 do
      out.data.((b * a.width) + col) <- c
    done
  done

let fresh a f =
  let out = create ~batch:a.batch ~width:a.width in
  f out;
  out

let add a b = fresh a (fun out -> add_into ~out a b)
let sub a b = fresh a (fun out -> sub_into ~out a b)
let mul a b = fresh a (fun out -> mul_into ~out a b)
let scale k a = fresh a (fun out -> scale_into ~out k a)
let add_scalar k a = fresh a (fun out -> add_scalar_into ~out k a)
let relu a = fresh a (fun out -> relu_into ~out a)
let exp a = fresh a (fun out -> exp_into ~out a)

(* ---- In-place and gradient kernels ---------------------------------

   Accumulating kernels: each adds into its first tensor. The [_grad]
   kernels are the fused adjoints of the ops above — the one
   definition both Ad's pulls and Plan's backward steps call. Each
   keeps the rounding steps of the tensor-at-a-time composite it stands
   for (the mask multiply in [relu_grad], the reciprocal in
   [log_safe_grad]), so the bits match it exactly. *)

let add_inplace dst src =
  check_same_shape "add_inplace" dst src;
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks (numel dst) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dst.data i
              (Array.unsafe_get dst.data i +. Array.unsafe_get src.data i)
          done)
  | Backend.Scalar -> scalar_map2 ~out:dst dst src ( +. )

let axpy a x y =
  check_same_shape "axpy" x y;
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks (numel x) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set y.data i
              ((a *. Array.unsafe_get x.data i) +. Array.unsafe_get y.data i)
          done)
  | Backend.Scalar -> scalar_map2 ~out:y x y (fun xv yv -> (a *. xv) +. yv)

let scale_inplace k t =
  Parallel.chunks (numel t) (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set t.data i (k *. Array.unsafe_get t.data i)
      done)

let mul_grad ~into ~g y =
  check_into "mul_grad" ~out:into g y;
  match Backend.current () with
  | Backend.Vectorized ->
      let dd = into.data and gd = g.data and yd = y.data in
      Parallel.chunks (numel g) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i
              (Array.unsafe_get dd i +. (Array.unsafe_get gd i *. Array.unsafe_get yd i))
          done)
  | Backend.Scalar -> scalar_acc ~into g y (fun acc gv yv -> acc +. (gv *. yv))

let log_safe_grad ~into ~g x =
  check_into "log_safe_grad" ~out:into g x;
  match Backend.current () with
  | Backend.Vectorized ->
      let dd = into.data and gd = g.data and xd = x.data in
      Parallel.chunks (numel g) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i
              (Array.unsafe_get dd i
              +. (Array.unsafe_get gd i *. (1.0 /. Float.max (Array.unsafe_get xd i) log_floor)))
          done)
  | Backend.Scalar ->
      scalar_acc ~into g x (fun acc gv xv -> acc +. (gv *. (1.0 /. Float.max xv log_floor)))

let relu_grad ~into ~g x =
  check_into "relu_grad" ~out:into g x;
  match Backend.current () with
  | Backend.Vectorized ->
      let dd = into.data and gd = g.data and xd = x.data in
      Parallel.chunks (numel g) (fun lo hi ->
          for i = lo to hi - 1 do
            let m = if Array.unsafe_get xd i > 0.0 then 1.0 else 0.0 in
            Array.unsafe_set dd i (Array.unsafe_get dd i +. (Array.unsafe_get gd i *. m))
          done)
  | Backend.Scalar ->
      scalar_acc ~into g x (fun acc gv xv -> acc +. (gv *. if xv > 0.0 then 1.0 else 0.0))

(* Pinned columns gain a literal [+. 0.0] rather than being skipped:
   it turns a -0 into +0 exactly as adding a copy of [g] with those
   columns zeroed does. Pins are few (the root e-class), so each
   element scans them. *)
let override_columns_grad ~into ~g pins =
  check_same_shape "override_columns_grad" into g;
  let w = g.width and npins = Array.length pins in
  let pinned p =
    let hit = ref false in
    for k = 0 to npins - 1 do
      if fst (Array.unsafe_get pins k) = p then hit := true
    done;
    !hit
  in
  match Backend.current () with
  | Backend.Vectorized ->
      let dd = into.data and gd = g.data in
      Parallel.chunks ~grain:(Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 w))
        ~cost:(Stdlib.max 1 w) g.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for p = 0 to w - 1 do
              let gv = if pinned p then 0.0 else Array.unsafe_get gd (base + p) in
              Array.unsafe_set dd (base + p) (Array.unsafe_get dd (base + p) +. gv)
            done
          done)
  | Backend.Scalar ->
      for i = 0 to numel g - 1 do
        let acc = Backend.scalar_read into.data i in
        let gv = if pinned (i mod w) then 0.0 else Backend.scalar_read g.data i in
        Array.set into.data i (acc +. gv)
      done

(* ---- Row, reduction and assembly ops ------------------------------

   The remaining tape ops' forward kernels and fused adjoints, shared
   by Ad and Plan like the kernels above. They have no Scalar branch:
   they are cheap next to the relaxation's elementwise and segment
   work, which is what the Fig. 6 ablation times. *)

let check_shape name t ~batch ~width =
  if t.batch <> batch || t.width <> width then
    invalid_arg
      (Printf.sprintf "Tensor.%s: (%d,%d), expected (%d,%d)" name t.batch t.width batch width)

let sum t =
  let acc = ref 0.0 in
  for i = 0 to numel t - 1 do
    acc := !acc +. Array.unsafe_get t.data i
  done;
  !acc

let sum_all_into ~out t =
  check_shape "sum_all_into" out ~batch:1 ~width:1;
  out.data.(0) <- sum t

let sum_all_grad ~into ~g =
  check_shape "sum_all_grad" g ~batch:1 ~width:1;
  let gv = g.data.(0) in
  for i = 0 to numel into - 1 do
    Array.unsafe_set into.data i (Array.unsafe_get into.data i +. gv)
  done

let dot_const_into ~out t u =
  if Array.length u <> t.width then invalid_arg "Tensor.dot_const_into: width mismatch";
  check_shape "dot_const_into" out ~batch:t.batch ~width:1;
  let w = t.width in
  for b = 0 to t.batch - 1 do
    let acc = ref 0.0 in
    let base = b * w in
    for i = 0 to w - 1 do
      acc := !acc +. (Array.unsafe_get t.data (base + i) *. Array.unsafe_get u i)
    done;
    out.data.(b) <- !acc
  done

let dot_const_grad ~into ~g u =
  if Array.length u <> into.width then invalid_arg "Tensor.dot_const_grad: width mismatch";
  check_shape "dot_const_grad" g ~batch:into.batch ~width:1;
  let w = into.width in
  for b = 0 to into.batch - 1 do
    let gv = g.data.(b) and base = b * w in
    for i = 0 to w - 1 do
      Array.unsafe_set into.data (base + i)
        (Array.unsafe_get into.data (base + i) +. (gv *. Array.unsafe_get u i))
    done
  done

let mean_rows_into ~out t =
  check_shape "mean_rows_into" out ~batch:1 ~width:t.width;
  let w = t.width in
  let inv = 1.0 /. float_of_int (max 1 t.batch) in
  Array.fill out.data 0 w 0.0;
  for b = 0 to t.batch - 1 do
    let base = b * w in
    for i = 0 to w - 1 do
      out.data.(i) <- out.data.(i) +. t.data.(base + i)
    done
  done;
  for i = 0 to w - 1 do
    out.data.(i) <- out.data.(i) *. inv
  done

let mean_rows t =
  let out = create ~batch:1 ~width:t.width in
  mean_rows_into ~out t;
  out

let mean_rows_grad ~into ~g =
  check_shape "mean_rows_grad" g ~batch:1 ~width:into.width;
  let w = into.width in
  let inv = 1.0 /. float_of_int (max 1 into.batch) in
  for b = 0 to into.batch - 1 do
    for i = 0 to w - 1 do
      into.data.((b * w) + i) <- into.data.((b * w) + i) +. (g.data.(i) *. inv)
    done
  done

let slice_row_into ~out t r =
  check_shape "slice_row_into" out ~batch:1 ~width:t.width;
  Array.blit t.data (r * t.width) out.data 0 t.width

let slice_row_grad ~into ~g r =
  check_shape "slice_row_grad" g ~batch:1 ~width:into.width;
  let w = into.width in
  for i = 0 to w - 1 do
    into.data.((r * w) + i) <- into.data.((r * w) + i) +. g.data.(i)
  done

(* [entries] are (col, i, j): A[i,j] += cp[col], in array order *)
let matrix_of_entries_into ~out ~dim entries cp =
  check_shape "matrix_of_entries_into" out ~batch:dim ~width:dim;
  Array.fill out.data 0 (dim * dim) 0.0;
  for k = 0 to Array.length entries - 1 do
    let col, i, j = entries.(k) in
    out.data.((i * dim) + j) <- out.data.((i * dim) + j) +. cp.data.(col)
  done

let matrix_of_entries_grad ~into ~g ~dim entries =
  check_shape "matrix_of_entries_grad" g ~batch:dim ~width:dim;
  for k = 0 to Array.length entries - 1 do
    let col, i, j = entries.(k) in
    into.data.(col) <- into.data.(col) +. g.data.((i * dim) + j)
  done

(* y = x wᵀ + bias (bias broadcast over rows); [linear_bias_grad] adds
   the column sums of the output adjoint into the bias gradient *)
let add_bias_rows ~out bias =
  check_shape "add_bias_rows" bias ~batch:1 ~width:out.width;
  let h = out.width in
  for r = 0 to out.batch - 1 do
    for j = 0 to h - 1 do
      out.data.((r * h) + j) <- out.data.((r * h) + j) +. bias.data.(j)
    done
  done

let linear_bias_grad ~into ~g =
  check_shape "linear_bias_grad" into ~batch:1 ~width:g.width;
  let h = g.width in
  for r = 0 to g.batch - 1 do
    for j = 0 to h - 1 do
      into.data.(j) <- into.data.(j) +. g.data.((r * h) + j)
    done
  done

(* ---- Reductions ---------------------------------------------------- *)

let dot a b =
  check_same_shape "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  !acc

let all_finite t =
  let n = numel t in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Float.is_finite (Array.unsafe_get t.data !i)) then ok := false;
    incr i
  done;
  !ok

let norm1_matrix t =
  if t.batch <> t.width then invalid_arg "Tensor.norm1_matrix: not square";
  let d = t.width in
  let best = ref 0.0 in
  for j = 0 to d - 1 do
    let col = ref 0.0 in
    for i = 0 to d - 1 do
      col := !col +. Float.abs t.data.((i * d) + j)
    done;
    if !col > !best then best := !col
  done;
  !best

let bits_equal a b =
  a.batch = b.batch && a.width = b.width
  &&
  let n = numel a in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if
      Int64.bits_of_float (Array.unsafe_get a.data !i)
      <> Int64.bits_of_float (Array.unsafe_get b.data !i)
    then ok := false;
    incr i
  done;
  !ok

(* ---- Linear algebra ------------------------------------------------ *)

let transpose_into ~out t =
  if out.batch <> t.width || out.width <> t.batch then
    invalid_arg
      (Printf.sprintf "Tensor.transpose_into: out (%d,%d) for input (%d,%d)" out.batch out.width
         t.batch t.width);
  if numel out > 0 && out.data == t.data then
    invalid_arg "Tensor.transpose_into: out aliases input";
  for b = 0 to t.batch - 1 do
    for i = 0 to t.width - 1 do
      out.data.((i * t.batch) + b) <- t.data.((b * t.width) + i)
    done
  done

let transpose t =
  let out = create ~batch:t.width ~width:t.batch in
  transpose_into ~out t;
  out

let matmul_nt_into ~out a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt_into: inner dims differ (%d vs %d)" a.width b.width);
  if out.batch <> a.batch || out.width <> b.batch then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt_into: out (%d,%d) for result (%d,%d)" out.batch out.width
         a.batch b.batch);
  if numel out > 0 && (out.data == a.data || out.data == b.data) then
    invalid_arg "Tensor.matmul_nt_into: out aliases an input";
  let p = a.batch and q = b.batch and n = a.width in
  match Backend.current () with
  | Backend.Vectorized ->
      (* chunk over output rows: each writes its own slice, and the
         per-row accumulation order never changes *)
      let row_cost = Stdlib.max 1 (q * n) in
      Parallel.chunks
        ~grain:(Stdlib.max 1 (Parallel.default_grain / row_cost))
        ~cost:row_cost p
        (fun ilo ihi ->
          for i = ilo to ihi - 1 do
            let abase = i * n in
            for j = 0 to q - 1 do
              let bbase = j * n in
              let acc = ref 0.0 in
              for k = 0 to n - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get a.data (abase + k) *. Array.unsafe_get b.data (bbase + k))
              done;
              out.data.((i * q) + j) <- !acc
            done
          done)
  | Backend.Scalar ->
      let read = Backend.scalar_read in
      let dot_row i j =
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (read a.data ((i * n) + k) *. read b.data ((j * n) + k))
        done;
        !acc
      in
      for i = 0 to p - 1 do
        for j = 0 to q - 1 do
          Array.set out.data ((i * q) + j) (dot_row i j)
        done
      done

let matmul_nt a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt: inner dims differ (%d vs %d)" a.width b.width);
  let out = create ~batch:a.batch ~width:b.batch in
  matmul_nt_into ~out a b;
  out

let matmul a b = matmul_nt a (transpose b)

module Lu = struct
  type factors = { lu : t; perm : int array }

  (* Shared elimination core: factor the square matrix held in [m]
     (row-major, dimension [d]) in place, recording row swaps in
     [perm]. *)
  let factorize m perm d =
    for k = 0 to d - 1 do
      (* Partial pivoting: bring the largest remaining |entry| of column k up. *)
      let pivot = ref k in
      let best = ref (Float.abs m.((k * d) + k)) in
      for i = k + 1 to d - 1 do
        let v = Float.abs m.((i * d) + k) in
        if v > !best then begin
          best := v;
          pivot := i
        end
      done;
      if !best < 1e-14 then failwith "Lu.decompose: singular matrix";
      if !pivot <> k then begin
        for j = 0 to d - 1 do
          let tmp = m.((k * d) + j) in
          m.((k * d) + j) <- m.((!pivot * d) + j);
          m.((!pivot * d) + j) <- tmp
        done;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      let pk = m.((k * d) + k) in
      (match Backend.current () with
      | Backend.Vectorized ->
          for i = k + 1 to d - 1 do
            let factor = Array.unsafe_get m ((i * d) + k) /. pk in
            m.((i * d) + k) <- factor;
            for j = k + 1 to d - 1 do
              Array.unsafe_set m ((i * d) + j)
                (Array.unsafe_get m ((i * d) + j) -. (factor *. Array.unsafe_get m ((k * d) + j)))
            done
          done
      | Backend.Scalar ->
          let read = Backend.scalar_read in
          for i = k + 1 to d - 1 do
            let factor = read m ((i * d) + k) /. pk in
            m.((i * d) + k) <- factor;
            for j = k + 1 to d - 1 do
              Array.set m ((i * d) + j) (read m ((i * d) + j) -. (factor *. read m ((k * d) + j)))
            done
          done)
    done

  let preallocate d =
    if d < 1 then invalid_arg "Lu.preallocate: dimension must be positive";
    { lu = create ~batch:d ~width:d; perm = Array.init d (fun i -> i) }

  let decompose_into f a =
    if a.batch <> a.width then invalid_arg "Lu.decompose_into: not square";
    check_same_shape "Lu.decompose_into" f.lu a;
    let d = a.width in
    Array.blit a.data 0 f.lu.data 0 (numel a);
    for i = 0 to d - 1 do
      f.perm.(i) <- i
    done;
    factorize f.lu.data f.perm d

  let decompose a =
    if a.batch <> a.width then invalid_arg "Lu.decompose: not square";
    let f = preallocate a.width in
    decompose_into f a;
    f

  let solve_into ~out f b =
    let d = f.lu.width in
    if b.batch <> d then invalid_arg "Lu.solve_into: rhs row count mismatch";
    check_same_shape "Lu.solve_into" out b;
    let cols = b.width in
    let m = f.lu.data and x = out.data in
    (* Apply the row permutation, then forward- and back-substitute. *)
    for i = 0 to d - 1 do
      Array.blit b.data (f.perm.(i) * cols) x (i * cols) cols
    done;
    match Backend.current () with
    | Backend.Vectorized ->
        for i = 1 to d - 1 do
          for k = 0 to i - 1 do
            let lik = m.((i * d) + k) in
            if lik <> 0.0 then
              for c = 0 to cols - 1 do
                x.((i * cols) + c) <- x.((i * cols) + c) -. (lik *. x.((k * cols) + c))
              done
          done
        done;
        for i = d - 1 downto 0 do
          for k = i + 1 to d - 1 do
            let uik = m.((i * d) + k) in
            if uik <> 0.0 then
              for c = 0 to cols - 1 do
                x.((i * cols) + c) <- x.((i * cols) + c) -. (uik *. x.((k * cols) + c))
              done
          done;
          let uii = m.((i * d) + i) in
          for c = 0 to cols - 1 do
            x.((i * cols) + c) <- x.((i * cols) + c) /. uii
          done
        done
    | Backend.Scalar ->
        let read = Backend.scalar_read in
        for i = 1 to d - 1 do
          for k = 0 to i - 1 do
            let lik = m.((i * d) + k) in
            if lik <> 0.0 then
              for c = 0 to cols - 1 do
                x.((i * cols) + c) <- read x ((i * cols) + c) -. (lik *. read x ((k * cols) + c))
              done
          done
        done;
        for i = d - 1 downto 0 do
          for k = i + 1 to d - 1 do
            let uik = m.((i * d) + k) in
            if uik <> 0.0 then
              for c = 0 to cols - 1 do
                x.((i * cols) + c) <- read x ((i * cols) + c) -. (uik *. read x ((k * cols) + c))
              done
          done;
          let uii = m.((i * d) + i) in
          for c = 0 to cols - 1 do
            x.((i * cols) + c) <- read x ((i * cols) + c) /. uii
          done
        done

  let solve f b =
    let x = create ~batch:f.lu.width ~width:b.width in
    solve_into ~out:x f b;
    x
end

module Matfun = struct
  let trace t =
    if t.batch <> t.width then invalid_arg "Matfun.trace: not square";
    let d = t.width in
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      acc := !acc +. t.data.((i * d) + i)
    done;
    !acc

  (* Degree-13 Padé coefficients (Higham, "The scaling and squaring method
     for the matrix exponential revisited", 2005). *)
  let pade13 =
    [|
      64764752532480000.0;
      32382376266240000.0;
      7771770303897600.0;
      1187353796428800.0;
      129060195264000.0;
      10559470521600.0;
      670442572800.0;
      33522128640.0;
      1323241920.0;
      40840800.0;
      960960.0;
      16380.0;
      182.0;
      1.0;
    |]

  let theta13 = 5.371920351148152

  (* Preallocated workspace for [expm_into]: every intermediate of the
     algorithm, owned by the caller and reused across iterations.
     [w_tt] is the shared transpose scratch behind the
     matmul-via-[matmul_nt] steps; [w_r0]/[w_r1] alternate through the
     squaring phase, so the result lands in one of them — valid until
     the next [expm_into] call on this workspace. *)
  type ws = {
    wdim : int;
    w_x : t;
    w_tt : t;
    w_x2 : t;
    w_x4 : t;
    w_x6 : t;
    w_acc_u : t;
    w_u_body : t;
    w_u : t;
    w_acc_v : t;
    w_v : t;
    w_vmu : t;
    w_vpu : t;
    w_eye : t;
    w_lu : Lu.factors;
    w_r0 : t;
    w_r1 : t;
  }

  let workspace d =
    if d < 1 then invalid_arg "Matfun.workspace: dimension must be positive";
    let sq () = create ~batch:d ~width:d in
    {
      wdim = d;
      w_x = sq ();
      w_tt = sq ();
      w_x2 = sq ();
      w_x4 = sq ();
      w_x6 = sq ();
      w_acc_u = sq ();
      w_u_body = sq ();
      w_u = sq ();
      w_acc_v = sq ();
      w_v = sq ();
      w_vmu = sq ();
      w_vpu = sq ();
      w_eye = identity d;
      w_lu = Lu.preallocate d;
      w_r0 = sq ();
      w_r1 = sq ();
    }

  let expm_into ws a =
    if a.batch <> a.width then invalid_arg "Matfun.expm_into: not square";
    if a.width <> ws.wdim then
      invalid_arg
        (Printf.sprintf "Matfun.expm_into: workspace dim %d for input dim %d" ws.wdim a.width);
    let d = a.width in
    if d = 1 then begin
      ws.w_r0.data.(0) <- Stdlib.exp a.data.(0);
      ws.w_r0
    end
    else begin
      let norm = norm1_matrix a in
      let s =
        if norm <= theta13 then 0
        else int_of_float (Float.ceil (Float.log (norm /. theta13) /. Float.log 2.0))
      in
      if !Obs.on then begin
        Metrics.incr "tensor.matexp_calls";
        Metrics.incr ~by:(float_of_int s) "tensor.matexp_squarings";
        Metrics.observe "tensor.matexp_dim" (float_of_int d)
      end;
      (* matmul via the shared transpose scratch, mirroring
         [matmul a b = matmul_nt a (transpose b)] *)
      let mm out a b =
        transpose_into ~out:ws.w_tt b;
        matmul_nt_into ~out a ws.w_tt
      in
      let x = ws.w_x in
      if s = 0 then copy_into ~out:x a else scale_into ~out:x (1.0 /. (2.0 ** float_of_int s)) a;
      let b = pade13 in
      let eye = ws.w_eye in
      let x2 = ws.w_x2 and x4 = ws.w_x4 and x6 = ws.w_x6 in
      mm x2 x x;
      mm x4 x2 x2;
      mm x6 x2 x4;
      let inner_u = ws.w_acc_u in
      scale_into ~out:inner_u b.(13) x6;
      axpy b.(11) x4 inner_u;
      axpy b.(9) x2 inner_u;
      let u_body = ws.w_u_body in
      mm u_body x6 inner_u;
      axpy b.(7) x6 u_body;
      axpy b.(5) x4 u_body;
      axpy b.(3) x2 u_body;
      axpy b.(1) eye u_body;
      let u = ws.w_u in
      mm u x u_body;
      let inner_v = ws.w_acc_v in
      scale_into ~out:inner_v b.(12) x6;
      axpy b.(10) x4 inner_v;
      axpy b.(8) x2 inner_v;
      let v = ws.w_v in
      mm v x6 inner_v;
      axpy b.(6) x6 v;
      axpy b.(4) x4 v;
      axpy b.(2) x2 v;
      axpy b.(0) eye v;
      sub_into ~out:ws.w_vmu v u;
      add_into ~out:ws.w_vpu v u;
      Lu.decompose_into ws.w_lu ws.w_vmu;
      Lu.solve_into ~out:ws.w_r0 ws.w_lu ws.w_vpu;
      let cur = ref ws.w_r0 and other = ref ws.w_r1 in
      for _ = 1 to s do
        mm !other !cur !cur;
        let tmp = !cur in
        cur := !other;
        other := tmp
      done;
      !cur
    end

  let expm a =
    if a.batch <> a.width then invalid_arg "Matfun.expm: not square";
    if a.width = 0 then create ~batch:0 ~width:0 else copy (expm_into (workspace a.width) a)
end
