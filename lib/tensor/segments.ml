type t = { starts : int array; lens : int array; width : int }

let of_lens lens =
  let count = Array.length lens in
  let starts = Array.make count 0 in
  let acc = ref 0 in
  for s = 0 to count - 1 do
    if lens.(s) < 0 then invalid_arg "Segments.of_lens: negative length";
    starts.(s) <- !acc;
    acc := !acc + lens.(s)
  done;
  { starts; lens; width = !acc }

let count seg = Array.length seg.starts
let seg_len seg s = seg.lens.(s)

let read = Tensor.Backend.scalar_read
let data = Tensor.unsafe_data

(* Segment-kernel launch counter: one bump per forward entry point,
   labelled by op (a literal, so counting allocates no label), so runs
   can report how many segment ops an extraction issued. The gradient
   kernels below count only the forward kernels they call. *)
let count_op label =
  if !Obs.on then begin
    Metrics.incr "tensor.segment_ops";
    Metrics.incr label
  end

(* Vectorized segment kernels chunk over batch *rows*: each row reads
   and writes its own slice, so any row schedule is bit-identical to
   the sequential loop (per-element accumulation order within a row
   never changes). Grain keeps chunks near [Parallel.default_grain]
   elements of actual work; [~cost] makes the sequential cutoff count
   elements too, not rows. Like the elementwise kernels in [Tensor],
   each kernel is one function holding a Vectorized loop over the flat
   arrays and a sequential Scalar loop that reads its inputs through
   [Tensor.Backend.scalar_read]; both compute identical bits. *)
let row_grain width = Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 width)

let by_rows width batch body =
  Parallel.chunks ~grain:(row_grain width) ~cost:(Stdlib.max 1 width) batch body

let check_width name seg (x : Tensor.t) =
  if x.Tensor.width <> seg.width then
    invalid_arg
      (Printf.sprintf "Segments.%s: tensor width %d, segments cover %d" name x.Tensor.width
         seg.width)

let check_out name (out : Tensor.t) ~batch ~width =
  if out.Tensor.batch <> batch || out.Tensor.width <> width then
    invalid_arg
      (Printf.sprintf "Segments.%s: out (%d,%d), expected (%d,%d)" name out.Tensor.batch
         out.Tensor.width batch width)

(* Each forward kernel has a preallocated [_into] core (used directly
   by the plan replay engine — no allocation, same launch counters)
   and an allocating wrapper. The cores write every element of [out]
   that any segment covers; since segments tile [0, width), coverage
   is total for the same-width kernels, and the reduction kernels
   write every (row, segment) cell — so reusing an output buffer
   across calls is safe. *)

let softmax_into ~out x seg =
  check_width "softmax" seg x;
  check_out "softmax_into" out ~batch:x.Tensor.batch ~width:x.Tensor.width;
  count_op "tensor.segment_ops.softmax";
  let src = data x and dst = data out in
  let starts = seg.starts and lens = seg.lens and nsegs = count seg and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w x.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let start = base + Array.unsafe_get starts s and len = Array.unsafe_get lens s in
              if len > 0 then begin
                let m = ref neg_infinity in
                for i = start to start + len - 1 do
                  let v = Array.unsafe_get src i in
                  if v > !m then m := v
                done;
                let z = ref 0.0 in
                for i = start to start + len - 1 do
                  let e = Stdlib.exp (Array.unsafe_get src i -. !m) in
                  Array.unsafe_set dst i e;
                  z := !z +. e
                done;
                let inv = 1.0 /. !z in
                for i = start to start + len - 1 do
                  Array.unsafe_set dst i (Array.unsafe_get dst i *. inv)
                done
              end
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to x.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + starts.(s) and len = lens.(s) in
          if len > 0 then begin
            let m = ref neg_infinity in
            for i = start to start + len - 1 do
              let v = read src i in
              if v > !m then m := v
            done;
            let z = ref 0.0 in
            for i = start to start + len - 1 do
              let e = Stdlib.exp (read src i -. !m) in
              dst.(i) <- e;
              z := !z +. e
            done;
            let inv = 1.0 /. !z in
            for i = start to start + len - 1 do
              dst.(i) <- dst.(i) *. inv
            done
          end
        done
      done

let softmax x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  softmax_into ~out x seg;
  out

let sum_into ~out x seg =
  check_width "sum" seg x;
  let nsegs = count seg in
  check_out "sum_into" out ~batch:x.Tensor.batch ~width:nsegs;
  count_op "tensor.segment_ops.sum";
  let src = data x and dst = data out in
  let starts = seg.starts and lens = seg.lens and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w x.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let start = base + Array.unsafe_get starts s and len = Array.unsafe_get lens s in
              let acc = ref 0.0 in
              for i = start to start + len - 1 do
                acc := !acc +. Array.unsafe_get src i
              done;
              Array.unsafe_set dst ((b * nsegs) + s) !acc
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to x.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + starts.(s) and len = lens.(s) in
          let acc = ref 0.0 in
          for i = start to start + len - 1 do
            acc := !acc +. read src i
          done;
          dst.((b * nsegs) + s) <- !acc
        done
      done

let sum x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:(count seg) in
  sum_into ~out x seg;
  out

let prod_into ~out x seg =
  check_width "prod" seg x;
  let nsegs = count seg in
  check_out "prod_into" out ~batch:x.Tensor.batch ~width:nsegs;
  count_op "tensor.segment_ops.prod";
  let src = data x and dst = data out in
  let starts = seg.starts and lens = seg.lens and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w x.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let start = base + Array.unsafe_get starts s and len = Array.unsafe_get lens s in
              let acc = ref 1.0 in
              for i = start to start + len - 1 do
                acc := !acc *. Array.unsafe_get src i
              done;
              Array.unsafe_set dst ((b * nsegs) + s) !acc
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to x.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + starts.(s) and len = lens.(s) in
          let acc = ref 1.0 in
          for i = start to start + len - 1 do
            acc := !acc *. read src i
          done;
          dst.((b * nsegs) + s) <- !acc
        done
      done

let prod x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:(count seg) in
  prod_into ~out x seg;
  out

(* product-of-others via prefix/suffix sweeps: robust when a segment
   contains zeros, where dividing the full product back out would fail.
   Zero-length segments cover no positions, so the total-coverage
   argument above still holds. The forward sweep leaves the product of
   the elements before i in dst.(i); the backward sweep multiplies in
   the product of the elements after i. *)
let prod_grad_scratch_into ~out x seg =
  check_width "prod_grad_scratch" seg x;
  check_out "prod_grad_scratch_into" out ~batch:x.Tensor.batch ~width:x.Tensor.width;
  count_op "tensor.segment_ops.prod_grad_scratch";
  let src = data x and dst = data out in
  let starts = seg.starts and lens = seg.lens and nsegs = count seg and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w x.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let start = base + Array.unsafe_get starts s and len = Array.unsafe_get lens s in
              let acc = ref 1.0 in
              for i = start to start + len - 1 do
                Array.unsafe_set dst i !acc;
                acc := !acc *. Array.unsafe_get src i
              done;
              let acc = ref 1.0 in
              for i = start + len - 1 downto start do
                Array.unsafe_set dst i (Array.unsafe_get dst i *. !acc);
                acc := !acc *. Array.unsafe_get src i
              done
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to x.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + starts.(s) and len = lens.(s) in
          let acc = ref 1.0 in
          for i = start to start + len - 1 do
            dst.(i) <- !acc;
            acc := !acc *. read src i
          done;
          let acc = ref 1.0 in
          for i = start + len - 1 downto start do
            dst.(i) <- dst.(i) *. !acc;
            acc := !acc *. read src i
          done
        done
      done

let prod_grad_scratch x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  prod_grad_scratch_into ~out x seg;
  out

(* The first maximum wins ties ([>] never replaces an equal value), so
   the argmax — the subgradient's target — is the same on both
   backends. *)
let max_into ~out ~arg x seg =
  check_width "max" seg x;
  let nsegs = count seg in
  check_out "max_into" out ~batch:x.Tensor.batch ~width:nsegs;
  if Array.length arg <> x.Tensor.batch * nsegs then
    invalid_arg "Segments.max_into: argmax array length mismatch";
  count_op "tensor.segment_ops.max";
  let src = data x and dst = data out in
  let starts = seg.starts and lens = seg.lens and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w x.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let start = base + Array.unsafe_get starts s and len = Array.unsafe_get lens s in
              let cell = (b * nsegs) + s in
              if len = 0 then begin
                Array.unsafe_set dst cell 0.0;
                Array.unsafe_set arg cell (-1)
              end
              else begin
                let best = ref (Array.unsafe_get src start) and besti = ref start in
                for i = start + 1 to start + len - 1 do
                  let v = Array.unsafe_get src i in
                  if v > !best then begin
                    best := v;
                    besti := i
                  end
                done;
                Array.unsafe_set dst cell !best;
                Array.unsafe_set arg cell !besti
              end
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to x.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + starts.(s) and len = lens.(s) in
          let cell = (b * nsegs) + s in
          if len = 0 then begin
            dst.(cell) <- 0.0;
            arg.(cell) <- -1
          end
          else begin
            let best = ref (read src start) and besti = ref start in
            for i = start + 1 to start + len - 1 do
              let v = read src i in
              if v > !best then begin
                best := v;
                besti := i
              end
            done;
            dst.(cell) <- !best;
            arg.(cell) <- !besti
          end
        done
      done

let max x seg =
  let nsegs = count seg in
  let out = Tensor.create ~batch:x.Tensor.batch ~width:nsegs in
  let arg = Array.make (x.Tensor.batch * nsegs) (-1) in
  max_into ~out ~arg x seg;
  out, arg

let gather_into ~out src idx =
  let n = Array.length idx in
  check_out "gather_into" out ~batch:src.Tensor.batch ~width:n;
  let m = src.Tensor.width in
  count_op "tensor.segment_ops.gather";
  let s = data src and d = data out in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows n src.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let sbase = b * m and dbase = b * n in
            for e = 0 to n - 1 do
              Array.unsafe_set d (dbase + e)
                (Array.unsafe_get s (sbase + Array.unsafe_get idx e))
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to src.Tensor.batch - 1 do
        for e = 0 to n - 1 do
          d.((b * n) + e) <- read s ((b * m) + idx.(e))
        done
      done

let gather src idx =
  let out = Tensor.create ~batch:src.Tensor.batch ~width:(Array.length idx) in
  gather_into ~out src idx;
  out

(* Rows write disjoint destination slices even when [idx] repeats an
   index: collisions stay within a row, in sequential order. *)
let scatter_add ~into idx src =
  count_op "tensor.segment_ops.scatter_add";
  let n = Array.length idx in
  if src.Tensor.width <> n then invalid_arg "Segments.scatter_add: width/index mismatch";
  if src.Tensor.batch <> into.Tensor.batch then
    invalid_arg "Segments.scatter_add: batch mismatch";
  let s = data src and d = data into in
  let m = into.Tensor.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows n src.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let sbase = b * n and dbase = b * m in
            for e = 0 to n - 1 do
              let j = dbase + idx.(e) in
              d.(j) <- d.(j) +. Array.unsafe_get s (sbase + e)
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to src.Tensor.batch - 1 do
        let sbase = b * n and dbase = b * m in
        for e = 0 to n - 1 do
          let j = dbase + idx.(e) in
          d.(j) <- d.(j) +. read s (sbase + e)
        done
      done

(* ---- Gradient kernels ----------------------------------------------

   The fused in-place adjoints of the segment ops, accumulating into
   the operand's gradient [into] given the output's adjoint [g]. Both
   the tape interpreter's pulls and the plan's backward steps call
   these, so each adjoint is defined once; each reproduces the
   rounding of the composite it stands for (segment sum, gather,
   elementwise multiply and add, one tensor at a time). *)

(* into_i += y_i * (g_i - Σ_{j in seg} g_j y_j) *)
let softmax_grad ~into ~g ~y seg =
  check_width "softmax_grad" seg into;
  check_out "softmax_grad" g ~batch:into.Tensor.batch ~width:seg.width;
  check_out "softmax_grad" y ~batch:into.Tensor.batch ~width:seg.width;
  let gd = data g and yd = data y and dd = data into in
  let starts = seg.starts and lens = seg.lens and nsegs = count seg and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w into.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let st = base + Array.unsafe_get starts s and ln = Array.unsafe_get lens s in
              let dot = ref 0.0 in
              for p = st to st + ln - 1 do
                dot := !dot +. (Array.unsafe_get gd p *. Array.unsafe_get yd p)
              done;
              let dv = !dot in
              for p = st to st + ln - 1 do
                Array.unsafe_set dd p
                  (Array.unsafe_get dd p
                  +. (Array.unsafe_get yd p *. (Array.unsafe_get gd p -. dv)))
              done
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to into.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let st = base + starts.(s) and ln = lens.(s) in
          let dot = ref 0.0 in
          for p = st to st + ln - 1 do
            dot := !dot +. (read gd p *. read yd p)
          done;
          let dv = !dot in
          for p = st to st + ln - 1 do
            let acc = read dd p in
            dd.(p) <- acc +. (read yd p *. (read gd p -. dv))
          done
        done
      done

(* into_p += g_{segment of p} *)
let sum_grad ~into ~g seg =
  check_width "sum_grad" seg into;
  let nsegs = count seg in
  check_out "sum_grad" g ~batch:into.Tensor.batch ~width:nsegs;
  let gd = data g and dd = data into in
  let starts = seg.starts and lens = seg.lens and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w into.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let st = base + Array.unsafe_get starts s and ln = Array.unsafe_get lens s in
              let gv = Array.unsafe_get gd ((b * nsegs) + s) in
              for p = st to st + ln - 1 do
                Array.unsafe_set dd p (Array.unsafe_get dd p +. gv)
              done
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to into.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let st = base + starts.(s) and ln = lens.(s) in
          for p = st to st + ln - 1 do
            let acc = read dd p in
            dd.(p) <- acc +. read gd ((b * nsegs) + s)
          done
        done
      done

(* into_p += g_{segment of p} * (product of the other elements of that
   segment), the latter staged in [scratch] by [prod_grad_scratch_into] *)
let prod_grad ~into ~g ~scratch x seg =
  check_width "prod_grad" seg into;
  let nsegs = count seg in
  check_out "prod_grad" g ~batch:into.Tensor.batch ~width:nsegs;
  check_out "prod_grad" x ~batch:into.Tensor.batch ~width:seg.width;
  prod_grad_scratch_into ~out:scratch x seg;
  let gd = data g and od = data scratch and dd = data into in
  let starts = seg.starts and lens = seg.lens and w = seg.width in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows w into.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let base = b * w in
            for s = 0 to nsegs - 1 do
              let st = base + Array.unsafe_get starts s and ln = Array.unsafe_get lens s in
              let gv = Array.unsafe_get gd ((b * nsegs) + s) in
              for p = st to st + ln - 1 do
                Array.unsafe_set dd p (Array.unsafe_get dd p +. (gv *. Array.unsafe_get od p))
              done
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to into.Tensor.batch - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let st = base + starts.(s) and ln = lens.(s) in
          for p = st to st + ln - 1 do
            let acc = read dd p in
            dd.(p) <- acc +. (read gd ((b * nsegs) + s) *. read od p)
          done
        done
      done

(* into_{arg c} += g_c for every non-empty (row, segment) cell c *)
let max_grad ~into ~g ~arg =
  if Array.length arg <> Tensor.numel g then
    invalid_arg "Segments.max_grad: argmax array length mismatch";
  let gd = data g and dd = data into in
  match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      for c = 0 to Array.length arg - 1 do
        let p = Array.unsafe_get arg c in
        if p >= 0 then dd.(p) <- dd.(p) +. Array.unsafe_get gd c
      done
  | Tensor.Backend.Scalar ->
      for c = 0 to Array.length arg - 1 do
        let p = arg.(c) in
        if p >= 0 then dd.(p) <- read dd p +. read gd c
      done
