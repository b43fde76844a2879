(* Tests for the tensor substrate: dense kernels, both backends, LU,
   matrix exponential and segment kernels. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let tensor_gen ?(max_batch = 4) ?(max_width = 8) () =
  QCheck2.Gen.(
    bind (pair (int_range 1 max_batch) (int_range 1 max_width)) (fun (b, w) ->
        map
          (fun seed ->
            let rng = Rng.create seed in
            Tensor.init ~batch:b ~width:w (fun _ _ -> Rng.float rng 4.0 -. 2.0))
          (int_bound 1_000_000)))

(* ------------------------------------------------------------- basics *)

let test_shapes () =
  let t = Tensor.create ~batch:3 ~width:4 in
  Alcotest.(check int) "numel" 12 (Tensor.numel t);
  Tensor.set t 2 3 5.0;
  Test_util.check_close ~msg:"get/set" 5.0 (Tensor.get t 2 3);
  let r = Tensor.row t 2 in
  Test_util.check_close ~msg:"row copy" 5.0 r.(3);
  Alcotest.check_raises "of_array mismatch"
    (Invalid_argument "Tensor.of_array: 3 elements for shape (2, 2)") (fun () ->
      ignore (Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0 |]))

let test_elementwise () =
  let a = Tensor.of_array ~batch:1 ~width:3 [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array ~batch:1 ~width:3 [| 4.0; 5.0; 6.0 |] in
  Test_util.check_close ~msg:"add" 9.0 (Tensor.get (Tensor.add a b) 0 2);
  Test_util.check_close ~msg:"sub" (-3.0) (Tensor.get (Tensor.sub a b) 0 0);
  Test_util.check_close ~msg:"mul" 10.0 (Tensor.get (Tensor.mul a b) 0 1);
  Test_util.check_close ~msg:"scale" 6.0 (Tensor.get (Tensor.scale 2.0 a) 0 2);
  Test_util.check_close ~msg:"sum" 6.0 (Tensor.sum a);
  Test_util.check_close ~msg:"dot" 32.0 (Tensor.dot a b);
  Test_util.check_close ~msg:"relu" 0.0 (Tensor.get (Tensor.relu (Tensor.scale (-1.0) a)) 0 0)

let test_reductions () =
  let t = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0; 4.0 |] in
  let m = Tensor.mean_rows t in
  Test_util.check_close ~msg:"col mean" 2.0 (Tensor.get m 0 0);
  Test_util.check_close ~msg:"col mean" 3.0 (Tensor.get m 0 1)

(* ------------------------------------------------------ backend parity *)

(* Values that stress bit-exactness: signed zeros, values below the
   1e-12 log floor (including a denormal), the floor itself, and a
   small set of repeats so segments hold ties. *)
let special = [| 0.0; -0.0; 1e-13; -1e-13; 5e-324; 1e-12; 0.5; -0.5; 1.0; -2.0 |]

let hard_value rng =
  if Rng.int rng 2 = 0 then special.(Rng.int rng (Array.length special))
  else Rng.float rng 4.0 -. 2.0

let hard_tensor rng ~batch ~width = Tensor.init ~batch ~width (fun _ _ -> hard_value rng)

(* Run [f] under each backend; every tensor either run returns must
   carry the same bits as the first. [f] returns each form of one
   kernel (allocating and [_into]), so forms are compared too. *)
let same_bits_on_both_backends f =
  let fast = Tensor.Backend.with_mode Tensor.Backend.Vectorized f in
  let slow = Tensor.Backend.with_mode Tensor.Backend.Scalar f in
  match fast @ slow with
  | [] -> true
  | first :: rest -> List.for_all (Tensor.bits_equal first) rest

let into_of f (a : Tensor.t) =
  let out = Tensor.create ~batch:a.Tensor.batch ~width:a.Tensor.width in
  f ~out;
  out

(* accumulating kernels start from a copy of [acc], fresh per run *)
let accumulated acc f =
  let d = Tensor.copy acc in
  f d;
  d

let dense_cases =
  [
    ("add", fun a b _ -> [ Tensor.add a b; into_of (fun ~out -> Tensor.add_into ~out a b) a ]);
    ("sub", fun a b _ -> [ Tensor.sub a b; into_of (fun ~out -> Tensor.sub_into ~out a b) a ]);
    ("mul", fun a b _ -> [ Tensor.mul a b; into_of (fun ~out -> Tensor.mul_into ~out a b) a ]);
    ( "scale",
      fun a _ _ ->
        [ Tensor.scale 0.37 a; into_of (fun ~out -> Tensor.scale_into ~out 0.37 a) a ] );
    ( "add_scalar",
      fun a _ _ ->
        [
          Tensor.add_scalar (-1.5) a;
          into_of (fun ~out -> Tensor.add_scalar_into ~out (-1.5) a) a;
        ] );
    ("relu", fun a _ _ -> [ Tensor.relu a; into_of (fun ~out -> Tensor.relu_into ~out a) a ]);
    ("exp", fun a _ _ -> [ Tensor.exp a; into_of (fun ~out -> Tensor.exp_into ~out a) a ]);
    ("log_safe_into", fun a _ _ -> [ into_of (fun ~out -> Tensor.log_safe_into ~out a) a ]);
    ( "copy_into",
      fun a _ _ -> [ Tensor.copy a; into_of (fun ~out -> Tensor.copy_into ~out a) a ] );
    ("add_inplace", fun a _ acc -> [ accumulated acc (fun d -> Tensor.add_inplace d a) ]);
    ("axpy", fun a b _ -> [ accumulated b (fun d -> Tensor.axpy (-0.75) a d) ]);
    ("matmul_nt", fun a b _ -> [ Tensor.matmul_nt a b ]);
    ("mul_grad", fun a b acc -> [ accumulated acc (fun d -> Tensor.mul_grad ~into:d ~g:a b) ]);
    ( "log_safe_grad",
      fun a b acc -> [ accumulated acc (fun d -> Tensor.log_safe_grad ~into:d ~g:a b) ] );
    ("relu_grad", fun a b acc -> [ accumulated acc (fun d -> Tensor.relu_grad ~into:d ~g:a b) ]);
  ]

let hard_triple_gen =
  QCheck2.Gen.(
    map
      (fun (b, w, seed) ->
        let rng = Rng.create seed in
        let mk () = hard_tensor rng ~batch:b ~width:w in
        let a = mk () in
        let b = mk () in
        (a, b, mk ()))
      (triple (int_range 1 4) (int_range 1 8) (int_bound 1_000_000)))

let backends_agree (op, run) =
  qtest
    (Printf.sprintf "backends agree on %s" op)
    hard_triple_gen
    (fun (a, b, acc) -> same_bits_on_both_backends (fun () -> run a b acc))

(* The fused gradient kernels against the tensor-at-a-time composites
   they stand for, on both backends: the same rounding, bit for bit. *)
let map_tensor f (t : Tensor.t) =
  Tensor.init ~batch:t.Tensor.batch ~width:t.Tensor.width (fun b i -> f (Tensor.get t b i))

let dense_grads_match_composites =
  qtest "gradient kernels match their composites bitwise" hard_triple_gen (fun (g, x, acc) ->
      let composite delta = accumulated acc (fun d -> Tensor.add_inplace d delta) in
      List.for_all
        (fun mode ->
          Tensor.Backend.with_mode mode @@ fun () ->
          Tensor.bits_equal
            (accumulated acc (fun d -> Tensor.mul_grad ~into:d ~g x))
            (composite (Tensor.mul g x))
          && Tensor.bits_equal
               (accumulated acc (fun d -> Tensor.log_safe_grad ~into:d ~g x))
               (composite
                  (Tensor.mul g (map_tensor (fun v -> 1.0 /. Float.max v Tensor.log_floor) x)))
          && Tensor.bits_equal
               (accumulated acc (fun d -> Tensor.relu_grad ~into:d ~g x))
               (composite (Tensor.mul g (map_tensor (fun v -> if v > 0.0 then 1.0 else 0.0) x)))
          && Tensor.bits_equal
               (into_of (fun ~out -> Tensor.log_safe_into ~out x) x)
               (map_tensor (fun v -> Stdlib.log (Float.max v 1e-12)) x))
        [ Tensor.Backend.Vectorized; Tensor.Backend.Scalar ])

(* -------------------------------------------------------------- matmul *)

let test_matmul_known () =
  let a = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Tensor.of_array ~batch:2 ~width:2 [| 5.0; 6.0; 7.0; 8.0 |] in
  let c = Tensor.matmul a b in
  Test_util.check_close ~msg:"c00" 19.0 (Tensor.get c 0 0);
  Test_util.check_close ~msg:"c01" 22.0 (Tensor.get c 0 1);
  Test_util.check_close ~msg:"c10" 43.0 (Tensor.get c 1 0);
  Test_util.check_close ~msg:"c11" 50.0 (Tensor.get c 1 1)

let matmul_identity =
  qtest "A · I = A" (tensor_gen ~max_batch:5 ~max_width:5 ()) (fun a ->
      let eye = Tensor.identity a.Tensor.width in
      let c = Tensor.matmul a eye in
      let ok = ref true in
      for i = 0 to Tensor.numel a - 1 do
        if not (Test_util.float_close (Tensor.unsafe_data c).(i) (Tensor.unsafe_data a).(i)) then
          ok := false
      done;
      !ok)

let transpose_involution =
  qtest "transpose . transpose = id" (tensor_gen ()) (fun a ->
      let t2 = Tensor.transpose (Tensor.transpose a) in
      Tensor.unsafe_data t2 = Tensor.unsafe_data a)

(* ------------------------------------------------------------------ LU *)

let square_gen n =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      (* diagonally dominant -> comfortably non-singular *)
      Tensor.init ~batch:n ~width:n (fun i j ->
          if i = j then 5.0 +. Rng.float rng 2.0 else Rng.float rng 2.0 -. 1.0))
    QCheck2.Gen.(int_bound 1_000_000)

let lu_solves =
  qtest "LU solve: A·X = B" (square_gen 5) (fun a ->
      let rng = Rng.create 77 in
      let b = Tensor.init ~batch:5 ~width:5 (fun _ _ -> Rng.float rng 4.0 -. 2.0) in
      let x = Tensor.Lu.solve (Tensor.Lu.decompose a) b in
      let ax = Tensor.matmul a x in
      let ok = ref true in
      for i = 0 to Tensor.numel b - 1 do
        if
          not
            (Test_util.float_close ~tol:1e-8 (Tensor.unsafe_data ax).(i) (Tensor.unsafe_data b).(i))
        then ok := false
      done;
      !ok)

let test_lu_singular () =
  let a = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 2.0; 4.0 |] in
  Alcotest.check_raises "singular" (Failure "Lu.decompose: singular matrix") (fun () ->
      ignore (Tensor.Lu.decompose a))

(* ----------------------------------------------------------------- expm *)

let expm_taylor a =
  (* reference: plain Taylor series with many terms (inputs are scaled small) *)
  let d = a.Tensor.batch in
  let acc = ref (Tensor.identity d) in
  let term = ref (Tensor.identity d) in
  for k = 1 to 60 do
    term := Tensor.scale (1.0 /. float_of_int k) (Tensor.matmul !term a);
    acc := Tensor.add !acc !term
  done;
  !acc

let expm_matches_taylor =
  qtest ~count:50 "expm matches Taylor reference" (square_gen 4) (fun raw ->
      let a = Tensor.scale 0.2 raw in
      let fast = Tensor.Matfun.expm a in
      let slow = expm_taylor a in
      let ok = ref true in
      for i = 0 to Tensor.numel a - 1 do
        if
          not
            (Test_util.float_close ~tol:1e-7 (Tensor.unsafe_data fast).(i)
               (Tensor.unsafe_data slow).(i))
        then ok := false
      done;
      !ok)

let test_expm_zero () =
  let z = Tensor.create ~batch:3 ~width:3 in
  let e = Tensor.Matfun.expm z in
  Test_util.check_close ~msg:"tr e^0 = d" 3.0 (Tensor.Matfun.trace e)

let test_expm_nilpotent () =
  (* strictly upper triangular: e^A = I + A + A²/2, trace stays d *)
  let a = Tensor.create ~batch:3 ~width:3 in
  Tensor.set a 0 1 2.0;
  Tensor.set a 1 2 3.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~msg:"trace" 3.0 (Tensor.Matfun.trace e);
  Test_util.check_close ~msg:"(0,1)" 2.0 (Tensor.get e 0 1);
  Test_util.check_close ~msg:"(0,2) = 2*3/2" 3.0 (Tensor.get e 0 2)

let test_expm_diag () =
  let a = Tensor.create ~batch:2 ~width:2 in
  Tensor.set a 0 0 1.0;
  Tensor.set a 1 1 2.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~msg:"e^1" (Float.exp 1.0) (Tensor.get e 0 0);
  Test_util.check_close ~msg:"e^2" (Float.exp 2.0) (Tensor.get e 1 1);
  Test_util.check_close ~msg:"off-diag" 0.0 (Tensor.get e 0 1)

let test_expm_scaling_path () =
  (* a norm > theta13 exercises the scaling-and-squaring branch *)
  let a = Tensor.create ~batch:2 ~width:2 in
  Tensor.set a 0 0 10.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~tol:1e-8 ~msg:"e^10" (Float.exp 10.0) (Tensor.get e 0 0)

(* NOTEARS theorem 3.1 sanity: tr(e^A) = d iff A (non-negative) is acyclic *)
let test_notears_criterion () =
  let cyclic = Tensor.create ~batch:2 ~width:2 in
  Tensor.set cyclic 0 1 1.0;
  Tensor.set cyclic 1 0 1.0;
  let acyclic = Tensor.create ~batch:2 ~width:2 in
  Tensor.set acyclic 0 1 1.0;
  let h t = Tensor.Matfun.trace (Tensor.Matfun.expm t) -. 2.0 in
  Alcotest.(check bool) "cyclic > 0" true (h cyclic > 1e-6);
  Test_util.check_close ~msg:"acyclic = 0" 0.0 (h acyclic)

(* -------------------------------------------------------------- segments *)

(* the segment owning each element position *)
let owners (seg : Segments.t) =
  let o = Array.make seg.Segments.width (-1) in
  Array.iteri
    (fun s start ->
      for i = start to start + seg.Segments.lens.(s) - 1 do
        o.(i) <- s
      done)
    seg.Segments.starts;
  o

let test_segments_structure () =
  let seg = Segments.of_lens [| 2; 0; 3 |] in
  Alcotest.(check int) "count" 3 (Segments.count seg);
  Alcotest.(check int) "len" 3 (Segments.seg_len seg 2);
  Alcotest.(check (list int)) "owners" [ 0; 0; 2; 2; 2 ]
    (Array.to_list (owners seg))

let seg_gen =
  (* segments + a matching tensor *)
  QCheck2.Gen.(
    bind (pair (int_range 1 3) (list_size (int_range 1 6) (int_range 0 4))) (fun (b, lens) ->
        map
          (fun seed ->
            let seg = Segments.of_lens (Array.of_list lens) in
            let rng = Rng.create seed in
            let width = List.fold_left ( + ) 0 lens in
            let t = Tensor.init ~batch:b ~width (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
            seg, t)
          (int_bound 1_000_000)))

let seg_sum_matches_naive =
  qtest "segment sum matches naive" seg_gen (fun (seg, t) ->
      let out = Segments.sum t seg in
      let owners = owners seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          let acc = ref 0.0 in
          Array.iteri (fun i o -> if o = s then acc := !acc +. Tensor.get t b i) owners;
          if not (Test_util.float_close !acc (Tensor.get out b s)) then ok := false
        done
      done;
      !ok)

(* The propagation sweep on [Test_util.star_propagation rule seg], where
   each class's reduction sees one segment of [x]: returns p, and adds
   into [into] cp's adjoint for p's adjoint [g]. Both are shaped like p,
   [x]'s width plus one column per segment. *)
let star_sweep rule seg (x : Tensor.t) ~g ~into =
  let s = Test_util.star_propagation rule seg in
  let cp = Test_util.star_cp x seg in
  let batch = x.Tensor.batch in
  let p = Tensor.create ~batch ~width:(Propagation.width s) in
  let st = Propagation.state s ~batch in
  Propagation.forward s st ~out:p cp;
  Propagation.backward s st (Propagation.scratch s ~batch) ~cp ~p ~g ~into;
  p

(* [q b s], segment s's reduction in row b, and [d b i], its partial
   derivative with respect to element i: a unit adjoint on each child's
   p, whose cp is 1, reaches x only through its class's q *)
let star_partials rule seg (x : Tensor.t) =
  let w = x.Tensor.width and batch = x.Tensor.batch in
  let n = w + Segments.count seg in
  let into = Tensor.create ~batch ~width:n in
  let g = Tensor.init ~batch ~width:n (fun _ i -> if i < w then 0.0 else 1.0) in
  let p = star_sweep rule seg x ~g ~into in
  ((fun b s -> Tensor.get p b (w + s)), fun b i -> Tensor.get into b i)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Eq. (6)'s product over each segment, in element order, bit for bit *)
let seg_prod_matches_naive =
  qtest "segment prod matches naive" seg_gen (fun (seg, t) ->
      let q, _ = star_partials Propagation.Independent seg t in
      let owners = owners seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          let acc = ref 1.0 in
          Array.iteri (fun i o -> if o = s then acc := !acc *. (1.0 +. -.Tensor.get t b i)) owners;
          if not (same_float (1.0 +. -. !acc) (q b s)) then ok := false
        done
      done;
      !ok)

(* Eq. (7): exactly one element of a non-empty segment takes the
   adjoint, and it holds the maximum; an empty segment gives 0 *)
let seg_max_argmax_consistent =
  qtest "segment max value matches its argmax element" seg_gen (fun (seg, t) ->
      let q, d = star_partials Propagation.Correlated seg t in
      let owners = owners seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          let members =
            List.filter (fun i -> owners.(i) = s) (List.init (Array.length owners) Fun.id)
          in
          if List.exists (fun i -> Tensor.get t b i > q b s) members then ok := false;
          match List.filter (fun i -> d b i <> 0.0) members with
          | [] -> if members <> [] || q b s <> 0.0 then ok := false
          | [ i ] -> if d b i <> 1.0 || not (same_float (Tensor.get t b i) (q b s)) then ok := false
          | _ -> ok := false
        done
      done;
      !ok)

(* Eq. (6)'s partials: each element gets the product of the other
   factors 1 - x of its segment, which the sweep forms by prefix and
   suffix *)
let seg_prod_grad_scratch_correct =
  qtest "product-of-others matches per-element recompute" seg_gen (fun (seg, t) ->
      let _, d = star_partials Propagation.Independent seg t in
      let owners = owners seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        Array.iteri
          (fun i o ->
            let acc = ref 1.0 in
            Array.iteri
              (fun j o' -> if o' = o && j <> i then acc := !acc *. (1.0 -. Tensor.get t b j))
              owners;
            if not (Test_util.float_close !acc (d b i)) then ok := false)
          owners
      done;
      !ok)

let seg_softmax_sums_to_one =
  qtest "segment softmax sums to 1 per segment" seg_gen (fun (seg, t) ->
      let out = Segments.softmax t seg in
      let sums = Segments.sum out seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          if Segments.seg_len seg s > 0 then
            if not (Test_util.float_close 1.0 (Tensor.get sums b s)) then ok := false
        done
      done;
      !ok)

(* segments with hard values (ties, signed zeros, sub-floor values),
   plus a seed for the operands the gradient kernels need *)
let hard_seg_gen =
  QCheck2.Gen.(
    bind (pair (int_range 1 3) (list_size (int_range 1 6) (int_range 0 4))) (fun (b, lens) ->
        map
          (fun seed ->
            let seg = Segments.of_lens (Array.of_list lens) in
            let rng = Rng.create seed in
            let width = List.fold_left ( + ) 0 lens in
            (seg, hard_tensor rng ~batch:b ~width, seed))
          (int_bound 1_000_000)))

(* [star_sweep] for hard adjoints added into a hard [into]: p and the
   accumulated adjoint *)
let star_case rule x seg rng =
  let batch = x.Tensor.batch and n = x.Tensor.width + Segments.count seg in
  let g = hard_tensor rng ~batch ~width:n in
  let into = hard_tensor rng ~batch ~width:n in
  let p = star_sweep rule seg x ~g ~into in
  (p, into)

(* every kernel run on one (segments, x, rng) triple; returns each form *)
let seg_cases =
  let same_as (x : Tensor.t) = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  let per_seg (x : Tensor.t) seg =
    Tensor.create ~batch:x.Tensor.batch ~width:(Segments.count seg)
  in
  [
    ( "segment softmax",
      fun x seg _ ->
        let out = same_as x in
        Segments.softmax_into ~out x seg;
        [ Segments.softmax x seg; out ] );
    ( "segment sum",
      fun x seg _ ->
        let out = per_seg x seg in
        Segments.sum_into ~out x seg;
        [ Segments.sum x seg; out ] );
    ("segment prod", fun x seg rng -> [ fst (star_case Propagation.Independent x seg rng) ]);
    ("segment max", fun x seg rng -> [ fst (star_case Propagation.Correlated x seg rng) ]);
    ( "segment gather",
      fun x _ rng ->
        let w = x.Tensor.width in
        let idx = Array.init (if w = 0 then 0 else 2 * w) (fun _ -> Rng.int rng w) in
        let out = Tensor.create ~batch:x.Tensor.batch ~width:(Array.length idx) in
        Segments.gather_into ~out x idx;
        [ Segments.gather x idx; out ] );
    ( "segment scatter_add",
      fun x _ rng ->
        let w = x.Tensor.width in
        let idx = Array.init w (fun _ -> Rng.int rng w) in
        let into = hard_tensor rng ~batch:x.Tensor.batch ~width:w in
        Segments.scatter_add ~into idx x;
        [ into ] );
    ( "segment softmax_grad",
      fun x seg rng ->
        let into = hard_tensor rng ~batch:x.Tensor.batch ~width:x.Tensor.width in
        let g = hard_tensor rng ~batch:x.Tensor.batch ~width:x.Tensor.width in
        Segments.softmax_grad ~into ~g ~y:(Segments.softmax x seg) seg;
        [ into ] );
    ("segment prod_grad", fun x seg rng -> [ snd (star_case Propagation.Independent x seg rng) ]);
    ("segment max_grad", fun x seg rng -> [ snd (star_case Propagation.Correlated x seg rng) ]);
  ]

let seg_backends_agree =
  List.map
    (fun (name, run) ->
      qtest
        (Printf.sprintf "backends agree on %s" name)
        hard_seg_gen
        (fun (seg, x, seed) ->
          (* each backend's run draws the same operands from its own rng *)
          same_bits_on_both_backends (fun () -> run x seg (Rng.create seed))))
    seg_cases

(* The segment gradient kernels against the composites the tape used
   to build from forward kernels (segment sum, gather, elementwise
   multiply and add), on both backends. *)
let seg_grads_match_composites =
  qtest "segment gradient kernels match their composites bitwise" hard_seg_gen
    (fun (seg, x, seed) ->
      let rng = Rng.create seed in
      let b = x.Tensor.batch and w = x.Tensor.width in
      let acc = hard_tensor rng ~batch:b ~width:w in
      let g_full = hard_tensor rng ~batch:b ~width:w in
      let owner = owners seg in
      let composite delta = accumulated acc (fun d -> Tensor.add_inplace d delta) in
      List.for_all
        (fun mode ->
          Tensor.Backend.with_mode mode @@ fun () ->
          let y = Segments.softmax x seg in
          Tensor.bits_equal
            (accumulated acc (fun into -> Segments.softmax_grad ~into ~g:g_full ~y seg))
            (composite
               (Tensor.mul y
                  (Tensor.sub g_full
                     (Segments.gather (Segments.sum (Tensor.mul g_full y) seg) owner)))))
        [ Tensor.Backend.Vectorized; Tensor.Backend.Scalar ])

(* The propagation sweep, forward and backward, on random e-graphs with
   cycles under every rule, over hard values (ties, signed zeros, p at
   exactly 1): the Scalar path must give the Vectorized bits. *)
let propagate_backends_agree =
  qtest ~count:200 "backends agree on propagate"
    QCheck2.Gen.(
      triple (Test_util.arb_egraph ~cycle_prob:0.35 ()) (int_range 1 20) (int_bound 1_000_000))
    (fun (g, batch, seed) ->
      let rule =
        [| Propagation.Independent; Propagation.Correlated; Propagation.Hybrid |].(seed mod 3)
      in
      let s = Relaxation.schedule rule g in
      let n = Egraph.num_nodes g in
      let run mode =
        Tensor.Backend.with_mode mode @@ fun () ->
        let rng = Rng.create seed in
        let cp = hard_tensor rng ~batch ~width:n in
        let g = hard_tensor rng ~batch ~width:n in
        let into = hard_tensor rng ~batch ~width:n in
        let p = Tensor.create ~batch ~width:n in
        let st = Propagation.state s ~batch in
        Propagation.forward s st ~out:p cp;
        Propagation.backward s st (Propagation.scratch s ~batch) ~cp ~p ~g ~into;
        (p, into)
      in
      let p1, d1 = run Tensor.Backend.Vectorized and p2, d2 = run Tensor.Backend.Scalar in
      Tensor.bits_equal p1 p2 && Tensor.bits_equal d1 d2)

(* The row-at-a-time sweep that [Propagation]'s kernels replaced, kept
   as their oracle: each row walks the whole schedule and decodes every
   class again. It takes [Propagation.make]'s inputs, since a schedule is
   abstract, and holds each row's q and argmax edges at [b * q_len +
   slot]. *)
module Row_sweep = struct
  type t = {
    rule : Propagation.rule;
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
  }

  let make ~rule ~root ~nodes ~parent_node ~parents ~components ~local_rounds =
    let m = Segments.count nodes and ncomp = Array.length components in
    let node_class = Array.make nodes.Segments.width 0 in
    for c = 0 to m - 1 do
      for n = nodes.Segments.starts.(c) to nodes.Segments.starts.(c) + nodes.Segments.lens.(c) - 1 do
        node_class.(n) <- c
      done
    done;
    let comp_of = Array.make m 0 in
    Array.iteri (fun k comp -> Array.iter (fun c -> comp_of.(c) <- k) comp) components;
    let cyclic = Array.make ncomp false in
    for c = 0 to m - 1 do
      let st = parents.Segments.starts.(c) in
      for e = st to st + parents.Segments.lens.(c) - 1 do
        if comp_of.(node_class.(parent_node.(e))) = comp_of.(c) then cyclic.(comp_of.(c)) <- true
      done
    done;
    let rounds =
      Array.mapi
        (fun k comp -> if cyclic.(k) then max 1 (local_rounds (Array.length comp)) else 1)
        components
    in
    let comp_start = Array.make (ncomp + 1) 0 and q_at = Array.make m 0 and q_len = ref 0 in
    for k = 0 to ncomp - 1 do
      let size = Array.length components.(k) in
      comp_start.(k + 1) <- comp_start.(k) + size;
      Array.iteri (fun i c -> q_at.(c) <- !q_len + i) components.(k);
      q_len := !q_len + (rounds.(k) * size)
    done;
    {
      rule; root; nodes; parent_node; parents; node_class;
      order = Array.concat (Array.to_list components);
      comp_start; comp_of; cyclic; rounds; q_at; q_len = !q_len;
      max_parents = Array.fold_left max 0 parents.Segments.lens;
    }

  let width s = s.nodes.Segments.width

  let class_q s ~p ~base ~q ~arg ~qi c =
    if c = s.root then begin
      q.(qi) <- 1.0;
      arg.(qi) <- -1
    end
    else begin
      let pn = s.parent_node in
      let st = s.parents.Segments.starts.(c) and len = s.parents.Segments.lens.(c) in
      let prod = ref 1.0 in
      for e = st to st + len - 1 do
        prod := !prod *. (1.0 +. -.p.(base + pn.(e)))
      done;
      let ind = 1.0 +. -. !prod in
      let cor =
        if len = 0 then begin
          arg.(qi) <- -1;
          0.0
        end
        else begin
          let best = ref p.(base + pn.(st)) and besti = ref st in
          for e = st + 1 to st + len - 1 do
            let v = p.(base + pn.(e)) in
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
        (match s.rule with
        | Propagation.Independent -> ind
        | Correlated -> cor
        | Hybrid -> 0.5 *. (ind +. cor))
    end

  let class_p s ~cp ~p ~base ~q ~qi c =
    let st = s.nodes.Segments.starts.(c) in
    for n = base + st to base + st + s.nodes.Segments.lens.(c) - 1 do
      p.(n) <- cp.(n) *. q.(qi)
    done

  (* p for every row of cp, with each row's q and argmax edges *)
  let forward s ~batch cp p =
    let q = Array.make (batch * s.q_len) 0.0 and arg = Array.make (batch * s.q_len) (-1) in
    for b = 0 to batch - 1 do
      let base = b * width s and qbase = b * s.q_len in
      for k = 0 to Array.length s.rounds - 1 do
        let lo = s.comp_start.(k) and hi = s.comp_start.(k + 1) in
        let size = hi - lo in
        if s.cyclic.(k) then
          for i = lo to hi - 1 do
            let c = s.order.(i) in
            let q0 = if c = s.root then 1.0 else 0.0 in
            let nst = s.nodes.Segments.starts.(c) in
            for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
              p.(n) <- cp.(n) *. q0
            done
          done;
        for r = 0 to s.rounds.(k) - 1 do
          for i = lo to hi - 1 do
            let c = s.order.(i) in
            class_q s ~p ~base ~q ~arg ~qi:(qbase + s.q_at.(c) + (r * size)) c
          done;
          for i = lo to hi - 1 do
            let c = s.order.(i) in
            class_p s ~cp ~p ~base ~q ~qi:(qbase + s.q_at.(c) + (r * size)) c
          done
        done
      done
    done;
    (q, arg)

  let class_backward s ~cp ~p ~into ~q ~arg ~adj ~ys ~others ~cur ~nxt ~b ~k ~r c =
    let base = b * width s and qbase = b * s.q_len in
    let size = s.comp_start.(k + 1) - s.comp_start.(k) in
    let qi = qbase + s.q_at.(c) + (r * size) in
    let qc = q.(qi) in
    let gq = ref 0.0 in
    let nst = s.nodes.Segments.starts.(c) in
    for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
      let a = cur.(n) in
      into.(n) <- into.(n) +. (a *. qc);
      gq := !gq +. (a *. cp.(n))
    done;
    if c <> s.root then begin
      let pn = s.parent_node in
      let pst = s.parents.Segments.starts.(c) and plen = s.parents.Segments.lens.(c) in
      let obase = b * s.max_parents in
      let gi, gc =
        match s.rule with
        | Propagation.Independent -> (!gq, 0.0)
        | Correlated -> (0.0, !gq)
        | Hybrid -> (0.5 *. !gq, 0.5 *. !gq)
      in
      let target kk = if s.comp_of.(s.node_class.(kk)) = k then nxt else adj in
      if s.rule <> Propagation.Correlated then begin
        for e = pst to pst + plen - 1 do
          let kk = pn.(e) in
          let d = s.node_class.(kk) in
          let x =
            if s.comp_of.(d) <> k then p.(base + kk)
            else if r = 0 then cp.(base + kk) *. if d = s.root then 1.0 else 0.0
            else cp.(base + kk) *. q.(qbase + s.q_at.(d) + ((r - 1) * size))
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
          let j = obase + e - pst and kk = pn.(e) in
          let t = target kk in
          t.(base + kk) <- t.(base + kk) +. (gi *. (others.(j) *. !acc));
          acc := !acc *. ys.(j)
        done
      end;
      if s.rule <> Propagation.Independent then begin
        let e = arg.(qi) in
        if e >= 0 then begin
          let kk = pn.(e) in
          let t = target kk in
          t.(base + kk) <- t.(base + kk) +. gc
        end
      end
    end

  (* adds into [into] cp's adjoint for p's adjoint [g], from the q and
     argmax edges [forward] returned for this cp *)
  let backward s ~batch (q, arg) ~cp ~p ~g ~into =
    let w = width s in
    let adj = Array.copy g and alt = Array.make (batch * w) 0.0 in
    let ys = Array.make (batch * s.max_parents) 0.0 in
    let others = Array.make (batch * s.max_parents) 0.0 in
    for b = 0 to batch - 1 do
      let base = b * w in
      for k = Array.length s.rounds - 1 downto 0 do
        let lo = s.comp_start.(k) and hi = s.comp_start.(k + 1) in
        let back ~cur ~nxt ~r c =
          class_backward s ~cp ~p ~into ~q ~arg ~adj ~ys ~others ~cur ~nxt ~b ~k ~r c
        in
        if not s.cyclic.(k) then back ~cur:adj ~nxt:adj ~r:0 s.order.(lo)
        else begin
          let cur = ref adj and nxt = ref alt in
          for r = s.rounds.(k) - 1 downto 0 do
            for i = lo to hi - 1 do
              let c = s.order.(i) in
              Array.fill !nxt (base + s.nodes.Segments.starts.(c)) s.nodes.Segments.lens.(c) 0.0
            done;
            for i = lo to hi - 1 do
              back ~cur:!cur ~nxt:!nxt ~r s.order.(i)
            done;
            let t = !cur in
            cur := !nxt;
            nxt := t
          done;
          for i = lo to hi - 1 do
            let c = s.order.(i) in
            let q0 = if c = s.root then 1.0 else 0.0 in
            let nst = s.nodes.Segments.starts.(c) in
            for n = base + nst to base + nst + s.nodes.Segments.lens.(c) - 1 do
              into.(n) <- into.(n) +. (!cur.(n) *. q0)
            done
          done
        end
      done
    done
end

(* [hard_tensor] with a NaN in about one element of 16 *)
let hard_nan_tensor rng ~batch ~width =
  Tensor.init ~batch ~width (fun _ _ -> if Rng.int rng 16 = 0 then Float.nan else hard_value rng)

(* The class-by-class kernels against the row-at-a-time oracle, bit for
   bit, on random e-graphs with cycles under every rule, on both
   backends, over hard values: ties, signed zeros, p at exactly 1, NaN. *)
let propagate_matches_row_sweep =
  qtest ~count:200 "propagate = row-at-a-time sweep, bitwise"
    QCheck2.Gen.(
      triple (Test_util.arb_egraph ~cycle_prob:0.35 ()) (int_range 1 20) (int_bound 1_000_000))
    (fun (g, batch, seed) ->
      let n = Egraph.num_nodes g in
      let rng = Rng.create seed in
      let cp = hard_nan_tensor rng ~batch ~width:n in
      let g_adj = hard_nan_tensor rng ~batch ~width:n in
      let into0 = hard_tensor rng ~batch ~width:n in
      List.for_all
        (fun rule ->
          let inputs make =
            make ~rule ~root:g.Egraph.root ~nodes:g.Egraph.class_seg
              ~parent_node:g.Egraph.parent_edge_node ~parents:g.Egraph.parent_seg
              ~components:(Array.of_list (List.rev (Array.to_list g.Egraph.sccs)))
              ~local_rounds:(fun size -> min 96 (size + 3))
          in
          let r = inputs Row_sweep.make in
          let want_p = Tensor.create ~batch ~width:n and want_into = Tensor.copy into0 in
          let qa = Row_sweep.forward r ~batch (Tensor.unsafe_data cp) (Tensor.unsafe_data want_p) in
          Row_sweep.backward r ~batch qa ~cp:(Tensor.unsafe_data cp)
            ~p:(Tensor.unsafe_data want_p) ~g:(Tensor.unsafe_data g_adj)
            ~into:(Tensor.unsafe_data want_into);
          let s = inputs Propagation.make in
          List.for_all
            (fun mode ->
              Tensor.Backend.with_mode mode @@ fun () ->
              let p = Tensor.create ~batch ~width:n and into = Tensor.copy into0 in
              let st = Propagation.state s ~batch in
              Propagation.forward s st ~out:p cp;
              Propagation.backward s st (Propagation.scratch s ~batch) ~cp ~p ~g:g_adj ~into;
              Tensor.bits_equal p want_p && Tensor.bits_equal into want_into)
            [ Tensor.Backend.Vectorized; Tensor.Backend.Scalar ])
        [ Propagation.Independent; Propagation.Correlated; Propagation.Hybrid ])

(* A forward plus a backward on a made state and scratch allocates
   only its two chunk closures (and the option boxes of their
   arguments): its per-row products, maxima, argmax edges, adjoint
   sums, factors and prefix products live in the state and scratch. On
   box_3 at batch 16 the row-at-a-time kernels allocated 49 words per
   pair of calls; a per-call array of one float per row would add 17. *)
let test_propagate_allocation () =
  let g = (Registry.find_instance "box_3").Registry.build () in
  let s = Relaxation.schedule Propagation.Hybrid g in
  let batch = 16 and n = Egraph.num_nodes g in
  let rng = Rng.create 3 in
  let cp = Segments.softmax (hard_tensor rng ~batch ~width:n) g.Egraph.class_seg in
  let adj = hard_tensor rng ~batch ~width:n in
  let p = Tensor.create ~batch ~width:n and into = Tensor.create ~batch ~width:n in
  let st = Propagation.state s ~batch and sc = Propagation.scratch s ~batch in
  let run () =
    Propagation.forward s st ~out:p cp;
    Propagation.backward s st sc ~cp ~p ~g:adj ~into
  in
  let was_on = !Obs.on in
  Obs.on := false;
  Fun.protect ~finally:(fun () -> Obs.on := was_on) @@ fun () ->
  run ();
  let before = Test_util.allocated_words () in
  run ();
  let words = Test_util.allocated_words () -. before in
  if words > 52.0 then Alcotest.failf "forward + backward allocated %.0f words (bound 52)" words

let test_gather_scatter () =
  let src = Tensor.of_array ~batch:2 ~width:3 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let g = Segments.gather src [| 2; 0; 2 |] in
  Alcotest.(check (list (float 1e-9))) "gather row0" [ 3.0; 1.0; 3.0 ]
    (Array.to_list (Tensor.row g 0));
  let into = Tensor.create ~batch:2 ~width:3 in
  Segments.scatter_add ~into [| 2; 0; 2 |] g;
  (* column 2 receives 3+3, column 0 receives 1 *)
  Test_util.check_close ~msg:"scatter col2" 6.0 (Tensor.get into 0 2);
  Test_util.check_close ~msg:"scatter col0" 1.0 (Tensor.get into 0 0);
  Test_util.check_close ~msg:"scatter col1" 0.0 (Tensor.get into 0 1)

let () =
  Alcotest.run "tensor"
    [
      ( "dense",
        [
          Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "reductions" `Quick test_reductions;
          dense_grads_match_composites;
        ]
        @ List.map backends_agree dense_cases );
      ( "matmul",
        [
          Alcotest.test_case "known product" `Quick test_matmul_known;
          matmul_identity;
          transpose_involution;
        ] );
      ("lu", [ lu_solves; Alcotest.test_case "singular" `Quick test_lu_singular ]);
      ( "expm",
        [
          expm_matches_taylor;
          Alcotest.test_case "zero" `Quick test_expm_zero;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "diagonal" `Quick test_expm_diag;
          Alcotest.test_case "scaling path" `Quick test_expm_scaling_path;
          Alcotest.test_case "NOTEARS criterion" `Quick test_notears_criterion;
        ] );
      ( "segments",
        [
          Alcotest.test_case "structure" `Quick test_segments_structure;
          seg_sum_matches_naive;
          seg_prod_matches_naive;
          seg_softmax_sums_to_one;
          seg_max_argmax_consistent;
          seg_prod_grad_scratch_correct;
          propagate_backends_agree;
          propagate_matches_row_sweep;
          Alcotest.test_case "propagate allocates no arrays per call" `Quick
            test_propagate_allocation;
          Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
          seg_grads_match_composites;
        ]
        @ seg_backends_agree );
    ]
