type adam = {
  params : Tensor.t array;
  m : Tensor.t array;
  v : Tensor.t array;
  lr : float;
  mutable step : int;
}

let beta1 = 0.9
let beta2 = 0.999
let eps = 1e-8

let like t = Tensor.create ~batch:t.Tensor.batch ~width:t.Tensor.width

let adam ~lr params =
  let params = Array.of_list params in
  { params; m = Array.map like params; v = Array.map like params; lr; step = 0 }

let adam_update ~lr ~step ~m ~v p ~grad =
  let t = float_of_int step in
  let bc1 = 1.0 -. (beta1 ** t) in
  let bc2 = 1.0 -. (beta2 ** t) in
  let pd = Tensor.unsafe_data p
  and md = Tensor.unsafe_data m
  and vd = Tensor.unsafe_data v
  and gd = Tensor.unsafe_data grad in
  for i = 0 to Tensor.numel p - 1 do
    let gi = gd.(i) in
    md.(i) <- (beta1 *. md.(i)) +. ((1.0 -. beta1) *. gi);
    vd.(i) <- (beta2 *. vd.(i)) +. ((1.0 -. beta2) *. gi *. gi);
    let mhat = md.(i) /. bc1 and vhat = vd.(i) /. bc2 in
    pd.(i) <- pd.(i) -. (lr *. mhat /. (sqrt vhat +. eps))
  done

let adam_step opt grads =
  let grads = Array.of_list grads in
  if Array.length grads <> Array.length opt.params then
    invalid_arg "Optim.adam_step: gradient count mismatch";
  opt.step <- opt.step + 1;
  Array.iteri
    (fun k grad ->
      adam_update ~lr:opt.lr ~step:opt.step ~m:opt.m.(k) ~v:opt.v.(k) opt.params.(k) ~grad)
    grads

let clip_grad_norm ~max_norm grads =
  let sq = List.fold_left (fun acc g -> acc +. Tensor.dot g g) 0.0 grads in
  let norm = sqrt sq in
  if norm > max_norm && norm > 0.0 then begin
    let k = max_norm /. norm in
    List.iter (Tensor.scale_inplace k) grads
  end;
  norm
