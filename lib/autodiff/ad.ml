(* The IR is side-effect-free data derived from the tape on demand, so
   static analyses (lib/analysis) can inspect what a forward pass built
   without re-running any kernel. *)
module Ir = struct
  type node = { op : Op.t; args : int array; shape : Op.shape; context : string }
  type t = node array
end

(* A tape node keeps what its backward needs and nothing more: the op,
   its operand ids and values, its forward state. The sweep calls
   [Op.backward] on them directly; the IR is derived on demand. *)
type v = {
  tp : tape;
  id : int;  (* position on the tape = index into the IR *)
  op : Op.t;
  args : int array;
  xs : Tensor.t array;  (* operand values, in operand order *)
  value : Tensor.t;
  state : Op.state;
  context : string;
  mutable grad : Tensor.t option;
}

and tape = { nodes : v Vec.t; mutable swept : bool }

let tape () = { nodes = Vec.create (); swept = false }
let node_count tp = Vec.length tp.nodes

let ir tp =
  Array.init (Vec.length tp.nodes) (fun i ->
      let n = Vec.get tp.nodes i in
      {
        Ir.op = n.op;
        args = n.args;
        shape = { Op.batch = n.value.Tensor.batch; width = n.value.Tensor.width };
        context = n.context;
      })

let values tp = Array.init (Vec.length tp.nodes) (fun i -> (Vec.get tp.nodes i).value)
let node_id n = n.id
let value n = n.value

(* Ambient provenance chain recorded into every IR node, so diagnostics
   can say where on the tape an op was built. Nested [with_context]
   calls stack; the recorded label joins the chain outermost→innermost
   ("smoothe.forward/cost_model.relaxed"), memoised per push so [push]
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

let push tp op args xs value state =
  let n =
    { tp; id = Vec.length tp.nodes; op; args; xs; value; state; context = context_label (); grad = None }
  in
  Vec.push tp.nodes n;
  n

let const tp t = push tp Op.Const [||] [||] t (Op.state Op.Const [||])
let param tp t = push tp Op.Param [||] [||] t (Op.state Op.Param [||])

let apply op operands =
  let tp = operands.(0).tp in
  for k = 1 to Array.length operands - 1 do
    if operands.(k).tp != tp then
      invalid_arg
        (Printf.sprintf
           "Ad.%s: operand node %d was built on a different tape — mixing tapes silently \
            detaches gradients"
           (Op.name op) operands.(k).id)
  done;
  let xs = Array.map value operands in
  let shapes = Array.map (fun x -> { Op.batch = x.Tensor.batch; width = x.Tensor.width }) xs in
  match Op.shape op shapes with
  | Ok (Some s) ->
      let y = Tensor.create ~batch:s.Op.batch ~width:s.Op.width in
      let state = Op.state op xs in
      Op.forward op state (Op.forward_scratch op xs) ~out:y xs;
      push tp op (Array.map node_id operands) xs y state
  | Ok None -> invalid_arg (Printf.sprintf "Ad.%s: a leaf has no operands" (Op.name op))
  | Error es ->
      invalid_arg
        (Printf.sprintf "Ad.%s: %s" (Op.name op) (String.concat "; " (List.map snd es)))

let backward out =
  let tp = out.tp in
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
      match n.grad with
      | Some g ->
          for k = 0 to Array.length n.args - 1 do
            let into = grad_tensor (Vec.get tp.nodes n.args.(k)) in
            Op.backward n.op n.state (Op.backward_scratch n.op n.xs ~k) ~y:n.value ~g n.xs ~k
              ~into
          done
      | None -> ()
    done
  in
  if !Obs.on then begin
    Metrics.observe "ad.tape_nodes" (float_of_int (Vec.length tp.nodes));
    Trace.with_span ~cat:"ad"
      ~attrs:[ ("nodes", string_of_int (Vec.length tp.nodes)) ]
      "ad.backward" sweep
  end
  else sweep ()

let add a b = apply Op.Add [| a; b |]
let sub a b = apply Op.Sub [| a; b |]
let mul a b = apply Op.Mul [| a; b |]
let scale k a = apply (Op.Scale k) [| a |]
let add_scalar k a = apply (Op.Add_scalar k) [| a |]
let relu a = apply Op.Relu [| a |]
let log_safe a = apply Op.Log_safe [| a |]
let gather a idx = apply (Op.Gather idx) [| a |]
let segment_softmax a seg = apply (Op.Segment_softmax seg) [| a |]
let mean_rows a = apply Op.Mean_rows [| a |]
let slice_row a b = apply (Op.Slice_row b) [| a |]
let sum_all a = apply Op.Sum_all [| a |]
let mean_all a = scale (1.0 /. float_of_int (Tensor.numel a.value)) (sum_all a)
let dot_const a u = apply (Op.Dot_const u) [| a |]
let linear ~input ~weight ~bias = apply Op.Linear [| input; weight; bias |]

let mse ~pred ~target =
  let diff = sub pred target in
  mean_all (mul diff diff)

let matrix_of_entries cp ~dim entries = apply (Op.Matrix_of_entries { dim; entries }) [| cp |]
let expm_trace a = apply Op.Expm_trace [| a |]
let propagate cp s = apply (Op.Propagate s) [| cp |]

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
