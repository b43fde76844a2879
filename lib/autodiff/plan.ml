(* Compiles a captured tape into a static replay schedule: one closure
   per forward op and per node's backward pulls, over buffers allocated
   once at compile time. Each closure calls the [Op.forward] or
   [Op.backward] the interpreter calls, with the op's state and scratch
   allocated once instead of per call, and the chain jams fuse unary
   runs while keeping each stage's rounding. So a replayed iteration is
   bit-identical to an interpreted one. The interpreter's lazily-zeroed
   gradient buffers become explicit [fill 0.0] steps scheduled
   immediately before each buffer's first writer; its fresh per-op
   outputs become arena slots (placement supplied by the caller,
   verified independently by lib/analysis/plan_check) or dedicated
   buffers. *)

type capture = { ir : Ad.Ir.t; vals : Tensor.t array; root : int }

let capture tp ~root = { ir = Ad.ir tp; vals = Ad.values tp; root = Ad.node_id root }

(* ---- Stability ---------------------------------------------------- *)

type divergence = { at : int option; payload : bool; what : string }

let divergence (ir1 : Ad.Ir.t) (ir2 : Ad.Ir.t) =
  let n1 = Array.length ir1 and n2 = Array.length ir2 in
  if n1 <> n2 then
    Some { at = None; payload = false; what = Printf.sprintf "tape of %d nodes became %d" n1 n2 }
  else
    let rec node i =
      if i = n1 then None
      else
        let a = ir1.(i) and b = ir2.(i) in
        let name = Op.name a.Ad.Ir.op in
        let at = Some i in
        let changed fmt = Printf.ksprintf (fun what -> Some { at; payload = false; what }) fmt in
        if not (String.equal name (Op.name b.op)) then changed "op %s became %s" name (Op.name b.op)
        else if a.args <> b.args then changed "%s: operands changed" name
        else if a.shape <> b.shape then
          changed "%s: shape %s became %s" name (Op.shape_to_string a.shape)
            (Op.shape_to_string b.shape)
        else if not (String.equal a.context b.context) then
          changed "%s: context %s became %s" name a.context b.context
        else if not (Op.equal a.op b.op) then
          Some { at; payload = true; what = name ^ ": payload changed" }
        else node (i + 1)
    in
    node 0

exception Fail of string

let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

let stable c1 c2 =
  try
    (match divergence c1.ir c2.ir with
    | Some { at = Some i; what; _ } -> failf "node %d: %s between captures" i what
    | Some { at = None; what; _ } -> failf "%s between captures" what
    | None -> ());
    if c1.root <> c2.root then failf "root moved: node %d, then node %d" c1.root c2.root;
    Array.iteri
      (fun i nd ->
        match nd.Ad.Ir.op with
        | Op.Param ->
            if c1.vals.(i) != c2.vals.(i) then
              failf "node %d: param rebound to a different tensor" i
        | Op.Const ->
            if not (Tensor.bits_equal c1.vals.(i) c2.vals.(i)) then
              failf "node %d: const leaf value changed between captures" i
        | _ -> ())
      c1.ir;
    Ok ()
  with Fail msg -> Error msg

(* ---- Gradient materialisation ------------------------------------- *)

type flow = {
  consumers : int list array;
  is_output : bool array;
  requested : bool array;
  feeds_root : bool array;
  carries : bool array;
}

let flow (ir : Ad.Ir.t) ~root ~outputs ~grads =
  let n = Array.length ir in
  let marks ids =
    let m = Array.make n false in
    Array.iter (fun i -> if i >= 0 && i < n then m.(i) <- true) ids;
    m
  in
  let is_output = marks outputs in
  is_output.(root) <- true;
  let requested = marks grads in
  (* consumers, descending by construction (later nodes pushed last) *)
  let consumers = Array.make n [] in
  Array.iteri
    (fun i nd -> Array.iter (fun a -> consumers.(a) <- i :: consumers.(a)) nd.Ad.Ir.args)
    ir;
  (* feeds_root: the backward sweep reaches this node's adjoint *)
  let feeds_root = Array.make n false in
  feeds_root.(root) <- true;
  for i = n - 1 downto 0 do
    if feeds_root.(i) then Array.iter (fun a -> feeds_root.(a) <- true) ir.(i).args
  done;
  (* carries: the subtree holds a param or an explicitly requested
     gradient, so skipping this adjoint could change what a caller
     reads. Gradients that feed only const subtrees are provably unread
     and never materialised. *)
  let carries = Array.make n false in
  for i = 0 to n - 1 do
    carries.(i) <-
      ir.(i).op = Op.Param || requested.(i) || Array.exists (fun a -> carries.(a)) ir.(i).args
  done;
  { consumers; is_output; requested; feeds_root; carries }

type buffers = { interior : bool array; grad_mat : bool array; has_gbuf : bool array }

let buffers fl ~root ~chains =
  let n = Array.length fl.consumers in
  let interior = Array.make n false in
  Array.iter (fun cs -> for m = 0 to Array.length cs - 2 do interior.(cs.(m)) <- true done) chains;
  (* exactly where the interpreter's sweep would write values some
     reader can observe *)
  let grad_mat =
    Array.init n (fun i -> (i = root || (fl.feeds_root.(i) && fl.carries.(i))) && not interior.(i))
  in
  let has_gbuf = Array.init n (fun i -> grad_mat.(i) || (fl.requested.(i) && not interior.(i))) in
  { interior; grad_mat; has_gbuf }

(* ---- Compilation -------------------------------------------------- *)

type arena_spec = { slot_sizes : int array; assign : int array }

type stats = {
  nodes : int;
  steps_forward : int;
  steps_backward : int;
  arena_bytes : int;
  dedicated_bytes : int;
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

(* chain jam stages: tag 0 = neg, 1 = scale, 2 = add_scalar *)
let stage_tag i (op : Op.t) =
  match op with
  | Neg -> (0, 0.0)
  | Scale k -> (1, k)
  | Add_scalar k -> (2, k)
  | _ -> failf "node %d (%s) is not a fusable elementwise op" i (Op.name op)

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
    Array.iter (Array.iter (check_id "chain")) chains;
    let shape_of i = ir.(i).Ad.Ir.shape in
    let numel_of i =
      let s = shape_of i in
      s.Op.batch * s.Op.width
    in
    let fl = flow ir ~root:cap.root ~outputs ~grads in
    let { interior; grad_mat; has_gbuf } = buffers fl ~root:cap.root ~chains in
    (* chain validation and marks *)
    let member = Array.make n false in
    let chain_at = Array.make n (-1) in
    Array.iteri
      (fun ci cs ->
        let k = Array.length cs in
        if k < 2 then failf "chain %d has %d nodes; fusion needs at least 2" ci k;
        Array.iteri
          (fun m c ->
            if member.(c) then failf "node %d appears in two chains" c;
            member.(c) <- true;
            let nd = ir.(c) in
            if not (Op.fusable nd.op) then
              failf "chain %d: node %d (%s) is not a fusable elementwise op" ci c (Op.name nd.op);
            if Array.length nd.args <> 1 then
              failf "chain %d: node %d (%s) is not unary" ci c (Op.name nd.op);
            if m > 0 && nd.args.(0) <> cs.(m - 1) then
              failf "chain %d: node %d does not consume its predecessor %d" ci c cs.(m - 1);
            if nd.shape <> ir.(cs.(0)).shape then
              failf "chain %d: shape changes at node %d" ci c;
            if m < k - 1 then begin
              (match fl.consumers.(c) with
              | [ j ] when j = cs.(m + 1) -> ()
              | _ -> failf "chain %d: interior node %d has consumers outside the chain" ci c);
              if c = cap.root then failf "chain %d: root cannot be a chain interior" ci;
              if fl.is_output.(c) then failf "chain %d: output node %d is a chain interior" ci c;
              if fl.requested.(c) then
                failf "chain %d: node %d's gradient is requested but would be fused away" ci c
            end)
          cs;
        chain_at.(cs.(0)) <- ci)
      chains;
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
      dedicated_floats := !dedicated_floats + (s.Op.batch * s.Op.width);
      Tensor.create ~batch:s.Op.batch ~width:s.Op.width
    in
    let view i slot =
      if numel_of i <> slot_sizes.(slot) then
        failf "node %d: %d elements do not fit arena slot %d (%d elements)" i (numel_of i)
          slot slot_sizes.(slot);
      let s = shape_of i in
      Tensor.of_array ~batch:s.Op.batch ~width:s.Op.width slot_arrays.(slot)
    in
    let leaf i = Op.is_leaf ir.(i).op in
    let node_vals = Array.make n None in
    for i = 0 to n - 1 do
      let slot = assign.(i) in
      if leaf i then begin
        if slot <> -1 then failf "leaf node %d must not live in the arena" i;
        node_vals.(i) <- Some cap.vals.(i)
      end
      else if interior.(i) then begin
        if slot <> -1 then failf "chain-interior node %d has no buffer to place in slot %d" i slot
      end
      else if fl.is_output.(i) then begin
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
        let pinned = i = cap.root || fl.requested.(i) || leaf i in
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
    (* every node that runs its own kernels: its operand values and the
       forward state its backward shares *)
    let kernels =
      Array.init n (fun i ->
          if leaf i || member.(i) then None
          else
            let xs = Array.map v ir.(i).args in
            Some (xs, Op.state ir.(i).op xs))
    in
    (* ---- forward steps ---- *)
    let emit_forward i =
      Option.map
        (fun (xs, st) ->
          let op = ir.(i).op and out = v i in
          let sc = Op.forward_scratch op xs in
          fun () -> Op.forward op st sc ~out xs)
        kernels.(i)
    in
    let fwd_jam ci =
      let cs = chains.(ci) in
      let k = Array.length cs in
      let head = cs.(0) and last = cs.(k - 1) in
      let x = ir.(head).Ad.Ir.args.(0) in
      let tags = Array.make k 0 and ks = Array.make k 0.0 in
      Array.iteri
        (fun m c ->
          let t, kv = stage_tag c ir.(c).op in
          tags.(m) <- t;
          ks.(m) <- kv)
        cs;
      let od = data (v last) and xd = data (v x) and nn = numel_of last in
      (* stage by stage over each chunk, so the stage dispatch sits
         outside the element loops; every stage rounds to a double
         exactly as the unfused op would *)
      fun () ->
        Parallel.chunks nn (fun lo hi ->
            Array.blit xd lo od lo (hi - lo);
            for s = 0 to k - 1 do
              let kv = Array.unsafe_get ks s in
              match Array.unsafe_get tags s with
              | 0 ->
                  for p = lo to hi - 1 do
                    Array.unsafe_set od p (-.Array.unsafe_get od p)
                  done
              | 1 ->
                  for p = lo to hi - 1 do
                    Array.unsafe_set od p (kv *. Array.unsafe_get od p)
                  done
              | _ ->
                  for p = lo to hi - 1 do
                    Array.unsafe_set od p (kv +. Array.unsafe_get od p)
                  done
            done)
    in
    let fwd_steps =
      Array.init n (fun i ->
          if chain_at.(i) >= 0 then Some (fwd_jam chain_at.(i))
          else emit_forward i)
    in
    (* ---- backward cores ---- *)
    (* one pull per operand whose gradient the plan materialises, in
       operand order as the interpreter's sweep runs them *)
    let emit_backward j =
      Option.bind kernels.(j) (fun (xs, st) ->
          let nd = ir.(j) in
          let ks =
            List.filter (fun k -> node_grads.(nd.args.(k)) <> None) (List.init (Array.length nd.args) Fun.id)
            |> Array.of_list
          in
          if ks = [||] then None
          else
            let op = nd.op and y = v j and gj = g j in
            let intos = Array.map (fun k -> g nd.args.(k)) ks in
            let scs = Array.map (fun k -> Op.backward_scratch op xs ~k) ks in
            Some
              (fun () ->
                for p = 0 to Array.length ks - 1 do
                  Op.backward op st (Array.unsafe_get scs p) ~y ~g:gj xs ~k:(Array.unsafe_get ks p)
                    ~into:(Array.unsafe_get intos p)
                done))
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
            let c = cs.(k - 1 - m) in
            let t, kv = stage_tag c ir.(c).op in
            tags.(m) <- t;
            ks.(m) <- kv
          done;
          let head_tag, head_k = stage_tag head ir.(head).op in
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
          else if not grad_mat.(j) then None
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
        match first_writer fl.consumers.(i) with
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
        chains = Array.length chains;
        fused_nodes = Array.fold_left (fun acc cs -> acc + Array.length cs) 0 chains;
      }
    in
    Ok { n; fwd_steps; bwd_cores; bwd_fills; seed; node_vals; node_grads; plan_stats }
  with Fail msg -> Error msg

let stats t = t.plan_stats
let replay_words_per_step = 32.0

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
