(* Shared helpers for the test-suite: a brute-force extraction oracle for
   tiny e-graphs, reproducible random e-graph generators and random
   checkpoint snapshots. *)

(* Enumerate every per-class choice assignment, validate, and return the
   minimum DAG cost and witnessing solution. Exponential — only for
   e-graphs whose choice-space product is small. *)
let brute_force_optimum ?(limit = 2_000_000) g =
  let m = Egraph.num_classes g in
  let space =
    Array.fold_left
      (fun acc members -> acc * Array.length members)
      1 g.Egraph.class_nodes
  in
  if space > limit || space <= 0 then
    invalid_arg (Printf.sprintf "brute_force_optimum: %d assignments is too many" space);
  let pick = Array.map (fun members -> members.(0)) g.Egraph.class_nodes in
  let indices = Array.make m 0 in
  let best_cost = ref infinity in
  let best = ref None in
  let rec enumerate c =
    if c = m then begin
      let s = Egraph.Solution.of_node_choice g pick in
      let cost = Egraph.Solution.dag_cost g s in
      if cost < !best_cost then begin
        best_cost := cost;
        best := Some s
      end
    end
    else
      for i = 0 to Array.length g.Egraph.class_nodes.(c) - 1 do
        indices.(c) <- i;
        pick.(c) <- g.Egraph.class_nodes.(c).(i);
        enumerate (c + 1)
      done
  in
  enumerate 0;
  !best_cost, !best

(* Random e-graph: [classes] e-classes, each with 1..max_class_size
   nodes; children drawn from earlier classes (guaranteeing a DAG and
   derivability) except that with probability [cycle_prob] a node also
   points at a later (or its own) class, introducing cycles. Class 0 is
   the root. *)
let random_egraph ?(max_class_size = 3) ?(max_children = 2) ?(cycle_prob = 0.0) rng ~classes =
  let b = Egraph.Builder.create ~name:"random" () in
  let ids = Array.init classes (fun _ -> Egraph.Builder.add_class b) in
  (* Build bottom-up: class k may reference classes k+1.. (children are
     later indices so that index 0 can be the root). *)
  for c = classes - 1 downto 0 do
    let node_count = 1 + Rng.int rng max_class_size in
    for _ = 1 to node_count do
      let children = ref [] in
      if c < classes - 1 then begin
        let kid_count = Rng.int rng (max_children + 1) in
        for _ = 1 to kid_count do
          children := ids.(c + 1 + Rng.int rng (classes - c - 1)) :: !children
        done
      end;
      if Rng.uniform rng < cycle_prob then
        (* a backward (or self) reference: candidate cycle *)
        children := ids.(Rng.int rng (c + 1)) :: !children;
      ignore
        (Egraph.Builder.add_node b ~cls:ids.(c)
           ~op:(Printf.sprintf "op%d" (Rng.int rng 8))
           ~cost:(float_of_int (Rng.int rng 20))
           ~children:!children)
    done
  done;
  Egraph.Builder.freeze b ~root:ids.(0)

(* QCheck arbitrary wrapper: seeds drawn by qcheck, e-graph derived
   deterministically. *)
let arb_egraph ?(max_classes = 8) ?(cycle_prob = 0.0) () =
  QCheck2.Gen.map
    (fun (seed, classes) ->
      let rng = Rng.create seed in
      random_egraph ~cycle_prob rng ~classes)
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 max_classes))

let float_close ?(tol = 1e-6) a b =
  if Float.is_finite a && Float.is_finite b then
    Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)
  else a = b

let check_close ?tol ~msg a b =
  if not (float_close ?tol a b) then
    Alcotest.failf "%s: %.12g vs %.12g" msg a b

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

let health_log events =
  let log = Health.create () in
  List.iter (Health.add log) events;
  log

(* Random checkpoint snapshots, shaped as the decoder insists (θ and
   the moments batch × nodes as the fingerprint says). *)
let snapshot_gen =
  let open QCheck2.Gen in
  let f64 = float in
  let kind =
    oneofl
      [
        Health.Fault_injected; Health.Nan_detected; Health.Recovery; Health.Oom_derate;
        Health.Timeout; Health.Member_failed; Health.Budget_reallocated; Health.Degraded;
        Health.Checkpoint_corrupt; Health.Resumed; Health.Plan;
      ]
  in
  let small_string = string_size ~gen:(char_range 'a' 'z') (int_range 0 8) in
  let event =
    f64 >>= fun at ->
    small_string >>= fun member ->
    kind >>= fun kind ->
    small_string >|= fun detail -> { Health.at; member; kind; detail }
  in
  let choice =
    option (list_size (int_range 0 6) (option (int_range 0 1000)) >|= Array.of_list)
  in
  let history_point =
    nat >>= fun iter ->
    f64 >>= fun elapsed ->
    f64 >>= fun relaxed_loss ->
    f64 >>= fun sampled_cost ->
    f64 >|= fun incumbent ->
    { Checkpoint.iter; elapsed; relaxed_loss; sampled_cost; incumbent }
  in
  small_string >>= fun fp_graph ->
  int_range 1 4 >>= fun fp_nodes ->
  int_range 1 1000 >>= fun fp_classes ->
  int_range 0 9999 >>= fun fp_seed ->
  int_range 1 3 >>= fun fp_batch ->
  (* the decoder insists θ and the moments are shaped as the fingerprint *)
  let tensor =
    array_repeat (fp_batch * fp_nodes) f64 >|= Tensor.of_array ~batch:fp_batch ~width:fp_nodes
  in
  int_range 0 10_000 >>= fun iter ->
  f64 >>= fun elapsed ->
  array_repeat 4 (map Int64.of_int int) >>= fun rng_words ->
  tensor >>= fun theta ->
  tensor >>= fun adam_m ->
  tensor >>= fun adam_v ->
  int_range 0 10_000 >>= fun adam_step ->
  f64 >>= fun adam_lr ->
  f64 >>= fun best_cost ->
  int_range (-1) 63 >>= fun best_seed ->
  choice >>= fun best_choice ->
  option (array_repeat fp_nodes f64) >>= fun best_cp ->
  int_range 0 10_000 >>= fun last_improvement ->
  int_range 0 5 >>= fun recoveries ->
  int_range 0 4 >>= fun ladder_rung ->
  list_size (int_range 0 5) (pair f64 f64) >>= fun trace ->
  list_size (int_range 0 5) history_point >>= fun history ->
  list_size (int_range 0 4) event >|= fun events ->
  {
    Checkpoint.fingerprint = { Checkpoint.fp_graph; fp_nodes; fp_classes; fp_seed; fp_batch };
    iter; elapsed; rng_state = rng_words; theta; adam_m; adam_v; adam_step; adam_lr;
    best_cost; best_seed; best_choice; best_cp; last_improvement; recoveries; ladder_rung;
    trace; history; health = health_log events;
  }
