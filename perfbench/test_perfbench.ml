(* Tests of the benchmark's own helpers: the tail percentile rule, the
   seeded serve schedule, the independent solution oracle and the
   nesting of the program's spans under the benchmark's. *)

let check name cond = if not cond then failwith ("test_perfbench: " ^ name)

let test_tail_percentile () =
  let beyond n p = n - Pct.rank n p in
  List.iter
    (fun n ->
      match Pct.tail_percentile n with
      | None -> check "no percentile only below 20 samples" (n < 20)
      | Some p ->
          check "at least 10 samples beyond the reported percentile" (beyond n p >= 10);
          List.iter
            (fun q -> if q > p then check "no higher candidate qualifies" (beyond n q < 10))
            Pct.tail_candidates)
    [ 1; 10; 19; 20; 25; 39; 40; 100; 199; 200; 250; 999; 1000; 10_000 ];
  check "200 samples give p95" (Pct.tail_percentile 200 = Some 95.0);
  check "25 samples give the median" (Pct.tail_percentile 25 = Some 50.0);
  check "19 samples give nothing" (Pct.tail_percentile 19 = None);
  check "nearest rank" (Pct.nearest_rank [| 3.0; 1.0; 2.0; 4.0 |] 50.0 = 2.0);
  check "median" (Pct.median [| 3.0; 1.0; 2.0; 4.0 |] = 2.5)

let test_schedule () =
  let graphs =
    Array.of_list
      (List.map
         (fun n -> Egraph.Serial.to_string ((Registry.find_instance n).Registry.build ()))
         [ "mcm_8"; "set_cover_small" ])
  in
  let gen seed = Sched.generate ~seed ~rate:10.0 ~duration:20.0 ~graphs in
  let a = gen 3 and b = gen 3 and c = gen 4 in
  check "same seed, identical schedule" (a = b);
  check "another seed, another schedule" (a <> c);
  check "count follows rate x duration" (Array.length a = 200);
  check "arrivals inside the window"
    (Array.for_all (fun (it : Sched.item) -> it.Sched.due >= 0.0 && it.Sched.due < 20.0) a);
  let count k = Array.length (Array.of_list (List.filter k (Array.to_list a))) in
  let greedy = count (fun it -> it.Sched.kind = Sched.Greedy) in
  let repeats = count (fun it -> match it.Sched.kind with Sched.Repeat _ -> true | _ -> false) in
  check "one greedy request in ten" (greedy = 20);
  check "repeats close to one in ten" (repeats > 15 && repeats <= 20);
  Array.iteri
    (fun i (it : Sched.item) ->
      match it.Sched.kind with
      | Sched.Repeat j ->
          check "a repeat targets an earlier miss" (j < i && a.(j).Sched.kind = Sched.Miss);
          check "a repeat trails its original by the gap"
            (a.(j).Sched.due <= it.Sched.due -. Sched.repeat_gap)
      | Sched.Miss | Sched.Greedy -> ())
    a

(* root: add(x, y); x: leaf | f(root) ; y: leaf *)
let small_graph () =
  let b = Egraph.Builder.create ~name:"oracle-test" () in
  let root = Egraph.Builder.add_class b in
  let x = Egraph.Builder.add_class b in
  let y = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"add" ~cost:1.0 ~children:[ x; y ]);
  ignore (Egraph.Builder.add_node b ~cls:x ~op:"lx" ~cost:2.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:x ~op:"f" ~cost:0.5 ~children:[ root ]);
  ignore (Egraph.Builder.add_node b ~cls:y ~op:"ly" ~cost:3.0 ~children:[]);
  Egraph.Builder.freeze b ~root

let node g op =
  let rec find i = if g.Egraph.ops.(i) = op then i else find (i + 1) in
  find 0

let test_oracle () =
  let g = small_graph () in
  let pick op = (g.Egraph.node_class.(node g op), node g op) in
  (match Oracle.check g [ pick "add"; pick "lx"; pick "ly" ] with
  | Ok cost -> check "valid selection costs 6" (cost = 6.0)
  | Error e -> failwith ("valid selection rejected: " ^ e));
  check "a dropped class is rejected"
    (Result.is_error (Oracle.check g [ pick "add"; pick "lx" ]));
  let rejects choices = Result.is_error (Oracle.check g choices) in
  check "a cycle is rejected" (rejects [ pick "add"; pick "f"; pick "ly" ]);
  check "an unselected root is rejected" (rejects [ pick "lx"; pick "ly" ]);
  check "two nodes in one class are rejected"
    (Result.is_error (Oracle.check g [ pick "add"; pick "lx"; pick "f"; pick "ly" ]));
  check "a wrong reported cost is rejected"
    (Result.is_error
       (Oracle.check_reported g [ pick "add"; pick "lx"; pick "ly" ] ~reported:5.0))

(* Program spans arrive in completion order with no parent; adopt nests
   each in the innermost span holding it and renames it by layer. *)
let test_adopt () =
  let span name ts dur =
    Trace.Span { Trace.name; cat = ""; path = name; depth = 0; ts; dur; args = [] }
  in
  let sp = Spans.create ~on:true in
  let parent = Spans.reserve sp in
  Spans.adopt sp ~parent
    [
      span "plan.replay" 1.0 1.0;
      span "ad.backward" 2.5 0.5;
      span "smoothe.backward" 2.0 1.5;
      span "smoothe.iter" 1.0 3.0;
      Trace.Instant { Trace.i_name = "x"; i_cat = ""; i_ts = 1.5; i_args = [] };
    ];
  Spans.record sp ~sid:parent "bench.extract" ~t0:0.0 ~t1:5.0;
  let find f = List.find f (Spans.spans sp) in
  let parent_name n =
    let child = find (fun s -> s.Spans.name = n) in
    (find (fun s -> s.Spans.sid = child.Spans.parent)).Spans.name
  in
  check "four spans plus the bench span" (List.length (Spans.spans sp) = 5);
  check "iteration under the call" (parent_name "core.iter" = "bench.extract");
  check "replay under the iteration" (parent_name "autodiff.plan_fwd" = "core.iter");
  check "sweep under backward" (parent_name "autodiff.ad_bwd_sweep" = "autodiff.ad_bwd");
  let close a b = Float.abs (a -. b) < 1e-9 in
  check "iteration self time" (close (Spans.self_of sp "core.iter") 0.5);
  check "backward self time" (close (Spans.self_of sp "autodiff.ad_bwd") 1.0);
  check "residual" (close (Spans.self_of sp "bench.extract") 2.0)

let () =
  test_tail_percentile ();
  test_adopt ();
  test_schedule ();
  test_oracle ();
  print_endline "test_perfbench: ok"
