(* Unit and property tests for the prelude substrate. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ Vec *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "last" 99 (Vec.last v);
  for i = 99 downto 0 do
    Alcotest.(check int) "pop order" i (Vec.pop v)
  done;
  Alcotest.(check bool) "empty" true (Vec.is_empty v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 3 out of bounds [0,3)")
    (fun () -> ignore (Vec.get v 3));
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let test_vec_conversions () =
  let v = Vec.of_array [| 3; 1; 2 |] in
  Alcotest.(check (list int)) "to_list" [ 3; 1; 2 ] (Vec.to_list v);
  Vec.sort compare v;
  Alcotest.(check (list int)) "sort" [ 1; 2; 3 ] (Vec.to_list v);
  let doubled = Vec.map (fun x -> x * 2) v in
  Alcotest.(check (list int)) "map" [ 2; 4; 6 ] (Vec.to_list doubled)

let test_vec_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold" 10 (Vec.fold_left ( + ) 0 v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check int) "iteri count" 4 (List.length !seen);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let vec_matches_list =
  qtest "Vec push/to_array matches list" QCheck2.Gen.(list int) (fun xs ->
      let v = Vec.create () in
      List.iter (Vec.push v) xs;
      Vec.to_list v = xs)

(* ----------------------------------------------------------- Union_find *)

let test_uf_basic () =
  let uf = Union_find.with_size 10 in
  Alcotest.(check int) "initial sets" 10 (Union_find.count_sets uf);
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 3);
  Alcotest.(check bool) "0~3" true (Union_find.same uf 0 3);
  Alcotest.(check bool) "0!~4" false (Union_find.same uf 0 4);
  Alcotest.(check int) "sets after unions" 7 (Union_find.count_sets uf)

let uf_equiv_is_transitive =
  qtest "union-find equivalence matches naive partition"
    QCheck2.Gen.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.with_size 20 in
      (* naive: labels array re-labelled on every merge *)
      let label = Array.init 20 Fun.id in
      List.iter
        (fun (a, b) ->
          ignore (Union_find.union uf a b);
          let la = label.(a) and lb = label.(b) in
          if la <> lb then
            Array.iteri (fun i l -> if l = lb then label.(i) <- la) label)
        pairs;
      let ok = ref true in
      for i = 0 to 19 do
        for j = 0 to 19 do
          if Union_find.same uf i j <> (label.(i) = label.(j)) then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "int in range" true (x >= 0 && x < 7);
    let u = Rng.uniform rng in
    Alcotest.(check bool) "uniform in range" true (u >= 0.0 && u < 1.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create 5 in
  let child = Rng.split parent in
  let xs = Array.init 50 (fun _ -> Rng.int parent 1000) in
  let ys = Array.init 50 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* Regression: split must digest the parent's full 256-bit state.
   xoshiro256**'s output function reads only one state word, so a
   split seeded from one output would hand identical children to any
   two parents sharing that word — exactly the states built here. *)
let test_rng_split_full_state () =
  let base = Rng.state (Rng.create 41) in
  let variant i =
    (* same output-bearing word, different everywhere else *)
    let st = Array.copy base in
    st.(0) <- Int64.logxor st.(0) (Int64.of_int (0x1234 + i));
    st.(2) <- Int64.logxor st.(2) (Int64.of_int (0xbeef * (i + 1)));
    st.(3) <- Int64.add st.(3) (Int64.of_int (i + 1));
    Rng.of_state st
  in
  let child_stream p = Array.init 32 (fun _ -> Rng.int64 (Rng.split p)) in
  let streams = Array.init 8 (fun i -> child_stream (variant i)) in
  Array.iteri
    (fun i si ->
      Array.iteri
        (fun j sj ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "children of parents %d,%d differ" i j)
              true (si <> sj))
        streams)
    streams

let test_rng_split_decorrelated () =
  (* parent and child streams should not share draws pairwise; a weak
     split (child = perturbed parent) fails this long before any
     statistical test would *)
  let parent = Rng.create 1234 in
  let child = Rng.split parent in
  let grandchild = Rng.split child in
  let stream r = Array.init 256 (fun _ -> Rng.int r 2) in
  let a = stream parent and b = stream child and c = stream grandchild in
  let agree x y =
    let n = ref 0 in
    Array.iteri (fun i xi -> if xi = y.(i) then incr n) x;
    float_of_int !n /. 256.0
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) (name ^ " near 1/2") true (Float.abs (f -. 0.5) < 0.15))
    [ ("parent/child", agree a b); ("parent/grandchild", agree a c); ("child/grandchild", agree b c) ]

let test_rng_gaussian_moments () =
  let rng = Rng.create 9 in
  let n = 20000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let mean = Stats.mean xs in
  let std = Stats.stddev xs in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "std near 1" true (Float.abs (std -. 1.0) < 0.05)

let test_rng_choose_weighted () =
  let rng = Rng.create 11 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30000 do
    let i = Rng.choose_weighted rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let freq i = float_of_int counts.(i) /. 30000.0 in
  Alcotest.(check bool) "p0 ~ 0.1" true (Float.abs (freq 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "p2 ~ 0.7" true (Float.abs (freq 2 -. 0.7) < 0.02)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 30 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "is permutation" true (sorted = Array.init 30 Fun.id)

let test_rng_state_roundtrip () =
  let rng = Rng.create 77 in
  (* burn part of the stream so the captured state is mid-sequence *)
  for _ = 1 to 123 do
    ignore (Rng.int rng 1000)
  done;
  let st = Rng.state rng in
  Alcotest.(check int) "four words" 4 (Array.length st);
  (* the restored generator continues the exact stream: draws from the
     original and the clone stay equal, across every draw type *)
  let clone = Rng.of_state st in
  for _ = 1 to 200 do
    Alcotest.(check int) "int stream continues" (Rng.int rng 1_000_000)
      (Rng.int clone 1_000_000)
  done;
  for _ = 1 to 50 do
    Alcotest.(check (float 0.0)) "uniform stream continues" (Rng.uniform rng)
      (Rng.uniform clone);
    Alcotest.(check (float 0.0)) "gaussian stream continues" (Rng.gaussian rng)
      (Rng.gaussian clone)
  done;
  (* capturing is passive: the original is not perturbed by [state] *)
  let before = Rng.state rng in
  Alcotest.(check bool) "state is passive" true (before = Rng.state rng)

let test_rng_of_state_rejects () =
  let fails st =
    match Rng.of_state st with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "wrong arity" true (fails [| 1L; 2L; 3L |]);
  Alcotest.(check bool) "all-zero fixed point" true (fails [| 0L; 0L; 0L; 0L |]);
  Alcotest.(check bool) "one non-zero word ok" false (fails [| 0L; 0L; 1L; 0L |])

(* ----------------------------------------------------------- Graph_algo *)

let graph_gen =
  (* random adjacency over n <= 12 nodes *)
  QCheck2.Gen.(
    bind (int_range 1 12) (fun n ->
        map
          (fun seed ->
            let rng = Rng.create seed in
            Array.init n (fun _ ->
                let deg = Rng.int rng 4 in
                Array.init deg (fun _ -> Rng.int rng n)))
          (int_bound 1_000_000)))

let naive_has_cycle succ =
  (* DFS with colours over the whole graph *)
  let n = Array.length succ in
  let colour = Array.make n 0 in
  let found = ref false in
  let rec dfs v =
    colour.(v) <- 1;
    Array.iter
      (fun w ->
        if colour.(w) = 1 then found := true
        else if colour.(w) = 0 then dfs w)
      succ.(v);
    colour.(v) <- 2
  in
  for v = 0 to n - 1 do
    if colour.(v) = 0 then dfs v
  done;
  !found

let topo_iff_acyclic =
  qtest "topological_order exists iff acyclic" graph_gen (fun succ ->
      Graph_algo.is_acyclic succ = not (naive_has_cycle succ))

let topo_respects_edges =
  qtest "topological order puts sources first" graph_gen (fun succ ->
      match Graph_algo.topological_order succ with
      | None -> true
      | Some order ->
          let pos = Array.make (Array.length succ) 0 in
          Array.iteri (fun i v -> pos.(v) <- i) order;
          let ok = ref true in
          Array.iteri
            (fun v ws -> Array.iter (fun w -> if pos.(v) >= pos.(w) then ok := false) ws)
            succ;
          !ok)

let scc_partition_valid =
  qtest "tarjan SCCs partition the nodes" graph_gen (fun succ ->
      let sccs = Graph_algo.tarjan_scc succ in
      let n = Array.length succ in
      let seen = Array.make n 0 in
      Array.iter (fun comp -> Array.iter (fun v -> seen.(v) <- seen.(v) + 1) comp) sccs;
      Array.for_all (fun c -> c = 1) seen)

let scc_mutual_reachability =
  qtest "nodes share an SCC iff mutually reachable" graph_gen (fun succ ->
      let n = Array.length succ in
      (* Floyd-Warshall reachability *)
      let reach = Array.make_matrix n n false in
      Array.iteri (fun v ws -> Array.iter (fun w -> reach.(v).(w) <- true) ws) succ;
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
          done
        done
      done;
      let comp, _ = Graph_algo.scc_ids succ in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let mutual = (i = j) || (reach.(i).(j) && reach.(j).(i)) in
          if (comp.(i) = comp.(j)) <> mutual then ok := false
        done
      done;
      !ok)

let scc_reverse_topological =
  qtest "tarjan components come in reverse topological order" graph_gen (fun succ ->
      let sccs = Graph_algo.tarjan_scc succ in
      let comp, _ = Graph_algo.scc_ids succ in
      ignore sccs;
      (* every cross-component edge must point to an earlier component *)
      let ok = ref true in
      Array.iteri
        (fun v ws ->
          Array.iter (fun w -> if comp.(v) <> comp.(w) && comp.(w) > comp.(v) then ok := false) ws)
        succ;
      !ok)

let test_reachable () =
  let succ = [| [| 1 |]; [| 2 |]; [||]; [| 4 |]; [||] |] in
  let r = Graph_algo.reachable succ [ 0 ] in
  Alcotest.(check (list bool)) "reach from 0" [ true; true; true; false; false ]
    (Array.to_list r)

let test_has_cycle_from () =
  let succ = [| [| 1 |]; [| 0 |]; [| 2 |] |] in
  Alcotest.(check bool) "cycle visible from 0" true (Graph_algo.has_cycle_from succ [ 0 ]);
  Alcotest.(check bool) "self-loop node 2" true (Graph_algo.has_cycle_from succ [ 2 ]);
  let dag = [| [| 1 |]; [| 2 |]; [||] |] in
  Alcotest.(check bool) "no cycle in dag" false (Graph_algo.has_cycle_from dag [ 0 ])

(* ---------------------------------------------------------------- Stats *)

let test_stats_basic () =
  Test_util.check_close ~msg:"mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  Test_util.check_close ~msg:"geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0; 2.0 |]);
  Test_util.check_close ~msg:"median" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  Test_util.check_close ~msg:"max_abs_diff" 3.0 (Stats.max_abs_diff [| 1.0; 4.0; 2.0 |]);
  Test_util.check_close ~msg:"variance" 1.25 (Stats.variance [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_geomean_zero () =
  Test_util.check_close ~msg:"zero kills geomean" 0.0 (Stats.geomean [| 0.0; 5.0 |])

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Test_util.check_close ~msg:"p0" 10.0 (Stats.percentile xs 0.0);
  Test_util.check_close ~msg:"p100" 50.0 (Stats.percentile xs 100.0);
  Test_util.check_close ~msg:"p25" 20.0 (Stats.percentile xs 25.0)

let test_stats_nan_policy () =
  (* any NaN input poisons the result — visibly, not by landing at an
     arbitrary rank of a bit-pattern sort *)
  Alcotest.(check bool) "percentile propagates NaN" true
    (Float.is_nan (Stats.percentile [| 1.0; Float.nan; 3.0 |] 50.0));
  Alcotest.(check bool) "median propagates NaN" true
    (Float.is_nan (Stats.median [| Float.nan; 2.0 |]));
  (* a NaN quantile is a caller bug, not data *)
  Alcotest.check_raises "NaN q rejected"
    (Invalid_argument "Stats.percentile: q outside [0,100]") (fun () ->
      ignore (Stats.percentile [| 1.0; 2.0 |] Float.nan));
  (* infinities are data and sort correctly under Float.compare *)
  Test_util.check_close ~msg:"p50 with -inf" 2.0
    (Stats.percentile [| Float.neg_infinity; 2.0; 3.0 |] 50.0);
  Test_util.check_close ~msg:"p0 is min" Float.neg_infinity
    (Stats.percentile [| 5.0; Float.neg_infinity |] 0.0)

let percentile_nan_and_bounds =
  qtest "percentile: NaN iff input has NaN, else within [min,max]"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 30)
           (oneof [ float_range (-50.0) 50.0; return Float.nan; return Float.infinity ]))
        (float_range 0.0 100.0))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let r = Stats.percentile a q in
      if List.exists Float.is_nan xs then Float.is_nan r
      else
        let lo = List.fold_left Float.min Float.infinity xs in
        let hi = List.fold_left Float.max Float.neg_infinity xs in
        lo <= r && r <= hi)

let geomean_le_mean =
  qtest "geomean <= mean (AM-GM)"
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.01 100.0))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.geomean a <= Stats.mean a +. 1e-9)

(* ----------------------------------------------------------------- Heap *)

let test_heap_sorts () =
  let h = Heap.create ~leq:(fun a b -> a <= b) in
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  let out = ref [] in
  while not (Heap.is_empty h) do
    out := Heap.pop h :: !out
  done;
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3; 5; 7; 8; 9 ] (List.rev !out)

let heap_sort_matches_list_sort =
  qtest "heap drains in sorted order" QCheck2.Gen.(list int) (fun xs ->
      let h = Heap.create ~leq:(fun a b -> a <= b) in
      List.iter (Heap.push h) xs;
      let out = ref [] in
      while not (Heap.is_empty h) do
        out := Heap.pop h :: !out
      done;
      List.rev !out = List.sort compare xs)

(* ----------------------------------------------------------------- Json *)

let test_json_scalars () =
  Alcotest.(check bool) "null" true (Json.parse "null" = Json.Null);
  Alcotest.(check bool) "true" true (Json.parse "true" = Json.Bool true);
  Alcotest.(check bool) "number" true (Json.parse "-1.5e2" = Json.Number (-150.0));
  Alcotest.(check bool) "string" true (Json.parse {|"hi"|} = Json.String "hi")

let test_json_nested () =
  let v = Json.parse {| { "a": [1, 2, {"b": null}], "c": "x" } |} in
  Alcotest.(check bool) "member c" true (Json.member "c" v = Json.String "x");
  match Json.member "a" v with
  | Json.Array [ Json.Number 1.0; Json.Number 2.0; Json.Object [ ("b", Json.Null) ] ] -> ()
  | _ -> Alcotest.fail "nested array shape"

let test_json_escapes () =
  Alcotest.(check bool) "escapes" true
    (Json.parse "\"a\\n\\t\\\"\\\\b\"" = Json.String "a\n\t\"\\b");
  Alcotest.(check bool) "unicode ascii" true (Json.parse "\"\\u0041\"" = Json.String "A")

let test_json_errors () =
  let fails s = match Json.parse s with exception Json.Parse_error _ -> true | _ -> false in
  Alcotest.(check bool) "trailing junk" true (fails "1 2");
  Alcotest.(check bool) "unterminated string" true (fails {|"abc|});
  Alcotest.(check bool) "bad literal" true (fails "trup");
  Alcotest.(check bool) "unclosed object" true (fails {|{"a": 1|});
  Alcotest.(check bool) "member of non-object" true
    (match Json.member "x" (Json.Number 1.0) with
    | exception Json.Parse_error _ -> true
    | _ -> false)

let test_json_depth_cap () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Json.parse (nested 512) with
  | _ -> ()
  | exception Json.Parse_error msg -> Alcotest.failf "depth 512 rejected: %s" msg);
  match Json.parse (nested 513) with
  | _ -> Alcotest.fail "depth 513 accepted"
  | exception Json.Parse_error msg ->
      Alcotest.(check bool) "names the limit" true (Test_util.contains msg "512")

let json_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Number (Float.of_int f)) (int_range (-1000) 1000);
               map
                 (fun f -> Json.Number f)
                 (oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 1.5; -3.25e7 ]);
               map (fun s -> Json.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
             ]
         else
           oneof
             [
               map (fun xs -> Json.Array xs) (list_size (int_range 0 4) (self (n / 2)));
               map
                 (fun kvs ->
                   (* distinct keys *)
                   let seen = Hashtbl.create 4 in
                   Json.Object
                     (List.filteri
                        (fun i _ -> i < 4)
                        (List.filter_map
                           (fun (k, v) ->
                             if Hashtbl.mem seen k then None
                             else begin
                               Hashtbl.add seen k ();
                               Some (k, v)
                             end)
                           kvs)))
                 (list_size (int_range 0 4)
                    (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) (self (n / 2))));
             ])

(* non-finite numbers have no JSON syntax; the printer degrades them to
   null, so round-tripping normalises them away *)
let rec json_normalize = function
  | Json.Number f when not (Float.is_finite f) -> Json.Null
  | Json.Array xs -> Json.Array (List.map json_normalize xs)
  | Json.Object kvs -> Json.Object (List.map (fun (k, v) -> (k, json_normalize v)) kvs)
  | v -> v

let json_roundtrip =
  qtest ~count:300 "print . parse = normalize" json_gen (fun v ->
      let n = json_normalize v in
      Json.parse (Json.to_string v) = n && Json.parse (Json.to_string ~pretty:true v) = n)

let test_json_nonfinite () =
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Number Float.nan));
  Alcotest.(check string) "inf" "null" (Json.to_string (Json.Number Float.infinity));
  Alcotest.(check string) "-inf" "null" (Json.to_string (Json.Number Float.neg_infinity));
  Alcotest.(check bool) "inside a document" true
    (Json.parse (Json.to_string (Json.Object [ ("x", Json.Number Float.nan) ]))
    = Json.Object [ ("x", Json.Null) ])

(* ------------------------------------------------------------- Checksum *)

let test_crc32_vectors () =
  (* the standard CRC-32/IEEE check value, plus the empty string *)
  Alcotest.(check int) "empty" 0 (Checksum.crc32 "");
  Alcotest.(check int) "check value" 0xCBF43926 (Checksum.crc32 "123456789");
  Alcotest.(check int) "windowed = substring"
    (Checksum.crc32 "345")
    (Checksum.crc32 ~off:2 ~len:3 "12345678")

let crc32_detects_single_bit_flip =
  qtest ~count:300 "single bit flip always changes crc32"
    QCheck2.Gen.(pair (string_size ~gen:char (int_range 1 64)) (pair nat nat))
    (fun (s, (i, j)) ->
      let i = i mod String.length s and j = j mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
      Checksum.crc32 (Bytes.to_string b) <> Checksum.crc32 s)

(* ---------------------------------------------------------------- Timer *)

let test_timer_deadline () =
  let d = Timer.deadline_after 0.05 in
  Alcotest.(check bool) "not yet expired" false (Timer.expired d);
  Unix.sleepf 0.06;
  Alcotest.(check bool) "expired" true (Timer.expired d);
  Alcotest.(check bool) "no deadline never expires" false (Timer.expired Timer.no_deadline)

let () =
  Alcotest.run "prelude"
    [
      ( "vec",
        [
          Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
          Alcotest.test_case "iter/fold" `Quick test_vec_iter_fold;
          vec_matches_list;
        ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_uf_basic; uf_equiv_is_transitive ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "split digests full state" `Quick test_rng_split_full_state;
          Alcotest.test_case "split decorrelated" `Quick test_rng_split_decorrelated;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "choose_weighted" `Slow test_rng_choose_weighted;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "state roundtrip" `Quick test_rng_state_roundtrip;
          Alcotest.test_case "of_state rejects" `Quick test_rng_of_state_rejects;
        ] );
      ( "graph_algo",
        [
          topo_iff_acyclic;
          topo_respects_edges;
          scc_partition_valid;
          scc_mutual_reachability;
          scc_reverse_topological;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "has_cycle_from" `Quick test_has_cycle_from;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "geomean zero" `Quick test_stats_geomean_zero;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "NaN policy" `Quick test_stats_nan_policy;
          percentile_nan_and_bounds;
          geomean_le_mean;
        ] );
      ("heap", [ Alcotest.test_case "sorts" `Quick test_heap_sorts; heap_sort_matches_list_sort ]);
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "nested" `Quick test_json_nested;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "non-finite numbers emit null" `Quick test_json_nonfinite;
          Alcotest.test_case "depth capped at 512" `Quick test_json_depth_cap;
          json_roundtrip;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          crc32_detects_single_bit_flip;
        ] );
      ("timer", [ Alcotest.test_case "deadline" `Quick test_timer_deadline ]);
    ]
