(* Tests for the observability layer: span nesting and balance, the
   Chrome / folded export formats, the metrics registry, skew-visible
   timestamps, and the bit-identity of instrumented extraction when the
   sink is disabled. *)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Every test leaves the global sink disabled and the stores empty,
   whatever happens inside. *)
let fresh f () =
  Obs.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.reset ();
      Metrics.reset ())
    f

let find_span name = List.find_opt (fun s -> s.Trace.name = name) (Trace.spans ())

let get_span name =
  match find_span name with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

(* --- spans ------------------------------------------------------------ *)

let test_span_nesting =
  fresh (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "left" (fun () -> ());
          Trace.with_span "right" (fun () ->
              Trace.with_span "leaf" (fun () -> ())));
      Alcotest.(check int) "balanced" 0 (Trace.open_depth ());
      Alcotest.(check int) "four spans" 4 (List.length (Trace.spans ()));
      (* completion order: children close before their parents *)
      Alcotest.(check (list string))
        "completion order"
        [ "left"; "leaf"; "right"; "outer" ]
        (List.map (fun s -> s.Trace.name) (Trace.spans ()));
      Alcotest.(check int) "outer depth" 0 (get_span "outer").Trace.depth;
      Alcotest.(check int) "leaf depth" 2 (get_span "leaf").Trace.depth;
      Alcotest.(check string) "leaf path" "outer;right;leaf" (get_span "leaf").Trace.path;
      Alcotest.(check string) "left path" "outer;left" (get_span "left").Trace.path;
      let outer = get_span "outer" and leaf = get_span "leaf" in
      Alcotest.(check bool) "parent spans child" true (outer.Trace.dur >= leaf.Trace.dur);
      Alcotest.(check bool) "child starts after parent" true (leaf.Trace.ts >= outer.Trace.ts))

let test_span_exception_unwind =
  fresh (fun () ->
      (try Trace.with_span "outer" (fun () -> Trace.with_span "boom" (fun () -> failwith "x"))
       with Failure _ -> ());
      Alcotest.(check int) "stack unwound" 0 (Trace.open_depth ());
      (* both spans still recorded, with the pre-raise nesting *)
      Alcotest.(check string) "path kept" "outer;boom" (get_span "boom").Trace.path;
      Alcotest.(check int) "both recorded" 2 (List.length (Trace.spans ()));
      (* the store stays usable afterwards *)
      Trace.with_span "next" (fun () -> ());
      Alcotest.(check int) "next at depth 0" 0 (get_span "next").Trace.depth)

let test_disabled_is_noop () =
  Obs.disable ();
  Trace.reset ();
  Metrics.reset ();
  let r = Trace.with_span "ghost" (fun () -> 41 + 1) in
  Alcotest.(check int) "value passed through" 42 r;
  Trace.instant "ghost-instant";
  Metrics.incr "ghost.counter";
  Metrics.observe "ghost.hist" 1.0;
  Alcotest.(check int) "no events" 0 (List.length (Trace.events ()));
  Alcotest.(check (float 0.0)) "no counter" 0.0 (Metrics.counter_value "ghost.counter");
  Alcotest.(check int) "empty registry" 0 (List.length (Metrics.names ()))

let test_span_totals =
  fresh (fun () ->
      Trace.with_span "work" (fun () -> Trace.with_span "inner" (fun () -> ()));
      Trace.with_span "work" (fun () -> ());
      match Trace.span_totals () with
      | [ ("inner", 1, _); ("work", 2, _) ] -> ()
      | totals ->
          Alcotest.failf "unexpected totals: %s"
            (String.concat ", " (List.map (fun (n, c, _) -> Printf.sprintf "%s/%d" n c) totals)))

(* Trace.reset frees what the spans held: the store drops its storage,
   not just its length *)
let test_reset_frees_spans () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Trace.reset ();
  let before = live () in
  Obs.with_enabled (fun () ->
      for _ = 1 to 50_000 do
        Trace.with_span "s" (fun () -> ())
      done);
  Trace.reset ();
  let after = live () in
  if after - before > 50_000 then
    Alcotest.failf "%d live words after reset, %d before the spans" after before

(* --- exports ---------------------------------------------------------- *)

let nasty = "we\"ird\\na;me\n\twith\x01ctrl"

let test_chrome_export =
  fresh (fun () ->
      Trace.with_span ~cat:"t" ~attrs:[ ("k", nasty) ] nasty (fun () ->
          Trace.instant ~cat:"health" "fault-injected");
      let j = Json.parse (Json.to_string (Trace.to_chrome ())) in
      let events = Json.get_list (Json.member "traceEvents" j) in
      Alcotest.(check int) "span + instant" 2 (List.length events);
      let by_ph ph =
        List.find (fun e -> Json.get_string (Json.member "ph" e) = ph) events
      in
      let x = by_ph "X" and i = by_ph "i" in
      Alcotest.(check string) "nasty name survives" nasty (Json.get_string (Json.member "name" x));
      Alcotest.(check string) "nasty attr survives" nasty
        (Json.get_string (Json.member "k" (Json.member "args" x)));
      Alcotest.(check string) "instant name" "fault-injected"
        (Json.get_string (Json.member "name" i));
      Alcotest.(check string) "instant scope" "g" (Json.get_string (Json.member "s" i));
      List.iter
        (fun e ->
          Alcotest.(check bool)
            "ts rebased to >= 0" true
            (Json.get_number (Json.member "ts" e) >= 0.0))
        events;
      Alcotest.(check bool)
        "dur in microseconds, finite" true
        (Float.is_finite (Json.get_number (Json.member "dur" x))))

let test_chrome_sorted_by_ts =
  fresh (fun () ->
      (* record in an order where the outer (earliest-start) span closes
         last; the export must re-sort by start time *)
      Trace.with_span "a" (fun () ->
          Trace.with_span "b" (fun () -> Trace.with_span "c" (fun () -> ())));
      let j = Json.parse (Json.to_string (Trace.to_chrome ())) in
      let ts =
        List.map
          (fun e -> Json.get_number (Json.member "ts" e))
          (Json.get_list (Json.member "traceEvents" j))
      in
      Alcotest.(check bool)
        "non-decreasing ts" true
        (List.for_all2 ( <= )
           (List.filteri (fun i _ -> i < List.length ts - 1) ts)
           (List.tl ts)))

let test_folded_export =
  fresh (fun () ->
      Trace.with_span "root" (fun () -> Trace.with_span "child" (fun () -> ()));
      let lines = String.split_on_char '\n' (String.trim (Trace.to_folded ())) in
      Alcotest.(check int) "one line per path" 2 (List.length lines);
      List.iter
        (fun line ->
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "malformed folded line %S" line
          | Some i ->
              let n = String.sub line (i + 1) (String.length line - i - 1) in
              Alcotest.(check bool)
                "integer self-time" true
                (match int_of_string_opt n with Some v -> v >= 0 | None -> false))
        lines;
      Alcotest.(check bool)
        "nested path present" true
        (List.exists (fun l -> String.length l >= 10 && String.sub l 0 10 = "root;child") lines))

(* --- metrics ---------------------------------------------------------- *)

let test_metrics_registry =
  fresh (fun () ->
      Metrics.incr "c";
      Metrics.incr ~by:2.5 "c";
      Metrics.set_gauge "g" 1.0;
      Metrics.set_gauge "g" 7.0;
      Metrics.observe "h" 2.0;
      Metrics.observe "h" 4.0;
      Alcotest.(check (float 1e-9)) "counter accumulates" 3.5 (Metrics.counter_value "c");
      Alcotest.(check (float 1e-9)) "gauge keeps last" 7.0 (Metrics.gauge_value "g");
      (match Metrics.histogram_stats "h" with
      | Some { Metrics.count = 2; sum = 6.0; min_v = 2.0; max_v = 4.0; last = 4.0; non_finite = 0; _ } -> ()
      | Some h -> Alcotest.failf "wrong histogram: count=%d sum=%g" h.Metrics.count h.Metrics.sum
      | None -> Alcotest.fail "histogram missing");
      Alcotest.(check (list string)) "sorted names" [ "c"; "g"; "h" ] (Metrics.names ());
      (* a name is one kind forever *)
      Alcotest.check_raises "kind mismatch"
        (Invalid_argument "Metrics: \"c\" is a counter, not a gauge") (fun () ->
          Metrics.set_gauge "c" 0.0);
      (* the snapshot is valid JSON carrying the same numbers *)
      let j = Json.parse (Json.to_string (Metrics.snapshot ())) in
      Alcotest.(check string) "snapshot type" "counter"
        (Json.get_string (Json.member "type" (Json.member "c" j)));
      Alcotest.(check (float 1e-9)) "snapshot value" 3.5
        (Json.get_number (Json.member "value" (Json.member "c" j)));
      Alcotest.(check (float 1e-9)) "snapshot mean" 3.0
        (Json.get_number (Json.member "mean" (Json.member "h" j))))

(* Regression for the reset/dump race: increments from several domains
   hammering one counter must all land — under the old unlocked
   Hashtbl, concurrent [incr] lost updates (and could corrupt the
   table). Runs real domains even on a 1-core host: the scheduler
   still interleaves them at safepoints. *)
let test_metrics_concurrent_incr =
  fresh (fun () ->
      let domains = 4 and per_domain = 5_000 in
      let spawned =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per_domain do
                  Metrics.incr "hammered";
                  if i mod 100 = d then ignore (Metrics.counter_value "hammered");
                  if i mod 1000 = 0 then ignore (Metrics.snapshot ())
                done))
      in
      List.iter Domain.join spawned;
      Alcotest.(check (float 1e-9)) "no lost increments"
        (float_of_int (domains * per_domain))
        (Metrics.counter_value "hammered"))

let test_metrics_scoped_isolation =
  fresh (fun () ->
      Metrics.incr ~by:10.0 "outside";
      let inner =
        Metrics.scoped (fun () ->
            (* the scope starts empty and absorbs everything recorded
               inside it, leaving the global registry untouched *)
            Alcotest.(check (list string)) "scope starts empty" [] (Metrics.names ());
            Metrics.incr ~by:3.0 "outside";
            Metrics.incr "inside";
            Metrics.snapshot ())
      in
      Alcotest.(check (float 1e-9)) "global unchanged" 10.0 (Metrics.counter_value "outside");
      Alcotest.(check bool) "scoped names invisible outside" true
        (not (List.mem "inside" (Metrics.names ())));
      Alcotest.(check (float 1e-9)) "scope saw its own increments" 3.0
        (Json.get_number (Json.member "value" (Json.member "outside" inner))))

let escaping_roundtrip =
  qtest ~count:500 "json string escaping round-trips any bytes"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (0 -- 255)) (0 -- 64))
    (fun s ->
      match Json.parse (Json.to_string (Json.String s)) with
      | Json.String s' -> s' = s
      | _ -> false)

(* --- bucketed quantiles ------------------------------------------------ *)

(* Width of the bucket holding [v] — the documented error bound of the
   bucketed estimate. Bucket 0 spans (0, bound 0]. *)
let bucket_width_at v =
  let rec find i =
    if i >= Metrics.bucket_count - 1 || v <= Metrics.bucket_bound i then i else find (i + 1)
  in
  let b = find 0 in
  if b = 0 then Metrics.bucket_bound 0
  else Metrics.bucket_bound b -. Metrics.bucket_bound (b - 1)

(* The estimate must land within one bucket width of the exact rank
   statistic it approximates: both live in the same log-scale bucket,
   so |estimate - exact| <= width of exact's bucket. The generator is
   log-uniform across the bounded range, including sub-bound-0 values. *)
let quantile_error_bounded =
  qtest ~count:300 "bucketed quantile within one bucket width of exact"
    QCheck2.Gen.(
      pair
        (list_size (1 -- 80) (map Float.exp (float_range (-7.5) 12.5)))
        (float_range 0.0 100.0))
    (fun (xs, q) ->
      Obs.with_enabled (fun () ->
          Metrics.scoped (fun () ->
              List.iter (Metrics.observe "q") xs;
              let n = List.length xs in
              let sorted = List.sort Float.compare xs in
              let rank =
                Stdlib.max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int n)))
              in
              let exact = List.nth sorted (rank - 1) in
              match Metrics.histogram_quantile "q" q with
              | None -> false
              | Some est ->
                  Float.abs (est -. exact) <= bucket_width_at exact +. 1e-12
                  (* and the estimate never escapes the observed envelope *)
                  && est >= List.hd sorted && est <= List.nth sorted (n - 1))))

let test_quantile_edge_cases =
  fresh (fun () ->
      Alcotest.(check (option (float 0.0))) "empty histogram" None
        (Metrics.histogram_quantile "absent" 50.0);
      Metrics.observe "one" 7.0;
      (* a single observation pins every quantile to it via the clamp *)
      Alcotest.(check (option (float 1e-9))) "p0 = the value" (Some 7.0)
        (Metrics.histogram_quantile "one" 0.0);
      Alcotest.(check (option (float 1e-9))) "p100 = the value" (Some 7.0)
        (Metrics.histogram_quantile "one" 100.0);
      (match Metrics.histogram_stats "one" with
      | Some h ->
          Alcotest.check_raises "q out of range"
            (Invalid_argument "Metrics.quantile: q must be in [0,100], got 101") (fun () ->
              ignore (Metrics.quantile h 101.0))
      | None -> Alcotest.fail "histogram missing");
      (* beyond the last bound: the overflow bucket estimates as max_v *)
      Metrics.observe "huge" 1e9;
      Metrics.observe "huge" 2e9;
      Alcotest.(check (option (float 1e-9))) "overflow clamps to max" (Some 2e9)
        (Metrics.histogram_quantile "huge" 99.0))

(* Satellite fix: an all-non-finite histogram must report a finite
   (zero) mean, not a silent JSON null — NaN/Inf observations are
   quarantined in [non_finite] and never touch the summary fields. *)
let test_histogram_nan_quarantine =
  fresh (fun () ->
      Metrics.observe "h" Float.nan;
      Metrics.observe "h" Float.infinity;
      Metrics.observe "h" Float.neg_infinity;
      (match Metrics.histogram_stats "h" with
      | Some h ->
          Alcotest.(check int) "no finite counts" 0 h.Metrics.count;
          Alcotest.(check int) "quarantined" 3 h.Metrics.non_finite;
          Alcotest.(check (float 0.0)) "mean is 0, not NaN" 0.0 (Metrics.mean h);
          Alcotest.(check int) "buckets untouched" 0
            (Array.fold_left ( + ) 0 h.Metrics.buckets)
      | None -> Alcotest.fail "histogram missing");
      let j = Json.parse (Json.to_string (Metrics.snapshot ())) in
      let h = Json.member "h" j in
      Alcotest.(check (float 0.0)) "snapshot mean finite" 0.0
        (Json.get_number (Json.member "mean" h));
      Alcotest.(check bool) "empty quantile is null" true (Json.member "p50" h = Json.Null);
      Alcotest.(check (float 0.0)) "non_finite surfaced" 3.0
        (Json.get_number (Json.member "non_finite" h));
      (* a finite observation after the quarantine keeps the mean exact *)
      Metrics.observe "h" 2.0;
      match Metrics.histogram_stats "h" with
      | Some h2 -> Alcotest.(check (float 1e-12)) "mean of the finite part" 2.0 (Metrics.mean h2)
      | None -> Alcotest.fail "histogram vanished")

(* --- meters under a fake clock ----------------------------------------- *)

let rates name now =
  match Metrics.meter_rates ~now name with
  | Some r -> r
  | None -> Alcotest.failf "meter %S missing" name

let test_meter_windows =
  fresh (fun () ->
      let t0 = 1000.0 in
      Metrics.mark ~by:5.0 ~now:t0 "m";
      Metrics.mark ~by:1.0 ~now:(t0 +. 0.4) "m";
      let r = rates "m" (t0 +. 0.9) in
      Alcotest.(check (float 1e-9)) "1s window sums the current second" 6.0 r.Metrics.rate_1s;
      Alcotest.(check (float 1e-9)) "10s window" 0.6 r.Metrics.rate_10s;
      Alcotest.(check (float 1e-9)) "60s window" 0.1 r.Metrics.rate_60s;
      Alcotest.(check (float 1e-9)) "total" 6.0 r.Metrics.total;
      (* one second later the marks leave the 1 s window but not the others *)
      let r = rates "m" (t0 +. 1.0) in
      Alcotest.(check (float 1e-9)) "1s window rotated" 0.0 r.Metrics.rate_1s;
      Alcotest.(check (float 1e-9)) "10s window keeps them" 0.6 r.Metrics.rate_10s;
      (* 61 s later the mark reuses the very same ring slot (1000 and
         1061 are congruent mod 61): the old second must be lazily
         discarded, not added *)
      Metrics.mark ~by:7.0 ~now:(t0 +. 61.0) "m";
      let r = rates "m" (t0 +. 61.0) in
      Alcotest.(check (float 1e-9)) "aliased slot overwritten" (7.0 /. 60.0) r.Metrics.rate_60s;
      Alcotest.(check (float 1e-9)) "lifetime total survives rotation" 13.0 r.Metrics.total;
      (* an idle meter decays to zero with no background work *)
      let r = rates "m" (t0 +. 130.0) in
      Alcotest.(check (float 1e-9)) "idle 1s" 0.0 r.Metrics.rate_1s;
      Alcotest.(check (float 1e-9)) "idle 60s" 0.0 r.Metrics.rate_60s;
      Alcotest.(check (float 1e-9)) "idle total" 13.0 r.Metrics.total)

let test_meter_deterministic_replay =
  fresh (fun () ->
      (* the same mark/read schedule under the same fake clock yields
         bit-identical rates, independent of wall time *)
      let run name =
        List.iter (fun (t, by) -> Metrics.mark ~by ~now:t name)
          [ (50.0, 1.0); (50.5, 2.0); (53.0, 4.0); (58.9, 8.0); (112.0, 16.0) ];
        List.map (fun t -> rates name t) [ 51.0; 59.0; 112.5; 200.0 ]
      in
      let a = run "replay.a" in
      let b = run "replay.b" in
      List.iter2
        (fun (x : Metrics.meter_rates) (y : Metrics.meter_rates) ->
          Alcotest.(check (float 0.0)) "1s bit-identical" x.Metrics.rate_1s y.Metrics.rate_1s;
          Alcotest.(check (float 0.0)) "10s bit-identical" x.Metrics.rate_10s y.Metrics.rate_10s;
          Alcotest.(check (float 0.0)) "60s bit-identical" x.Metrics.rate_60s y.Metrics.rate_60s;
          Alcotest.(check (float 0.0)) "total bit-identical" x.Metrics.total y.Metrics.total)
        a b)

(* --- structured logs ---------------------------------------------------- *)

let test_log_jsonl () =
  Log.with_memory (fun () ->
      Log.emit ~req:"r#1" ~event:"request.admitted" [ ("queued", Json.Number 2.0) ];
      Log.emit ~event:"daemon.start" [ ("detail", Json.String nasty) ]);
  (match Log.records () with
  | [ first; second ] ->
      Alcotest.(check string) "event field" "request.admitted"
        (Json.get_string (Json.member "event" first));
      Alcotest.(check string) "request id stamped" "r#1"
        (Json.get_string (Json.member "req" first));
      Alcotest.(check (float 1e-9)) "caller fields kept" 2.0
        (Json.get_number (Json.member "queued" first));
      Alcotest.(check bool) "ts present" true
        (match Json.member "ts" first with Json.Number _ -> true | _ -> false);
      Alcotest.(check bool) "req omitted when absent" true
        (Json.member "req" second = Json.Null)
  | rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs));
  (* each record is exactly one parseable line, whatever is in it *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "no embedded newline" true (not (String.contains line '\n'));
      match Json.parse line with
      | Json.Object _ -> ()
      | _ -> Alcotest.failf "log line is not an object: %s" line)
    (Log.lines ());
  (* the silent sink records nothing and is restored by with_memory *)
  Alcotest.(check bool) "sink restored to silent" true (Log.sink () = Log.Silent);
  let before = List.length (Log.records ()) in
  Log.emit ~event:"ignored" [];
  Alcotest.(check int) "silent emit is a no-op" before (List.length (Log.records ()))

(* --- prometheus exposition ---------------------------------------------- *)

(* Minimal grammar check over the exposition: every line is either a
   comment or `name[{labels}] value` with a float-parseable value —
   what `promtool check metrics` enforces structurally. *)
let check_prom_grammar text =
  Alcotest.(check bool) "exposition ends with a newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  List.iter
    (fun line ->
      if line <> "" && not (String.length line >= 2 && String.sub line 0 2 = "# ") then begin
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, _ -> b
          | None, Some sp -> sp
          | None, None -> Alcotest.failf "malformed prom line: %s" line
        in
        String.iter
          (fun c ->
            match c with
            | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
            | c -> Alcotest.failf "bad metric-name char %C in: %s" c line)
          (String.sub line 0 name_end);
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value on prom line: %s" line
        | Some sp -> (
            let v = String.sub line (sp + 1) (String.length line - sp - 1) in
            match (v, float_of_string_opt v) with
            | ("NaN" | "+Inf" | "-Inf"), _ | _, Some _ -> ()
            | _, None -> Alcotest.failf "unparsable prom value %S in: %s" v line)
      end)
    (String.split_on_char '\n' text)

let test_prom_render =
  fresh (fun () ->
      Metrics.incr ~by:3.0 "serve.requests";
      Metrics.set_gauge "serve.queue_depth" 2.0;
      List.iter (Metrics.observe "serve.request_ms") [ 0.5; 5.0; 50.0; 50.0 ];
      Metrics.mark ~by:4.0 ~now:1234.5 "serve.offered.rate";
      let text = Prom.render ~now:1234.9 () in
      check_prom_grammar text;
      let lines = String.split_on_char '\n' text in
      let has l = Alcotest.(check bool) (Printf.sprintf "has %S" l) true (List.mem l lines) in
      has "# TYPE smoothe_serve_requests counter";
      has "smoothe_serve_requests 3";
      has "# TYPE smoothe_serve_request_ms histogram";
      has "smoothe_serve_request_ms_bucket{le=\"+Inf\"} 4";
      has "smoothe_serve_request_ms_count 4";
      has "smoothe_serve_offered_rate_total 4";
      has "smoothe_serve_offered_rate_rate{window=\"1s\"} 4";
      (* cumulative bucket counts are non-decreasing in bound order *)
      let buckets =
        List.filter_map
          (fun l ->
            let prefix = "smoothe_serve_request_ms_bucket{le=\"" in
            if String.length l > String.length prefix
               && String.sub l 0 (String.length prefix) = prefix
            then
              match String.rindex_opt l ' ' with
              | Some sp ->
                  int_of_string_opt (String.sub l (sp + 1) (String.length l - sp - 1))
              | None -> None
            else None)
          lines
      in
      Alcotest.(check bool) "some bounded buckets emitted" true (List.length buckets >= 2);
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      Alcotest.(check bool) "cumulative and sorted" true (non_decreasing buckets))

(* --- timestamps under clock skew -------------------------------------- *)

let test_skew_visible_in_spans =
  fresh (fun () ->
      Fun.protect ~finally:(fun () -> Timer.set_skew 0.0) @@ fun () ->
      Timer.set_skew 0.0;
      Trace.with_span "before" (fun () -> ());
      Timer.set_skew 100.0;
      Trace.with_span "after" (fun () -> ());
      let before = get_span "before" and after = get_span "after" in
      Alcotest.(check bool)
        "skew shifts later spans" true
        (after.Trace.ts -. before.Trace.ts >= 99.0);
      (* the chrome export rebases onto the earliest event *)
      let j = Json.parse (Json.to_string (Trace.to_chrome ())) in
      let ts =
        List.map
          (fun e -> Json.get_number (Json.member "ts" e))
          (Json.get_list (Json.member "traceEvents" j))
      in
      Alcotest.(check bool) "first event at 0" true (List.hd ts < 1e6);
      Alcotest.(check bool)
        "gap preserved in microseconds" true
        (List.nth ts 1 -. List.hd ts >= 99.0 *. 1e6))

let test_skew_fault_plan =
  fresh (fun () ->
      Fault_plan.with_plan
        (Fault_plan.of_string "skew@30")
        (fun () ->
          Trace.with_span "before" (fun () -> ());
          ignore (Fault_plan.trigger_clock_skew ());
          Trace.with_span "after" (fun () -> ()));
      let before = get_span "before" and after = get_span "after" in
      Alcotest.(check bool)
        "injected skew shows in the trace" true
        (after.Trace.ts -. before.Trace.ts >= 29.0))

(* --- bit-identity of instrumented extraction -------------------------- *)

let test_disabled_sink_bit_identical () =
  Obs.disable ();
  Trace.reset ();
  Metrics.reset ();
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let config =
    { Smoothe_config.default with Smoothe_config.max_iters = 12; batch = 4; seed = 11 }
  in
  let plain = Smoothe_extract.extract ~config g in
  let observed = Obs.with_enabled (fun () -> Smoothe_extract.extract ~config g) in
  let cost (r : Smoothe_extract.run) = r.Smoothe_extract.result.Extractor.cost in
  Alcotest.(check bool) "same cost, bit for bit" true (cost plain = cost observed);
  Alcotest.(check int)
    "same iteration count" plain.Smoothe_extract.iterations observed.Smoothe_extract.iterations;
  Alcotest.(check (list (float 0.0)))
    "identical loss trajectory"
    (List.map (fun h -> h.Smoothe_extract.relaxed_loss) plain.Smoothe_extract.history)
    (List.map (fun h -> h.Smoothe_extract.relaxed_loss) observed.Smoothe_extract.history);
  let choices (r : Smoothe_extract.run) =
    match r.Smoothe_extract.result.Extractor.solution with
    | Some s -> Array.to_list s.Egraph.Solution.choice
    | None -> []
  in
  Alcotest.(check (list (option int))) "identical solution" (choices plain) (choices observed);
  (* the observed run recorded the nested per-phase spans... *)
  let paths = List.map (fun s -> s.Trace.path) (Trace.spans ()) in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "recorded %s" p) true (List.mem p paths))
    [
      "smoothe.extract";
      "smoothe.extract;smoothe.iter";
      "smoothe.extract;smoothe.iter;smoothe.forward";
      "smoothe.extract;smoothe.iter;smoothe.backward";
      "smoothe.extract;smoothe.iter;smoothe.sample";
    ];
  (* ...and the iteration counter agrees with the run *)
  Alcotest.(check (float 0.0))
    "iteration counter matches"
    (float_of_int observed.Smoothe_extract.iterations)
    (Metrics.counter_value "smoothe.iterations");
  (* the disabled run left nothing behind *)
  Trace.reset ();
  Metrics.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception unwind" `Quick test_span_exception_unwind;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "totals" `Quick test_span_totals;
          Alcotest.test_case "reset frees spans" `Quick test_reset_frees_spans;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json" `Quick test_chrome_export;
          Alcotest.test_case "chrome sorted" `Quick test_chrome_sorted_by_ts;
          Alcotest.test_case "folded stacks" `Quick test_folded_export;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "concurrent incr" `Quick test_metrics_concurrent_incr;
          Alcotest.test_case "scoped isolation" `Quick test_metrics_scoped_isolation;
          escaping_roundtrip;
        ] );
      ( "quantiles",
        [
          quantile_error_bounded;
          Alcotest.test_case "edge cases" `Quick test_quantile_edge_cases;
          Alcotest.test_case "nan quarantine" `Quick test_histogram_nan_quarantine;
        ] );
      ( "meters",
        [
          Alcotest.test_case "window rotation" `Quick test_meter_windows;
          Alcotest.test_case "deterministic replay" `Quick test_meter_deterministic_replay;
        ] );
      ("log", [ Alcotest.test_case "jsonl records" `Quick test_log_jsonl ]);
      ("prom", [ Alcotest.test_case "exposition" `Quick test_prom_render ]);
      ( "skew",
        [
          Alcotest.test_case "set_skew visible" `Quick test_skew_visible_in_spans;
          Alcotest.test_case "fault plan skew" `Quick test_skew_fault_plan;
        ] );
      ( "bit-identity",
        [ Alcotest.test_case "disabled sink" `Quick test_disabled_sink_bit_identical ] );
    ]
