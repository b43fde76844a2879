(* The extraction daemon, tested deterministically: the engine's manual
   executor mode makes admission decisions synchronous and execution
   explicit ([run_pending]), so overload, crash, deadline and drain
   behaviour are all exact assertions, not timing-dependent ones. *)

module P = Serve_protocol

let small_graph () = (Registry.find_instance "mcm_8").Registry.build ()

let inline_source () = P.Inline (Egraph.Serial.to_string (small_graph ()))

let quick_request ?(id = "r") ?(seed = 7) ?(iters = 10) ?(batch = 2) ?deadline_ms
    ?(fault_plan = "") ?(use_cache = true) () =
  {
    P.default_request with
    P.id;
    source = inline_source ();
    seed;
    iters;
    batch;
    deadline_ms;
    fault_plan;
    use_cache;
  }

let manual_engine ?(queue_limit = 3) ?(retry_attempts = 1) ?(cache_capacity = 16) () =
  Serve_engine.create
    ~config:
      {
        Serve_engine.default_config with
        Serve_engine.queue_limit;
        executors = 0;
        retry_attempts;
        cache_capacity;
      }
    ()

let code_of resp =
  match resp.P.body with Ok _ -> None | Error e -> Some e.P.code

let ok_of what resp =
  match resp.P.body with
  | Ok body -> body
  | Error e ->
      Alcotest.failf "%s: expected ok, got %s: %s" what (P.error_code_name e.P.code)
        e.P.message

(* --- protocol ---------------------------------------------------------- *)

let test_request_roundtrip () =
  let req =
    {
      P.id = "abc";
      source = P.Instance "mcm_8";
      method_ = P.Greedy_dag;
      budget = Some 1.5;
      deadline_ms = Some 250.0;
      seed = 13;
      batch = 4;
      iters = 17;
      lambda_ = 5.0;
      costs = Some [| 1.0; 2.5 |];
      fault_plan = "crash@2";
      use_cache = false;
    }
  in
  let text = Json.to_string (P.request_to_json req) in
  match P.request_of_json (Json.parse text) with
  | Error msg -> Alcotest.failf "round-trip rejected: %s" msg
  | Ok got ->
      Alcotest.(check string) "id" req.P.id got.P.id;
      Alcotest.(check bool) "source" true (got.P.source = P.Instance "mcm_8");
      Alcotest.(check bool) "method" true (got.P.method_ = P.Greedy_dag);
      Alcotest.(check (option (float 0.0))) "budget" req.P.budget got.P.budget;
      Alcotest.(check (option (float 0.0))) "deadline" req.P.deadline_ms got.P.deadline_ms;
      Alcotest.(check int) "seed" req.P.seed got.P.seed;
      Alcotest.(check int) "batch" req.P.batch got.P.batch;
      Alcotest.(check int) "iters" req.P.iters got.P.iters;
      Alcotest.(check string) "fault plan" req.P.fault_plan got.P.fault_plan;
      Alcotest.(check bool) "cache flag" req.P.use_cache got.P.use_cache;
      Alcotest.(check bool) "costs" true (got.P.costs = Some [| 1.0; 2.5 |])

let test_response_roundtrip () =
  let ok =
    {
      P.resp_id = "x";
      elapsed_ms = 12.5;
      queue_ms = 0.25;
      body =
        Ok
          {
            P.cost = 166.0;
            valid = true;
            choices = [ (0, 0); (3, 7) ];
            iterations = 20;
            cache_hit = true;
            health = "healthy";
          };
    }
  in
  (match P.response_of_json (Json.parse (Json.to_string (P.response_to_json ok))) with
  | Error msg -> Alcotest.failf "ok round-trip rejected: %s" msg
  | Ok got -> Alcotest.(check bool) "ok preserved" true (got = ok));
  let err = P.error_response ~retry_after_ms:120.0 ~id:"y" P.Overloaded "full" in
  match P.response_of_json (Json.parse (Json.to_string (P.response_to_json err))) with
  | Error msg -> Alcotest.failf "error round-trip rejected: %s" msg
  | Ok got -> Alcotest.(check bool) "error preserved" true (got = err)

let test_request_validation () =
  let base = P.request_to_json (quick_request ()) in
  let with_field name v =
    match base with
    | Json.Object fields -> Json.Object ((name, v) :: List.remove_assoc name fields)
    | _ -> assert false
  in
  let rejects what j =
    match P.request_of_json j with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: should have been rejected" what
  in
  rejects "zero budget" (with_field "budget" (Json.Number 0.0));
  rejects "negative budget" (with_field "budget" (Json.Number (-1.0)));
  rejects "nan budget" (with_field "budget" (Json.Number Float.nan));
  rejects "infinite deadline" (with_field "deadline_ms" (Json.Number Float.infinity));
  rejects "zero batch" (with_field "batch" (Json.Number 0.0));
  rejects "fractional iters" (with_field "iters" (Json.Number 2.5));
  rejects "unknown method" (with_field "method" (Json.String "simplex"));
  rejects "bad fault plan" (with_field "fault_plan" (Json.String "frobnicate@9"));
  rejects "non-finite cost" (with_field "costs" (Json.Array [ Json.Number Float.nan ]));
  rejects "no source"
    (Json.Object [ ("id", Json.String "x"); ("method", Json.String "smoothe") ]);
  rejects "not an object" (Json.String "hello");
  match P.request_of_json base with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "valid request rejected: %s" msg

(* --- admission state machine ------------------------------------------- *)

let test_admission_machine () =
  let adm = Admission.create ~queue_limit:2 in
  let offer () = Admission.offer adm ~est_ms:10.0 in
  Alcotest.(check bool) "1st admitted" true (offer () = Admission.Admit);
  Alcotest.(check bool) "2nd admitted" true (offer () = Admission.Admit);
  (match offer () with
  | Admission.Shed { retry_after_ms } ->
      Alcotest.(check bool) "retry hint positive" true (retry_after_ms >= 1.0)
  | _ -> Alcotest.fail "3rd offer should shed");
  Admission.start adm;
  (* one slot freed: queued is back under the limit *)
  Alcotest.(check bool) "post-start admitted" true (offer () = Admission.Admit);
  Admission.finish adm;
  Admission.drain adm;
  (match offer () with
  | Admission.Refuse Admission.Draining -> ()
  | _ -> Alcotest.fail "draining must refuse");
  Admission.stop adm;
  (* terminal: drain cannot resurrect, refusals now carry Stopped *)
  Admission.drain adm;
  (match offer () with
  | Admission.Refuse Admission.Stopped -> ()
  | _ -> Alcotest.fail "stopped must refuse");
  let s = Admission.snapshot adm in
  Alcotest.(check int) "admitted" 3 s.Admission.admitted;
  Alcotest.(check int) "shed" 1 s.Admission.shed;
  Alcotest.(check int) "refused" 2 s.Admission.refused;
  Alcotest.(check int) "completed" 1 s.Admission.completed;
  Alcotest.(check bool) "not idle (2 queued)" false (Admission.idle adm);
  Alcotest.check_raises "queue limit must be >= 1"
    (Invalid_argument "Admission.create: queue_limit must be >= 1") (fun () ->
      ignore (Admission.create ~queue_limit:0))

(* --- cache ------------------------------------------------------------- *)

let test_cache_lru () =
  let c = Serve_cache.create ~capacity:2 in
  Serve_cache.add c "k1" 1;
  Serve_cache.add c "k2" 2;
  Alcotest.(check (option int)) "k1 present" (Some 1) (Serve_cache.find c "k1");
  (* k1 was just refreshed, so adding k3 must evict k2 *)
  Serve_cache.add c "k3" 3;
  Alcotest.(check (option int)) "k2 evicted" None (Serve_cache.find c "k2");
  Alcotest.(check (option int)) "k1 survived" (Some 1) (Serve_cache.find c "k1");
  Alcotest.(check (option int)) "k3 present" (Some 3) (Serve_cache.find c "k3");
  Alcotest.(check int) "size bounded" 2 (Serve_cache.size c);
  Alcotest.(check int) "hits" 3 (Serve_cache.hits c);
  Alcotest.(check int) "misses" 1 (Serve_cache.misses c);
  let off = Serve_cache.create ~capacity:0 in
  Serve_cache.add off "k" 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None (Serve_cache.find off "k");
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Serve_cache.create: capacity must be >= 0") (fun () ->
      ignore (Serve_cache.create ~capacity:(-1)))

let test_cache_key_bit_sensitivity () =
  let g = small_graph () in
  let text = Egraph.Serial.to_string g in
  let fingerprint =
    {
      Checkpoint.fp_graph = g.Egraph.name;
      fp_nodes = Egraph.num_nodes g;
      fp_classes = Egraph.num_classes g;
      fp_seed = 7;
      fp_batch = 8;
    }
  in
  let key_of text =
    Serve_cache.key ~fingerprint ~graph_crc:(Checksum.crc32 text) ~config_digest:"cfg"
  in
  let base = key_of text in
  Alcotest.(check string) "identical content, identical key" base (key_of text);
  (* every single-bit mutation of the serialized text must change the
     key, even though name/shape/seed/batch (the fingerprint) agree *)
  let mutations = ref 0 in
  String.iteri
    (fun i _ ->
      if i mod 97 = 0 then
        for bit = 0 to 7 do
          let b = Bytes.of_string text in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
          incr mutations;
          if key_of (Bytes.to_string b) = base then
            Alcotest.failf "bit %d of byte %d flipped but the key did not move" bit i
        done)
    text;
  Alcotest.(check bool) "mutations exercised" true (!mutations > 50)

let test_cache_end_to_end () =
  let engine = manual_engine () in
  let submit req =
    match Serve_engine.offer engine req with
    | Serve_engine.Done r -> r
    | Serve_engine.Queued tk ->
        ignore (Serve_engine.run_pending engine);
        Serve_engine.await tk
  in
  let first = ok_of "first run" (submit (quick_request ())) in
  Alcotest.(check bool) "first run misses" false first.P.cache_hit;
  let hit = ok_of "repeat" (submit (quick_request ())) in
  Alcotest.(check bool) "repeat hits" true hit.P.cache_hit;
  (* bit-identical: same cost bits, same choices, same iteration count *)
  Alcotest.(check int64) "cost bits identical"
    (Int64.bits_of_float first.P.cost)
    (Int64.bits_of_float hit.P.cost);
  Alcotest.(check bool) "choices identical" true (first.P.choices = hit.P.choices);
  Alcotest.(check int) "iterations identical" first.P.iterations hit.P.iterations;
  let other_seed = ok_of "other seed" (submit (quick_request ~seed:8 ())) in
  Alcotest.(check bool) "different seed misses" false other_seed.P.cache_hit;
  let no_cache = ok_of "bypass" (submit (quick_request ~use_cache:false ())) in
  Alcotest.(check bool) "cache bypass misses" false no_cache.P.cache_hit;
  (* a changed cost vector is a content change: the key must miss even
     though the graph name, shape, seed and batch all agree *)
  let g = small_graph () in
  let costs = Array.init (Egraph.num_nodes g) (fun i -> 1.0 +. float_of_int (i mod 3)) in
  let tweaked = Array.copy costs in
  tweaked.(0) <- tweaked.(0) +. 1.0;
  let a =
    ok_of "costs A" (submit { (quick_request ()) with P.costs = Some costs })
  in
  Alcotest.(check bool) "costs A misses" false a.P.cache_hit;
  let b =
    ok_of "costs B" (submit { (quick_request ()) with P.costs = Some tweaked })
  in
  Alcotest.(check bool) "mutated costs miss" false b.P.cache_hit;
  (* satellite fix: hit/miss counters must be observable from outside
     the process, through stats and its JSON reply *)
  let s = Serve_engine.stats engine in
  Alcotest.(check int) "one hit surfaced" 1 s.Serve_engine.cache_hits;
  Alcotest.(check int) "misses surfaced" 4 s.Serve_engine.cache_misses;
  Alcotest.(check (float 1e-9)) "hit rate derived" 0.2 s.Serve_engine.cache_hit_rate;
  let j = Serve_engine.stats_json engine in
  Alcotest.(check (float 1e-9)) "hits in the stats reply" 1.0
    (Json.get_number (Json.member "cache_hits" j));
  Alcotest.(check (float 1e-9)) "misses in the stats reply" 4.0
    (Json.get_number (Json.member "cache_misses" j));
  Alcotest.(check (float 1e-9)) "hit rate in the stats reply" 0.2
    (Json.get_number (Json.member "cache_hit_rate" j));
  Serve_engine.stop engine

(* --- the deterministic overload acceptance test ------------------------ *)

let test_overload_crash_and_survival () =
  (* queue limit Q = 3, N = 8 offered in one burst: exactly N - Q = 5
     must shed with a structured overloaded response; the admitted ones
     complete within their deadline; one admitted request carries an
     injected crash and with retry_attempts = 1 becomes a structured
     crashed response — after which the daemon serves the next request *)
  let engine = manual_engine ~queue_limit:3 ~retry_attempts:1 () in
  let requests =
    List.init 8 (fun i ->
        quick_request
          ~id:(Printf.sprintf "r%d" i)
          ~seed:i
          ~deadline_ms:60_000.0
          ~fault_plan:(if i = 1 then "crash@1" else "")
          ~use_cache:false ())
  in
  let outcomes = List.map (Serve_engine.offer engine) requests in
  let shed =
    List.filter_map
      (function
        | Serve_engine.Done r when code_of r = Some P.Overloaded -> Some r | _ -> None)
      outcomes
  in
  Alcotest.(check int) "exactly N - Q shed" 5 (List.length shed);
  List.iter
    (fun r ->
      match r.P.body with
      | Error { P.retry_after_ms = Some ms; _ } ->
          Alcotest.(check bool) "retry hint positive" true (ms > 0.0)
      | _ -> Alcotest.fail "shed response must carry retry_after_ms")
    shed;
  let ran = Serve_engine.run_pending engine in
  Alcotest.(check int) "exactly Q executed" 3 ran;
  List.iteri
    (fun i outcome ->
      match outcome with
      | Serve_engine.Done _ -> ()
      | Serve_engine.Queued tk -> (
          let r = Serve_engine.await tk in
          if i = 1 then (
            Alcotest.(check (option string))
              "crash-fault request crashed, structurally" (Some "crashed")
              (Option.map P.error_code_name (code_of r));
            match r.P.body with
            | Error e ->
                Alcotest.(check bool)
                  "crash message names the attempts" true
                  (String.length e.P.message > 0)
            | Ok _ -> assert false)
          else
            let body = ok_of (Printf.sprintf "admitted r%d" i) r in
            Alcotest.(check bool) (Printf.sprintf "r%d valid" i) true body.P.valid))
    outcomes;
  (* the injected crash must not have taken the daemon down *)
  let after =
    match Serve_engine.offer engine (quick_request ~id:"after" ~use_cache:false ()) with
    | Serve_engine.Done r -> r
    | Serve_engine.Queued tk ->
        ignore (Serve_engine.run_pending engine);
        Serve_engine.await tk
  in
  let body = ok_of "post-crash request" after in
  Alcotest.(check bool) "post-crash request valid" true body.P.valid;
  let s = Serve_engine.stats engine in
  Alcotest.(check int) "admitted counted" 4 s.Serve_engine.admission.Admission.admitted;
  Alcotest.(check int) "completed counted" 4 s.Serve_engine.admission.Admission.completed;
  Alcotest.(check int) "shed counted" 5 s.Serve_engine.admission.Admission.shed;
  Serve_engine.stop engine

let test_crash_with_retry_recovers () =
  let engine = manual_engine ~retry_attempts:2 () in
  let resp =
    match
      Serve_engine.offer engine (quick_request ~fault_plan:"crash@1" ~use_cache:false ())
    with
    | Serve_engine.Done r -> r
    | Serve_engine.Queued tk ->
        ignore (Serve_engine.run_pending engine);
        Serve_engine.await tk
  in
  let body = ok_of "crash then retry" resp in
  Alcotest.(check bool) "recovered run valid" true body.P.valid;
  Alcotest.(check bool)
    "health records the recovery" true
    (let h = body.P.health in
     let has needle =
       let nl = String.length needle and hl = String.length h in
       let rec go i = i + nl <= hl && (String.sub h i nl = needle || go (i + 1)) in
       go 0
     in
     has "recovery");
  (* a faulted run must not poison the cache *)
  let again =
    match
      Serve_engine.offer engine (quick_request ~fault_plan:"" ~use_cache:true ())
    with
    | Serve_engine.Done r -> r
    | Serve_engine.Queued tk ->
        ignore (Serve_engine.run_pending engine);
        Serve_engine.await tk
  in
  Alcotest.(check bool)
    "faulted run not cached" false (ok_of "clean rerun" again).P.cache_hit;
  Serve_engine.stop engine

let test_deadline_expiry () =
  let engine = manual_engine () in
  match Serve_engine.offer engine (quick_request ~deadline_ms:20.0 ~use_cache:false ()) with
  | Serve_engine.Done r ->
      Alcotest.failf "expected admission, got immediate %s"
        (match code_of r with Some c -> P.error_code_name c | None -> "ok")
  | Serve_engine.Queued tk ->
      (* the request waits in queue past its overall deadline *)
      Unix.sleepf 0.05;
      ignore (Serve_engine.run_pending engine);
      let r = Serve_engine.await tk in
      Alcotest.(check (option string))
        "expired in queue" (Some "deadline_expired")
        (Option.map P.error_code_name (code_of r));
      Alcotest.(check bool) "queue wait reported" true (r.P.queue_ms >= 20.0);
      Serve_engine.stop engine

let test_bad_requests_never_admitted () =
  let engine = manual_engine () in
  let expect_bad what req =
    match Serve_engine.offer engine req with
    | Serve_engine.Done r ->
        Alcotest.(check (option string))
          what (Some "bad_request")
          (Option.map P.error_code_name (code_of r))
    | Serve_engine.Queued _ -> Alcotest.failf "%s: must not be admitted" what
  in
  expect_bad "unknown instance"
    { (quick_request ()) with P.source = P.Instance "no_such_instance" };
  expect_bad "garbage inline graph" { (quick_request ()) with P.source = P.Inline "%%%" };
  expect_bad "cost vector length mismatch"
    { (quick_request ()) with P.costs = Some [| 1.0 |] };
  let s = Serve_engine.stats engine in
  Alcotest.(check int) "nothing admitted" 0 s.Serve_engine.admission.Admission.admitted;
  Serve_engine.stop engine

let test_drain_refuses_then_stop_fails_queued () =
  let engine = manual_engine ~queue_limit:4 () in
  let tickets =
    List.filter_map
      (fun i ->
        match
          Serve_engine.offer engine
            (quick_request ~id:(Printf.sprintf "q%d" i) ~seed:i ~use_cache:false ())
        with
        | Serve_engine.Queued tk -> Some tk
        | Serve_engine.Done _ -> None)
      [ 0; 1 ]
  in
  Alcotest.(check int) "both queued" 2 (List.length tickets);
  Serve_engine.drain engine;
  (match Serve_engine.offer engine (quick_request ~id:"late" ()) with
  | Serve_engine.Done r ->
      Alcotest.(check (option string))
        "refused while draining" (Some "draining")
        (Option.map P.error_code_name (code_of r))
  | Serve_engine.Queued _ -> Alcotest.fail "draining engine admitted a request");
  (* manual mode: drain leaves execution to the caller; stop instead
     fails whatever is still queued with a structured error *)
  Serve_engine.stop engine;
  List.iter
    (fun tk ->
      let r = Serve_engine.await tk in
      Alcotest.(check (option string))
        "queued ticket failed structurally" (Some "draining")
        (Option.map P.error_code_name (code_of r)))
    tickets

let test_executor_domains () =
  let engine =
    Serve_engine.create
      ~config:
        {
          Serve_engine.default_config with
          Serve_engine.queue_limit = 8;
          executors = 2;
          cache_capacity = 0;
        }
      ()
  in
  let tickets =
    List.map
      (fun i ->
        Serve_engine.offer engine
          (quick_request ~id:(Printf.sprintf "d%d" i) ~seed:i ~iters:6 ()))
      [ 0; 1; 2; 3 ]
  in
  List.iteri
    (fun i outcome ->
      let r =
        match outcome with
        | Serve_engine.Queued tk -> Serve_engine.await tk
        | Serve_engine.Done r -> r
      in
      let body = ok_of (Printf.sprintf "domain-executed d%d" i) r in
      Alcotest.(check bool) (Printf.sprintf "d%d valid" i) true body.P.valid)
    tickets;
  (* per-request fault plans are process-ambient: a multi-executor
     daemon must reject them instead of racing *)
  (match Serve_engine.offer engine (quick_request ~fault_plan:"crash@1" ()) with
  | Serve_engine.Done r ->
      Alcotest.(check (option string))
        "fault plan rejected with >1 executor" (Some "bad_request")
        (Option.map P.error_code_name (code_of r))
  | Serve_engine.Queued _ -> Alcotest.fail "fault plan admitted with 2 executors");
  Serve_engine.drain engine;
  let s = Serve_engine.stats engine in
  Alcotest.(check int) "all completed" 4 s.Serve_engine.admission.Admission.completed;
  Serve_engine.stop engine

(* --- request-id correlation --------------------------------------------- *)

let test_request_id_propagation () =
  (* one request followed across the three telemetry surfaces: every
     log line, the serve.request trace span and the health events must
     carry the same daemon-minted id — client id + admission sequence —
     so a crash-and-retry is attributable even when clients reuse ids *)
  Obs.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.reset ();
      Metrics.reset ())
  @@ fun () ->
  let engine = manual_engine ~retry_attempts:2 () in
  Log.with_memory (fun () ->
      match
        Serve_engine.offer engine
          (quick_request ~id:"follow" ~fault_plan:"crash@1" ~use_cache:false ())
      with
      | Serve_engine.Done r ->
          Alcotest.failf "expected admission, got %s"
            (Json.to_string (P.response_to_json r))
      | Serve_engine.Queued tk ->
          ignore (Serve_engine.run_pending engine);
          ignore (ok_of "retried request" (Serve_engine.await tk)));
  let rid = "follow#1" in
  (* the log: every record of the request carries the minted id *)
  let tagged =
    List.filter_map
      (fun r ->
        match Json.member "req" r with
        | Json.String id when id = rid ->
            Some (Json.get_string (Json.member "event" r))
        | _ -> None)
      (Log.records ())
  in
  List.iter
    (fun e -> Alcotest.(check bool) (e ^ " logged under the rid") true (List.mem e tagged))
    [
      "request.received"; "request.admitted"; "request.dequeued"; "request.health";
      "request.completed";
    ];
  Alcotest.(check bool) "no record escaped the rid" true
    (List.for_all
       (fun r -> match Json.member "req" r with Json.String id -> id = rid | _ -> false)
       (Log.records ()));
  (* the trace: the request span is stamped with the same id *)
  (match
     List.find_opt (fun s -> s.Trace.name = "serve.request") (Trace.spans ())
   with
  | Some s ->
      Alcotest.(check (option string)) "span rid attr" (Some rid)
        (List.assoc_opt "rid" s.Trace.args);
      Alcotest.(check (option string)) "span keeps the client id" (Some "follow")
        (List.assoc_opt "id" s.Trace.args)
  | None -> Alcotest.fail "serve.request span missing");
  (* the health log: the injected crash and its retry are attributed to
     the request's member name *)
  let members =
    List.map (fun e -> e.Health.member) (Health.events (Serve_engine.health engine))
  in
  Alcotest.(check bool) "health events name the rid" true
    (List.mem ("request:" ^ rid) members);
  (* a second request gets a fresh sequence number even with the same
     client id *)
  Log.with_memory (fun () ->
      match Serve_engine.offer engine (quick_request ~id:"follow" ~use_cache:false ()) with
      | Serve_engine.Done _ -> Alcotest.fail "expected admission"
      | Serve_engine.Queued tk ->
          ignore (Serve_engine.run_pending engine);
          ignore (ok_of "second request" (Serve_engine.await tk)));
  Alcotest.(check bool) "sequence advances" true
    (List.exists
       (fun r -> match Json.member "req" r with Json.String id -> id = "follow#2" | _ -> false)
       (Log.records ()));
  Serve_engine.stop engine

(* --- socket transport --------------------------------------------------- *)

let test_socket_end_to_end () =
  (* the daemon keeps its metrics sink live (the CLI enables it
     unconditionally): mirror that here so the telemetry op has data *)
  Obs.enable ();
  Trace.reset ();
  Metrics.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Trace.reset ();
      Metrics.reset ())
  @@ fun () ->
  let path = Printf.sprintf "/tmp/smoothe-test-%d.sock" (Unix.getpid ()) in
  let engine =
    Serve_engine.create
      ~config:
        { Serve_engine.default_config with Serve_engine.queue_limit = 8; executors = 1 }
      ()
  in
  let srv = Serve_socket.create ~engine ~path () in
  let server = Thread.create (fun () -> Serve_socket.run srv) () in
  Fun.protect
    ~finally:(fun () ->
      Serve_socket.shutdown srv;
      Thread.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let ping = Serve_socket.call ~path (Json.Object [ ("op", Json.String "ping") ]) in
      Alcotest.(check string)
        "ping answered" "ok"
        (Json.get_string (Json.member "status" ping));
      let req = P.request_to_json (quick_request ~id:"sock" ()) in
      let garbage_then_work =
        Serve_socket.call_many ~path
          [ Json.Object [ ("op", Json.String "wat") ]; req; req ]
      in
      (match garbage_then_work with
      | [ bad; first; second ] ->
          Alcotest.(check string)
            "unknown op answered structurally" "error"
            (Json.get_string (Json.member "status" bad));
          (match P.response_of_json first with
          | Ok r -> Alcotest.(check bool) "extraction ok" true (Result.is_ok r.P.body)
          | Error msg -> Alcotest.failf "unparsable first response: %s" msg);
          (match P.response_of_json second with
          | Ok r ->
              let body = ok_of "pipelined repeat" r in
              Alcotest.(check bool) "served from cache" true body.P.cache_hit
          | Error msg -> Alcotest.failf "unparsable second response: %s" msg)
      | other -> Alcotest.failf "expected 3 responses, got %d" (List.length other));
      let stats = Serve_socket.call ~path (Json.Object [ ("op", Json.String "stats") ]) in
      let completed =
        Json.get_number (Json.member "completed" (Json.member "stats" stats))
      in
      Alcotest.(check bool) "stats counts the run" true (completed >= 1.0);
      (* the telemetry op: stats plus the whole metrics registry in one
         frame, with the Prometheus text inlined on request *)
      let tel =
        Serve_socket.call ~path
          (Json.Object
             [ ("op", Json.String "telemetry"); ("format", Json.String "prom") ])
      in
      Alcotest.(check string) "telemetry ok" "ok"
        (Json.get_string (Json.member "status" tel));
      let metrics = Json.member "metrics" tel in
      let request_ms = Json.member "serve.request_ms" metrics in
      Alcotest.(check bool) "request latency histogram present" true
        (Json.get_number (Json.member "count" request_ms) >= 1.0);
      List.iter
        (fun q ->
          Alcotest.(check bool) (q ^ " estimated") true
            (match Json.member q request_ms with
            | Json.Number v -> Float.is_finite v && v > 0.0
            | _ -> false))
        [ "p50"; "p95"; "p99" ];
      Alcotest.(check bool) "offered meter present" true
        (Json.get_number
           (Json.member "total" (Json.member "serve.offered.rate" metrics))
        >= 1.0);
      let prom = Json.get_string (Json.member "prom" tel) in
      Alcotest.(check bool) "prom exposition inlined" true
        (String.length prom > 0);
      Alcotest.(check bool) "prom names the request histogram" true
        (List.exists
           (fun l -> l = "# TYPE smoothe_serve_request_ms histogram")
           (String.split_on_char '\n' prom)))

(* --- request journal & crash-only recovery ----------------------------- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "smoothe-jrnl-%d-%d" (Unix.getpid ()) !n)
    in
    Fsio.mkdir_p d;
    d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_temp_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let journal_engine ?(queue_limit = 8) journal =
  Serve_engine.create
    ~config:
      {
        Serve_engine.default_config with
        Serve_engine.queue_limit;
        executors = 0;
        retry_attempts = 1;
        cache_capacity = 16;
      }
    ~journal ()

let sample_body =
  { P.cost = 166.0; valid = true; choices = [ (0, 1); (2, 3) ]; iterations = 9;
    cache_hit = false; health = "healthy" }

let body_fields b = (b.P.cost, b.P.choices, b.P.iterations)

(* submit + complete one request, restart the journal: the completion is
   carried forward, the cache is warm, and a retry of the same request
   is a bit-identical hit without recomputation *)
let test_journal_cache_warm_restart () =
  with_temp_dir @@ fun dir ->
  let j1 = Serve_journal.open_ ~dir ~name:"requests" () in
  let engine1 = journal_engine j1 in
  let req = quick_request ~id:"warm" ~seed:21 () in
  let first =
    match Serve_engine.offer engine1 req with
    | Serve_engine.Done _ -> Alcotest.fail "expected admission"
    | Serve_engine.Queued tk ->
        ignore (Serve_engine.run_pending engine1);
        ok_of "first run" (Serve_engine.await tk)
  in
  Alcotest.(check bool) "first run computed" false first.P.cache_hit;
  (* the stats frame surfaces the journal sub-object *)
  (match Json.member "journal" (Serve_engine.stats_json engine1) with
  | Json.Object _ -> ()
  | _ -> Alcotest.fail "stats_json should carry a journal object");
  Serve_engine.stop engine1;
  Serve_journal.close j1;
  let j2 = Serve_journal.open_ ~dir ~name:"requests" () in
  Alcotest.(check int) "nothing pending after clean completion" 0
    (List.length (Serve_journal.pending j2));
  Alcotest.(check int) "one warm completion carried" 1
    (List.length (Serve_journal.warm j2));
  Alcotest.(check bool) "generation advanced" true
    (Serve_journal.generation j2 > 1);
  (* compaction dropped the old generation files *)
  Alcotest.(check int) "one generation file after compaction" 1
    (Array.length
       (Array.of_list
          (List.filter
             (fun f -> Filename.check_suffix f ".jrnl")
             (Array.to_list (Sys.readdir dir)))));
  let engine2 = journal_engine j2 in
  Alcotest.(check int) "cache warmed from journal" 1 (Serve_engine.warmed engine2);
  (match Serve_engine.offer engine2 req with
  | Serve_engine.Done resp ->
      let body = ok_of "warm retry" resp in
      Alcotest.(check bool) "served from the warmed cache" true body.P.cache_hit;
      Alcotest.(check (float 0.0)) "bit-identical cost" first.P.cost body.P.cost;
      Alcotest.(check bool) "bit-identical choices" true
        (body.P.choices = first.P.choices)
  | Serve_engine.Queued _ -> Alcotest.fail "warm retry should be a cache hit");
  Serve_engine.stop engine2;
  Serve_journal.close j2

(* the kill-at-K property: crash the engine after K completions with N
   admitted, restart over the same journal, and the response set is
   exactly the uninterrupted run's — completed requests from the warmed
   cache, lost ones replayed *)
let test_kill_at_k_replay () =
  let n = 4 and k = 2 in
  let reqs =
    List.init n (fun i -> quick_request ~id:(Printf.sprintf "kk%d" i) ~seed:(31 + i) ())
  in
  (* uninterrupted reference run *)
  let reference =
    let engine = manual_engine ~queue_limit:8 () in
    let tickets =
      List.map
        (fun req ->
          match Serve_engine.offer engine req with
          | Serve_engine.Queued tk -> tk
          | Serve_engine.Done _ -> Alcotest.fail "reference: expected admission")
        reqs
    in
    ignore (Serve_engine.run_pending engine);
    let bodies = List.map (fun tk -> ok_of "reference" (Serve_engine.await tk)) tickets in
    Serve_engine.stop engine;
    bodies
  in
  with_temp_dir @@ fun dir ->
  let j1 = Serve_journal.open_ ~dir ~name:"requests" () in
  let engine1 = journal_engine j1 in
  List.iter
    (fun req ->
      match Serve_engine.offer engine1 req with
      | Serve_engine.Queued _ -> ()
      | Serve_engine.Done _ -> Alcotest.fail "crash run: expected admission")
    reqs;
  (match
     Fault_plan.with_plan [ Fault_plan.Crash_in_flight k ] (fun () ->
         Serve_engine.run_pending engine1)
   with
  | exception Fault_plan.Injected_crash _ -> ()
  | ran -> Alcotest.failf "crash-in-flight@%d never fired (%d ran)" k ran);
  (* the process is dead: no drain, no stop — only what was fsynced
     survives *)
  Serve_journal.close j1;
  let j2 = Serve_journal.open_ ~dir ~name:"requests" () in
  Alcotest.(check int) "completions before the crash stay completed" (n - k)
    (List.length (Serve_journal.pending j2));
  Alcotest.(check int) "completed requests warm the cache" k
    (List.length (Serve_journal.warm j2));
  let engine2 = journal_engine j2 in
  Alcotest.(check int) "warm count" k (Serve_engine.warmed engine2);
  Alcotest.(check int) "recover replays the lost requests" (n - k)
    (Serve_engine.recover engine2);
  Alcotest.(check int) "replay counter" (n - k) (Serve_engine.replayed engine2);
  Alcotest.(check int) "replayed health events" (n - k)
    (Health.count (Serve_engine.health engine2) Health.Replayed);
  Alcotest.(check int) "replays execute" (n - k) (Serve_engine.run_pending engine2);
  (* every original request is now answerable from cache, bit-identical
     to the uninterrupted run *)
  let hits_before = (Serve_engine.stats engine2).Serve_engine.cache_hits in
  List.iter2
    (fun req ref_body ->
      match Serve_engine.offer engine2 req with
      | Serve_engine.Done resp ->
          let body = ok_of ("replayed " ^ req.P.id) resp in
          Alcotest.(check bool) (req.P.id ^ " is a cache hit") true body.P.cache_hit;
          Alcotest.(check bool) (req.P.id ^ " bit-identical") true
            (body_fields body = body_fields ref_body)
      | Serve_engine.Queued _ -> Alcotest.failf "%s: expected a cache hit" req.P.id)
    reqs reference;
  Alcotest.(check int) "cache hit counters advanced" (hits_before + n)
    (Serve_engine.stats engine2).Serve_engine.cache_hits;
  Serve_engine.stop engine2;
  Serve_journal.close j2

(* truncating the journal at every byte boundary never prevents a scan
   and never invents a record: the result is always an intact prefix *)
let test_journal_torn_tail_every_byte () =
  with_temp_dir @@ fun dir ->
  let j = Serve_journal.open_ ~dir ~name:"requests" () in
  Serve_journal.append_admitted j ~rid:"t1#1" (quick_request ~id:"t1" ~seed:41 ());
  Serve_journal.append_completed j ~rid:"t1#1" ~key:"some-cache-key" ~body:sample_body ();
  Serve_journal.append_admitted j ~rid:"t2#2" (quick_request ~id:"t2" ~seed:42 ());
  let file = Serve_journal.file j in
  Serve_journal.close j;
  let content = Fsio.read_file file in
  let full, tail = Serve_journal.scan_string content in
  Alcotest.(check int) "full scan sees all records" 3 (List.length full);
  Alcotest.(check bool) "full scan is clean" true (tail = None);
  let is_prefix got =
    List.length got <= List.length full
    && List.for_all2 (fun a b -> a = b) got
         (List.filteri (fun i _ -> i < List.length got) full)
  in
  for len = 0 to String.length content - 1 do
    match Serve_journal.scan_string (String.sub content 0 len) with
    | got, _ ->
        if not (is_prefix got) then
          Alcotest.failf "truncation at byte %d produced a non-prefix (%d records)" len
            (List.length got)
    | exception e ->
        Alcotest.failf "truncation at byte %d raised %s" len (Printexc.to_string e)
  done;
  (* flipped bytes (bit rot) are as survivable as torn tails *)
  let step = 13 in
  let off = ref 0 in
  while !off < String.length content do
    let corrupted = Bytes.of_string content in
    Bytes.set corrupted !off (Char.chr (Char.code (Bytes.get corrupted !off) lxor 0xFF));
    (match Serve_journal.scan_string (Bytes.to_string corrupted) with
    | got, _ ->
        if not (is_prefix got) then
          Alcotest.failf "corruption at byte %d produced a non-prefix" !off
    | exception e ->
        Alcotest.failf "corruption at byte %d raised %s" !off (Printexc.to_string e));
    off := !off + step
  done;
  (* opening over a physically torn tail works and keeps the intact
     prefix: the completed pair drops out, the torn admit is dropped *)
  let torn_len = String.length content - 7 in
  let oc = open_out_bin file in
  output_string oc (String.sub content 0 torn_len);
  close_out oc;
  let j2 = Serve_journal.open_ ~dir ~name:"requests" () in
  Alcotest.(check bool) "torn generation surfaced" true (Serve_journal.torn j2 <> []);
  Alcotest.(check int) "intact pairs survive, torn frame dropped" 0
    (List.length (Serve_journal.pending j2));
  Alcotest.(check int) "intact completion still warms" 1
    (List.length (Serve_journal.warm j2));
  Serve_journal.close j2

(* the torn-journal fault plan: a crash mid-append leaves frame 2 torn;
   the next open replays frame 1 only and reports the tear as health *)
let test_torn_journal_fault () =
  with_temp_dir @@ fun dir ->
  let j = Serve_journal.open_ ~dir ~name:"requests" () in
  Serve_journal.append_admitted j ~rid:"clean#1" (quick_request ~id:"clean" ~seed:51 ());
  Fault_plan.with_plan [ Fault_plan.Torn_journal ] (fun () ->
      Serve_journal.append_admitted j ~rid:"torn#2" (quick_request ~id:"torn" ~seed:52 ()));
  Serve_journal.close j;
  let j2 = Serve_journal.open_ ~dir ~name:"requests" () in
  (match Serve_journal.pending j2 with
  | [ (rid, req) ] ->
      Alcotest.(check string) "the clean admit survives" "clean#1" rid;
      Alcotest.(check string) "request intact" "clean" req.P.id
  | other -> Alcotest.failf "expected 1 pending, got %d" (List.length other));
  Alcotest.(check bool) "tear surfaced" true (Serve_journal.torn j2 <> []);
  let engine = journal_engine j2 in
  Alcotest.(check bool) "journal-torn health event" true
    (Health.count (Serve_engine.health engine) Health.Journal_torn >= 1);
  Serve_engine.stop engine;
  Serve_journal.close j2

(* A generation an older daemon wrote in journal format 1 — the kind
   tag in the header, not the payload — reads as torn at byte 0: nothing
   replays, nothing warms, nothing raises. *)
let test_v1_generation_reads_torn () =
  with_temp_dir @@ fun dir ->
  let field buf s =
    Buffer.add_int64_le buf (Int64.of_int (String.length s));
    Buffer.add_string buf s
  in
  let payload = Buffer.create 256 in
  field payload "old#1";
  field payload (Json.to_string (P.request_to_json (quick_request ~id:"old" ())));
  let payload = Buffer.contents payload in
  let v1 = Buffer.create 512 in
  Buffer.add_string v1 "SMJR";
  Buffer.add_int32_le v1 1l (* version *);
  Buffer.add_int32_le v1 1l (* kind: admitted *);
  Buffer.add_int64_le v1 (Int64.of_int (String.length payload));
  Buffer.add_int32_le v1 (Int32.of_int (Checksum.crc32 payload));
  Buffer.add_string v1 payload;
  let v1 = Buffer.contents v1 in
  (match Serve_journal.scan_string v1 with
  | [], Some (0, _) -> ()
  | _ -> Alcotest.fail "a v1 frame should read as torn at byte 0");
  Fsio.write_atomic ~path:(Filename.concat dir "requests.00000001.jrnl") v1;
  let j = Serve_journal.open_ ~dir ~name:"requests" () in
  Alcotest.(check bool) "torn reported" true (Serve_journal.torn j <> []);
  Alcotest.(check int) "nothing pending" 0 (List.length (Serve_journal.pending j));
  Alcotest.(check int) "nothing warm" 0 (List.length (Serve_journal.warm j));
  Serve_journal.close j

(* drained-but-unserved requests (the SIGTERM path: stop fails queued
   tickets with [draining]) stay journaled incomplete and replay *)
let test_sigterm_drain_preserves_journal () =
  with_temp_dir @@ fun dir ->
  let j1 = Serve_journal.open_ ~dir ~name:"requests" () in
  let engine1 = journal_engine j1 in
  let reqs = List.init 2 (fun i -> quick_request ~id:(Printf.sprintf "dr%d" i) ~seed:(61 + i) ()) in
  let tickets =
    List.map
      (fun req ->
        match Serve_engine.offer engine1 req with
        | Serve_engine.Queued tk -> tk
        | Serve_engine.Done _ -> Alcotest.fail "expected admission")
      reqs
  in
  (* SIGTERM: drain then stop without ever running the queue *)
  Serve_engine.drain engine1;
  Serve_engine.stop engine1;
  List.iter
    (fun tk ->
      Alcotest.(check (option bool)) "failed structurally, not served"
        (Some false)
        (Option.map (fun r -> Result.is_ok r.P.body) (Serve_engine.peek tk)))
    tickets;
  Serve_journal.close j1;
  let j2 = Serve_journal.open_ ~dir ~name:"requests" () in
  Alcotest.(check int) "drained-but-unserved requests still journaled" 2
    (List.length (Serve_journal.pending j2));
  let engine2 = journal_engine j2 in
  Alcotest.(check int) "both replay" 2 (Serve_engine.recover engine2);
  Alcotest.(check int) "both execute" 2 (Serve_engine.run_pending engine2);
  List.iter
    (fun req ->
      match Serve_engine.offer engine2 req with
      | Serve_engine.Done resp ->
          Alcotest.(check bool) (req.P.id ^ " answered after restart") true
            (ok_of "drained replay" resp).P.cache_hit
      | Serve_engine.Queued _ -> Alcotest.failf "%s: expected a cache hit" req.P.id)
    reqs;
  Serve_engine.stop engine2;
  Serve_journal.close j2

(* --- watchdog ----------------------------------------------------------- *)

let fake_clock () =
  let t = ref 0.0 in
  let sleeps = ref [] in
  let now () = !t in
  let sleep d =
    sleeps := d :: !sleeps;
    t := !t +. d
  in
  (now, sleep, fun () -> List.rev !sleeps)

let test_watchdog_breaker () =
  let policy =
    { Watchdog.max_restarts = 3; window = 60.0; backoff = 0.1; max_backoff = 0.5 }
  in
  let run seed =
    let now, sleep, sleeps = fake_clock () in
    let health = Health.create () in
    let attempts = ref 0 in
    let spawn ~attempt =
      Alcotest.(check int) "attempts count up" !attempts attempt;
      incr attempts;
      Watchdog.Signaled 9
    in
    let outcome =
      Watchdog.supervise ~policy ~health ~rng:(Rng.create seed) ~sleep ~now
        ~name:"daemon" spawn
    in
    (outcome, !attempts, sleeps (), health)
  in
  let outcome, attempts, sleeps, health = run 7 in
  (match outcome with
  | Watchdog.Crash_loop { crashes; window } ->
      Alcotest.(check int) "breaker counts the crashes" 3 crashes;
      Alcotest.(check (float 0.0)) "breaker window" 60.0 window
  | Watchdog.Clean_exit -> Alcotest.fail "breaker should have tripped");
  Alcotest.(check int) "spawned max_restarts times" 3 attempts;
  Alcotest.(check int) "slept between restarts only" 2 (List.length sleeps);
  List.iter
    (fun p ->
      Alcotest.(check bool) "backoff positive and capped" true
        (p > 0.0 && p <= policy.Watchdog.max_backoff))
    sleeps;
  (match sleeps with
  | [ a; b ] -> Alcotest.(check bool) "backoff grows" true (b >= a)
  | _ -> assert false);
  Alcotest.(check int) "restart health events" 2
    (Health.count health Health.Watchdog_restart);
  Alcotest.(check int) "crash-loop health event" 1
    (Health.count health Health.Crash_loop);
  (* determinism: same seed, same pauses *)
  let _, _, sleeps', _ = run 7 in
  Alcotest.(check bool) "deterministic backoff" true (sleeps = sleeps');
  let _, _, sleeps'', _ = run 8 in
  Alcotest.(check bool) "seed changes the jitter" true (sleeps <> sleeps'')

let test_watchdog_clean_exit_and_window () =
  (* a child that crashes twice then exits cleanly: two restarts, done *)
  let now, sleep, _ = fake_clock () in
  let attempts = ref 0 in
  let spawn ~attempt:_ =
    incr attempts;
    if !attempts <= 2 then Watchdog.Exited 70 else Watchdog.Exited 0
  in
  (match
     Watchdog.supervise
       ~policy:{ Watchdog.max_restarts = 5; window = 60.0; backoff = 0.1; max_backoff = 1.0 }
       ~rng:(Rng.create 3) ~sleep ~now ~name:"daemon" spawn
   with
  | Watchdog.Clean_exit -> ()
  | Watchdog.Crash_loop _ -> Alcotest.fail "clean exit should end supervision");
  Alcotest.(check int) "restarted until the clean exit" 3 !attempts;
  (* crashes spread wider than the window never trip the breaker: each
     backoff pause (>= 0.1s) outlives the 50ms window *)
  let now, sleep, _ = fake_clock () in
  let attempts = ref 0 in
  let spawn ~attempt:_ =
    incr attempts;
    if !attempts <= 4 then Watchdog.Signaled 9 else Watchdog.Exited 0
  in
  (match
     Watchdog.supervise
       ~policy:{ Watchdog.max_restarts = 2; window = 0.05; backoff = 0.1; max_backoff = 1.0 }
       ~rng:(Rng.create 3) ~sleep ~now ~name:"daemon" spawn
   with
  | Watchdog.Clean_exit -> ()
  | Watchdog.Crash_loop _ -> Alcotest.fail "aged-out crashes must not trip the breaker");
  Alcotest.(check int) "survived all four crashes" 5 !attempts;
  (* invalid policies are rejected up front *)
  Alcotest.check_raises "zero restarts rejected"
    (Invalid_argument "Watchdog.supervise: max restarts must be positive, got 0") (fun () ->
      ignore
        (Watchdog.supervise
           ~policy:{ Watchdog.max_restarts = 0; window = 1.0; backoff = 0.1; max_backoff = 1.0 }
           ~name:"daemon"
           (fun ~attempt:_ -> Watchdog.Exited 0)))

(* --- transport hardening ------------------------------------------------ *)

let with_socket_server ?read_timeout ?max_frame f =
  let path = Printf.sprintf "/tmp/smoothe-hard-%d.sock" (Unix.getpid ()) in
  let engine =
    Serve_engine.create
      ~config:
        { Serve_engine.default_config with Serve_engine.queue_limit = 4; executors = 1 }
      ()
  in
  let srv = Serve_socket.create ?read_timeout ?max_frame ~engine ~path () in
  let server = Thread.create (fun () -> Serve_socket.run srv) () in
  Fun.protect
    ~finally:(fun () ->
      Serve_socket.shutdown srv;
      Thread.join server;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let raw_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let send_raw fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "raw bytes sent" (String.length s) n

(* read one response line, then confirm the server hung up *)
let read_error_line fd =
  let ic = Unix.in_channel_of_descr fd in
  let line =
    match input_line ic with
    | line -> line
    | exception End_of_file -> Alcotest.fail "server closed without a structured error"
  in
  (match input_line ic with
  | _ -> Alcotest.fail "server kept the connection open"
  | exception End_of_file -> ());
  match P.response_of_json (Json.parse line) with
  | Ok resp -> resp
  | Error msg -> Alcotest.failf "unparsable error frame: %s" msg

let test_slow_loris_timeout () =
  with_socket_server ~read_timeout:0.3 @@ fun path ->
  let fd = raw_connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* dribble a frame fragment and then stall: the deadline covers
         the whole frame, so the server answers and disconnects *)
      send_raw fd "{\"op\"";
      Thread.delay 0.1;
      send_raw fd ":";
      let resp = read_error_line fd in
      Alcotest.(check (option string)) "structured timeout"
        (Some "timeout")
        (Option.map P.error_code_name (code_of resp)));
  (* the daemon survives the abuse: a fresh well-formed frame works *)
  let ping = Serve_socket.call ~path (Json.Object [ ("op", Json.String "ping") ]) in
  Alcotest.(check string) "daemon still serves" "ok"
    (Json.get_string (Json.member "status" ping))

let test_frame_length_cap () =
  with_socket_server ~read_timeout:5.0 ~max_frame:1024 @@ fun path ->
  let fd = raw_connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* the cap trips before any newline arrives: an unterminated
         flood cannot grow the carry buffer unboundedly *)
      send_raw fd (String.make 5000 'x');
      let resp = read_error_line fd in
      Alcotest.(check (option string)) "structured frame_too_long"
        (Some "frame_too_long")
        (Option.map P.error_code_name (code_of resp)));
  let ping = Serve_socket.call ~path (Json.Object [ ("op", Json.String "ping") ]) in
  Alcotest.(check string) "daemon still serves" "ok"
    (Json.get_string (Json.member "status" ping))

(* the client honors the daemon's retry_after_ms shed hint: a fake
   shedding server answers [overloaded] twice, then ok *)
let test_client_honors_retry_hint () =
  let path = Printf.sprintf "/tmp/smoothe-shed-%d.sock" (Unix.getpid ()) in
  if Sys.file_exists path then Sys.remove path;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX path);
  Unix.listen listen 4;
  let stopping = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        let rec accept_loop () =
          match Unix.accept listen with
          | exception Unix.Unix_error _ -> ()
          | fd, _ when Atomic.get stopping ->
              (try Unix.close fd with Unix.Unix_error _ -> ())
          | fd, _ ->
              let ic = Unix.in_channel_of_descr fd in
              let oc = Unix.out_channel_of_descr fd in
              let frames = ref 0 in
              (try
                 let rec serve () =
                   match input_line ic with
                   | exception End_of_file -> ()
                   | _line ->
                       incr frames;
                       let resp =
                         if !frames <= 2 then
                           P.response_to_json
                             (P.error_response ~retry_after_ms:10.0 ~id:"shed"
                                P.Overloaded "queue full")
                         else
                           Json.Object
                             [
                               ("status", Json.String "ok");
                               ("frames", Json.Number (float_of_int !frames));
                             ]
                       in
                       output_string oc (Json.to_string resp);
                       output_char oc '\n';
                       flush oc;
                       serve ()
                 in
                 serve ()
               with _ -> ());
              (try Unix.close fd with Unix.Unix_error _ -> ());
              accept_loop ()
        in
        accept_loop ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* closing the listening fd does not wake a thread parked in
         [accept]; an arriving connection does (cf. Serve_socket) *)
      Atomic.set stopping true;
      (match Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> ()
      | fd ->
          (try Unix.connect fd (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ()));
      Thread.join server;
      (try Unix.close listen with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let frame = Json.Object [ ("op", Json.String "ping") ] in
      (* with retries, the shed hints are honored until the ok lands *)
      let resp = Serve_socket.call ~retries:3 ~rng:(Rng.create 42) ~path frame in
      Alcotest.(check string) "retried through the sheds" "ok"
        (Json.get_string (Json.member "status" resp));
      Alcotest.(check bool) "third frame won" true
        (Json.member "frames" resp = Json.Number 3.0);
      (* without retries the shed response comes back unchanged *)
      let shed = Serve_socket.call ~path frame in
      Alcotest.(check bool) "shed returned as-is" true
        (Json.member "code" shed = Json.String "overloaded");
      Alcotest.check_raises "negative retries rejected"
        (Invalid_argument "Serve_socket.call_many: retries must be >= 0") (fun () ->
          ignore (Serve_socket.call ~retries:(-1) ~path frame)))

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
          Alcotest.test_case "validation rejects" `Quick test_request_validation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "state machine" `Quick test_admission_machine;
          Alcotest.test_case "bad requests never admitted" `Quick
            test_bad_requests_never_admitted;
          Alcotest.test_case "drain then stop" `Quick
            test_drain_refuses_then_stop_fails_queued;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru bounds" `Quick test_cache_lru;
          Alcotest.test_case "single-bit key sensitivity" `Quick
            test_cache_key_bit_sensitivity;
          Alcotest.test_case "end to end" `Quick test_cache_end_to_end;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "overload, crash, survival" `Quick
            test_overload_crash_and_survival;
          Alcotest.test_case "crash with retry recovers" `Quick
            test_crash_with_retry_recovers;
          Alcotest.test_case "deadline expiry in queue" `Quick test_deadline_expiry;
          Alcotest.test_case "executor domains" `Quick test_executor_domains;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "request-id propagation" `Quick test_request_id_propagation ]
      );
      ( "journal",
        [
          Alcotest.test_case "cache warm across restart" `Quick
            test_journal_cache_warm_restart;
          Alcotest.test_case "kill at K, replay exact" `Quick test_kill_at_k_replay;
          Alcotest.test_case "torn tail at every byte" `Quick
            test_journal_torn_tail_every_byte;
          Alcotest.test_case "torn-journal fault plan" `Quick test_torn_journal_fault;
          Alcotest.test_case "sigterm drain preserves journal" `Quick
            test_sigterm_drain_preserves_journal;
          Alcotest.test_case "v1 generation reads torn" `Quick test_v1_generation_reads_torn;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "crash-loop breaker" `Quick test_watchdog_breaker;
          Alcotest.test_case "clean exit and window aging" `Quick
            test_watchdog_clean_exit_and_window;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end to end" `Quick test_socket_end_to_end;
          Alcotest.test_case "slow-loris timeout" `Quick test_slow_loris_timeout;
          Alcotest.test_case "frame length cap" `Quick test_frame_length_cap;
          Alcotest.test_case "client honors retry hint" `Quick
            test_client_honors_retry_hint;
        ] );
    ]
