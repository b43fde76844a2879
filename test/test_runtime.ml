(* Tests for the supervision runtime: fault plans, health logs, the
   supervisor, and the recovery paths they drive through the extraction
   stack (numeric guards, OOM derating, solver stalls, clock skew). *)

let small_graph () = (Registry.find_instance "mcm_8").Registry.build ()

let quick_cfg =
  { Smoothe_config.default with Smoothe_config.max_iters = 30; batch = 4; patience = 50 }

(* --- fault plans ------------------------------------------------------ *)

let test_plan_parse () =
  let p = Fault_plan.of_string "nan@10,mem@8,stall,skew@30" in
  Alcotest.(check bool)
    "all four atoms" true
    (p
    = [
        Fault_plan.Nan_grad 10;
        Fault_plan.Mem_pressure 8.0;
        Fault_plan.Solver_stall;
        Fault_plan.Clock_skew 30.0;
      ]);
  Alcotest.(check bool) "empty is none" true (Fault_plan.is_none (Fault_plan.of_string ""));
  Alcotest.(check bool) "none is none" true (Fault_plan.is_none (Fault_plan.of_string "none"));
  Alcotest.(check string)
    "round trip" "nan@10,mem@8,stall,skew@30"
    (Fault_plan.to_string (Fault_plan.of_string "nan@10, mem@8, stall, skew@30"))

let test_plan_parse_errors () =
  let rejects spec =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" spec)
      true
      (match Fault_plan.of_string spec with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "nan";
  rejects "nan@x";
  rejects "nan@0";
  rejects "nan@-1";
  rejects "nan@2.5";
  rejects "mem@-1";
  rejects "mem@0";
  rejects "mem@inf";
  rejects "mem@nan";
  rejects "bogus";
  rejects "stall@3";
  rejects "crash";
  rejects "crash@0";
  rejects "crash@x";
  rejects "torn-write@3";
  (* one atom per fault family: the second would silently shadow *)
  rejects "nan@3,nan@5";
  rejects "crash@2,crash@9";
  rejects "torn,torn-write"

let test_plan_parse_durability () =
  Alcotest.(check bool)
    "crash and torn-write parse" true
    (Fault_plan.of_string "crash@13,torn-write"
    = [ Fault_plan.Crash_at 13; Fault_plan.Torn_write ]);
  Alcotest.(check bool)
    "torn is an alias" true
    (Fault_plan.of_string "torn" = [ Fault_plan.Torn_write ]);
  Alcotest.(check string)
    "round trip" "crash@13,torn-write"
    (Fault_plan.to_string (Fault_plan.of_string "crash@13, torn"))

let test_crash_fires_once () =
  Fault_plan.with_plan
    [ Fault_plan.Crash_at 3 ]
    (fun () ->
      Fault_plan.crash_now ~iter:1;
      Fault_plan.crash_now ~iter:2;
      (match Fault_plan.crash_now ~iter:3 with
      | () -> Alcotest.fail "crash@3 did not fire at iteration 3"
      | exception Fault_plan.Injected_crash k -> Alcotest.(check int) "carries iter" 3 k);
      (* one-shot: the resumed run replays past K without crashing again *)
      Fault_plan.crash_now ~iter:3;
      Fault_plan.crash_now ~iter:4;
      Alcotest.(check bool) "injection recorded" true (Fault_plan.drain_injections () <> []));
  (* no ambient leak once the plan is cleared *)
  Fault_plan.crash_now ~iter:3

let test_torn_write_fires_once () =
  Fault_plan.with_plan
    [ Fault_plan.Torn_write ]
    (fun () ->
      Alcotest.(check bool) "first write torn" true (Fault_plan.torn_write ());
      Alcotest.(check bool) "second write clean" false (Fault_plan.torn_write ()));
  Alcotest.(check bool) "no plan, no tearing" false (Fault_plan.torn_write ())

let test_plan_determinism () =
  (* same plan, same firing point, twice *)
  let fire_at_which_backward () =
    Fault_plan.with_plan
      [ Fault_plan.Nan_grad 3 ]
      (fun () ->
        let fired = ref 0 in
        for pass = 1 to 5 do
          if Fault_plan.on_backward () then fired := pass
        done;
        !fired)
  in
  Alcotest.(check int) "fires on pass 3" 3 (fire_at_which_backward ());
  Alcotest.(check int) "replays identically" 3 (fire_at_which_backward ());
  Alcotest.(check bool)
    "records the injection" true
    (Fault_plan.with_plan
       [ Fault_plan.Nan_grad 1 ]
       (fun () ->
         ignore (Fault_plan.on_backward ());
         Fault_plan.drain_injections () <> []))

(* --- health log ------------------------------------------------------- *)

let test_health_log () =
  let log = Health.create () in
  Alcotest.(check bool) "fresh log empty" true (Health.is_empty log);
  Alcotest.(check string) "healthy summary" "healthy" (Health.summary log);
  Health.record log ~member:"smoothe" Health.Nan_detected "iteration 4";
  Health.record log ~member:"smoothe" Health.Recovery "adam reset";
  Health.record log ~member:"ilp" Health.Timeout "budget gone";
  Alcotest.(check int) "count by kind" 1 (Health.count log Health.Recovery);
  Alcotest.(check int) "count by member" 0 (Health.count ~member:"ilp" log Health.Recovery);
  Alcotest.(check int) "recoveries" 1 (Health.recoveries log);
  let events = Health.events log in
  Alcotest.(check int) "three events" 3 (List.length events);
  Alcotest.(check bool)
    "chronological" true
    (List.for_all2
       (fun a b -> a.Health.at <= b.Health.at)
       (List.filteri (fun i _ -> i < 2) events)
       (List.tl events));
  let into = Health.create () in
  Health.merge ~into log;
  Alcotest.(check int) "merge keeps all" 3 (List.length (Health.events into))

let test_health_merge_rebase () =
  (* Regression: merge used to copy [at] verbatim, so events from a log
     created later appeared to predate the destination's own earlier
     entries. A source event must be rebased onto the destination's
     creation epoch. The clock is advanced with Timer.set_skew rather
     than by sleeping. *)
  Fun.protect ~finally:(fun () -> Timer.set_skew 0.0) @@ fun () ->
  Timer.set_skew 0.0;
  let into = Health.create () in
  Health.record into ~member:"a" Health.Recovery "early";
  Timer.set_skew 10.0;
  let src = Health.create () in
  Health.record src ~member:"b" Health.Timeout "late";
  Health.merge ~into src;
  match Health.events into with
  | [ early; late ] ->
      Alcotest.(check string) "destination event first" "a" early.Health.member;
      Alcotest.(check bool)
        "rebased onto destination epoch" true
        (late.Health.at >= 10.0);
      Alcotest.(check bool) "timeline consistent" true (early.Health.at < late.Health.at)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

(* --- supervisor ------------------------------------------------------- *)

let test_supervisor_finished () =
  let log = Health.create () in
  let outcome = Supervisor.run ~health:log ~name:"m" ~budget:10.0 (fun _dl -> 42) in
  Alcotest.(check int) "value" 42 (Supervisor.value ~default:0 outcome);
  Alcotest.(check int) "no timeout" 0 (Health.count log Health.Timeout)

let test_supervisor_crash () =
  let log = Health.create () in
  let outcome =
    Supervisor.run ~health:log ~name:"m" ~budget:10.0 (fun _dl -> failwith "boom")
  in
  Alcotest.(check int) "default on crash" 7 (Supervisor.value ~default:7 outcome);
  Alcotest.(check int) "member-failed event" 1 (Health.count log Health.Member_failed)

let test_supervisor_timeout () =
  let log = Health.create () in
  let outcome =
    Supervisor.run ~health:log ~name:"m" ~budget:0.02 (fun dl ->
        Timer.sleep_until dl;
        "done")
  in
  Alcotest.(check string) "still returns" "done" (Supervisor.value ~default:"" outcome);
  Alcotest.(check int) "timeout event" 1 (Health.count log Health.Timeout)

let test_clock_skew () =
  Fault_plan.with_plan
    [ Fault_plan.Clock_skew 60.0 ]
    (fun () ->
      let log = Health.create () in
      let expired_on_entry = ref false in
      let _ =
        Supervisor.run ~health:log ~name:"m" ~budget:5.0 (fun dl ->
            expired_on_entry := Timer.expired dl)
      in
      Alcotest.(check bool) "skew expires the armed deadline" true !expired_on_entry;
      Alcotest.(check int) "fault recorded" 1 (Health.count log Health.Fault_injected);
      Alcotest.(check int) "timeout recorded" 1 (Health.count log Health.Timeout));
  Alcotest.(check (float 1e-9)) "skew undone after the plan" 0.0 (Timer.get_skew ())

let test_supervisor_crash_then_timeout () =
  (* a member that burns its budget and then dies: the failure event
     must precede the timeout event, and [value] falls back *)
  let log = Health.create () in
  let outcome =
    Supervisor.run ~health:log ~name:"m" ~budget:0.02 (fun dl ->
        Timer.sleep_until dl;
        failwith "boom")
  in
  Alcotest.(check int) "default on crash" 9 (Supervisor.value ~default:9 outcome);
  (match outcome with
  | Supervisor.Crashed { exn } ->
      Alcotest.(check bool) "exn captured" true (String.length exn > 0)
  | Supervisor.Finished _ -> Alcotest.fail "expected Crashed");
  let kinds = List.map (fun e -> e.Health.kind) (Health.events log) in
  Alcotest.(check bool)
    "member-failed strictly before timeout" true
    (kinds = [ Health.Member_failed; Health.Timeout ])

let test_run_retrying_eventual_success () =
  let log = Health.create () in
  let seen = ref [] in
  let outcome =
    Supervisor.run_retrying ~health:log ~rng:(Rng.create 3) ~attempts:3 ~backoff:0.001
      ~name:"m" ~budget:10.0
      (fun ~attempt _dl ->
        seen := attempt :: !seen;
        if attempt < 2 then failwith "flaky" else attempt)
  in
  Alcotest.(check int) "third attempt wins" 2 (Supervisor.value ~default:(-1) outcome);
  Alcotest.(check (list int)) "attempts in order" [ 0; 1; 2 ] (List.rev !seen);
  Alcotest.(check int) "two failures" 2 (Health.count log Health.Member_failed);
  Alcotest.(check int) "two retries" 2 (Health.count log Health.Recovery);
  Alcotest.(check int) "no timeout" 0 (Health.count log Health.Timeout)

let test_run_retrying_exhausted () =
  let log = Health.create () in
  let calls = ref 0 in
  let outcome =
    Supervisor.run_retrying ~health:log ~attempts:2 ~backoff:0.001 ~name:"m" ~budget:10.0
      (fun ~attempt:_ _dl ->
        incr calls;
        failwith "always")
  in
  (match outcome with
  | Supervisor.Crashed _ -> ()
  | Supervisor.Finished _ -> Alcotest.fail "expected exhaustion");
  Alcotest.(check int) "exactly two calls" 2 !calls;
  Alcotest.(check int) "both failures logged" 2 (Health.count log Health.Member_failed);
  Alcotest.(check int) "one retry between them" 1 (Health.count log Health.Recovery)

let test_run_retrying_backoff_cap () =
  let max_backoff = 0.02 in
  (* the Recovery detail records the exact pause, so the sleep sequence
     is observable without timing anything *)
  let pauses seed =
    let log = Health.create () in
    let outcome =
      Supervisor.run_retrying ~health:log ~rng:(Rng.create seed) ~attempts:6
        ~backoff:0.004 ~max_backoff ~name:"m" ~budget:10.0
        (fun ~attempt:_ _dl -> failwith "always")
    in
    (match outcome with
    | Supervisor.Crashed _ -> ()
    | Supervisor.Finished _ -> Alcotest.fail "expected exhaustion");
    List.filter_map
      (fun e ->
        if e.Health.kind = Health.Recovery then
          Some
            (Scanf.sscanf e.Health.detail "retrying (attempt %d/%d) after %fs backoff"
               (fun _ _ p -> p))
        else None)
      (Health.events log)
  in
  let ps = pauses 11 in
  Alcotest.(check int) "five retries recorded" 5 (List.length ps);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "pause %.3f bounded by cap" p)
        true
        (p <= max_backoff +. 1e-9))
    ps;
  (* exponential growth from 0.004 doubles past the cap by attempt 3, so
     saturation must actually occur *)
  Alcotest.(check bool)
    "cap reached" true
    (List.exists (fun p -> Float.abs (p -. max_backoff) <= 1e-9) ps);
  Alcotest.(check (list (float 1e-12))) "deterministic under fixed rng" ps (pauses 11);
  Alcotest.check_raises "zero cap rejected"
    (Invalid_argument "Supervisor.run_retrying: max_backoff must be positive and finite")
    (fun () ->
      ignore
        (Supervisor.run_retrying ~max_backoff:0.0 ~name:"m" ~budget:1.0
           (fun ~attempt:_ _dl -> ())))

(* --- checkpoints ------------------------------------------------------- *)

let with_tmpdir f =
  let dir = Filename.temp_file "smoothe-ckpt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let mk_snapshot ?(iter = 10) () =
  {
    Checkpoint.fingerprint =
      { Checkpoint.fp_graph = "g"; fp_nodes = 2; fp_classes = 2; fp_seed = 1; fp_batch = 2 };
    iter;
    elapsed = 1.5;
    rng_state = [| 1L; 2L; 3L; 4L |];
    theta = Tensor.of_array ~batch:2 ~width:2 [| 0.1; 0.2; 0.3; 0.4 |];
    adam_m = Tensor.of_array ~batch:2 ~width:2 [| 0.0; 0.0; 0.1; -0.1 |];
    adam_v = Tensor.of_array ~batch:2 ~width:2 [| 0.5; 0.5; 0.5; 0.5 |];
    adam_step = 3;
    adam_lr = 0.05;
    best_cost = 42.0;
    best_seed = 1;
    best_choice = Some [| Some 0; None |];
    best_cp = Some [| 0.25; 0.75 |];
    last_improvement = 8;
    recoveries = 0;
    ladder_rung = 0;
    trace = [ (0.4, 42.0); (0.1, 50.0) ];
    history =
      [
        { Checkpoint.iter = 2; elapsed = 0.4; relaxed_loss = 0.9; sampled_cost = 42.0;
          incumbent = 42.0 };
        { Checkpoint.iter = 1; elapsed = 0.1; relaxed_loss = 1.0; sampled_cost = 50.0;
          incumbent = 50.0 };
      ];
    health =
      Test_util.health_log
        [ { Health.at = 0.2; member = "smoothe"; kind = Health.Recovery; detail = "x" } ];
  }

(* floats compare bitwise so NaN payloads and signed zeros round-trip *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let teq a b =
  a.Tensor.batch = b.Tensor.batch
  && a.Tensor.width = b.Tensor.width
  && Array.for_all2 feq (Tensor.unsafe_data a) (Tensor.unsafe_data b)

let snapshot_equal (a : Checkpoint.snapshot) (b : Checkpoint.snapshot) =
  let rows_eq x y = Array.length x = Array.length y && Array.for_all2 feq x y in
  let health_a = Health.events a.Checkpoint.health
  and health_b = Health.events b.Checkpoint.health in
  a.Checkpoint.fingerprint = b.Checkpoint.fingerprint
  && a.Checkpoint.iter = b.Checkpoint.iter
  && feq a.Checkpoint.elapsed b.Checkpoint.elapsed
  && a.Checkpoint.rng_state = b.Checkpoint.rng_state
  && teq a.Checkpoint.theta b.Checkpoint.theta
  && teq a.Checkpoint.adam_m b.Checkpoint.adam_m
  && teq a.Checkpoint.adam_v b.Checkpoint.adam_v
  && a.Checkpoint.adam_step = b.Checkpoint.adam_step
  && feq a.Checkpoint.adam_lr b.Checkpoint.adam_lr
  && feq a.Checkpoint.best_cost b.Checkpoint.best_cost
  && a.Checkpoint.best_seed = b.Checkpoint.best_seed
  && a.Checkpoint.best_choice = b.Checkpoint.best_choice
  && Option.equal rows_eq a.Checkpoint.best_cp b.Checkpoint.best_cp
  && a.Checkpoint.last_improvement = b.Checkpoint.last_improvement
  && a.Checkpoint.recoveries = b.Checkpoint.recoveries
  && a.Checkpoint.ladder_rung = b.Checkpoint.ladder_rung
  && List.length a.Checkpoint.trace = List.length b.Checkpoint.trace
  && List.length a.Checkpoint.history = List.length b.Checkpoint.history
  && List.length health_a = List.length health_b
  && List.for_all2
       (fun (t1, c1) (t2, c2) -> feq t1 t2 && feq c1 c2)
       a.Checkpoint.trace b.Checkpoint.trace
  && List.for_all2
       (fun (x : Checkpoint.history_point) (y : Checkpoint.history_point) ->
         x.Checkpoint.iter = y.Checkpoint.iter
         && feq x.Checkpoint.elapsed y.Checkpoint.elapsed
         && feq x.Checkpoint.relaxed_loss y.Checkpoint.relaxed_loss
         && feq x.Checkpoint.sampled_cost y.Checkpoint.sampled_cost
         && feq x.Checkpoint.incumbent y.Checkpoint.incumbent)
       a.Checkpoint.history b.Checkpoint.history
  && List.for_all2
       (fun (x : Health.event) (y : Health.event) ->
         feq x.Health.at y.Health.at
         && x.Health.member = y.Health.member
         && x.Health.kind = y.Health.kind
         && x.Health.detail = y.Health.detail)
       health_a health_b

let test_checkpoint_roundtrip () =
  let snap = mk_snapshot () in
  match Checkpoint.deserialize (Checkpoint.serialize snap) with
  | Ok got -> Alcotest.(check bool) "identical snapshot" true (snapshot_equal snap got)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_checkpoint_frame_errors () =
  let data = Checkpoint.serialize (mk_snapshot ()) in
  let fails what s =
    match Checkpoint.deserialize s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  fails "empty file" "";
  fails "short header" (String.sub data 0 10);
  fails "torn tail" (String.sub data 0 (String.length data / 2));
  let bad_magic = Bytes.of_string data in
  Bytes.set bad_magic 0 'X';
  fails "bad magic" (Bytes.to_string bad_magic);
  let bad_version = Bytes.of_string data in
  Bytes.set bad_version 4 '\xEE';
  fails "version skew" (Bytes.to_string bad_version);
  let flipped = Bytes.of_string data in
  let i = 20 + ((String.length data - 20) / 2) in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x10));
  fails "payload bit flip" (Bytes.to_string flipped)

(* An SMCK v2 image written by Checkpoint.serialize before it moved onto
   Frame: the file format is pinned, so it must decode to the same
   snapshot and re-serialise to the same bytes. *)
let golden_smck_v2 =
  String.concat ""
    [
      "534d434b02000000d9010000000000006363735b010000000000000067020000";
      "00000000000200000000000000010000000000000002000000000000000a0000";
      "0000000000000000000000f83f01000000000000000200000000000000030000";
      "00000000000400000000000000020000000000000002000000000000009a9999";
      "999999b93f9a9999999999c93f333333333333d33f9a9999999999d93f020000";
      "00000000000200000000000000000000000000000000000000000000009a9999";
      "999999b93f9a9999999999b9bf02000000000000000200000000000000000000";
      "000000e03f000000000000e03f000000000000e03f000000000000e03f030000";
      "00000000009a9999999999a93f00000000000045400100000000000000020000";
      "00000000000000000000000000ffffffffffffffff0200000000000000000000";
      "000000d03f000000000000e83f08000000000000000000000000000000000000";
      "000000000002000000000000009a9999999999d93f00000000000045409a9999";
      "999999b93f0000000000004940020000000000000002000000000000009a9999";
      "999999d93fcdccccccccccec3f00000000000045400000000000004540010000";
      "00000000009a9999999999b93f000000000000f03f0000000000004940000000";
      "00000049400000000000000000";
    ]

let test_checkpoint_golden_image () =
  let image =
    String.init (String.length golden_smck_v2 / 2) (fun i ->
        Char.chr (int_of_string ("0x" ^ String.sub golden_smck_v2 (2 * i) 2)))
  in
  let snap = { (mk_snapshot ()) with Checkpoint.health = Health.create () } in
  (match Checkpoint.deserialize image with
  | Ok got -> Alcotest.(check bool) "golden image decodes" true (snapshot_equal snap got)
  | Error msg -> Alcotest.failf "golden image rejected: %s" msg);
  Alcotest.(check bool) "same bytes" true (Checkpoint.serialize snap = image)

let test_store_validation () =
  with_tmpdir @@ fun dir ->
  let rejects k n =
    match Checkpoint.store ~keep:k ~dir ~name:n () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "keep 0" true (rejects 0 "ok");
  Alcotest.(check bool) "slash in name" true (rejects 3 "a/b");
  Alcotest.(check bool) "empty name" true (rejects 3 "");
  Alcotest.(check bool) "valid" false (rejects 2 "ok")

let test_store_rotation () =
  with_tmpdir @@ fun dir ->
  let st = Checkpoint.store ~keep:2 ~dir ~name:"rot" () in
  Alcotest.(check int) "gen 1" 1 (Checkpoint.save st (mk_snapshot ~iter:1 ()));
  Alcotest.(check int) "gen 2" 2 (Checkpoint.save st (mk_snapshot ~iter:2 ()));
  Alcotest.(check int) "gen 3" 3 (Checkpoint.save st (mk_snapshot ~iter:3 ()));
  Alcotest.(check int) "only keep newest two" 2 (Array.length (Sys.readdir dir));
  match Checkpoint.load_latest st with
  | Some (snap, gen) ->
      Alcotest.(check int) "latest generation" 3 gen;
      Alcotest.(check int) "latest snapshot" 3 snap.Checkpoint.iter
  | None -> Alcotest.fail "no snapshot loaded"

let corrupt_file path =
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let i = Bytes.length data - 1 in
  Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0x01));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let test_corrupt_falls_back () =
  with_tmpdir @@ fun dir ->
  let st = Checkpoint.store ~dir ~name:"fb" () in
  ignore (Checkpoint.save st (mk_snapshot ~iter:1 ()));
  ignore (Checkpoint.save st (mk_snapshot ~iter:2 ()));
  corrupt_file (Filename.concat dir "fb.00000002.ckpt");
  let log = Health.create () in
  (match Checkpoint.load_latest ~health:log st with
  | Some (snap, gen) ->
      Alcotest.(check int) "older generation" 1 gen;
      Alcotest.(check int) "older snapshot" 1 snap.Checkpoint.iter
  | None -> Alcotest.fail "fallback generation not loaded");
  Alcotest.(check int) "corruption surfaced" 1 (Health.count log Health.Checkpoint_corrupt)

let test_torn_write_falls_back () =
  with_tmpdir @@ fun dir ->
  let st = Checkpoint.store ~dir ~name:"torn" () in
  ignore (Checkpoint.save st (mk_snapshot ~iter:1 ()));
  Fault_plan.with_plan
    [ Fault_plan.Torn_write ]
    (fun () -> ignore (Checkpoint.save st (mk_snapshot ~iter:2 ())));
  ignore (Fault_plan.drain_injections ());
  let log = Health.create () in
  (match Checkpoint.load_latest ~health:log st with
  | Some (snap, gen) ->
      Alcotest.(check int) "previous generation survives" 1 gen;
      Alcotest.(check int) "previous snapshot" 1 snap.Checkpoint.iter
  | None -> Alcotest.fail "no usable generation after torn write");
  Alcotest.(check int) "torn write surfaced" 1 (Health.count log Health.Checkpoint_corrupt)

(* Files in the store's directory whose middle is not a generation as
   the store writes it are neither read nor counted nor rotated away. *)
let test_stray_names_ignored () =
  with_tmpdir @@ fun dir ->
  let st = Checkpoint.store ~dir ~name:"fb" () in
  Alcotest.(check int) "first generation" 1 (Checkpoint.save st (mk_snapshot ~iter:1 ()));
  List.iter
    (fun mid -> Fsio.write_atomic ~path:(Filename.concat dir ("fb." ^ mid ^ ".ckpt")) "stray")
    [ "0x10"; "1_0"; "+5"; "-3"; "0000007" ];
  let log = Health.create () in
  (match Checkpoint.load_latest ~health:log st with
  | Some (_, gen) -> Alcotest.(check int) "real generation loaded" 1 gen
  | None -> Alcotest.fail "real generation not loaded");
  Alcotest.(check int) "no health event" 0 (List.length (Health.events log));
  Alcotest.(check int) "next generation" 2 (Checkpoint.save st (mk_snapshot ~iter:2 ()));
  List.iter
    (fun f -> Alcotest.(check bool) f true (Sys.file_exists (Filename.concat dir f)))
    [ "fb.00000001.ckpt"; "fb.00000002.ckpt" ]

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let checkpoint_roundtrip_prop =
  qtest "serialize/deserialize round-trips any snapshot" Test_util.snapshot_gen (fun snap ->
      match Checkpoint.deserialize (Checkpoint.serialize snap) with
      | Ok got -> snapshot_equal snap got
      | Error _ -> false)

let checkpoint_bitflip_prop =
  qtest "any single bit flip is detected"
    QCheck2.Gen.(pair Test_util.snapshot_gen (pair nat nat))
    (fun (snap, (i, j)) ->
      let data = Checkpoint.serialize snap in
      let i = i mod String.length data and j = j mod 8 in
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
      match Checkpoint.deserialize (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

(* --- crash / resume determinism --------------------------------------- *)

let resume_cfg =
  (* unlimited wall clock: stopping is then a pure function of the seed,
     which is what makes bit-identical resume checkable *)
  { quick_cfg with Smoothe_config.time_limit = 0.0; patience = 50 }

let check_same_run ~msg (clean : Smoothe_extract.run) (resumed : Smoothe_extract.run) =
  Alcotest.(check int) (msg ^ ": iterations") clean.Smoothe_extract.iterations
    resumed.Smoothe_extract.iterations;
  Alcotest.(check int) (msg ^ ": best seed") clean.Smoothe_extract.best_seed
    resumed.Smoothe_extract.best_seed;
  Alcotest.(check bool)
    (msg ^ ": final cost bit-identical")
    true
    (feq clean.Smoothe_extract.result.Extractor.cost
       resumed.Smoothe_extract.result.Extractor.cost);
  Alcotest.(check int) (msg ^ ": recoveries") clean.Smoothe_extract.recoveries
    resumed.Smoothe_extract.recoveries;
  (* the incumbent's marginals, which the hybrid pipeline fixes with *)
  Alcotest.(check bool)
    (msg ^ ": final cp bit-identical")
    true
    (Option.equal
       (fun a b -> Array.length a = Array.length b && Array.for_all2 feq a b)
       clean.Smoothe_extract.final_cp resumed.Smoothe_extract.final_cp);
  (* full optimisation trajectory, modulo the wall-clock column *)
  Alcotest.(check int) (msg ^ ": history length")
    (List.length clean.Smoothe_extract.history)
    (List.length resumed.Smoothe_extract.history);
  List.iter2
    (fun (a : Smoothe_extract.history_point) (b : Smoothe_extract.history_point) ->
      Alcotest.(check int) (msg ^ ": history iter") a.Smoothe_extract.iter
        b.Smoothe_extract.iter;
      Alcotest.(check bool) (msg ^ ": relaxed loss") true
        (feq a.Smoothe_extract.relaxed_loss b.Smoothe_extract.relaxed_loss);
      Alcotest.(check bool) (msg ^ ": sampled cost") true
        (feq a.Smoothe_extract.sampled_cost b.Smoothe_extract.sampled_cost);
      Alcotest.(check bool) (msg ^ ": incumbent") true
        (feq a.Smoothe_extract.incumbent b.Smoothe_extract.incumbent))
    clean.Smoothe_extract.history resumed.Smoothe_extract.history

let test_resume_determinism plan =
  let config = { resume_cfg with Smoothe_config.plan } in
  let msg what = Printf.sprintf "plan %s: %s" (Smoothe_config.plan_mode_name plan) what in
  let g = small_graph () in
  let clean = Smoothe_extract.extract ~config g in
  with_tmpdir @@ fun dir ->
  let st = Checkpoint.store ~dir ~name:"resume" () in
  let log = Health.create () in
  let outcome =
    Fault_plan.with_plan
      [ Fault_plan.Crash_at 13 ]
      (fun () ->
        Supervisor.run_retrying ~health:log ~rng:(Rng.create 1) ~attempts:2 ~backoff:0.001
          ~name:"smoothe" ~budget:0.0
          (fun ~attempt _dl ->
            let resume_from =
              if attempt = 0 then None
              else Option.map fst (Checkpoint.load_latest ~health:log st)
            in
            Smoothe_extract.extract ~config ~checkpoint:st ~checkpoint_every:5 ?resume_from g))
  in
  let resumed =
    match outcome with
    | Supervisor.Finished run -> run
    | Supervisor.Crashed { exn } -> Alcotest.failf "%s: %s" (msg "retry did not recover") exn
  in
  (* the injected kill actually happened, and the retry resumed *)
  Alcotest.(check bool) (msg "member failure recorded") true
    (Health.count log Health.Member_failed >= 1);
  Alcotest.(check bool) (msg "retry recorded") true (Health.count log Health.Recovery >= 1);
  Alcotest.(check bool) (msg "resume recorded on the run") true
    (List.exists
       (fun e -> e.Health.kind = Health.Resumed)
       resumed.Smoothe_extract.health);
  check_same_run ~msg:(msg "killed@13 vs uninterrupted") clean resumed

let test_resume_rejects_foreign_snapshot () =
  (* a snapshot from a different run must not silently warm-start *)
  let g = small_graph () in
  let clean = Smoothe_extract.extract ~config:resume_cfg g in
  let foreign = { (mk_snapshot ~iter:5 ()) with Checkpoint.best_cost = 0.0 } in
  let run = Smoothe_extract.extract ~config:resume_cfg ~resume_from:foreign g in
  Alcotest.(check bool) "fingerprint mismatch surfaced" true
    (List.exists
       (fun e -> e.Health.kind = Health.Checkpoint_corrupt)
       run.Smoothe_extract.health);
  Alcotest.(check bool) "started fresh (same result as clean)" true
    (feq clean.Smoothe_extract.result.Extractor.cost run.Smoothe_extract.result.Extractor.cost)

(* --- timer ------------------------------------------------------------ *)

let test_timer_poll () =
  let d = Timer.deadline_after 0.0 (* infinite *) in
  Alcotest.(check bool) "never expires" false (Timer.poll d Timer.check_every);
  let expired = Timer.deadline_after 1e-9 in
  Timer.sleep_until expired;
  Alcotest.(check bool) "off the mask" false (Timer.poll expired (Timer.check_every + 1));
  Alcotest.(check bool) "on the mask" true (Timer.poll expired (2 * Timer.check_every))

(* --- numeric recovery in the smoothe loop ----------------------------- *)

let test_nan_recovery plan =
  let config = { quick_cfg with Smoothe_config.plan } in
  let msg what = Printf.sprintf "plan %s: %s" (Smoothe_config.plan_mode_name plan) what in
  let g = small_graph () in
  let clean = Smoothe_extract.extract ~config g in
  let faulted =
    Fault_plan.with_plan
      [ Fault_plan.Nan_grad 3 ]
      (fun () ->
        let run = Smoothe_extract.extract ~config g in
        Alcotest.(check bool) (msg "survives the poisoned pass") true
          (run.Smoothe_extract.result.Extractor.solution <> None);
        Alcotest.(check bool) (msg "recovery counted") true
          (run.Smoothe_extract.recoveries >= 1);
        Alcotest.(check bool) (msg "injection logged") true
          (List.exists
             (fun e -> e.Health.kind = Health.Fault_injected)
             run.Smoothe_extract.health);
        Alcotest.(check bool) (msg "nan detected") true
          (List.exists
             (fun e -> e.Health.kind = Health.Nan_detected)
             run.Smoothe_extract.health);
        Alcotest.(check bool) (msg "recovery noted on result") true
          (List.mem_assoc "recoveries" run.Smoothe_extract.result.Extractor.notes);
        (* history still covers every iteration *)
        Alcotest.(check int) (msg "history covers every iteration")
          run.Smoothe_extract.iterations
          (List.length run.Smoothe_extract.history);
        run)
  in
  (* the ambient plan leaks nothing: a fault-free rerun is identical *)
  let after = Smoothe_extract.extract ~config g in
  Alcotest.(check (float 1e-12)) (msg "same cost after faulted run")
    clean.Smoothe_extract.result.Extractor.cost after.Smoothe_extract.result.Extractor.cost;
  Alcotest.(check int) (msg "same iterations") clean.Smoothe_extract.iterations
    after.Smoothe_extract.iterations;
  Alcotest.(check int) (msg "same best seed") clean.Smoothe_extract.best_seed
    after.Smoothe_extract.best_seed;
  Alcotest.(check int) (msg "no recoveries") 0 after.Smoothe_extract.recoveries;
  (* healthy: nothing but the plan arming, when the plan is on *)
  Alcotest.(check (list string)) (msg "healthy")
    (if plan = Smoothe_config.Plan_off then [] else [ "plan" ])
    (List.map (fun e -> Health.kind_name e.Health.kind) after.Smoothe_extract.health);
  faulted

(* nan@K names the same iteration whichever executor runs it, so the
   recovered runs agree across plan modes *)
let test_nan_recovery_across_plans () =
  let runs =
    List.map test_nan_recovery
      [ Smoothe_config.Plan_off; Smoothe_config.Plan_on; Smoothe_config.Plan_check ]
  in
  let off = List.hd runs in
  List.iter
    (fun run ->
      Alcotest.(check bool) "recovered cost bit-identical across plan modes" true
        (feq off.Smoothe_extract.result.Extractor.cost run.Smoothe_extract.result.Extractor.cost);
      Alcotest.(check int) "iterations equal across plan modes" off.Smoothe_extract.iterations
        run.Smoothe_extract.iterations;
      Alcotest.(check int) "recoveries equal across plan modes" off.Smoothe_extract.recoveries
        run.Smoothe_extract.recoveries)
    runs

(* --- the pre-flight gate ---------------------------------------------- *)

(* strip wall-clock from a history point so runs can be compared *)
let history_shape run =
  List.map
    (fun h ->
      ( h.Smoothe_extract.iter,
        h.Smoothe_extract.relaxed_loss,
        h.Smoothe_extract.sampled_cost,
        h.Smoothe_extract.incumbent ))
    run.Smoothe_extract.history

let test_preflight_bit_identical () =
  (* the gate is events-only: with analysis on or off, the optimisation
     trajectory must match bit for bit *)
  let g = small_graph () in
  let off = Smoothe_extract.extract ~config:quick_cfg ~preflight:false g in
  let on = Smoothe_extract.extract ~config:quick_cfg ~preflight:true g in
  Alcotest.(check (float 0.0)) "same cost" off.Smoothe_extract.result.Extractor.cost
    on.Smoothe_extract.result.Extractor.cost;
  Alcotest.(check int) "same iterations" off.Smoothe_extract.iterations
    on.Smoothe_extract.iterations;
  Alcotest.(check int) "same best seed" off.Smoothe_extract.best_seed
    on.Smoothe_extract.best_seed;
  Alcotest.(check bool) "same trajectory" true (history_shape off = history_shape on);
  (* a clean graph produces no preflight events *)
  Alcotest.(check bool) "clean graph, silent gate" true
    (List.for_all
       (fun e -> e.Health.kind <> Health.Preflight)
       on.Smoothe_extract.health)

(* a structurally valid graph with a corrupted base cost: the lint flags
   it (EG006) but the run itself proceeds *)
let corrupt_cost_graph () =
  let b = Egraph.Builder.create ~name:"corrupt" () in
  let root = Egraph.Builder.add_class b in
  let leaf = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"f" ~cost:(-3.0) ~children:[ leaf ]);
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"g" ~cost:5.0 ~children:[ leaf ]);
  ignore (Egraph.Builder.add_node b ~cls:leaf ~op:"leaf" ~cost:1.0 ~children:[]);
  Egraph.Builder.freeze b ~root

let test_preflight_flags_corrupt_graph () =
  let g = corrupt_cost_graph () in
  (* even with a fault plan poisoning a gradient pass, the gate reports
     the corrupted input and the supervised loop still finishes *)
  Fault_plan.with_plan
    [ Fault_plan.Nan_grad 3 ]
    (fun () ->
      let run = Smoothe_extract.extract ~config:quick_cfg ~preflight:true g in
      Alcotest.(check bool) "run still completes" true
        (run.Smoothe_extract.result.Extractor.solution <> None);
      let pf =
        List.filter (fun e -> e.Health.kind = Health.Preflight) run.Smoothe_extract.health
      in
      Alcotest.(check int) "one finding surfaced" 1 (List.length pf);
      Alcotest.(check bool) "event carries the rendered diagnostic" true
        (let s = (List.hd pf).Health.detail in
         let has sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         has "EG006" && has "negative base cost"));
  (* the escape hatch: the same corrupted graph with the gate off runs
     silently, matching the pre-gate behaviour *)
  let off = Smoothe_extract.extract ~config:quick_cfg ~preflight:false g in
  Alcotest.(check bool) "no preflight events when disabled" true
    (List.for_all (fun e -> e.Health.kind <> Health.Preflight) off.Smoothe_extract.health)

let test_mem_pressure_derates () =
  let g = small_graph () in
  let fp () =
    Device.footprint g ~prop_iters:10 ~scc_decomposition:true ~batched_matexp:true
  in
  let base = fp () in
  Fault_plan.with_plan
    [ Fault_plan.Mem_pressure 4.0 ]
    (fun () ->
      let scaled = fp () in
      Alcotest.(check (float 1.0)) "per-seed bytes scale"
        (4.0 *. base.Device.per_seed_bytes)
        scaled.Device.per_seed_bytes;
      Alcotest.(check (float 1.0)) "matexp bytes scale"
        (4.0 *. base.Device.matexp_bytes)
        scaled.Device.matexp_bytes)

let test_solver_stall () =
  (* a stalled LP burns its deadline and reports timeout, but a
     warm-started branch-and-bound still returns its incumbent *)
  let g = small_graph () in
  let warm = (Greedy_dag.extract g).Extractor.solution in
  Fault_plan.with_plan
    [ Fault_plan.Solver_stall ]
    (fun () ->
      let r = Ilp.extract ~time_limit:0.05 ?warm_start:warm ~profile:Bnb.cplex_like g in
      Alcotest.(check bool) "keeps the warm incumbent" true (r.Extractor.solution <> None);
      Alcotest.(check bool) "not proved optimal" false r.Extractor.proved_optimal;
      Alcotest.(check bool) "stall recorded" true
        (List.exists
           (fun s ->
             let has_sub sub =
               let n = String.length s and m = String.length sub in
               let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
               go 0
             in
             has_sub "stall")
           (Fault_plan.drain_injections ())))

(* --- the supervised portfolio ----------------------------------------- *)

let portfolio_cfg =
  {
    Portfolio.default_config with
    Portfolio.time_budget = 2.0;
    use_genetic = false;
    smoothe = quick_cfg;
  }

let check_valid_best (out : Portfolio.outcome) =
  let g = small_graph () in
  match out.Portfolio.best.Extractor.solution with
  | None -> Alcotest.fail "portfolio returned no solution"
  | Some s -> Alcotest.(check bool) "valid extraction" true (Egraph.Solution.is_valid g s)

let test_portfolio_under_faults () =
  let g = small_graph () in
  List.iter
    (fun plan ->
      Fault_plan.with_plan (Fault_plan.of_string plan) (fun () ->
          let out = Portfolio.extract ~config:portfolio_cfg (Rng.create 11) g in
          check_valid_best out;
          Alcotest.(check bool)
            (Printf.sprintf "health log non-empty under %S" plan)
            false (out.Portfolio.health = []);
          Alcotest.(check bool) "heuristic member present" true
            (List.exists
               (fun m -> m.Portfolio.member_name = "heuristic")
               out.Portfolio.members)))
    [ "nan@3"; "mem@1e15"; "stall"; "skew@60" ]

let test_portfolio_member_crash () =
  (* a NaN-poisoned model crashes nothing: members degrade or quarantine,
     and the portfolio still answers with the greedy result *)
  let g = small_graph () in
  let out = Portfolio.extract ~config:portfolio_cfg (Rng.create 11) g in
  Alcotest.(check bool) "every member has a status" true
    (List.for_all
       (fun m ->
         match m.Portfolio.status with
         | Portfolio.Completed | Portfolio.Timed_out | Portfolio.Faulted _ -> true)
       out.Portfolio.members);
  check_valid_best out

let test_portfolio_checkpoint_retry () =
  (* a mid-run kill of the SmoothE member: with a checkpoint dir the
     portfolio retries it from the snapshot instead of marking it
     Faulted *)
  let g = small_graph () in
  with_tmpdir @@ fun dir ->
  let cfg =
    {
      portfolio_cfg with
      Portfolio.checkpoint_dir = Some dir;
      checkpoint_every = 3;
      retry_attempts = 2;
      smoothe = resume_cfg;
    }
  in
  Fault_plan.with_plan
    [ Fault_plan.Crash_at 7 ]
    (fun () ->
      let out = Portfolio.extract ~config:cfg (Rng.create 11) g in
      check_valid_best out;
      let smoothe =
        List.find (fun m -> m.Portfolio.member_name = "smoothe") out.Portfolio.members
      in
      (match smoothe.Portfolio.status with
      | Portfolio.Completed | Portfolio.Timed_out -> ()
      | Portfolio.Faulted e -> Alcotest.failf "smoothe member not recovered: %s" e);
      Alcotest.(check bool) "smoothe produced a solution" true
        (smoothe.Portfolio.result.Extractor.solution <> None);
      Alcotest.(check bool) "crash surfaced in health" true
        (List.exists
           (fun e -> e.Health.kind = Health.Member_failed)
           out.Portfolio.health);
      Alcotest.(check bool) "retry surfaced in health" true
        (List.exists (fun e -> e.Health.kind = Health.Recovery) out.Portfolio.health))

let () =
  Alcotest.run "runtime"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "durability atoms" `Quick test_plan_parse_durability;
          Alcotest.test_case "determinism" `Quick test_plan_determinism;
          Alcotest.test_case "crash fires once" `Quick test_crash_fires_once;
          Alcotest.test_case "torn-write fires once" `Quick test_torn_write_fires_once;
        ] );
      ( "health",
        [
          Alcotest.test_case "log" `Quick test_health_log;
          Alcotest.test_case "merge rebases timestamps" `Quick test_health_merge_rebase;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "finished" `Quick test_supervisor_finished;
          Alcotest.test_case "crash" `Quick test_supervisor_crash;
          Alcotest.test_case "timeout" `Quick test_supervisor_timeout;
          Alcotest.test_case "clock skew" `Quick test_clock_skew;
          Alcotest.test_case "crash then timeout" `Quick test_supervisor_crash_then_timeout;
          Alcotest.test_case "retry eventual success" `Quick test_run_retrying_eventual_success;
          Alcotest.test_case "retry exhausted" `Quick test_run_retrying_exhausted;
          Alcotest.test_case "retry backoff cap" `Quick test_run_retrying_backoff_cap;
          Alcotest.test_case "timer poll" `Quick test_timer_poll;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "frame errors" `Quick test_checkpoint_frame_errors;
          Alcotest.test_case "store validation" `Quick test_store_validation;
          Alcotest.test_case "rotation" `Quick test_store_rotation;
          Alcotest.test_case "corrupt falls back" `Quick test_corrupt_falls_back;
          Alcotest.test_case "torn write falls back" `Quick test_torn_write_falls_back;
          Alcotest.test_case "golden v2 image" `Quick test_checkpoint_golden_image;
          Alcotest.test_case "stray names ignored" `Quick test_stray_names_ignored;
          checkpoint_roundtrip_prop;
          checkpoint_bitflip_prop;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill and resume is deterministic" `Quick (fun () ->
              List.iter test_resume_determinism
                [ Smoothe_config.Plan_off; Smoothe_config.Plan_on ]);
          Alcotest.test_case "foreign snapshot refused" `Quick
            test_resume_rejects_foreign_snapshot;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "nan recovery" `Quick test_nan_recovery_across_plans;
          Alcotest.test_case "preflight is bit-identical" `Quick test_preflight_bit_identical;
          Alcotest.test_case "preflight flags corrupt graph" `Quick
            test_preflight_flags_corrupt_graph;
          Alcotest.test_case "mem pressure" `Quick test_mem_pressure_derates;
          Alcotest.test_case "solver stall" `Quick test_solver_stall;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "under faults" `Quick test_portfolio_under_faults;
          Alcotest.test_case "member statuses" `Quick test_portfolio_member_crash;
          Alcotest.test_case "checkpointed retry" `Quick test_portfolio_checkpoint_retry;
        ] );
    ]
