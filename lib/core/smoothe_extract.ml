type history_point = Checkpoint.history_point = {
  iter : int;
  elapsed : float;
  relaxed_loss : float;
  sampled_cost : float;
  incumbent : float;
}

type run = {
  result : Extractor.r;
  iterations : int;
  best_seed : int;
  batch_used : int;
  prop_iters : int;
  history : history_point list;
  oom : bool;
  recoveries : int;
  health : Health.event list;
  final_cp : float array option;
}

let member = "smoothe"
let max_recoveries = 5

(* A compiled replay plan plus the node ids of the captured forward's
   observable tensors (the only ones pinned out of the shared arena). *)
type replayable = {
  rp : Plan.t;
  rp_theta : int;
  rp_cp : int;
  rp_per_seed : int;
  rp_penalty : int;
  rp_loss : int;
}

(* How an iteration's forward and backward run: on the Ad interpreter,
   by replaying a compiled plan, or both, compared bit for bit. *)
type executor = Interp | Replay of replayable | Check of replayable

(* The static-plan state machine. Iterations run interpreted until two
   consecutive clean captures are structurally identical; the executor
   it settles on (Interp when the plan is off or disabled) then serves
   every later iteration. *)
type plan_state = Cold | Armed of Plan.capture | Settled of executor

(* The observable tensors of one forward pass, whichever executor ran it. *)
type outputs = { loss : Tensor.t; cp : Tensor.t; per_seed : Tensor.t; penalty : Tensor.t }

let init_theta rng ~batch ~width ~std =
  Tensor.init ~batch ~width (fun _ _ -> std *. Rng.gaussian rng)

(* The OOM derating ladder (most faithful configuration first). When the
   requested configuration cannot fit even one seed, retry with the
   memory optimisations of §4 forced on, then with a halved seed batch,
   and finally on the big-RAM CPU baseline. Each step taken is recorded
   as a Health.Oom_derate event. *)
let derating_ladder config device =
  let optimised =
    {
      config with
      Smoothe_config.scc_decomposition = true;
      Smoothe_config.batched_matexp = true;
    }
  in
  let halved =
    { optimised with Smoothe_config.batch = max 1 (config.Smoothe_config.batch / 2) }
  in
  [
    config, device, "as configured";
    optimised, device, "scc decomposition + batched matexp forced on";
    halved, device, "seed batch halved";
    halved, Device.cpu_baseline, "fall back to CPU baseline";
  ]

type chosen = {
  c_config : Smoothe_config.t;
  c_device : Device.t;
  c_compiled : Relaxation.compiled;
  c_max_batch : int;
  c_desc : string option;  (* Some desc when any derating step was taken *)
  c_rung : int;  (* index into the derating ladder (0 = as configured) *)
}

let select_configuration log config device g =
  let fingerprint (cfg, (dev : Device.t), _) =
    ( Smoothe_config.derive_prop_iters cfg g,
      cfg.Smoothe_config.scc_decomposition,
      cfg.Smoothe_config.batched_matexp,
      cfg.Smoothe_config.batch,
      dev.Device.device_name )
  in
  let rec walk seen derated rung = function
    | [] -> None
    | ((cfg, dev, desc) as attempt) :: rest ->
        let fp_key = fingerprint attempt in
        if List.mem fp_key seen then walk seen derated (rung + 1) rest
        else begin
          let compiled = Relaxation.compile cfg g in
          let fp =
            Device.footprint g ~prop_iters:compiled.Relaxation.prop_iters
              ~scc_decomposition:cfg.Smoothe_config.scc_decomposition
              ~batched_matexp:cfg.Smoothe_config.batched_matexp
          in
          let max_batch = Device.max_batch dev fp in
          if max_batch > 0 then
            Some
              {
                c_config = cfg;
                c_device = dev;
                c_compiled = compiled;
                c_max_batch = max_batch;
                c_desc = (if derated then Some desc else None);
                c_rung = rung;
              }
          else begin
            Health.record log ~member Health.Oom_derate
              (Printf.sprintf "%s does not fit one seed on %s (%.2f GiB needed)" desc
                 dev.Device.device_name
                 (Device.bytes_for_batch fp 1 /. (1024.0 *. 1024.0 *. 1024.0)));
            walk (fp_key :: seen) true (rung + 1) rest
          end
        end
  in
  walk [] false 0 (derating_ladder config device)

(* Static pre-flight: lint the e-graph before the first iteration so
   input defects surface as structured events in milliseconds instead of
   index errors or NaNs minutes in. Events only, never the optimisation
   path. *)
let preflight_lint log g =
  let findings = Egraph_lint.check g in
  if !Obs.on then begin
    Metrics.incr ~by:(float_of_int (Diagnostic.errors findings)) "analysis.errors";
    Metrics.incr ~by:(float_of_int (Diagnostic.warnings findings)) "analysis.warnings"
  end;
  List.iter
    (fun d ->
      if d.Diagnostic.severity <> Diagnostic.Info then
        Health.record log ~member Health.Preflight (Diagnostic.render d))
    findings

(* One forward tape at a tiny batch and shallow propagation: enough to
   record every op kind the real run would use, cheap enough to lint
   every bundled instance. *)
let tape_diagnostics g =
  let config =
    { Smoothe_config.default with Smoothe_config.batch = 2; prop_iters = Some 2 }
  in
  match
    let compiled = Relaxation.compile config g in
    let theta = Tensor.create ~batch:2 ~width:(Egraph.num_nodes g) in
    let fwd = Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta in
    let ir = Ad.ir fwd.Relaxation.tape in
    Shape_check.check ir @ Grad_flow.check ~root:(Ad.node_id fwd.Relaxation.loss) ir
  with
  | ds -> ds
  | exception e ->
      [
        Diagnostic.error ~code:"AN001" Diagnostic.Graph "building the forward tape failed: %s"
          (Printexc.to_string e);
      ]

let record_plan_diag log d = Health.record log ~member Health.Plan (Diagnostic.render d)

(* The second clean capture: gate it on structural identity with the
   first, let the Plan_check dataflow analysis derive and independently
   verify a buffer arena, and compile it into a static schedule. Every
   rejection is recorded as a [Plan] event and returned as [Error]. *)
let compile_plan log c1 (fwd : Relaxation.forward) =
  Trace.with_span ~cat:"smoothe" "plan.capture" @@ fun () ->
  let c2 = Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss in
  match Plan.stable c1 c2 with
  | Error why ->
      List.iter (record_plan_diag log) (Plan_check.stability c1.Plan.ir c2.Plan.ir);
      Error why
  | Ok () -> (
      let rp_theta = Ad.node_id fwd.Relaxation.theta
      and rp_cp = Ad.node_id fwd.Relaxation.cp
      and rp_per_seed = Ad.node_id fwd.Relaxation.per_seed_cost
      and rp_penalty = Ad.node_id fwd.Relaxation.penalty
      and rp_loss = Ad.node_id fwd.Relaxation.loss in
      let outputs = [| rp_cp; rp_per_seed; rp_penalty; rp_loss |]
      and grads = [| rp_theta |] in
      let report = Plan_check.analyze ~grads ~root:rp_loss ~outputs c2.Plan.ir in
      let diags = report.Plan_check.diags in
      if !Obs.on then begin
        Metrics.incr ~by:(float_of_int (Diagnostic.errors diags)) "analysis.errors";
        Metrics.incr ~by:(float_of_int (Diagnostic.warnings diags)) "analysis.warnings"
      end;
      match diags with
      | _ :: _ ->
          List.iter (record_plan_diag log) diags;
          Error "the dataflow analysis rejected the captured IR"
      | [] ->
          Plan.compile ~arena:(Plan_check.arena_spec report) ~outputs ~grads c2
          |> Result.map (fun rp ->
                 let st = Plan.stats rp in
                 if !Obs.on then
                   Metrics.set_gauge "plan.arena_bytes" (float_of_int st.Plan.arena_bytes);
                 Health.record log ~member Health.Plan
                   (Printf.sprintf
                      "plan armed: %d nodes, %d KiB arena + %d KiB pinned (interpreter \
                       allocates %d KiB per iteration)"
                      st.Plan.nodes (st.Plan.arena_bytes / 1024)
                      (st.Plan.dedicated_bytes / 1024)
                      (report.Plan_check.naive_bytes / 1024));
                 { rp; rp_theta; rp_cp; rp_per_seed; rp_penalty; rp_loss }))

(* Numeric recovery: a non-finite loss or gradient must never reach the
   Adam state or the incumbent. Each strike resets the optimiser
   moments, backs the learning rate off by 2x, and (from the second
   strike) re-randomises theta from a fresh seed stream. Returns true
   once [max_recoveries] strikes are spent: the loop then stops and
   keeps its incumbent. *)
let recover config (st : Checkpoint.snapshot) what =
  let log = st.health in
  Health.record log ~member Health.Nan_detected
    (Printf.sprintf "iteration %d: non-finite %s" st.iter what);
  if !Obs.on then Metrics.incr "smoothe.nan_recoveries";
  st.recoveries <- st.recoveries + 1;
  if st.recoveries > max_recoveries then begin
    Health.record log ~member Health.Degraded
      (Printf.sprintf "%d numeric recoveries exhausted; keeping incumbent" max_recoveries);
    true
  end
  else begin
    st.adam_step <- 0;
    Tensor.fill st.adam_m 0.0;
    Tensor.fill st.adam_v 0.0;
    let lr = config.Smoothe_config.lr *. (0.5 ** float_of_int st.recoveries) in
    st.adam_lr <- lr;
    let d = Tensor.unsafe_data st.theta in
    if st.recoveries >= 2 then begin
      let seed = config.Smoothe_config.seed + (7919 * st.recoveries) in
      let rng = Rng.create seed in
      for i = 0 to Tensor.numel st.theta - 1 do
        d.(i) <- config.Smoothe_config.init_std *. Rng.gaussian rng
      done;
      Health.record log ~member Health.Recovery
        (Printf.sprintf "adam reset, lr %.3g, theta re-randomised (seed %d)" lr seed)
    end
    else begin
      for i = 0 to Tensor.numel st.theta - 1 do
        if not (Float.is_finite d.(i)) then d.(i) <- 0.0
      done;
      Health.record log ~member Health.Recovery
        (Printf.sprintf "adam reset, lr backed off to %.3g" lr)
    end;
    false
  end

(* The loop state a run starts from. A snapshot only resumes the run it
   was taken from — same graph, seed and (post-derating) batch — and the
   run works on copies of its tensors, so the caller's snapshot is never
   mutated. Anything else would silently continue a different
   optimisation, so it is refused loudly and the run starts fresh. *)
let initial_state log config ~fingerprint ~rung resume_from : Checkpoint.snapshot =
  match resume_from with
  | Some snap when snap.Checkpoint.fingerprint = fingerprint ->
      (* replay the snapshot's health timeline first so counts and
         ordering match the uninterrupted run's log *)
      List.iter (Health.add log) (Health.events snap.Checkpoint.health);
      Health.record log ~member Health.Resumed
        (Printf.sprintf "resumed at iteration %d (%.2fs of budget consumed)"
           snap.Checkpoint.iter snap.Checkpoint.elapsed);
      {
        snap with
        theta = Tensor.copy snap.Checkpoint.theta;
        adam_m = Tensor.copy snap.Checkpoint.adam_m;
        adam_v = Tensor.copy snap.Checkpoint.adam_v;
        health = log;
      }
  | foreign ->
      Option.iter
        (fun snap ->
          Health.record log ~member Health.Checkpoint_corrupt
            (Printf.sprintf "snapshot fingerprint %s does not match run %s; starting fresh"
               (Checkpoint.fingerprint_to_string snap.Checkpoint.fingerprint)
               (Checkpoint.fingerprint_to_string fingerprint)))
        foreign;
      let batch = fingerprint.Checkpoint.fp_batch
      and width = fingerprint.Checkpoint.fp_nodes in
      let rng = Rng.create config.Smoothe_config.seed in
      let theta = init_theta rng ~batch ~width ~std:config.Smoothe_config.init_std in
      {
        Checkpoint.fingerprint;
        iter = 0;
        elapsed = 0.0;
        rng_state = Rng.state rng;
        theta;
        adam_m = Tensor.create ~batch ~width;
        adam_v = Tensor.create ~batch ~width;
        adam_step = 0;
        adam_lr = config.Smoothe_config.lr;
        best_cost = infinity;
        best_seed = -1;
        best_choice = None;
        best_cp = None;
        last_improvement = 0;
        recoveries = 0;
        ladder_rung = rung;
        trace = [];
        history = [];
        health = log;
      }

(* Each executor's forward pass: its outputs, its backward (returning
   the theta gradient) and, when interpreted, the tape to capture. *)
let interpret config compiled model (st : Checkpoint.snapshot) =
  let temperature =
    Float.max config.Smoothe_config.min_temperature
      (config.Smoothe_config.temperature
      *. (config.Smoothe_config.temperature_decay ** float_of_int (st.iter - 1)))
  in
  let fwd =
    Trace.with_span ~cat:"smoothe" "smoothe.forward" (fun () ->
        Relaxation.forward ~temperature compiled ~config ~model ~theta:st.theta)
  in
  let backward () =
    Trace.with_span ~cat:"smoothe" "smoothe.backward" (fun () ->
        Ad.backward fwd.Relaxation.loss);
    Ad.grad fwd.Relaxation.theta
  in
  ( {
      loss = Ad.value fwd.Relaxation.loss;
      cp = Ad.value fwd.Relaxation.cp;
      per_seed = Ad.value fwd.Relaxation.per_seed_cost;
      penalty = Ad.value fwd.Relaxation.penalty;
    },
    backward,
    Some fwd )

(* verified replay: the static schedule re-runs the captured iteration
   over the arena — no tape, no tensor allocation *)
let replay r =
  if !Obs.on then Metrics.incr "plan.replays";
  Trace.with_span ~cat:"smoothe" "plan.replay" (fun () -> Plan.run_forward r.rp);
  let backward () =
    Trace.with_span ~cat:"smoothe" "plan.replay.backward" (fun () ->
        Plan.run_backward r.rp);
    Plan.grad_of r.rp r.rp_theta
  in
  let value = Plan.value r.rp in
  ( {
      loss = value r.rp_loss;
      cp = value r.rp_cp;
      per_seed = value r.rp_per_seed;
      penalty = value r.rp_penalty;
    },
    backward,
    None )

let execute config compiled model (st : Checkpoint.snapshot) = function
  | Interp -> interpret config compiled model st
  | Replay r -> replay r
  | Check r ->
      let out, backward, fwd = interpret config compiled model st in
      let shadow, shadow_backward, _ = replay r in
      let same what replayed interpreted =
        if not (Tensor.bits_equal replayed interpreted) then
          failwith
            (Printf.sprintf
               "plan check: replayed %s diverges bitwise from the interpreter at iteration %d"
               what st.iter)
      in
      same "loss" shadow.loss out.loss;
      same "cp" shadow.cp out.cp;
      same "per-seed cost" shadow.per_seed out.per_seed;
      same "penalty" shadow.penalty out.penalty;
      let backward () =
        let grad = backward () in
        same "theta gradient" (shadow_backward ()) grad;
        grad
      in
      (out, backward, fwd)

(* Sample every seed (§3.5), track the incumbent and its marginals, and
   return this iteration's (relaxed loss, sampled cost) for the
   history. *)
let sample config g model (st : Checkpoint.snapshot) ~now out =
  let sampled =
    Trace.with_span ~cat:"smoothe" "smoothe.sample" (fun () ->
        Sampler.best_of_batch ~repair:config.Smoothe_config.repair_sampling g ~model
          ~cp:out.cp)
  in
  let sampled_cost =
    match sampled with
    | Some (seed, s, cost) ->
        if cost < st.best_cost -. 1e-12 then begin
          st.best_cost <- cost;
          st.best_seed <- seed;
          st.best_choice <- Some s.Egraph.Solution.choice;
          st.best_cp <-
            Some (Array.init (Egraph.num_nodes g) (fun i -> Tensor.get out.cp seed i));
          st.last_improvement <- st.iter;
          st.trace <- (now (), cost) :: st.trace
        end;
        cost
    | None -> infinity
  in
  (* relaxed loss of the best seed this iteration, for Fig. 9 *)
  let relaxed_loss =
    let best = ref infinity in
    for b = 0 to out.per_seed.Tensor.batch - 1 do
      let v = Tensor.get out.per_seed b 0 in
      if v < !best then best := v
    done;
    !best +. (config.Smoothe_config.lambda_ *. Tensor.get out.penalty 0 0)
  in
  if !Obs.on then begin
    Metrics.observe "smoothe.loss" relaxed_loss;
    if Float.is_finite st.best_cost then Metrics.set_gauge "smoothe.incumbent" st.best_cost
  end;
  (relaxed_loss, sampled_cost)

let oom_run config device g =
  {
    result =
      {
        (Extractor.failed ~method_name:"smoothe" ~time_s:0.0) with
        Extractor.notes = [ ("oom", device.Device.device_name) ];
      };
    iterations = 0;
    best_seed = -1;
    batch_used = 0;
    prop_iters = (Relaxation.compile config g).Relaxation.prop_iters;
    history = [];
    oom = true;
    recoveries = 0;
    health = [];
    final_cp = None;
  }

let extract ?(config = Smoothe_config.default) ?model ?(device = Device.a100) ?health
    ?checkpoint ?(checkpoint_every = 25) ?resume_from ?(preflight = false) g =
  let model = match model with Some m -> m | None -> Cost_model.of_egraph g in
  let log = Health.create () in
  if preflight then preflight_lint log g;
  (* also runs when the loop raises: a crash (injected or real) must not
     lose the supervision timeline the supervisor's retry reads *)
  let publish_health () =
    List.iter
      (fun what -> Health.record log ~member Health.Fault_injected what)
      (Fault_plan.drain_injections ());
    Option.iter (fun shared -> Health.merge ~into:shared log) health
  in
  let finish run =
    publish_health ();
    { run with health = Health.events log; recoveries = Health.count log Health.Recovery }
  in
  match select_configuration log config device g with
  | None ->
      (* even the last ladder rung OOMs: report failure, with the ladder
         walk in the health log *)
      Health.record log ~member Health.Degraded
        (Printf.sprintf "OOM on every derating step (requested device %s)"
           device.Device.device_name);
      finish (oom_run config device g)
  | Some { c_config; c_device; c_compiled; c_max_batch; c_desc; c_rung } ->
      let config = c_config and device = c_device and compiled = c_compiled in
      let batch = min config.Smoothe_config.batch c_max_batch in
      let fingerprint =
        {
          Checkpoint.fp_graph = g.Egraph.name;
          fp_nodes = Egraph.num_nodes g;
          fp_classes = Egraph.num_classes g;
          fp_seed = config.Smoothe_config.seed;
          fp_batch = batch;
        }
      in
      let st = initial_state log config ~fingerprint ~rung:c_rung resume_from in
      let base_elapsed = st.elapsed in
      let deadline =
        let tl = config.Smoothe_config.time_limit in
        Timer.deadline_after (if tl > 0.0 then Float.max 1e-6 (tl -. base_elapsed) else tl)
      in
      let elapsed_now () = base_elapsed +. Timer.elapsed deadline in
      let plan_mode = config.Smoothe_config.plan in
      let plan = ref (if plan_mode = Smoothe_config.Plan_off then Settled Interp else Cold) in
      let disable_plan why =
        Health.record log ~member Health.Plan ("plan disabled: " ^ why);
        if !Obs.on then Metrics.incr "plan.disabled";
        plan := Settled Interp
      in
      let advance_plan (fwd : Relaxation.forward) =
        match !plan with
        | Settled _ -> ()
        | Cold when Tensor.Backend.current () <> Tensor.Backend.Vectorized ->
            disable_plan
              "the scalar backend models per-element dispatch and has no replay kernels"
        | Cold -> plan := Armed (Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss)
        | Armed c1 -> (
            match compile_plan log c1 fwd with
            | Ok r ->
                plan :=
                  Settled (if plan_mode = Smoothe_config.Plan_check then Check r else Replay r)
            | Error why -> disable_plan why)
      in
      let stop = ref false in
      (* One SmoothE iteration (§3.5) under any executor: forward, finite
         check, backward, gradient clip and Adam, then sampling and
         history. A non-finite loss or gradient skips the update and the
         sample and takes a recovery strike instead. *)
      let step exec =
        let out, backward, fwd = execute config compiled model st exec in
        let loss_ok = Tensor.all_finite out.loss in
        let grad_ok =
          loss_ok
          &&
          let grad = backward () in
          if Fault_plan.on_backward () then Tensor.fill grad Float.nan;
          Tensor.all_finite grad
          && begin
               Trace.with_span ~cat:"smoothe" "smoothe.adam_step" (fun () ->
                   let norm = Optim.clip_grad_norm ~max_norm:100.0 [ grad ] in
                   if !Obs.on then Metrics.observe "smoothe.grad_norm" norm;
                   st.adam_step <- st.adam_step + 1;
                   Optim.adam_update ~lr:st.adam_lr ~step:st.adam_step ~m:st.adam_m
                     ~v:st.adam_v st.theta ~grad);
               true
             end
        in
        let relaxed_loss, sampled_cost =
          if grad_ok then sample config g model st ~now:elapsed_now out
          else begin
            if recover config st (if loss_ok then "gradient" else "loss") then stop := true;
            (Float.nan, infinity)
          end
        in
        st.history <-
          { iter = st.iter; elapsed = elapsed_now (); relaxed_loss; sampled_cost;
            incumbent = st.best_cost }
          :: st.history;
        if grad_ok then Option.iter advance_plan fwd
      in
      (try
         Trace.with_span ~cat:"smoothe"
           ~attrs:
             (if !Obs.on then
                [
                  ("batch", string_of_int batch);
                  ("nodes", string_of_int (Egraph.num_nodes g));
                ]
              else [])
           "smoothe.extract"
         @@ fun () ->
         Device.run device (fun () ->
             while (not !stop) && st.iter < config.Smoothe_config.max_iters do
               st.iter <- st.iter + 1;
               Fault_plan.crash_now ~iter:st.iter;
               if !Obs.on then Metrics.incr "smoothe.iterations";
               Trace.with_span ~cat:"smoothe"
                 ~attrs:(if !Obs.on then [ ("iteration", string_of_int st.iter) ] else [])
                 "smoothe.iter"
               @@ fun () ->
               step (match !plan with Settled exec -> exec | Cold | Armed _ -> Interp);
               st.elapsed <- elapsed_now ();
               (match checkpoint with
               | Some store when checkpoint_every > 0 && st.iter mod checkpoint_every = 0 ->
                   ignore (Checkpoint.save store st)
               | _ -> ());
               if
                 Timer.expired deadline
                 || st.best_choice <> None
                    && st.iter - st.last_improvement >= config.Smoothe_config.patience
               then stop := true
             done)
       with e ->
         publish_health ();
         raise e);
      let notes =
        [
          ("assumption", Smoothe_config.assumption_name config.Smoothe_config.assumption);
          ("batch", string_of_int batch);
          ("device", device.Device.device_name);
        ]
        @ (match c_desc with Some d -> [ ("derated", d) ] | None -> [])
        @ if st.recoveries > 0 then [ ("recoveries", string_of_int st.recoveries) ] else []
      in
      let result =
        Extractor.make_with_model ~trace:(List.rev st.trace) ~notes ~method_name:"smoothe"
          ~time_s:st.elapsed ~model g
          (Option.map (fun choice -> { Egraph.Solution.choice }) st.best_choice)
      in
      finish
        {
          result;
          iterations = st.iter;
          best_seed = st.best_seed;
          batch_used = batch;
          prop_iters = compiled.Relaxation.prop_iters;
          history = List.rev st.history;
          oom = false;
          recoveries = 0;
          health = [];
          final_cp = st.best_cp;
        }
