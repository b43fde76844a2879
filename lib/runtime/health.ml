type kind =
  | Fault_injected
  | Nan_detected
  | Recovery
  | Oom_derate
  | Timeout
  | Member_failed
  | Budget_reallocated
  | Degraded
  | Checkpoint_corrupt
  | Resumed
  | Preflight
  | Plan
  | Journal_torn
  | Replayed
  | Watchdog_restart
  | Crash_loop
  | Warm_start_rejected

type event = { at : float; member : string; kind : kind; detail : string }

type log = { created : float; events : event Vec.t }

let all_kinds =
  [
    Fault_injected; Nan_detected; Recovery; Oom_derate; Timeout; Member_failed;
    Budget_reallocated; Degraded; Checkpoint_corrupt; Resumed; Preflight; Plan;
    Journal_torn; Replayed; Watchdog_restart; Crash_loop; Warm_start_rejected;
  ]

let kind_name = function
  | Fault_injected -> "fault-injected"
  | Nan_detected -> "nan-detected"
  | Recovery -> "recovery"
  | Oom_derate -> "oom-derate"
  | Timeout -> "timeout"
  | Member_failed -> "member-failed"
  | Budget_reallocated -> "budget-reallocated"
  | Degraded -> "degraded"
  | Checkpoint_corrupt -> "checkpoint-corrupt"
  | Resumed -> "resumed"
  | Preflight -> "preflight"
  | Plan -> "plan"
  | Journal_torn -> "journal-torn"
  | Replayed -> "replayed"
  | Watchdog_restart -> "watchdog-restart"
  | Crash_loop -> "crash-loop"
  | Warm_start_rejected -> "warm-start-rejected"

let kind_of_name name = List.find_opt (fun k -> kind_name k = name) all_kinds

let create () = { created = Timer.now (); events = Vec.create () }

let record log ~member kind detail =
  Vec.push log.events { at = Timer.now () -. log.created; member; kind; detail };
  (* every health event is also an instant event on the active trace
     timeline, so faults and recoveries are visible amid the spans *)
  if !Obs.on then
    Trace.instant ~cat:"health"
      ~attrs:[ ("member", member); ("detail", detail) ]
      (kind_name kind)

let add log event = Vec.push log.events event

(* Event timestamps are relative to their own log's creation time, so
   merging must rebase them onto the destination's epoch — otherwise a
   child member's 0.1s event would appear to predate portfolio events
   recorded before the member even started. *)
let merge ~into src =
  let shift = src.created -. into.created in
  Vec.iter (fun e -> Vec.push into.events { e with at = e.at +. shift }) src.events

let events log = Vec.to_list log.events

let is_empty log = Vec.length log.events = 0

let count ?member log kind =
  let matches e =
    e.kind = kind && match member with None -> true | Some m -> e.member = m
  in
  Vec.fold_left (fun acc e -> if matches e then acc + 1 else acc) 0 log.events

let recoveries log = count log Recovery + count log Oom_derate

let pp_event fmt e =
  Format.fprintf fmt "[%7.3fs] %-12s %-18s %s" e.at e.member (kind_name e.kind) e.detail

let pp fmt log =
  Vec.iter (fun e -> Format.fprintf fmt "%a@." pp_event e) log.events

let summary log =
  let kinds = all_kinds in
  let parts =
    List.filter_map
      (fun k ->
        let n = count log k in
        if n = 0 then None else Some (Printf.sprintf "%s=%d" (kind_name k) n))
      kinds
  in
  if parts = [] then "healthy" else String.concat " " parts
