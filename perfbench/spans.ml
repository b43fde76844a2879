(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent span and (for serve requests) the request
   id, plus the spans the program records itself inside a call, taken
   in by [adopt]. Kept in memory and written out when the run ends. A
   disabled recorder reads no clock and allocates nothing per call.

   Span names are "<layer>.<what>", the layer being the lib/ module
   directory the call goes into; [self] time subtracts the time the
   span's children cover, so the self times of a pass's spans plus the
   pass span's own self time (the unattributed residual) add up to the
   pass time. *)

type span = {
  sid : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  t0 : float;  (** seconds, Unix.gettimeofday *)
  t1 : float;
  req : string;  (** request id, or "" *)
}

type t = {
  on : bool;
  m : Mutex.t;
  mutable next : int;
  mutable spans : span list;  (** newest first *)
}

let create ~on = { on; m = Mutex.create (); next = 0; spans = [] }

(* For spans whose extent is known only afterwards (a serve request runs
   from its due time to its answer, across two threads): reserve the id
   first so children can name it as parent, then [record] it. *)
let reserve t =
  Mutex.lock t.m;
  let sid = t.next in
  t.next <- sid + 1;
  Mutex.unlock t.m;
  sid

let record t ~sid ?(parent = -1) ?(req = "") name ~t0 ~t1 =
  if t.on then begin
    Mutex.lock t.m;
    t.spans <- { sid; name; parent; t0; t1; req } :: t.spans;
    Mutex.unlock t.m
  end

let with_span t ?(parent = -1) ?(req = "") name (f : int -> 'a) : 'a =
  if not t.on then f (-1)
  else begin
    let sid = reserve t in
    let t0 = Unix.gettimeofday () in
    let finish () = record t ~sid ~parent ~req name ~t0 ~t1:(Unix.gettimeofday ()) in
    Fun.protect ~finally:finish (fun () -> f sid)
  end

(* The program's own span names (lib/ Trace.with_span sites) in this
   file's "<layer>.<what>" form. *)
let program_names =
  [
    ("smoothe.extract", "core.smoothe_extract");
    ("smoothe.iter", "core.iter");
    ("smoothe.sample", "core.sample");
    ("smoothe.forward", "autodiff.ad_fwd");
    ("smoothe.backward", "autodiff.ad_bwd");
    ("ad.backward", "autodiff.ad_bwd_sweep");
    ("smoothe.adam_step", "autodiff.adam");
    ("plan.capture", "autodiff.plan_build");
    ("plan.replay", "autodiff.plan_fwd");
    ("plan.replay.backward", "autodiff.plan_bwd");
    ("hybrid.pipeline", "core.hybrid_pipeline");
    ("hybrid.extract", "extraction.hybrid");
    ("ilp.extract", "extraction.ilp");
    ("bnb.solve", "milp.bnb");
  ]

let program_name n = Option.value ~default:n (List.assoc_opt n program_names)

(* Take in the spans the program recorded during one call (the events
   Trace.capturing returned), under [parent]. Trace spans carry a depth
   but no parent, so each is nested in the innermost span whose
   interval holds it. Both clocks are Unix.gettimeofday. *)
let adopt t ~parent (evs : Trace.event list) =
  if t.on then begin
    let spans =
      List.filter_map (function Trace.Span s -> Some s | Trace.Instant _ -> None) evs
    in
    let by_start =
      List.stable_sort
        (fun (a : Trace.span) (b : Trace.span) -> compare (a.ts, -.a.dur) (b.ts, -.b.dur))
        spans
    in
    let eps = 1e-9 in
    let rec enclosing s1 (s : Trace.span) = function
      | ([] | [ _ ]) as l -> l
      | ((_, a0, a1) :: rest) as l ->
          if s.ts >= a0 -. eps && s1 <= a1 +. eps then l else enclosing s1 s rest
    in
    ignore
      (List.fold_left
         (fun open_ (s : Trace.span) ->
           let s1 = s.ts +. s.dur in
           let open_ = enclosing s1 s open_ in
           let p, _, _ = List.hd open_ in
           let sid = reserve t in
           record t ~sid ~parent:p (program_name s.name) ~t0:s.ts ~t1:s1;
           (sid, s.ts, s1) :: open_)
         [ (parent, neg_infinity, infinity) ]
         by_start)
  end

let spans t = List.rev t.spans

(* Per span: duration minus the durations of its direct children. *)
let self_times t =
  let all = spans t in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    all;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.sid)))
    all

(* (name, count, total seconds, self seconds), sorted by name. *)
let totals t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let c, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (c + 1, tot +. (s.t1 -. s.t0), slf +. self))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun n (c, tot, slf) acc -> (n, c, tot, slf) :: acc) tbl [])

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self seconds of every span named [name]. *)
let self_of t name =
  List.fold_left (fun acc (n, _, _, slf) -> if n = name then acc +. slf else acc) 0.0 (totals t)

let count_of t name =
  List.fold_left (fun acc (n, c, _, _) -> if n = name then acc + c else acc) 0 (totals t)

(* Total (not self) seconds of every span named [name]. *)
let total_of t name =
  List.fold_left (fun acc (n, _, tot, _) -> if n = name then acc +. tot else acc) 0.0 (totals t)

let to_json t =
  let b = Buffer.create 4096 in
  let base = List.fold_left (fun acc s -> Float.min acc s.t0) infinity (spans t) in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"req\":%S}"
           s.sid s.name s.parent
           ((s.t0 -. base) *. 1e6)
           ((s.t1 -. base) *. 1e6)
           s.req))
    (spans t);
  Buffer.add_string b "\n]\n";
  Buffer.contents b
