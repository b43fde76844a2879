type span = {
  name : string;
  cat : string;
  path : string;
  depth : int;
  ts : float;
  dur : float;
  args : (string * string) list;
}

type instant = {
  i_name : string;
  i_cat : string;
  i_ts : float;
  i_args : (string * string) list;
}

type event = Span of span | Instant of instant

let store : event Vec.t = Vec.create ()
let store_lock = Mutex.create ()

(* The open-span stack, innermost first, one per domain (a worker's
   spans must not graft themselves onto whatever the main domain has
   open). Kept as names only: the path of a closing span is rebuilt
   from it, so an exception that unwinds through with_span cannot
   leave a stale frame behind (Fun.protect pops it). *)
let stack_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* Per-domain capture buffer. [None] (the default) routes events to
   the global store under its lock; [Some buf] — installed by
   {!capturing} for the duration of a pool task — collects them
   domain-locally so concurrent tasks don't interleave. The pool
   absorbs the buffers in deterministic task order at the join. *)
let capture_key : event Vec.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let emit e =
  match !(Domain.DLS.get capture_key) with
  | Some buf -> Vec.push buf e
  | None -> Mutex.protect store_lock (fun () -> Vec.push store e)

let open_depth () = List.length !(Domain.DLS.get stack_key)

let reset () = Mutex.protect store_lock (fun () -> Vec.clear store)

let with_span ?(cat = "") ?(attrs = []) name f =
  if not !Obs.on then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let ts = Timer.now () in
    stack := name :: !stack;
    let depth = List.length !stack - 1 in
    let path = String.concat ";" (List.rev !stack) in
    let close () =
      let dur = Timer.now () -. ts in
      (match !stack with _ :: tl -> stack := tl | [] -> ());
      emit (Span { name; cat; path; depth; ts; dur; args = attrs })
    in
    Fun.protect ~finally:close f
  end

let instant ?(cat = "") ?(attrs = []) name =
  if !Obs.on then
    emit (Instant { i_name = name; i_cat = cat; i_ts = Timer.now (); i_args = attrs })

let capturing f =
  let capture = Domain.DLS.get capture_key in
  let stack = Domain.DLS.get stack_key in
  let saved_capture = !capture and saved_stack = !stack in
  let buf = Vec.create () in
  capture := Some buf;
  stack := [];
  let restore () =
    capture := saved_capture;
    stack := saved_stack
  in
  match f () with
  | v ->
      restore ();
      (v, Vec.to_list buf)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      restore ();
      Printexc.raise_with_backtrace e bt

let absorb evs = List.iter emit evs

let events () = Mutex.protect store_lock (fun () -> Vec.to_list store)

let spans () =
  List.filter_map (function Span s -> Some s | Instant _ -> None) (events ())

let totals_by key span_list =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = key s in
      let count, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl k) in
      Hashtbl.replace tbl k (count + 1, total +. s.dur))
    span_list;
  Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let span_totals () = totals_by (fun s -> s.name) (spans ())

let span_totals_of evs =
  totals_by (fun s -> s.name) (List.filter_map (function Span s -> Some s | Instant _ -> None) evs)

(* ------------------------------------------------------------- export *)

let epoch () =
  List.fold_left
    (fun acc e ->
      match e with Span s -> Float.min acc s.ts | Instant i -> Float.min acc i.i_ts)
    infinity (events ())

let us epoch t = (t -. epoch) *. 1e6

let args_json args = Json.Object (List.map (fun (k, v) -> k, Json.String v) args)

let to_chrome () =
  let e0 = epoch () in
  let e0 = if Float.is_finite e0 then e0 else 0.0 in
  let sorted =
    List.sort
      (fun a b ->
        let ts = function Span s -> s.ts | Instant i -> i.i_ts in
        compare (ts a) (ts b))
      (events ())
  in
  let entry = function
    | Span s ->
        Json.Object
          [
            "name", Json.String s.name;
            "cat", Json.String (if s.cat = "" then "span" else s.cat);
            "ph", Json.String "X";
            "ts", Json.Number (us e0 s.ts);
            "dur", Json.Number (us 0.0 s.dur);
            "pid", Json.Number 1.0;
            "tid", Json.Number 1.0;
            "args", args_json s.args;
          ]
    | Instant i ->
        Json.Object
          [
            "name", Json.String i.i_name;
            "cat", Json.String (if i.i_cat = "" then "instant" else i.i_cat);
            "ph", Json.String "i";
            "s", Json.String "g";
            "ts", Json.Number (us e0 i.i_ts);
            "pid", Json.Number 1.0;
            "tid", Json.Number 1.0;
            "args", args_json i.i_args;
          ]
  in
  Json.Object
    [
      "traceEvents", Json.Array (List.map entry sorted);
      "displayTimeUnit", Json.String "ms";
    ]

(* Folded stacks: per unique path, the *self* time (inclusive time of
   the path minus the inclusive time of its direct children), so the
   flamegraph's widths add up correctly. *)
let to_folded () =
  let inclusive = Hashtbl.create 32 in
  let child_sum = Hashtbl.create 32 in
  let bump tbl k v =
    Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      bump inclusive s.path s.dur;
      if s.depth > 0 then
        match String.rindex_opt s.path ';' with
        | Some i -> bump child_sum (String.sub s.path 0 i) s.dur
        | None -> ())
    (spans ());
  Hashtbl.fold
    (fun path total acc ->
      let self = total -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum path) in
      let usec = int_of_float (Float.max 0.0 (self *. 1e6)) in
      (path, usec) :: acc)
    inclusive []
  |> List.sort compare
  |> List.map (fun (path, usec) -> Printf.sprintf "%s %d" path usec)
  |> String.concat "\n"
  |> fun body -> if body = "" then body else body ^ "\n"

let write_file path =
  let body =
    if Filename.check_suffix path ".folded" then to_folded ()
    else Json.to_string (to_chrome ())
  in
  Fsio.write_atomic ~path body
