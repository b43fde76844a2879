(* Write-ahead request journal: the durable half of crash-only serving.

   Every admitted request is appended as a CRC-framed [Admitted] record
   before it becomes visible to executors; fulfilment appends a
   [Completed] record. On startup the scan pairs them up: admitted
   without completed = lost in the crash, replay it; completed with a
   cached body = warm the solution cache so a replay (or a client
   retry) of an already-answered request is a cache hit, not a
   recomputation.

   Each record is one {!Frame} (magic "SMJR", version 2) whose first
   payload field is the record kind. The failure model differs from
   Checkpoint's, though — a checkpoint is written atomically (whole file
   or nothing), while a journal grows by fsynced appends, so the
   expected corruption is a torn *tail*: the file ends mid-frame where
   the crash interrupted the last append. The scan therefore walks
   frames from the start and stops at the first one that fails its
   frame checks or its decode; everything before it is trusted,
   everything from it on is dropped and surfaced as a
   [Health.Journal_torn] note. A version-1 generation left by an older
   daemon reads as torn at byte 0. A torn tail never prevents startup
   and a corrupted frame is never replayed. *)

module P = Serve_protocol

let magic = "SMJR"
let format_version = 2

type record =
  | Admitted of { rid : string; request : P.request }
  | Completed of { rid : string; key : string option; body : P.ok_body option }

(* ------------------------------------------------------------- encode *)

(* Bodies ride inside a full response frame so the journal reuses the
   wire codec instead of inventing a second ok-body serialisation. *)
let body_to_string ~rid body =
  Json.to_string
    (P.response_to_json { P.resp_id = rid; elapsed_ms = 0.0; queue_ms = 0.0; body = Ok body })

let frame record =
  let buf = Buffer.create 256 in
  let field = Frame.add_string buf in
  (match record with
  | Admitted { rid; request } ->
      Frame.add_int buf 1;
      field rid;
      field (Json.to_string (P.request_to_json request))
  | Completed { rid; key; body } ->
      Frame.add_int buf 2;
      field rid;
      field (Option.value ~default:"" key);
      field (match body with None -> "" | Some b -> body_to_string ~rid b));
  Frame.encode ~magic ~version:format_version (Buffer.contents buf)

(* ------------------------------------------------------------- decode *)

let parse_json what s =
  match Json.parse s with
  | j -> j
  | exception Json.Parse_error msg -> Frame.corrupt "%s: %s" what msg

let decode_record payload =
  let r = Frame.reader payload in
  let record =
    match Frame.read_int r with
    | 1 -> (
        let rid = Frame.read_string r in
        match P.request_of_json (parse_json "admitted request" (Frame.read_string r)) with
        | Ok request -> Admitted { rid; request }
        | Error msg -> Frame.corrupt "admitted request: %s" msg)
    | 2 ->
        let rid = Frame.read_string r in
        let key = match Frame.read_string r with "" -> None | k -> Some k in
        let body =
          match Frame.read_string r with
          | "" -> None
          | s -> (
              match P.response_of_json (parse_json "completed body" s) with
              | Ok { P.body = Ok b; _ } -> Some b
              | Ok { P.body = Error _; _ } -> Frame.corrupt "completed body is an error frame"
              | Error msg -> Frame.corrupt "completed body: %s" msg)
        in
        Completed { rid; key; body }
    | k -> Frame.corrupt "unknown record kind %d" k
  in
  Frame.finish r;
  record

(* Scan a whole journal file. Returns the records of the intact prefix
   plus, when the scan stopped early, the offset and reason of the
   first unreadable frame (the torn tail). Never raises. *)
let scan_string s =
  let rec go off acc =
    if off = String.length s then (List.rev acc, None)
    else
      match Frame.decode ~magic ~version:format_version s ~off with
      | Error msg -> (List.rev acc, Some (off, msg))
      | Ok (payload, next) -> (
          match decode_record payload with
          | record -> go next (record :: acc)
          | exception Frame.Corrupt msg -> (List.rev acc, Some (off, msg)))
  in
  go 0 []

let path ~dir ~name gen = Frame.gen_path ~dir ~name ~ext:"jrnl" gen

(* --------------------------------------------------------------- open *)

type t = {
  gen : int;
  appender : Fsio.appender;
  m : Mutex.t;
  mutable appends : int;
  pending : (string * P.request) list;
  warm : (string * P.ok_body) list;
  torn : (string * string) list;
}

let raw_append t data =
  Mutex.protect t.m (fun () ->
      (* a torn-journal fault truncates this one append halfway,
         simulating power loss mid-write *)
      let data =
        if Fault_plan.torn_journal () then String.sub data 0 (String.length data / 2)
        else data
      in
      Fsio.append t.appender data;
      t.appends <- t.appends + 1)

let open_ ?(keep_completed = 256) ?(fsync = true) ~dir ~name () =
  if name = "" || String.contains name '/' then
    invalid_arg (Printf.sprintf "Serve_journal.open_: bad journal name %S" name);
  if keep_completed < 0 then
    invalid_arg "Serve_journal.open_: keep_completed must be >= 0";
  Fsio.mkdir_p dir;
  let gens = Frame.generations ~dir ~name ~ext:"jrnl" in
  (* Fold oldest -> newest so later records supersede earlier ones:
     the newest completion for a rid wins, and re-journaled admitted
     frames (compaction carry-forward) collapse onto one entry. *)
  let admitted : (string, P.request) Hashtbl.t = Hashtbl.create 64 in
  let completed : (string, string option * P.ok_body option) Hashtbl.t =
    Hashtbl.create 64
  in
  let admit_order = ref [] (* newest first; rids, deduped *) in
  let complete_order = ref [] (* newest first; rids, with duplicates *) in
  let torn = ref [] in
  List.iter
    (fun gen ->
      let p = path ~dir ~name gen in
      match Fsio.read_file p with
      | exception Sys_error msg -> torn := (p, msg) :: !torn
      | content ->
          let records, tail = scan_string content in
          (match tail with
          | Some (off, msg) ->
              torn := (p, Printf.sprintf "%s at byte %d" msg off) :: !torn
          | None -> ());
          List.iter
            (function
              | Admitted { rid; request } ->
                  if not (Hashtbl.mem admitted rid) then admit_order := rid :: !admit_order;
                  Hashtbl.replace admitted rid request
              | Completed { rid; key; body } ->
                  Hashtbl.replace completed rid (key, body);
                  complete_order := rid :: !complete_order)
            records)
    gens;
  let pending =
    List.rev !admit_order
    |> List.filter_map (fun rid ->
           if Hashtbl.mem completed rid then None
           else Some (rid, Hashtbl.find admitted rid))
  in
  (* Completions worth carrying forward: those with a cache key and a
     body (anything else can't warm the cache). Newest first, capped,
     then flipped back to oldest-first so warming the cache in order
     leaves the newest result installed on key collisions. *)
  let carry =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun rid ->
        if Hashtbl.mem seen rid then None
        else begin
          Hashtbl.add seen rid ();
          match Hashtbl.find_opt completed rid with
          | Some (Some key, Some body) -> Some (rid, key, body)
          | _ -> None
        end)
      !complete_order
    |> List.filteri (fun i _ -> i < keep_completed)
    |> List.rev
  in
  let gen = 1 + List.fold_left max 0 gens in
  let appender = Fsio.open_append ~fsync (path ~dir ~name gen) in
  let t =
    {
      gen;
      appender;
      m = Mutex.create ();
      appends = 0;
      pending;
      warm = List.map (fun (_, key, body) -> (key, body)) carry;
      torn = List.rev !torn;
    }
  in
  (* Compaction: make the fresh generation self-contained — carry
     forward the warm completions and the still-pending admitted frames
     in one append — then drop the old generations. If we crash before
     the delete, the scan above is idempotent; if we crash after, the
     new generation alone reconstructs the same state. *)
  if gens <> [] || carry <> [] then begin
    let buf = Buffer.create 4096 in
    List.iter
      (fun (rid, key, body) ->
        Buffer.add_string buf (frame (Completed { rid; key = Some key; body = Some body })))
      carry;
    List.iter
      (fun (rid, request) -> Buffer.add_string buf (frame (Admitted { rid; request })))
      pending;
    if Buffer.length buf > 0 then Fsio.append t.appender (Buffer.contents buf);
    List.iter
      (fun g -> try Sys.remove (path ~dir ~name g) with Sys_error _ -> ())
      gens
  end;
  t

let append_admitted t ~rid request = raw_append t (frame (Admitted { rid; request }))

let append_completed t ~rid ?key ?body () = raw_append t (frame (Completed { rid; key; body }))

let pending t = t.pending
let warm t = t.warm
let torn t = t.torn
let appends t = Mutex.protect t.m (fun () -> t.appends)
let generation t = t.gen
let file t = Fsio.append_path t.appender
let close t = Fsio.close_append t.appender
