(* Durable, versioned run snapshots.

   On-disk frame (all integers little-endian):

     bytes 0..3    magic "SMCK"
     bytes 4..7    format version (u32)
     bytes 8..15   payload length (u64)
     bytes 16..19  CRC-32 of the payload (u32)
     bytes 20..    payload

   The payload is a flat, hand-rolled binary encoding (no Marshal: the
   format must be stable across compiler versions and checkable field
   by field). Every read is bounds-checked and every length sanity-
   checked against the remaining bytes, so a truncated or bit-flipped
   file surfaces as [Corrupt], never as an out-of-bounds read or a
   silently wrong snapshot. *)

let magic = "SMCK"
let format_version = 2

exception Corrupt of string

(* ------------------------------------------------------------- types *)

type fingerprint = {
  fp_graph : string;
  fp_nodes : int;
  fp_classes : int;
  fp_seed : int;
  fp_batch : int;
}

let fingerprint_to_string fp =
  Printf.sprintf "%s[N=%d,M=%d,seed=%d,batch=%d]" fp.fp_graph fp.fp_nodes fp.fp_classes
    fp.fp_seed fp.fp_batch

type history_point = {
  iter : int;
  elapsed : float;
  relaxed_loss : float;
  sampled_cost : float;
  incumbent : float;
}

type snapshot = {
  fingerprint : fingerprint;
  mutable iter : int;
  mutable elapsed : float;  (* budget seconds consumed, including any resumed offset *)
  rng_state : int64 array;
  theta : Tensor.t;
  adam_m : Tensor.t;
  adam_v : Tensor.t;
  mutable adam_step : int;
  mutable adam_lr : float;
  mutable best_cost : float;
  mutable best_seed : int;
  mutable best_choice : int option array option;
  mutable best_cp : float array option;
  mutable last_improvement : int;
  mutable recoveries : int;
  ladder_rung : int;
  mutable trace : (float * float) list;
  mutable history : history_point list;
  health : Health.log;
}

(* ------------------------------------------------------------ writing *)

let w_i64 buf (x : int64) = Buffer.add_int64_le buf x
let w_int buf n = w_i64 buf (Int64.of_int n)
let w_f64 buf f = w_i64 buf (Int64.bits_of_float f)

let w_str buf s =
  w_int buf (String.length s);
  Buffer.add_string buf s

let w_list w buf l =
  w_int buf (List.length l);
  List.iter (w buf) l

let w_tensor buf t =
  w_int buf t.Tensor.batch;
  w_int buf t.Tensor.width;
  Array.iter (w_f64 buf) (Tensor.unsafe_data t)

(* per-class choice: node id >= 0, None encoded as -1 *)
let w_choice buf c =
  match c with
  | None -> w_int buf (-1)
  | Some choice ->
      w_int buf (Array.length choice);
      Array.iter (fun o -> w_int buf (match o with None -> -1 | Some n -> n)) choice

let w_event buf (e : Health.event) =
  w_f64 buf e.Health.at;
  w_str buf e.Health.member;
  w_str buf (Health.kind_name e.Health.kind);
  w_str buf e.Health.detail

(* optional float row: None encoded as -1 *)
let w_row buf = function
  | None -> w_int buf (-1)
  | Some row ->
      w_int buf (Array.length row);
      Array.iter (w_f64 buf) row

let w_history buf (h : history_point) =
  w_int buf h.iter;
  w_f64 buf h.elapsed;
  w_f64 buf h.relaxed_loss;
  w_f64 buf h.sampled_cost;
  w_f64 buf h.incumbent

let encode snap =
  let buf = Buffer.create 4096 in
  w_str buf snap.fingerprint.fp_graph;
  w_int buf snap.fingerprint.fp_nodes;
  w_int buf snap.fingerprint.fp_classes;
  w_int buf snap.fingerprint.fp_seed;
  w_int buf snap.fingerprint.fp_batch;
  w_int buf snap.iter;
  w_f64 buf snap.elapsed;
  Array.iter (w_i64 buf) snap.rng_state;
  w_tensor buf snap.theta;
  w_tensor buf snap.adam_m;
  w_tensor buf snap.adam_v;
  w_int buf snap.adam_step;
  w_f64 buf snap.adam_lr;
  w_f64 buf snap.best_cost;
  w_int buf snap.best_seed;
  w_choice buf snap.best_choice;
  w_row buf snap.best_cp;
  w_int buf snap.last_improvement;
  w_int buf snap.recoveries;
  w_int buf snap.ladder_rung;
  w_list (fun buf (t, c) -> w_f64 buf t; w_f64 buf c) buf snap.trace;
  w_list w_history buf snap.history;
  w_list w_event buf (Health.events snap.health);
  Buffer.contents buf

(* ------------------------------------------------------------ reading *)

type reader = { src : string; mutable pos : int }

let need r n =
  if n < 0 || r.pos + n > String.length r.src then raise (Corrupt "truncated payload")

let r_i64 r =
  need r 8;
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let r_int r = Int64.to_int (r_i64 r)
let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_count r ~elt_bytes what =
  let n = r_int r in
  if n < 0 || (elt_bytes > 0 && n > (String.length r.src - r.pos) / elt_bytes) then
    raise (Corrupt (Printf.sprintf "implausible %s count %d" what n));
  n

let r_str r =
  let n = r_count r ~elt_bytes:1 "string length" in
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_list f r what =
  let n = r_count r ~elt_bytes:1 what in
  List.init n (fun _ -> f r)

let r_tensor r =
  let batch = r_int r and width = r_int r in
  if batch < 1 || width < 1 || batch > max_int / 8 / max 1 width
     || batch * width * 8 > String.length r.src - r.pos
  then raise (Corrupt (Printf.sprintf "implausible tensor shape %dx%d" batch width));
  let data = Array.init (batch * width) (fun _ -> r_f64 r) in
  Tensor.of_array ~batch ~width data

let r_choice r =
  let n = r_int r in
  if n < -1 || n > String.length r.src - r.pos then
    raise (Corrupt (Printf.sprintf "implausible choice count %d" n));
  if n = -1 then None
  else
    Some
      (Array.init n (fun _ ->
           let v = r_int r in
           if v < -1 then raise (Corrupt "negative node id in choice");
           if v = -1 then None else Some v))

let r_event r =
  let at = r_f64 r in
  let member = r_str r in
  let kind_name = r_str r in
  let detail = r_str r in
  match Health.kind_of_name kind_name with
  | Some kind -> { Health.at; member; kind; detail }
  | None -> raise (Corrupt (Printf.sprintf "unknown health kind %S" kind_name))

let r_row r =
  let n = r_int r in
  if n < -1 || n > (String.length r.src - r.pos) / 8 then
    raise (Corrupt (Printf.sprintf "implausible row length %d" n));
  if n = -1 then None else Some (Array.init n (fun _ -> r_f64 r))

let r_history r =
  let iter = r_int r in
  let elapsed = r_f64 r in
  let relaxed_loss = r_f64 r in
  let sampled_cost = r_f64 r in
  let incumbent = r_f64 r in
  { iter; elapsed; relaxed_loss; sampled_cost; incumbent }

let decode payload =
  let r = { src = payload; pos = 0 } in
  let fp_graph = r_str r in
  let fp_nodes = r_int r in
  let fp_classes = r_int r in
  let fp_seed = r_int r in
  let fp_batch = r_int r in
  let iter = r_int r in
  let elapsed = r_f64 r in
  let rng_state = Array.init 4 (fun _ -> r_i64 r) in
  let theta = r_tensor r in
  let adam_m = r_tensor r in
  let adam_v = r_tensor r in
  List.iter
    (fun t ->
      if t.Tensor.batch <> fp_batch || t.Tensor.width <> fp_nodes then
        raise (Corrupt "tensor shape does not match the fingerprint"))
    [ theta; adam_m; adam_v ];
  let adam_step = r_int r in
  let adam_lr = r_f64 r in
  let best_cost = r_f64 r in
  let best_seed = r_int r in
  let best_choice = r_choice r in
  let best_cp = r_row r in
  let last_improvement = r_int r in
  let recoveries = r_int r in
  let ladder_rung = r_int r in
  let trace = r_list (fun r -> let t = r_f64 r in let c = r_f64 r in (t, c)) r "trace" in
  let history = r_list r_history r "history" in
  let health = Health.create () in
  List.iter (Health.add health) (r_list r_event r "health");
  if r.pos <> String.length payload then raise (Corrupt "trailing bytes after snapshot");
  {
    fingerprint = { fp_graph; fp_nodes; fp_classes; fp_seed; fp_batch };
    iter; elapsed; rng_state; theta; adam_m; adam_v; adam_step; adam_lr;
    best_cost; best_seed; best_choice; best_cp; last_improvement; recoveries; ladder_rung;
    trace; history; health;
  }

(* ------------------------------------------------------------ framing *)

let header_len = 20

let serialize snap =
  let payload = encode snap in
  let buf = Buffer.create (String.length payload + header_len) in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int format_version);
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_int32_le buf (Int32.of_int (Checksum.crc32 payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let deserialize s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if String.length s < header_len then err "file shorter than the %d-byte header" header_len
  else if String.sub s 0 4 <> magic then err "bad magic (not a checkpoint file)"
  else begin
    let version = Int32.to_int (String.get_int32_le s 4) in
    if version <> format_version then err "unsupported checkpoint version %d" version
    else begin
      (* compare the length as a full 64-bit value: [Int64.to_int]
         truncates modulo 2^63, so a corrupted top bit would otherwise
         leave the truncated length unchanged and slip past this check
         (the CRC only covers the payload, not the header) *)
      let payload_len64 = String.get_int64_le s 8 in
      if Int64.compare payload_len64 (Int64.of_int (String.length s - header_len)) <> 0
      then
        err "length mismatch: header says %Ld payload bytes, file has %d (torn write?)"
          payload_len64
          (String.length s - header_len)
      else begin
        let payload_len = Int64.to_int payload_len64 in
        let stored_crc = Int32.to_int (String.get_int32_le s 16) land 0xFFFFFFFF in
        let actual_crc = Checksum.crc32 ~off:header_len ~len:payload_len s in
        if stored_crc <> actual_crc then
          err "checksum mismatch (stored %08x, computed %08x)" stored_crc actual_crc
        else
          match decode (String.sub s header_len payload_len) with
          | snap -> Ok snap
          | exception Corrupt msg -> Error msg
      end
    end
  end

(* ------------------------------------------------------------- store *)

type store = { dir : string; base : string; keep : int }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let store ?(keep = 3) ~dir ~name () =
  if keep < 1 then invalid_arg "Checkpoint.store: keep must be >= 1";
  if name = "" || String.contains name '/' then
    invalid_arg "Checkpoint.store: name must be a non-empty path-free label";
  mkdir_p dir;
  { dir; base = name; keep }

let dir st = st.dir

let path st gen = Filename.concat st.dir (Printf.sprintf "%s.%08d.ckpt" st.base gen)

(* generation numbers present on disk, newest first *)
let generations st =
  match Sys.readdir st.dir with
  | exception Sys_error _ -> []
  | files ->
      let prefix = st.base ^ "." and suffix = ".ckpt" in
      let parse f =
        let pl = String.length prefix and sl = String.length suffix in
        if
          String.length f > pl + sl
          && String.sub f 0 pl = prefix
          && String.sub f (String.length f - sl) sl = suffix
        then int_of_string_opt (String.sub f pl (String.length f - pl - sl))
        else None
      in
      Array.to_list files |> List.filter_map parse |> List.sort (fun a b -> compare b a)


let save st snap =
  Trace.with_span ~cat:"checkpoint"
    ~attrs:(if !Obs.on then [ ("iter", string_of_int snap.iter) ] else [])
    "checkpoint.write"
  @@ fun () ->
  let gen = match generations st with g :: _ -> g + 1 | [] -> 1 in
  let data = serialize snap in
  (* a torn-write fault loses the tail of the file, as if power failed
     between the data blocks and the metadata update *)
  let data =
    if Fault_plan.torn_write () then String.sub data 0 (String.length data / 2) else data
  in
  Fsio.write_atomic ~path:(path st gen) data;
  if !Obs.on then begin
    Metrics.incr "checkpoint.writes";
    Metrics.incr ~by:(float_of_int (String.length data)) "checkpoint.bytes_written"
  end;
  (* rotate: keep the newest [keep] generations *)
  (match generations st with
  | gens ->
      List.iteri
        (fun i g -> if i >= st.keep then try Sys.remove (path st g) with Sys_error _ -> ())
        gens);
  gen

let read_file p =
  match Fsio.read_file p with
  | exception Sys_error msg -> Error msg
  | content -> Ok content

let load_latest ?health ?(member = "checkpoint") st =
  Trace.with_span ~cat:"checkpoint" "checkpoint.restore" @@ fun () ->
  let note_corrupt gen msg =
    (match health with
    | Some log ->
        Health.record log ~member Health.Checkpoint_corrupt
          (Printf.sprintf "generation %d unusable (%s); falling back" gen msg)
    | None -> ());
    if !Obs.on then Metrics.incr "checkpoint.corrupt"
  in
  let rec walk = function
    | [] -> None
    | gen :: older -> (
        match read_file (path st gen) with
        | Error msg ->
            note_corrupt gen msg;
            walk older
        | Ok content -> (
            match deserialize content with
            | Ok snap ->
                if !Obs.on then begin
                  Metrics.incr "checkpoint.restores";
                  Metrics.incr
                    ~by:(float_of_int (String.length content))
                    "checkpoint.bytes_read"
                end;
                Some (snap, gen)
            | Error msg ->
                note_corrupt gen msg;
                walk older))
  in
  walk (generations st)
