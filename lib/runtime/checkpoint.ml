(* Durable, versioned run snapshots: one {!Frame} per file, magic
   "SMCK", whose payload is the loop's state record field by field. *)

let magic = "SMCK"
let format_version = 2

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

let w_list w buf l =
  Frame.add_int buf (List.length l);
  List.iter (w buf) l

let w_tensor buf t =
  Frame.add_int buf t.Tensor.batch;
  Frame.add_int buf t.Tensor.width;
  Array.iter (Frame.add_float buf) (Tensor.unsafe_data t)

(* optional array: None encoded as the count -1 *)
let w_opt_array w buf = function
  | None -> Frame.add_int buf (-1)
  | Some a ->
      Frame.add_int buf (Array.length a);
      Array.iter (w buf) a

(* per-class choice: node id >= 0, None encoded as -1 *)
let w_choice buf o = Frame.add_int buf (match o with None -> -1 | Some n -> n)

let w_event buf (e : Health.event) =
  Frame.add_float buf e.Health.at;
  Frame.add_string buf e.Health.member;
  Frame.add_string buf (Health.kind_name e.Health.kind);
  Frame.add_string buf e.Health.detail

let w_history buf (h : history_point) =
  Frame.add_int buf h.iter;
  List.iter (Frame.add_float buf) [ h.elapsed; h.relaxed_loss; h.sampled_cost; h.incumbent ]

let serialize snap =
  let buf = Buffer.create 4096 in
  let int = Frame.add_int buf and float = Frame.add_float buf in
  Frame.add_string buf snap.fingerprint.fp_graph;
  int snap.fingerprint.fp_nodes;
  int snap.fingerprint.fp_classes;
  int snap.fingerprint.fp_seed;
  int snap.fingerprint.fp_batch;
  int snap.iter;
  float snap.elapsed;
  Array.iter (Frame.add_int64 buf) snap.rng_state;
  w_tensor buf snap.theta;
  w_tensor buf snap.adam_m;
  w_tensor buf snap.adam_v;
  int snap.adam_step;
  float snap.adam_lr;
  float snap.best_cost;
  int snap.best_seed;
  w_opt_array w_choice buf snap.best_choice;
  w_opt_array Frame.add_float buf snap.best_cp;
  int snap.last_improvement;
  int snap.recoveries;
  int snap.ladder_rung;
  w_list (fun buf (t, c) -> Frame.add_float buf t; Frame.add_float buf c) buf snap.trace;
  w_list w_history buf snap.history;
  w_list w_event buf (Health.events snap.health);
  Frame.encode ~magic ~version:format_version (Buffer.contents buf)

(* ------------------------------------------------------------ reading *)

let r_list f r what = List.init (Frame.count r ~elt_bytes:1 what (Frame.read_int r)) (fun _ -> f r)

let r_opt_array f r what =
  match Frame.read_int r with
  | -1 -> None
  | n -> Some (Array.init (Frame.count r ~elt_bytes:8 what n) (fun _ -> f r))

(* θ and the Adam moments are shaped as the fingerprint says *)
let r_tensor r fp =
  let batch = Frame.read_int r in
  let width = Frame.read_int r in
  if batch <> fp.fp_batch || width <> fp.fp_nodes || batch < 1 || width < 1
     || batch > max_int / width
  then Frame.corrupt "tensor shape %dx%d does not match the fingerprint" batch width;
  let n = Frame.count r ~elt_bytes:8 "tensor element" (batch * width) in
  Tensor.of_array ~batch ~width (Array.init n (fun _ -> Frame.read_float r))

let r_choice r =
  match Frame.read_int r with
  | -1 -> None
  | v when v < 0 -> Frame.corrupt "negative node id %d in choice" v
  | v -> Some v

let r_event r =
  let at = Frame.read_float r in
  let member = Frame.read_string r in
  let kind_name = Frame.read_string r in
  let detail = Frame.read_string r in
  match Health.kind_of_name kind_name with
  | Some kind -> { Health.at; member; kind; detail }
  | None -> Frame.corrupt "unknown health kind %S" kind_name

let r_history r =
  let iter = Frame.read_int r in
  let elapsed = Frame.read_float r in
  let relaxed_loss = Frame.read_float r in
  let sampled_cost = Frame.read_float r in
  let incumbent = Frame.read_float r in
  { iter; elapsed; relaxed_loss; sampled_cost; incumbent }

let decode payload =
  let r = Frame.reader payload in
  let int () = Frame.read_int r and float () = Frame.read_float r in
  let fp_graph = Frame.read_string r in
  let fp_nodes = int () in
  let fp_classes = int () in
  let fp_seed = int () in
  let fp_batch = int () in
  let fingerprint = { fp_graph; fp_nodes; fp_classes; fp_seed; fp_batch } in
  let iter = int () in
  let elapsed = float () in
  let rng_state = Array.init 4 (fun _ -> Frame.read_int64 r) in
  let theta = r_tensor r fingerprint in
  let adam_m = r_tensor r fingerprint in
  let adam_v = r_tensor r fingerprint in
  let adam_step = int () in
  let adam_lr = float () in
  let best_cost = float () in
  let best_seed = int () in
  let best_choice = r_opt_array r_choice r "choice" in
  let best_cp = r_opt_array Frame.read_float r "row" in
  let last_improvement = int () in
  let recoveries = int () in
  let ladder_rung = int () in
  let trace = r_list (fun r -> let t = Frame.read_float r in (t, Frame.read_float r)) r "trace" in
  let history = r_list r_history r "history" in
  let health = Health.create () in
  List.iter (Health.add health) (r_list r_event r "health");
  Frame.finish r;
  {
    fingerprint; iter; elapsed; rng_state; theta; adam_m; adam_v; adam_step; adam_lr;
    best_cost; best_seed; best_choice; best_cp; last_improvement; recoveries; ladder_rung;
    trace; history; health;
  }

let deserialize s =
  match Frame.decode ~magic ~version:format_version s ~off:0 with
  | Error msg -> Error msg
  | Ok (_, next) when next <> String.length s -> Error "trailing bytes after the frame"
  | Ok (payload, _) -> ( try Ok (decode payload) with Frame.Corrupt msg -> Error msg)

(* ------------------------------------------------------------- store *)

type store = { dir : string; name : string; keep : int }

let store ?(keep = 3) ~dir ~name () =
  if keep < 1 then invalid_arg "Checkpoint.store: keep must be >= 1";
  if name = "" || String.contains name '/' then
    invalid_arg "Checkpoint.store: name must be a non-empty path-free label";
  Fsio.mkdir_p dir;
  { dir; name; keep }

let path st gen = Frame.gen_path ~dir:st.dir ~name:st.name ~ext:"ckpt" gen

(* generation numbers present on disk, newest first *)
let generations st = List.rev (Frame.generations ~dir:st.dir ~name:st.name ~ext:"ckpt")

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
