(* One contract for every decoder of bytes that come from outside the
   process: frames, checkpoint files, journal generations, request
   frames and e-graph text. On any input — valid, or a valid input
   mutated — a decoder returns a value or its own typed error, never
   another exception, and allocates at most 256 words per input byte
   plus 65,536. Allocation counts minor plus directly-major words, so
   an oversized array cannot hide in the major heap.

   The mutations: truncation at every prefix; every single-bit flip;
   every 64-bit word set to -1, 2^31, 2^62 and max_int; for framed
   formats the same again on each payload inside a re-checksummed
   frame, so the payload decoder is reached; for text, every integer
   token set to the same values; for JSON, deep nesting. *)

module P = Serve_protocol

type verdict = Value | Typed of string

(* [Gc.minor_words] is exact between collections, where the minor count
   of [Gc.counters] is not; the major words less the promoted ones are
   the blocks allocated straight in the major heap *)
let allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let show s =
  if String.length s <= 80 then Printf.sprintf "%S" s
  else Printf.sprintf "%S... (%d bytes)" (String.sub s 0 80) (String.length s)

(* the contract on one input; returns the verdict for further checks *)
let holds name decode input =
  let bound = (256.0 *. float_of_int (String.length input)) +. 65536.0 in
  let before = allocated () in
  let verdict =
    try decode input
    with e -> Alcotest.failf "%s raised %s on %s" name (Printexc.to_string e) (show input)
  in
  let words = allocated () -. before in
  if words > bound then
    Alcotest.failf "%s allocated %.0f words on %s (bound %.0f)" name words (show input) bound;
  verdict

let accepts name decode input =
  match holds name decode input with
  | Value -> ()
  | Typed msg -> Alcotest.failf "%s rejected a valid input (%s): %s" name msg (show input)

(* ------------------------------------------------------------ decoders *)

let frame_magic = "SMCK" and frame_version = 2

let frame s =
  match Frame.decode ~magic:frame_magic ~version:frame_version s ~off:0 with
  | Ok _ -> Value
  | Error msg -> Typed msg

let checkpoint s = match Checkpoint.deserialize s with Ok _ -> Value | Error msg -> Typed msg

let journal s =
  match Serve_journal.scan_string s with _, None -> Value | _, Some (_, msg) -> Typed msg

let request s =
  match P.request_of_json (Json.parse s) with
  | Ok _ -> Value
  | Error msg | (exception Json.Parse_error msg) -> Typed msg

let serial s = match Egraph.Serial.of_string s with _ -> Value | exception Failure msg -> Typed msg

(* ----------------------------------------------------------- mutations *)

let hostile = [ -1L; 0x8000_0000L; 0x4000_0000_0000_0000L; Int64.of_int max_int ]

let binary_mutations s f =
  let n = String.length s in
  for len = 0 to n - 1 do
    f (String.sub s 0 len)
  done;
  for bit = 0 to (8 * n) - 1 do
    let b = Bytes.of_string s in
    Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
    f (Bytes.to_string b)
  done;
  List.iter
    (fun v ->
      for off = 0 to n - 8 do
        let b = Bytes.of_string s in
        Bytes.set_int64_le b off v;
        f (Bytes.to_string b)
      done)
    hostile

(* every payload of a run of frames mutated in turn, the run rebuilt
   around it with valid headers and checksums *)
let reframed_mutations ~magic ~version s f =
  let rec payloads off acc =
    if off = String.length s then Array.of_list (List.rev acc)
    else
      match Frame.decode ~magic ~version s ~off with
      | Ok (p, next) -> payloads next (p :: acc)
      | Error msg -> Alcotest.failf "valid input does not frame: %s" msg
  in
  let ps = payloads 0 [] in
  Array.iteri
    (fun k p ->
      binary_mutations p (fun p' ->
          f
            (String.concat ""
               (Array.to_list
                  (Array.mapi
                     (fun i q -> Frame.encode ~magic ~version (if i = k then p' else q))
                     ps)))))
    ps

(* every maximal digit run, with a leading '-', set to each hostile value *)
let token_mutations s f =
  let n = String.length s in
  let digit i = i < n && s.[i] >= '0' && s.[i] <= '9' in
  let rec scan i =
    if i < n then
      if digit i then begin
        let start = if i > 0 && s.[i - 1] = '-' then i - 1 else i in
        let stop = ref i in
        while digit !stop do
          incr stop
        done;
        List.iter
          (fun v ->
            f (String.sub s 0 start ^ Int64.to_string v ^ String.sub s !stop (n - !stop)))
          hostile;
        scan !stop
      end
      else scan (i + 1)
  in
  scan 0

let nestings s =
  List.concat_map
    (fun d ->
      [
        String.make d '[' ^ s ^ String.make d ']';
        String.concat "" (List.init d (fun _ -> {|{"a":|})) ^ s ^ String.make d '}';
      ])
    [ 511; 512; 513; 100_000 ]

let qtest ?(count = 20) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen (fun x -> prop x; true))

(* -------------------------------------------------------------- frames *)

let frame_prop =
  qtest ~count:200 "frame: any payload, every mutation"
    QCheck2.Gen.(string_size (int_range 0 48))
    (fun payload ->
      let s = Frame.encode ~magic:frame_magic ~version:frame_version payload in
      (match Frame.decode ~magic:frame_magic ~version:frame_version s ~off:0 with
      | Ok (p, next) when p = payload && next = String.length s -> ()
      | _ -> Alcotest.failf "frame of %s does not round-trip" (show payload));
      binary_mutations s (fun m -> ignore (holds "Frame.decode" frame m)))

(* --------------------------------------------------------- checkpoints *)

let checkpoint_prop =
  qtest ~count:10 "checkpoint: any snapshot, every mutation" Test_util.snapshot_gen (fun snap ->
      let s = Checkpoint.serialize snap in
      accepts "Checkpoint.deserialize" checkpoint s;
      let check m = ignore (holds "Checkpoint.deserialize" checkpoint m) in
      binary_mutations s check;
      reframed_mutations ~magic:"SMCK" ~version:2 s check)

(* ------------------------------------------------------------ journals *)

let request_gen =
  let open QCheck2.Gen in
  let* id = string_size ~gen:printable (int_range 0 8) in
  let* source =
    oneof
      [
        map (fun n -> P.Instance n) (oneofl [ "mcm_8"; "fir_5" ]);
        map
          (fun g -> P.Inline (Egraph.Serial.to_string g))
          (Test_util.arb_egraph ~max_classes:2 ());
      ]
  in
  let* method_ = oneofl [ P.Smoothe; P.Greedy; P.Greedy_dag ] in
  let* budget = option (float_range 0.1 10.0) and* deadline_ms = option (float_range 1.0 1e3) in
  let* seed = nat and* batch = int_range 1 8 and* iters = int_range 1 100 in
  let* lambda_ = float_range 0.0 2.0 in
  let* costs = option (array_size (int_range 0 3) (float_range 0.0 10.0)) in
  let+ fault_plan = oneofl [ ""; "nan@3" ] and+ use_cache = bool in
  { P.id; source; method_; budget; deadline_ms; seed; batch; iters; lambda_; costs; fault_plan;
    use_cache }

let record_gen =
  let open QCheck2.Gen in
  let rid = string_size ~gen:printable (int_range 0 6) in
  (* an empty key is written as "no key" *)
  let key = string_size ~gen:printable (int_range 1 6) in
  oneof
    [
      (let+ rid = rid and+ request = request_gen in
       Serve_journal.Admitted { rid; request });
      (let+ rid = rid and+ key = option key and+ cost = float_range 0.0 100.0 and+ some = bool in
       let body =
         { P.cost; valid = true; choices = [ (0, 1) ]; iterations = 3; cache_hit = false;
           health = "healthy" }
       in
       Serve_journal.Completed { rid; key; body = (if some then Some body else None) });
    ]

let scratch_dir =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "smoothe-decoders-%d" (Unix.getpid ()))
     in
     Fsio.mkdir_p dir;
     at_exit (fun () -> try Unix.rmdir dir with Unix.Unix_error _ -> ());
     dir)

(* the bytes a journal writes for [records] *)
let journal_bytes records =
  let j = Serve_journal.open_ ~fsync:false ~dir:(Lazy.force scratch_dir) ~name:"q" () in
  List.iter
    (function
      | Serve_journal.Admitted { rid; request } -> Serve_journal.append_admitted j ~rid request
      | Serve_journal.Completed { rid; key; body } ->
          Serve_journal.append_completed j ~rid ?key ?body ())
    records;
  let file = Serve_journal.file j in
  Serve_journal.close j;
  let s = Fsio.read_file file in
  Sys.remove file;
  s

let journal_prop =
  qtest ~count:5 "journal: any records, every mutation"
    QCheck2.Gen.(list_size (int_range 1 3) record_gen)
    (fun records ->
      let s = journal_bytes records in
      accepts "Serve_journal.scan_string" journal s;
      if fst (Serve_journal.scan_string s) <> records then
        Alcotest.fail "journal scan does not round-trip its records";
      let check m = ignore (holds "Serve_journal.scan_string" journal m) in
      binary_mutations s check;
      reframed_mutations ~magic:"SMJR" ~version:2 s check)

(* ------------------------------------------------------------ requests *)

let request_prop =
  qtest ~count:30 "request: any request, every mutation" request_gen (fun req ->
      let s = Json.to_string (P.request_to_json req) in
      accepts "request_of_json" request s;
      let check m = ignore (holds "request_of_json" request m) in
      binary_mutations s check;
      token_mutations s check;
      List.iter check (nestings s))

(* ------------------------------------------------------------- e-graphs *)

(* Class ids far apart and far from zero: the parser numbers only the
   classes that hold an e-node, so the id values must cost nothing. *)
let test_serial_sparse_ids () =
  List.iter
    (fun id ->
      accepts "Egraph.Serial.of_string" serial
        (Printf.sprintf "egraph s\nroot %d\nnode %d 1 b\n" id id))
    [ 10_000_000; max_int ]

(* the same graph with its class ids spread [stride] apart *)
let sparse_text stride g =
  let id c = (c * stride) + 7 in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "egraph %s\nroot %d\n" g.Egraph.name (id g.Egraph.root);
  Array.iteri
    (fun i op ->
      Printf.bprintf buf "node %d %.17g %s" (id g.Egraph.node_class.(i)) g.Egraph.costs.(i) op;
      Array.iter (fun c -> Printf.bprintf buf " %d" (id c)) g.Egraph.children.(i);
      Buffer.add_char buf '\n')
    g.Egraph.ops;
  Buffer.contents buf

let serial_prop =
  qtest ~count:30 "serial: any e-graph, every mutation"
    QCheck2.Gen.(
      pair (Test_util.arb_egraph ~max_classes:4 ~cycle_prob:0.3 ()) (int_range 1 1_000_000_000))
    (fun (g, stride) ->
      let s = Egraph.Serial.to_string g in
      accepts "Egraph.Serial.of_string" serial s;
      let sparse = sparse_text stride g in
      accepts "Egraph.Serial.of_string" serial sparse;
      if Egraph.Serial.to_string (Egraph.Serial.of_string sparse) <> s then
        Alcotest.failf "sparse ids changed the graph:\n%s" sparse;
      let check m = ignore (holds "Egraph.Serial.of_string" serial m) in
      binary_mutations s check;
      token_mutations s check)

let () =
  Alcotest.run "decoders"
    [
      ("frame", [ frame_prop ]);
      ("checkpoint", [ checkpoint_prop ]);
      ("journal", [ journal_prop ]);
      ("request", [ request_prop ]);
      ( "serial",
        [ Alcotest.test_case "sparse class ids" `Quick test_serial_sparse_ids; serial_prop ] );
    ]
