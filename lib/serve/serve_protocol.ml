type method_ = Smoothe | Greedy | Greedy_dag

let method_name = function
  | Smoothe -> "smoothe"
  | Greedy -> "greedy"
  | Greedy_dag -> "greedy-dag"

let method_of_name = function
  | "smoothe" -> Some Smoothe
  | "greedy" -> Some Greedy
  | "greedy-dag" -> Some Greedy_dag
  | _ -> None

type source = Inline of string | Instance of string

type request = {
  id : string;
  source : source;
  method_ : method_;
  budget : float option;
  deadline_ms : float option;
  seed : int;
  batch : int;
  iters : int;
  lambda_ : float;
  costs : float array option;
  fault_plan : string;
  use_cache : bool;
}

let default_request =
  {
    id = "";
    source = Instance "";
    method_ = Smoothe;
    budget = None;
    deadline_ms = None;
    seed = 7;
    batch = 8;
    iters = 60;
    lambda_ = 100.0;
    costs = None;
    fault_plan = "";
    use_cache = true;
  }

type error_code =
  | Bad_request
  | Overloaded
  | Draining
  | Deadline_expired
  | Crashed
  | Internal
  | Timed_out
  | Frame_too_long

let error_code_name = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Deadline_expired -> "deadline_expired"
  | Crashed -> "crashed"
  | Internal -> "internal"
  | Timed_out -> "timeout"
  | Frame_too_long -> "frame_too_long"

let error_code_of_name = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "deadline_expired" -> Some Deadline_expired
  | "crashed" -> Some Crashed
  | "internal" -> Some Internal
  | "timeout" -> Some Timed_out
  | "frame_too_long" -> Some Frame_too_long
  | _ -> None

type ok_body = {
  cost : float;
  valid : bool;
  choices : (int * int) list;
  iterations : int;
  cache_hit : bool;
  health : string;
}

type error_body = { code : error_code; message : string; retry_after_ms : float option }

type response = {
  resp_id : string;
  elapsed_ms : float;
  queue_ms : float;
  body : (ok_body, error_body) result;
}

let error_response ?(queue_ms = 0.0) ?retry_after_ms ~id code message =
  {
    resp_id = id;
    elapsed_ms = 0.0;
    queue_ms;
    body = Error { code; message; retry_after_ms };
  }

(* --- validation -------------------------------------------------------- *)

let positive_float ~what v =
  if Float.is_nan v then Error (Printf.sprintf "%s must be a number, got nan" what)
  else if not (Float.is_finite v) then
    Error (Printf.sprintf "%s must be finite, got %g" what v)
  else if v <= 0.0 then Error (Printf.sprintf "%s must be positive, got %g" what v)
  else Ok v

let positive_int ~what v =
  if v <= 0 then Error (Printf.sprintf "%s must be positive, got %d" what v) else Ok v

let non_negative_int ~what v =
  if v < 0 then Error (Printf.sprintf "%s must be non-negative, got %d" what v) else Ok v

let non_negative_float ~what v =
  if Float.is_finite v && v >= 0.0 then Ok v
  else Error (Printf.sprintf "%s must be finite and non-negative, got %g" what v)

(* --- codec ------------------------------------------------------------- *)

let request_to_json r =
  let base =
    [
      ("id", Json.String r.id);
      (match r.source with
      | Inline text -> ("egraph", Json.String text)
      | Instance name -> ("instance", Json.String name));
      ("method", Json.String (method_name r.method_));
      ("seed", Json.Number (float_of_int r.seed));
      ("batch", Json.Number (float_of_int r.batch));
      ("iters", Json.Number (float_of_int r.iters));
      ("lambda", Json.Number r.lambda_);
      ("cache", Json.Bool r.use_cache);
    ]
  in
  let opt name v f = match v with None -> [] | Some x -> [ (name, f x) ] in
  let base = base @ opt "budget" r.budget (fun b -> Json.Number b) in
  let base = base @ opt "deadline_ms" r.deadline_ms (fun d -> Json.Number d) in
  let base =
    base
    @ opt "costs" r.costs (fun cs ->
          Json.Array (Array.to_list (Array.map (fun c -> Json.Number c) cs)))
  in
  let base =
    if r.fault_plan = "" then base else base @ [ ("fault_plan", Json.String r.fault_plan) ]
  in
  Json.Object base

let ( let* ) = Result.bind

let field_string j name =
  match Json.member name j with
  | Json.Null -> Ok None
  | Json.String s -> Ok (Some s)
  | _ -> Error (Printf.sprintf "field %S must be a string" name)

let field_number j name =
  match Json.member name j with
  | Json.Null -> Ok None
  | Json.Number n -> Ok (Some n)
  | _ -> Error (Printf.sprintf "field %S must be a number" name)

let field_bool j name =
  match Json.member name j with
  | Json.Null -> Ok None
  | Json.Bool b -> Ok (Some b)
  | _ -> Error (Printf.sprintf "field %S must be a boolean" name)

let field_int j name ~default =
  let* n = field_number j name in
  match n with
  | None -> Ok default
  | Some n ->
      if Float.is_finite n && Float.of_int (Float.to_int n) = n then Ok (Float.to_int n)
      else Error (Printf.sprintf "field %S must be an integer" name)

let request_of_json j =
  match j with
  | Json.Object _ ->
      let* id = field_string j "id" in
      let id = Option.value ~default:"" id in
      let* inline = field_string j "egraph" in
      let* instance = field_string j "instance" in
      let* source =
        match (inline, instance) with
        | Some text, None -> Ok (Inline text)
        | None, Some name when name <> "" -> Ok (Instance name)
        | None, Some _ -> Error "field \"instance\" must name a bundled instance"
        | Some _, Some _ -> Error "give either \"egraph\" or \"instance\", not both"
        | None, None -> Error "request needs an \"egraph\" (inline text) or \"instance\" field"
      in
      let* meth = field_string j "method" in
      let* method_ =
        match meth with
        | None -> Ok Smoothe
        | Some name -> (
            match method_of_name name with
            | Some m -> Ok m
            | None -> Error (Printf.sprintf "unknown method %S" name))
      in
      let* budget = field_number j "budget" in
      let* budget =
        match budget with
        | None -> Ok None
        | Some b ->
            let* b = positive_float ~what:"budget" b in
            Ok (Some b)
      in
      let* deadline_ms = field_number j "deadline_ms" in
      let* deadline_ms =
        match deadline_ms with
        | None -> Ok None
        | Some d ->
            let* d = positive_float ~what:"deadline_ms" d in
            Ok (Some d)
      in
      let* seed = field_int j "seed" ~default:default_request.seed in
      let* batch = field_int j "batch" ~default:default_request.batch in
      let* batch = positive_int ~what:"batch" batch in
      let* iters = field_int j "iters" ~default:default_request.iters in
      let* iters = positive_int ~what:"iters" iters in
      let* lambda_ = field_number j "lambda" in
      let* lambda_ =
        non_negative_float ~what:"lambda" (Option.value ~default:default_request.lambda_ lambda_)
      in
      let* costs =
        match Json.member "costs" j with
        | Json.Null -> Ok None
        | Json.Array items ->
            let* cs =
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  match item with
                  | Json.Number n when Float.is_finite n -> Ok (n :: acc)
                  | Json.Number n ->
                      Error (Printf.sprintf "cost override %g is not finite" n)
                  | _ -> Error "field \"costs\" must be an array of numbers")
                (Ok []) items
            in
            Ok (Some (Array.of_list (List.rev cs)))
        | _ -> Error "field \"costs\" must be an array of numbers"
      in
      let* fault_plan = field_string j "fault_plan" in
      let fault_plan = Option.value ~default:"" fault_plan in
      let* () =
        if fault_plan = "" then Ok ()
        else
          match Fault_plan.of_string fault_plan with
          | _ -> Ok ()
          | exception Invalid_argument msg -> Error msg
      in
      let* use_cache = field_bool j "cache" in
      let use_cache = Option.value ~default:true use_cache in
      Ok
        {
          id;
          source;
          method_;
          budget;
          deadline_ms;
          seed;
          batch;
          iters;
          lambda_;
          costs;
          fault_plan;
          use_cache;
        }
  | _ -> Error "request frame must be a JSON object"

let response_to_json r =
  let common =
    [
      ("id", Json.String r.resp_id);
      ("elapsed_ms", Json.Number r.elapsed_ms);
      ("queue_ms", Json.Number r.queue_ms);
    ]
  in
  match r.body with
  | Ok ok ->
      Json.Object
        (("status", Json.String "ok") :: common
        @ [
            ("cost", Json.Number ok.cost);
            ("valid", Json.Bool ok.valid);
            ("iterations", Json.Number (float_of_int ok.iterations));
            ("cache_hit", Json.Bool ok.cache_hit);
            ("health", Json.String ok.health);
            ( "choices",
              Json.Array
                (List.map
                   (fun (c, n) ->
                     Json.Array
                       [ Json.Number (float_of_int c); Json.Number (float_of_int n) ])
                   ok.choices) );
          ])
  | Error err ->
      Json.Object
        (("status", Json.String "error") :: common
        @ [
            ("code", Json.String (error_code_name err.code));
            ("message", Json.String err.message);
          ]
        @
        match err.retry_after_ms with
        | None -> []
        | Some ms -> [ ("retry_after_ms", Json.Number ms) ])

let response_of_json j =
  match j with
  | Json.Object _ -> (
      let* status = field_string j "status" in
      let* id = field_string j "id" in
      let resp_id = Option.value ~default:"" id in
      let* elapsed_ms = field_number j "elapsed_ms" in
      let elapsed_ms = Option.value ~default:0.0 elapsed_ms in
      let* queue_ms = field_number j "queue_ms" in
      let queue_ms = Option.value ~default:0.0 queue_ms in
      match status with
      | Some "ok" ->
          let* cost = field_number j "cost" in
          let* valid = field_bool j "valid" in
          let* iterations = field_int j "iterations" ~default:0 in
          let* cache_hit = field_bool j "cache_hit" in
          let* health = field_string j "health" in
          let* choices =
            match Json.member "choices" j with
            | Json.Null -> Ok []
            | Json.Array items ->
                List.fold_left
                  (fun acc item ->
                    let* acc = acc in
                    match item with
                    | Json.Array [ Json.Number c; Json.Number n ] ->
                        Ok ((Float.to_int c, Float.to_int n) :: acc)
                    | _ -> Error "choices entries must be [class, node] pairs")
                  (Ok []) items
                |> Result.map List.rev
            | _ -> Error "field \"choices\" must be an array"
          in
          Ok
            {
              resp_id;
              elapsed_ms;
              queue_ms;
              body =
                Ok
                  {
                    cost = Option.value ~default:infinity cost;
                    valid = Option.value ~default:false valid;
                    choices;
                    iterations;
                    cache_hit = Option.value ~default:false cache_hit;
                    health = Option.value ~default:"" health;
                  };
            }
      | Some "error" ->
          let* code_name = field_string j "code" in
          let* code =
            match Option.bind code_name error_code_of_name with
            | Some c -> Ok c
            | None -> Error "error response carries no known \"code\""
          in
          let* message = field_string j "message" in
          let* retry_after_ms = field_number j "retry_after_ms" in
          Ok
            {
              resp_id;
              elapsed_ms;
              queue_ms;
              body =
                Error
                  { code; message = Option.value ~default:"" message; retry_after_ms };
            }
      | Some other -> Error (Printf.sprintf "unknown response status %S" other)
      | None -> Error "response frame has no \"status\" field")
  | _ -> Error "response frame must be a JSON object"
