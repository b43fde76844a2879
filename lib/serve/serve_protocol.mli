(** Wire protocol of the extraction service.

    One request or response per line, each a single JSON object —
    line-framed JSON over a Unix socket. The codec is strict on the
    way in ({!request_of_json} validates every field and reports a
    one-line reason instead of admitting garbage into the runtime) and
    total on the way out (every response, including every failure
    mode, serialises to a well-formed frame).

    {2 Error codes}

    - [bad_request] — the frame failed validation; never admitted.
    - [overloaded] — the admission queue is full; the response carries
      [retry_after_ms], the client should back off and retry.
    - [draining] — the daemon is shutting down and refuses new work.
    - [deadline_expired] — the request's overall deadline passed before
      (or while) it could run.
    - [crashed] — the supervised run failed on every retry attempt;
      the daemon itself survives.
    - [internal] — an unexpected server-side failure.
    - [timeout] — the connection sat idle (or dribbled bytes) past the
      per-connection read deadline; the server answers once and closes.
    - [frame_too_long] — a request line exceeded the frame-length cap;
      the server answers once and closes. *)

type method_ = Smoothe | Greedy | Greedy_dag

val method_name : method_ -> string
val method_of_name : string -> method_ option

type source =
  | Inline of string  (** a native-text serialized e-graph ({!Egraph.Serial}) *)
  | Instance of string  (** a bundled registry instance name *)

type request = {
  id : string;
  source : source;
  method_ : method_;
  budget : float option;  (** compute seconds; [None] = daemon default *)
  deadline_ms : float option;
      (** overall deadline including queue wait; [None] = none *)
  seed : int;
  batch : int;
  iters : int;
  lambda_ : float;
  costs : float array option;  (** per-node cost override *)
  fault_plan : string;  (** test-only deterministic faults; [""] = none *)
  use_cache : bool;
}

val default_request : request
(** [Instance ""] source; fill in at least {!field-source}. *)

type error_code =
  | Bad_request
  | Overloaded
  | Draining
  | Deadline_expired
  | Crashed
  | Internal
  | Timed_out  (** per-connection read deadline expired mid-frame *)
  | Frame_too_long  (** request line exceeded the frame-length cap *)

val error_code_name : error_code -> string
val error_code_of_name : string -> error_code option

type ok_body = {
  cost : float;
  valid : bool;
  choices : (int * int) list;  (** selected (e-class, e-node) pairs *)
  iterations : int;
  cache_hit : bool;
  health : string;  (** {!Health.summary} of the request-scoped log *)
}

type error_body = {
  code : error_code;
  message : string;
  retry_after_ms : float option;  (** only on [Overloaded] *)
}

type response = {
  resp_id : string;
  elapsed_ms : float;  (** execution wall-clock *)
  queue_ms : float;  (** admission-to-dequeue wait *)
  body : (ok_body, error_body) result;
}

val error_response :
  ?queue_ms:float -> ?retry_after_ms:float -> id:string -> error_code -> string -> response

(** {1 Validation}

    Shared by the JSON decoder and the CLI flag parsers, so the
    extract, serve and request subcommands reject bad
    budgets/deadlines/limits with the same one-line messages the
    daemon would. *)

val positive_float : what:string -> float -> (float, string) result
(** Rejects zero, negative, NaN and infinite values. *)

val positive_int : what:string -> int -> (int, string) result
(** Rejects zero and negative values. *)

val non_negative_int : what:string -> int -> (int, string) result
(** Rejects negative values. *)

val non_negative_float : what:string -> float -> (float, string) result
(** Rejects negative, NaN and infinite values: the rule for λ. *)

(** {1 Codec} *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t

val response_of_json : Json.t -> (response, string) result
(** Used by the client and the test harness; tolerates unknown extra
    fields but rejects frames without a parseable status. *)
