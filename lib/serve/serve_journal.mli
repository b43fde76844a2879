(** Durable write-ahead request journal for crash-only serving.

    The engine appends an [Admitted] frame before a request becomes
    visible to executors and a [Completed] frame when it is fulfilled;
    both are fsynced before the append returns. Opening a journal scans
    every existing generation, pairs admissions with completions, and
    exposes:

    - {!pending} — admitted-but-never-completed requests, in admission
      order: the work the previous process died holding. The engine
      replays them through the normal admission path.
    - {!warm} — (cache key, body) pairs from the newest completions:
      pre-warming the solution cache makes a replay or client retry of
      an already-answered request a cache hit, not a recomputation.

    {2 Frame format}

    Each record is one {!Frame} (magic ["SMJR"], version 2) whose
    payload is the record kind, then length-prefixed strings; request
    and body payloads reuse the wire JSON codec. Generation files are
    named by {!Frame.gen_path} with extension [jrnl].

    {2 Failure model}

    Appends are fsynced, so a crash leaves at worst a torn {e tail}:
    the file ends mid-frame. The startup scan walks frames from the
    start of each generation and stops at the first frame whose
    length, checksum or decode fails; intact frames before the tear
    are trusted, everything from it on is dropped and surfaced via
    {!torn}. A version-1 generation, whose frames carried the kind in
    the header, reads as torn at byte 0. Opening never fails on a torn
    file and a corrupted frame is never replayed.

    {2 Compaction}

    Every open starts a fresh generation and immediately writes the
    carried-forward state (warm completions, capped at
    [keep_completed], plus all pending admissions) into it, then
    deletes the older generations — so journal size is bounded by live
    state, not by history. *)

type t

type record =
  | Admitted of { rid : string; request : Serve_protocol.request }
  | Completed of {
      rid : string;
      key : string option;  (** solution-cache key, when the result is cacheable *)
      body : Serve_protocol.ok_body option;
    }

val open_ : ?keep_completed:int -> ?fsync:bool -> dir:string -> name:string -> unit -> t
(** Scan, compact, and open a fresh generation for appending.
    [keep_completed] (default 256) caps how many warm completions are
    carried forward; [fsync] (default [true]) may be disabled only for
    benchmark baselines. @raise Invalid_argument on a bad name or
    negative cap; I/O errors propagate. *)

val append_admitted : t -> rid:string -> Serve_protocol.request -> unit
(** Durably record that [rid] was admitted. Must happen before the
    request is visible to executors. Honors a [torn-journal] fault
    plan by truncating the append halfway (test only). *)

val append_completed :
  t -> rid:string -> ?key:string -> ?body:Serve_protocol.ok_body -> unit -> unit
(** Durably record that [rid] was answered. [key]/[body] are present
    only for cacheable successes and feed {!warm} on the next open. *)

val pending : t -> (string * Serve_protocol.request) list
(** Admitted-but-unanswered requests found at open, oldest first. *)

val warm : t -> (string * Serve_protocol.ok_body) list
(** Cache-warming pairs found at open, oldest first (so installing in
    order leaves the newest body in the cache on key collisions). *)

val torn : t -> (string * string) list
(** (file, reason) for every generation whose scan stopped early. *)

val appends : t -> int
val generation : t -> int

val file : t -> string
(** Path of the current (append) generation. *)

val close : t -> unit

(** {1 Low-level scan} — exposed for tests and tooling. *)

val scan_string : string -> record list * (int * string) option
(** Parse a raw journal file: the records of the intact prefix, plus
    the offset and reason of the first unreadable frame if the scan
    stopped early. Never raises. *)
