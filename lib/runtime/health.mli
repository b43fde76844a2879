(** Structured health events for the supervised extraction runtime.

    Every recoverable incident — an injected fault, a NaN caught before
    it reaches the incumbent, an OOM derating step, a member timeout or
    crash — is recorded as a typed event instead of surfacing as an
    exception or a silent flag. Runs and portfolio outcomes carry their
    event list so callers (CLI [--health-report], bench tables, tests)
    can tell a clean run from a degraded one. *)

type kind =
  | Fault_injected  (** an installed fault actually fired *)
  | Nan_detected  (** non-finite loss or gradient caught by a guard *)
  | Recovery  (** Adam reset / learning-rate backoff / re-seed applied *)
  | Oom_derate  (** a configuration step down the OOM derating ladder *)
  | Timeout  (** a member exhausted its deadline *)
  | Member_failed  (** a member raised; captured, not propagated *)
  | Budget_reallocated  (** unused budget redistributed to later members *)
  | Degraded  (** a component gave up recovering and kept its incumbent *)
  | Checkpoint_corrupt
      (** a checkpoint failed its checksum / framing check (torn write,
          bit rot, fingerprint mismatch) and was skipped in favour of an
          older generation or a fresh start *)
  | Resumed  (** a run was warm-started from a checkpoint snapshot *)
  | Preflight
      (** a static pre-flight analysis finding (e-graph lint) surfaced
          before the first iteration; detail carries the rendered
          diagnostic *)
  | Plan
      (** the SmoothE loop's static plan armed ([plan armed: …]) or was
          disabled ([plan disabled: …]), together with the plan-analysis
          diagnostics that caused a disable *)
  | Journal_torn
      (** a request-journal frame failed its checksum / framing check
          (torn append, bit rot) and was dropped on the startup scan *)
  | Replayed
      (** an incomplete journaled request was re-offered through
          admission after a restart *)
  | Watchdog_restart
      (** the watchdog observed an abnormal daemon exit and is
          restarting it after backoff *)
  | Crash_loop
      (** the watchdog's crash-loop breaker tripped (too many abnormal
          exits within the window) and it gave up restarting *)
  | Warm_start_rejected
      (** a warm-start point handed to a solver failed feasibility or
          integrality validation and was ignored rather than allowed to
          poison pruning *)

type event = {
  at : float;  (** seconds since the log was created *)
  member : string;  (** which extractor / component reported it *)
  kind : kind;
  detail : string;
}

type log
(** A mutable, append-only event collector. *)

val create : unit -> log

val record : log -> member:string -> kind -> string -> unit

val add : log -> event -> unit
(** Append a pre-stamped event (used when merging logs). *)

val merge : into:log -> log -> unit
(** Append all of the source's events, rebasing each [at] onto the
    destination log's creation time so the merged timeline is
    consistent. *)

val events : log -> event list
(** Chronological. *)

val is_empty : log -> bool

val count : ?member:string -> log -> kind -> int

val recoveries : log -> int
(** Recovery + OOM-derate events: "how many times did the runtime save
    this run". Surfaced by [Runbank] so bench tables can annotate
    degraded runs. *)

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}; [None] on unknown names. Used by the
    checkpoint codec, which persists kinds by name so the on-disk
    format survives constructor reordering. *)

val pp_event : Format.formatter -> event -> unit

val pp : Format.formatter -> log -> unit

val summary : log -> string
(** One line, e.g. ["nan-detected=2 recovery=2"]; ["healthy"] when
    empty. *)
