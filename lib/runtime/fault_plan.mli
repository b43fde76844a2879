(** Deterministic fault injection for the extraction runtime.

    A fault plan describes failures to replay against a run so every
    recovery path in {!Supervisor}, [Smoothe_extract] and [Portfolio] is
    testable without flaky real-world triggers. Plans are deterministic:
    installing the same plan twice replays the same faults at the same
    points.

    The plan is ambient (installed, not threaded): the instrumented
    subsystems — the SmoothE iteration step, the device memory model,
    the LP inner loop, the supervisor's deadline arming — query it
    through the hooks below, which all answer "no fault" when nothing is
    installed, so the fault-free path costs one list lookup. *)

type fault =
  | Nan_grad of int
      (** Poison the θ gradient of the [k]-th SmoothE iteration (1-based,
          counting iterations that run a backward pass) after
          installation, whichever executor computed it. *)
  | Mem_pressure of float
      (** Multiply every device footprint by this factor (> 1 shrinks
          the effective memory), simulating external memory pressure. *)
  | Solver_stall
      (** LP phases make no progress and burn their whole deadline, the
          classic pathological-simplex / stuck-solver failure. *)
  | Clock_skew of float
      (** The wall clock jumps forward by this many seconds the first
          time a supervised member arms its deadline. *)
  | Crash_at of int
      (** Raise {!Injected_crash} when the instrumented loop first
          reaches iteration [k] (1-based) — the mid-run kill that the
          checkpoint/resume path must survive. Fires at most once per
          installation, so a run resumed from a checkpoint replays past
          iteration [k] without crashing again. *)
  | Torn_write
      (** The next checkpoint write is truncated halfway — the classic
          power-loss torn write. The resulting file fails its checksum
          and the reader must fall back to the previous generation.
          Fires at most once per installation. *)
  | Torn_journal
      (** The next request-journal append is truncated halfway — a crash
          mid-append. The torn frame fails its checksum on the next
          startup scan and must be dropped without preventing recovery
          of every frame before it. Fires at most once per
          installation. *)
  | Crash_in_flight of int
      (** Raise {!Injected_crash} out of the serve engine's completion
          path once [k] requests have completed — the daemon-death
          analogue of [Crash_at]. Unlike per-request faults this
          escapes the per-request supervisor, killing the whole engine
          with requests still queued, which is exactly what the journal
          replay path must survive. Fires at most once per
          installation. *)

exception Injected_crash of int
(** Raised by {!crash_now}; carries the iteration at which it fired. *)

type t = fault list

val none : t
val is_none : t -> bool

val of_string : string -> t
(** Parse a comma-separated plan: ["nan@10,mem@8,stall,crash@25"].
    Accepted atoms: [nan@K], [mem@SCALE], [stall], [skew@SECONDS],
    [crash@K], [torn-write], [torn-journal], [crash-in-flight@K];
    empty string and ["none"] give {!none}.
    @raise Invalid_argument on malformed specs: unknown fault names,
    missing / non-numeric / non-positive / non-finite arguments
    (e.g. [nan@-1], [nan@2.5], [mem@0], [mem@inf]), arguments to
    faults that take none, and duplicate atoms of the same family. *)

val to_string : t -> string

(** {1 Ambient installation} *)

val install : t -> unit
(** Make [p] the active plan and reset the deterministic fault
    counters. Replaces any previously installed plan. *)

val clear : unit -> unit
(** Remove the active plan and undo ambient effects (clock skew). *)

val with_plan : t -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] installed, clearing it afterwards
    even on exceptions. *)

val active : unit -> t

(** {1 Hooks for instrumented subsystems} *)

val on_backward : unit -> bool
(** Called by the SmoothE loop once per iteration that runs a backward
    pass; [true] means "poison this iteration's θ gradient with NaN". *)

val mem_pressure : unit -> float
(** Footprint multiplier for the device memory model; 1.0 when no
    memory fault is active. *)

val stall_active : unit -> bool

val stall_solver : Timer.deadline -> bool
(** Called by LP phases before iterating: under a stall fault, blocks
    until [deadline] expires and returns [true] ("report timeout");
    otherwise returns [false] immediately. A stall with no finite
    deadline does not block ({!Timer.sleep_until} returns at once), so
    an unsupervised call cannot hang forever. *)

val trigger_clock_skew : unit -> bool
(** Called by the supervisor after arming a member deadline; applies a
    pending clock-skew fault (once) and reports whether it fired. *)

val crash_now : iter:int -> unit
(** Called by the extraction loop at the top of each iteration; under a
    [crash@K] fault the first call with [iter >= K] records the
    injection and raises {!Injected_crash}. All other calls return
    normally. *)

val torn_write : unit -> bool
(** Called by the checkpoint writer before committing a file; [true]
    (at most once per installation) means "truncate this write halfway"
    to simulate a torn write. *)

val torn_journal : unit -> bool
(** Called by the request journal before appending a frame; [true] (at
    most once per installation) means "truncate this append halfway",
    simulating a crash mid-append. *)

val crash_in_flight : completed:int -> unit
(** Called by the serve engine after each request completion with the
    total completed count; under a [crash-in-flight@K] fault the first
    call with [completed >= K] records the injection and raises
    {!Injected_crash}, simulating the daemon dying with requests still
    queued. All other calls return normally. *)

(** {1 Injection records} *)

val record_injection : string -> unit
(** Note that a fault actually fired; instrumented subsystems call this
    so deep components need no access to a health log. *)

val drain_injections : unit -> string list
(** Return and clear the fired-fault notes, in firing order. The
    supervisor (or a standalone extractor) drains these into its
    {!Health} log. *)
