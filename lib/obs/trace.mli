(** Hierarchical wall-clock spans and instant events.

    Spans nest lexically ([with_span] inside [with_span]); each
    completed span records its name, category, depth, the full
    semicolon-joined stack path, its start time and duration (all
    read from {!Timer.now}, so injected clock skew is visible in the
    trace), and a list of string attributes. Instant events mark a
    point in time — {!Health} re-emits every health event as one, so
    faults, NaN recoveries and OOM derates show up on the timeline in
    context.

    Everything is a no-op while {!Obs} is disabled. The store is
    global and domain-safe: pushes are serialised by a lock, and the
    open-span stack is per-domain ({!Domain.DLS}), so spans recorded
    on a pool worker nest among themselves rather than grafting onto
    whatever the submitting domain has open. A pool task runs under
    {!capturing}, which collects its events in a domain-local buffer;
    the pool {!absorb}s the buffers in task order at the join, so an
    enabled sink sees the same event sequence at any pool size.

    Two export formats:
    - Chrome [trace_event] JSON (an object with a ["traceEvents"]
      array of ["ph":"X"] complete events and ["ph":"i"] instants),
      loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto};
    - folded-stack lines (["a;b;c <self-time-in-us>"]) consumable by
      [flamegraph.pl] and speedscope. *)

type span = {
  name : string;
  cat : string;
  path : string;  (** semicolon-joined ancestor names, ending in [name] *)
  depth : int;  (** 0 for a root span *)
  ts : float;  (** start, absolute seconds ({!Timer.now}) *)
  dur : float;  (** seconds *)
  args : (string * string) list;
}

type instant = {
  i_name : string;
  i_cat : string;
  i_ts : float;
  i_args : (string * string) list;
}

type event = Span of span | Instant of instant

val with_span : ?cat:string -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. The span is recorded when the thunk
    returns or raises; nesting depth is restored either way. With the
    sink disabled this is exactly [f ()]. *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit

val reset : unit -> unit
(** Drop all recorded events. Open spans (on the stack right now) are
    unaffected: they record against the fresh store when they close. *)

val open_depth : unit -> int
(** Number of spans currently open on {e this domain} — 0 whenever no
    [with_span] is on the call stack, however the enclosing code
    exited. *)

(** {1 Per-domain capture (the pool's merge-on-join hook)} *)

val capturing : (unit -> 'a) -> 'a * event list
(** [capturing f] runs [f] with a fresh domain-local event buffer and
    an empty span stack, restoring both afterwards (also on raise),
    and returns the events [f] recorded, in completion order. Events
    of a nested [capturing] that were {!absorb}ed land in the
    enclosing buffer. On an exception the buffered events are
    dropped with the task. *)

val absorb : event list -> unit
(** Append previously captured events to the current sink: the global
    store, or the enclosing capture buffer if one is installed. *)

(** {1 Inspection} *)

val events : unit -> event list
(** In completion order (children before parents, instants at their
    emission point). *)

val spans : unit -> span list

val span_totals : unit -> (string * int * float) list
(** Per span {e name}: (name, count, total seconds), sorted by name —
    the per-phase breakdown the bench harness prints. *)

val span_totals_of : event list -> (string * int * float) list
(** {!span_totals} over an explicit event list — e.g. the capture of a
    single pool task — instead of the global store. *)

(** {1 Export} *)

val to_chrome : unit -> Json.t
(** Chrome trace_event JSON. Timestamps are microseconds rebased to
    the earliest recorded event. *)

val to_folded : unit -> string
(** Folded-stack lines with integer microsecond self-times. *)

val write_file : string -> unit
(** Write the trace: a path ending in [.folded] gets folded stacks,
    anything else Chrome JSON. The write is atomic (tmp + rename, via
    {!Fsio.write_atomic}) so a crash mid-export never leaves a
    truncated trace behind. *)
