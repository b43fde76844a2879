(** Global observability switch.

    The whole observability layer — {!Trace} spans and {!Metrics}
    updates — is gated on one flag. With it off (the default) every
    hook degenerates to a branch on a [bool ref], no timestamps are
    read and nothing is allocated, so an instrumented build behaves
    bit-identically to an uninstrumented one. Turning it on records
    spans and metric updates into in-memory stores that the CLI, bench
    harness and tests export. *)

val on : bool ref
(** The raw flag, for hot paths: [if !Obs.on then ...]. Prefer the
    functions below everywhere else.

    Domain discipline: the flag is a plain [ref] on purpose (an
    [Atomic] read per tensor op would defeat the point of the gate).
    Flip it only while no pool tasks are in flight — the harness
    turns it on before fanning out and restores it after the
    join; workers treat it as read-only. *)

val enable : unit -> unit
val disable : unit -> unit

val with_enabled : (unit -> 'a) -> 'a
(** Run a thunk with the flag on, restoring its previous value
    afterwards (also on exceptions). *)
