(** Plan-level dataflow analysis over the autodiff op-graph IR.

    Before {!Plan.compile} is allowed to replay an iteration over a
    shared buffer arena, this pass proves the reuse sound — and computes
    the arena itself. It builds def-use chains for every value and
    adjoint buffer, runs forward+backward liveness over the combined
    timeline (forward of node [i] at step [i], its backward pull at step
    [2n-1-i], using the values each op's backward reads per {!Op} and
    the adjoints {!Plan.buffers} materialises), derives fusion chains of
    adjacent unary elementwise ops, and assigns buffers to arena slots
    by greedy interval-graph colouring within exact-size classes. The assignment is then re-verified
    independently (overlap check plus a read-time simulation) rather
    than trusted.

    Codes (full table in DESIGN.md):
    - [PL001] error: arena maps two overlapping live ranges to one slot
    - [PL002] error: an op reads an operand after its arena slot was
      overwritten by a later tenant (read-time simulation)
    - [PL003] error: a [param]/[const] leaf or pinned buffer is aliased
      by a temporary (assigned to an arena slot)
    - [PL004] info: fusable elementwise run found (fused by the plan)
    - [PL005] info: fusion of an adjacent elementwise pair blocked by an
      interior use (extra consumer, output/root/requested-gradient
      pinning — segment-op consumers are named with their segment count)
    - [PL006] error: iteration-2 IR differs from iteration-1 (length, or
      op, args, shape or context at the first divergent node) — replay
      must fall back to interpreted mode
    - [PL007] error: only an op's payload changed between captures (any
      gather index, scalar constant, coefficient, segmentation, pin or
      scatter entry; {!Op.equal}) *)

(** Live range of one buffer on the combined timeline [0, 2n):
    [lo] = first write, [hi] = last read. [pinned] buffers (leaves,
    outputs, the root and requested gradients) never enter the arena. *)
type interval = { lo : int; hi : int; numel : int; pinned : bool }

type report = {
  nodes : int;
  root : int;
  chains : int array array;  (** fusable runs, each [c1; ...; ck] *)
  intervals : interval option array;
      (** length [2 * nodes]: entry [i] is node [i]'s value buffer,
          entry [nodes + i] its gradient buffer; [None] when the plan
          materialises no such buffer (leaves alias their capture,
          chain interiors are fused away) *)
  reads : int list array;
      (** per buffer, every timeline step that reads it (gradient
          accumulations count as reads) — drives the PL002 simulation *)
  slot_sizes : int array;  (** element count of each arena slot *)
  assign : int array;  (** per buffer: slot index or [-1] (dedicated) *)
  arena_bytes : int;  (** peak shared-arena footprint *)
  dedicated_bytes : int;  (** pinned buffers the plan allocates once *)
  naive_bytes : int;
      (** what the interpreter allocates per iteration: every non-leaf
          value plus every adjoint its sweep materialises *)
  diags : Diagnostic.t list;
}

val analyze : ?grads:int array -> root:int -> outputs:int array -> Ad.Ir.t -> report
(** Full analysis of one captured IR. [root] is the loss node,
    [outputs] the nodes whose values the caller reads after the forward
    pass, [grads] the nodes whose gradients it reads after the sweep
    (all pinned out of the arena). The returned arena plan has already
    passed {!verify_arena}; any PL001–PL003 finding in [diags] means
    the analysis refused its own assignment (a bug guard). *)

val verify_arena :
  report -> slot_sizes:int array -> assign:int array -> Diagnostic.t list
(** Check an arbitrary slot assignment against the report's live
    ranges: PL001 overlap, PL002 read-after-overwrite simulation,
    PL003 leaf/pinned aliasing, plus slot-size mismatches. Used by the
    analysis on its own output and by property tests on mutated
    assignments. *)

val stability : Ad.Ir.t -> Ad.Ir.t -> Diagnostic.t list
(** {!Plan.divergence} of two consecutive captures, rendered: PL006 on
    a length, op, args, shape or context divergence, PL007 on a
    payload-only change. Empty when the IR is iteration-stable. *)

val arena_spec : report -> Plan.arena_spec
(** The verified assignment in the form {!Plan.compile} consumes. *)

val plan_chains : report -> int array array
(** The fusion chains in the form {!Plan.compile} consumes. *)
