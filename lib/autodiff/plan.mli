(** Static replay plans for captured tapes — the reproduction's stand-in
    for CUDA-graph capture over the SmoothE iteration.

    The interpreter ({!Ad}) rebuilds its tape and allocates every
    intermediate tensor on each optimisation iteration. When two
    consecutive iterations record the *same* IR (checked by {!stable}),
    the graph is static and {!compile} turns it into a fixed schedule of
    kernel closures over preallocated buffers: {!run_forward} /
    {!run_backward} then replay iterations with zero tape construction
    and zero tensor allocation, bit-identical to the interpreter.

    Buffer placement is supplied from outside as an {!arena_spec}
    (computed — and independently verified — by the plan-level dataflow
    analysis in [lib/analysis/plan_check]); without one, every buffer is
    dedicated, which is always safe. Fusion [chains] of elementwise ops
    likewise come from the analysis; the compiled jam reproduces the
    interpreter's per-stage rounding (including its literal [+. 0.0]
    zero-initialised accumulations) so fused runs stay bit-identical.

    Replay requires the [Vectorized] backend: the [Scalar] execution
    model deliberately routes every element access through an
    interpreter-style indirect call, and a compiled plan would not model
    that baseline honestly. {!compile} returns [Error] under [Scalar]. *)

(** {1 Capture} *)

type capture = {
  ir : Ad.Ir.t;  (** the ops, with their payloads *)
  vals : Tensor.t array;  (** per-node forward values (leaves are aliased) *)
  root : int;  (** node the backward sweep seeds *)
}

val capture : Ad.tape -> root:Ad.v -> capture
(** Snapshot a finished forward pass. Leaf tensors are captured by
    reference: a [param] updated in place by an optimiser is seen by
    subsequent replays, exactly as the interpreter would. *)

type divergence = {
  at : int option;  (** first divergent node; [None] when the lengths differ *)
  payload : bool;  (** only the op's payload changed ({!Op.equal}) *)
  what : string;
}

val divergence : Ad.Ir.t -> Ad.Ir.t -> divergence option
(** The one IR comparator: the first node where two captures differ in
    op, operands, shape, context or payload. Rendered as PL006/PL007 by
    the plan analysis. *)

val stable : capture -> capture -> (unit, string) result
(** {!divergence}, plus the capture-level checks: the root did not move,
    [param] leaves are physically the same tensor and [const] leaves
    are bitwise-equal ({!Tensor.bits_equal}). [Error] carries the first
    divergence. *)

(** {1 Gradient materialisation}

    Which adjoints a replay writes, decided once for {!compile} and for
    the liveness of the [plan_check] analysis. *)

type flow = {
  consumers : int list array;  (** per node, its consumers, descending *)
  is_output : bool array;  (** the outputs and the root *)
  requested : bool array;  (** gradients the caller reads *)
  feeds_root : bool array;  (** the backward sweep reaches this adjoint *)
  carries : bool array;
      (** the subtree holds a param or requested gradient: its adjoint is
          observable *)
}

val flow : Ad.Ir.t -> root:int -> outputs:int array -> grads:int array -> flow
(** Out-of-range [outputs] and [grads] are ignored. *)

type buffers = {
  interior : bool array;  (** fused away inside a chain *)
  grad_mat : bool array;  (** the sweep writes this adjoint and someone reads it *)
  has_gbuf : bool array;  (** materialised, or requested *)
}

val buffers : flow -> root:int -> chains:int array array -> buffers

(** {1 Compilation} *)

type arena_spec = {
  slot_sizes : int array;  (** element count of each shared buffer *)
  assign : int array;
      (** length [2n]: buffer [i < n] is node [i]'s value, buffer
          [n + i] its gradient; entry = slot index or [-1] for a
          dedicated buffer. Assigned buffers must match their slot's
          size exactly; leaves, outputs, the root gradient and
          requested gradients must be [-1]. *)
}

type stats = {
  nodes : int;
  steps_forward : int;
  steps_backward : int;
  arena_bytes : int;  (** bytes of shared arena storage *)
  dedicated_bytes : int;  (** bytes of per-buffer dedicated storage *)
  chains : int;  (** fused elementwise chains *)
  fused_nodes : int;  (** nodes covered by those chains *)
}

type t

val compile :
  ?arena:arena_spec ->
  ?chains:int array array ->
  outputs:int array ->
  grads:int array ->
  capture ->
  (t, string) result
(** Compile a capture into a static schedule. [outputs] are node ids
    whose values the caller reads after {!run_forward} (the capture
    root is implicitly one); [grads] are node ids whose gradients the
    caller reads after {!run_backward} — all are pinned out of the
    arena. [chains] lists fusion runs [c1; ...; ck] (each node consumed
    only by the next, all {!Op.fusable}); invalid chains, arena shape
    violations and the [Scalar] backend all yield [Error]. Every op
    runs through its {!Op} kernels. *)

val stats : t -> stats

(** {1 Replay} *)

val run_forward : t -> unit
(** Execute the forward schedule. Allocates no tensor; each step's
    kernel reads and writes flat arrays without boxing, so the minor
    heap sees only per-step closures and metric updates. *)

val run_backward : t -> unit
(** Seed the root gradient and execute the backward schedule (gradient
    buffers are re-zeroed exactly where the interpreter's lazy zero
    materialisation would). Must follow {!run_forward}. Allocates as
    little as {!run_forward}. *)

val replay_words_per_step : float
(** [32.], the minor-heap budget of one replayed iteration divided by
    its step count ([steps_forward + steps_backward]) — the allocation
    gate of [bench replay] and the plan tests. A kernel boxing one
    float per element reads in the thousands. *)

val value : t -> int -> Tensor.t
(** Buffer holding node [i]'s value after {!run_forward}.
    @raise Invalid_argument for chain-interior nodes (fused away). *)

val grad_of : t -> int -> Tensor.t
(** Buffer holding node [i]'s gradient after {!run_backward}.
    @raise Invalid_argument if the plan materialises no gradient for
    [i] — pass it in [grads] at compile time to pin one. *)
