(** Reverse-mode automatic differentiation over batched tensors.

    This is the reproduction's stand-in for PyTorch autograd. SmoothE
    (§3) needs gradients of a scalar loss — cost model plus NOTEARS
    acyclicity penalty — with respect to the free e-node logits θ,
    through segment softmax, the probability propagation φ of
    Eq. (5)–(7) (one sweep, one tape node), MLP cost models, and the
    matrix exponential of Eq. (8).

    Usage: allocate a {!tape}, lift inputs with {!const}/{!param}, build
    the loss with the operators below, call {!backward} on the scalar
    output, then read gradients of parameters with {!grad}. The tape is
    single-use: one forward/backward pair per tape; a second {!backward}
    on the same tape raises [Invalid_argument].

    Every operator is one {!Op.t} applied to its operands: the value
    comes from [Op.forward], and the sweep calls [Op.backward] on each
    node — the kernels [Plan] replays — so a pull allocates no
    temporaries beyond the scratch its op declares ([propagate]'s
    adjoint accumulators, the matmul intermediates of [linear] and
    [expm_trace]). An operand whose shape breaks the op's shape rule
    raises [Invalid_argument] naming the op.

    The tape also yields a lightweight op-graph {!Ir} — op, operand
    ids, output shape and ambient {!with_context} label per node. The
    IR is plain data with no tensors or closures; the static analyses
    in [lib/analysis] run over it without executing any kernel. *)

(** Side-effect-free op-graph of a tape. Node [i] of the IR describes
    tape node [i]; [args] are indices of earlier nodes. *)
module Ir : sig
  type node = {
    op : Op.t;  (** the op with its payload *)
    args : int array;
    shape : Op.shape;  (** shape the op actually produced *)
    context : string;
        (** full {!with_context} provenance chain at build time,
            outermost→innermost, joined with ["/"]
            (e.g. ["smoothe.forward/cost_model.relaxed"]);
            ["(toplevel)"] outside any region *)
  }

  type t = node array
end

type tape
type v

val tape : unit -> tape
val node_count : tape -> int

val ir : tape -> Ir.t
(** Snapshot of the op-graph recorded so far (index [i] = tape node [i]). *)

val values : tape -> Tensor.t array
(** Per-node forward values, parallel to {!ir} — what a plan capture
    aliases for [const]/[param] leaves. *)

val node_id : v -> int
(** This node's position on its tape — its index into {!ir}. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context label f] runs [f] with [label] pushed onto the
    provenance chain recorded into every node built inside (restored
    afterwards, also on exceptions). Nested calls stack: diagnostics
    render the whole chain outermost→innermost. *)

val value : v -> Tensor.t
(** Forward value of a node. *)

val grad : v -> Tensor.t
(** Accumulated adjoint. Zero tensor if the node never received
    gradient.
    @raise Invalid_argument if this node's tape has not been swept by
    {!backward} — in particular when the node belongs to a different
    tape than the one swept, which would otherwise silently read as
    zeros. *)

val const : tape -> Tensor.t -> v
(** A node that blocks gradient flow (inputs, fixed cost vectors). *)

val param : tape -> Tensor.t -> v
(** A differentiable leaf. The tensor is captured by reference so an
    optimiser can update it between iterations. *)

val backward : v -> unit
(** Seeds the given node with an all-ones adjoint and sweeps the tape in
    reverse. The node is normally the (1,1) scalar loss; seeding a
    wider node differentiates the *sum* of its entries.
    @raise Invalid_argument if this tape was already swept — tapes are
    single-use, one forward/backward pair each. Cross-tape operand
    mixing is rejected earlier, at node construction: every operator
    raises [Invalid_argument] when an operand belongs to a different
    tape than the one being built on. *)

(** {1 Pointwise} *)

val add : v -> v -> v
val sub : v -> v -> v
val mul : v -> v -> v
val scale : float -> v -> v
val add_scalar : float -> v -> v
val relu : v -> v

val log_safe : v -> v
(** Natural log clamped below at {!Tensor.log_floor} (value and
    gradient) — used by the entropy regulariser over conditional
    probabilities. *)

(** {1 Structure ops} *)

val gather : v -> int array -> v
(** Column gather; adjoint is scatter-add. *)

val segment_softmax : v -> Segments.t -> v
(** Per-segment softmax (Eq. 3b): θ logits → conditional probabilities. *)

val propagate : v -> Propagation.schedule -> v
(** [propagate cp s] is the (B,N) marginals p of Eq. (5)–(7) from the
    (B,N) conditional probabilities, in one sweep over the classes;
    {!Op.Propagate} states its subgradients. *)

val mean_rows : v -> v
(** (B,N) → (1,N) batch mean — the batched matrix-exponential
    approximation of Eq. (11) averages seed adjacencies this way. *)

val slice_row : v -> int -> v
(** (B,N) → (1,N) view of one batch row (copy; adjoint scatters back). *)

(** {1 Reductions} *)

val sum_all : v -> v
(** (B,N) → (1,1). *)

val dot_const : v -> float array -> v
(** [dot_const p u] is the per-seed linear cost [uᵀ p] : (B,N) → (B,1). *)

val mean_all : v -> v

(** {1 Neural-network ops} *)

val linear : input:v -> weight:v -> bias:v -> v
(** [linear ~input ~weight ~bias] with input (B,N), weight (H,N) stored
    row-per-output-neuron, bias (1,H) → (B,H). *)

val mse : pred:v -> target:v -> v
(** Mean squared error, a (1,1) scalar. *)

(** {1 Matrix ops} *)

val matrix_of_entries : v -> dim:int -> (int * int * int) array -> v
(** [matrix_of_entries cp ~dim entries] scatter-adds the (1,N) input into
    a dim×dim matrix: entry [(col, i, j)] adds [cp.(col)] to [A[i,j]].
    Builds the SCC-restricted transition matrix A_t of §3.4 where
    [A_t[i,j] = Σ cp_k] over e-nodes k in class i with child class j. *)

val expm_trace : v -> v
(** [expm_trace a] is [tr(e^A)] as a (1,1) scalar. The adjoint uses the
    analytic identity d tr(e^A)/dA = (e^A)ᵀ, so the backward pass costs
    one transpose of the already-computed exponential. *)

(** {1 Utilities} *)

val finite_difference :
  f:(Tensor.t -> float) -> x:Tensor.t -> eps:float -> Tensor.t
(** Central-difference gradient estimate of a scalar function, used by
    the test-suite to validate every analytic adjoint above. *)
