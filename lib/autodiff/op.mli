(** The autodiff ops, each defined once.

    One constructor per kind of tape node, carrying the exact payload
    its kernels need. Everything else about an op is a function of its
    constructor, defined here and nowhere else: its shape rule (with
    the [SC] codes {!Shape_check} reports), its forward and backward
    kernels staged over the [Tensor]/[Segments] kernels, which values
    its backward reads, and payload equality. The interpreter ({!Ad}),
    the plan compiler ({!Plan}) and the analyses in [lib/analysis] all
    derive from these functions, so an op has kernels, a shape rule and
    liveness facts by construction.

    Where an op is not differentiable, its doc comment states the
    subgradient its backward returns (the convention test_autodiff
    checks at constructed kinks, under both executors). *)

type shape = { batch : int; width : int }

val shape_to_string : shape -> string
(** ["(batch,width)"]. *)

type t =
  | Const  (** leaf that blocks gradient flow (inputs, fixed cost vectors) *)
  | Param  (** differentiable leaf *)
  | Add
  | Sub
  | Mul
  | One_minus
      (** [1 - x], the "not chosen" probability of Eq. (6). Smooth, with
          adjoint [-g]. It rounds as [1 + (-x)]: an exact negation, then
          one addition, so a NaN input's sign flips. *)
  | Scale of float
  | Add_scalar of float
  | Relu
      (** [max x 0]. At the kink the adjoint is 0: it passes [g] only
          where [x > 0], so [x = +0] and [x = -0] both give 0. *)
  | Log_safe
      (** [log (max x Tensor.log_floor)], floor 1e-12. At and below the
          floor the adjoint is [g / 1e-12 = 1e12 g], not 0: the clamp
          bounds the value, and the derivative is read at the floor. *)
  | Gather of int array  (** column gather; adjoint is scatter-add *)
  | Segment_softmax of Segments.t
      (** Per-segment softmax (Eq. 3b). Smooth, but a saturated segment
          (one output exactly 1, the rest exactly 0) gives an adjoint of
          exactly 0 for every element. *)
  | Segment_prod of Segments.t
      (** Per-segment product (Eq. 6). The adjoint of each element is
          the product of the others, computed without division, so a
          zero is exact: [x = [0; 2; 3]] gives [[6; 0; 0]]. *)
  | Segment_max of Segments.t
      (** Per-segment maximum (Eq. 7). On a tie the lowest index takes
          the whole adjoint and the others get 0; [-0] and [+0] tie. An
          empty segment yields 0 and passes no adjoint. *)
  | Override_columns of (int * float) array
      (** Pins each listed column to its constant across the batch. A
          pinned column's adjoint is exactly [+0] (a literal [+. 0.]
          turns a prior [-0] into [+0]). *)
  | Mean_rows  (** (B,N) → (1,N) batch mean (Eq. 11) *)
  | Slice_row of int  (** (B,N) → (1,N) copy of one row *)
  | Sum_all  (** (B,N) → (1,1) *)
  | Dot_const of float array  (** (B,N) → (B,1) per-row [uᵀ x] *)
  | Linear  (** input (B,N), weight (H,N), bias (1,H) → (B,H) *)
  | Matrix_of_entries of { dim : int; entries : (int * int * int) array }
      (** (1,N) → dim×dim scatter-add: entry [(col, i, j)] adds
          [x.(col)] to [A.(i, j)] (§3.4's A_t) *)
  | Expm_trace
      (** [tr(e^A)] as (1,1); adjoint [g · (e^A)ᵀ] *)

val name : t -> string
(** The op's name in diagnostics and errors ("segment_softmax"). *)

val arity : t -> int
(** Operand count: 0 for leaves, 3 for [Linear]. *)

val is_leaf : t -> bool

val equal : t -> t -> bool
(** Same constructor and same payload: indices, segmentations and
    scatter entries structurally, floats bitwise. *)

val shape : t -> shape array -> (shape option, (string * string) list) result
(** [shape op operands] is the output shape, [None] for a leaf (shaped
    by its tensor), or every violated precondition as [(code, detail)]:
    [SC001] binary operands disagree, [SC002] gather index outside the
    operand, [SC003] segmentation width, [SC004] linear/dot dimensions,
    [SC005] non-square [expm_trace], [SC006] scatter target or source
    out of range, [SC010] row or column outside the operand. Operands
    must number {!arity}. *)

val reads_arg : t -> int -> bool
(** [reads_arg op k]: does some backward pull of [op] read operand
    [k]'s forward value? ([Mul] both, [Relu]/[Log_safe]/[Segment_prod]
    their input, [Linear] its input and weight.) *)

val reads_out : t -> bool
(** Does the backward read the op's own forward output?
    ([Segment_softmax].) *)

(** {1 Kernels}

    A node's kernels run over its operand values [xs] (in operand
    order), its output [y] and the output adjoint [g]. The interpreter
    allocates a node's {!state} once and fresh scratch for every call;
    a plan allocates all of it once at compile time and replays. *)

type state
(** What a node's forward leaves for its backward: [Segment_max]'s
    argmax cells, [Expm_trace]'s exponential. *)

val state : t -> Tensor.t array -> state

type scratch
(** Temporaries one kernel call stages through: [Expm_trace]'s
    workspace forward; [Segment_prod]'s product of others, [Linear]'s
    transposes and products, [Expm_trace]'s transpose backward. *)

val forward_scratch : t -> Tensor.t array -> scratch
val backward_scratch : t -> Tensor.t array -> k:int -> scratch

val forward : t -> state -> scratch -> out:Tensor.t -> Tensor.t array -> unit
(** Writes the op's value on [xs] into [out] (shaped by {!shape}). *)

val backward :
  t -> state -> scratch -> y:Tensor.t -> g:Tensor.t -> Tensor.t array -> k:int ->
  into:Tensor.t -> unit
(** Accumulates the adjoint of operand [k] into [into]. A node's pulls
    run in operand order. *)
