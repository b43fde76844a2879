(** Batched dense tensors.

    This module is the reproduction's stand-in for the PyTorch tensors of
    the paper's implementation (§4.1). A value of type {!t} is a batch of
    [batch] rows, each a dense vector of [width] floats, stored row-major
    in one flat array. SmoothE uses batch = number of seeds (§4.2,
    seed batching); square matrices (for the NOTEARS matrix exponential)
    are represented with [batch = width = d].

    All kernels run on one of two backends (see {!Backend}): the
    [Vectorized] backend uses tight unsafe loops over the flat array
    and models GPU execution; the [Scalar] backend deliberately runs
    element-at-a-time, reading every element through an indirect call
    with bounds checks, and models the unoptimised CPU baseline of the
    paper's Figure 6 ablation. Results are bit-identical on both; only
    speed differs. *)

type t = private { data : float array; batch : int; width : int }

module Backend : sig
  type mode =
    | Vectorized  (** fused flat-array loops — the "GPU" execution model *)
    | Scalar  (** element-at-a-time through {!scalar_read} — "CPU baseline" *)

  val set : mode -> unit
  val current : unit -> mode

  val with_mode : mode -> (unit -> 'a) -> 'a
  (** Runs the thunk under the given mode, restoring the previous mode
      afterwards (also on exceptions). *)

  val scalar_read : float array -> int -> float
  (** One element access under the scalar execution model: an indirect,
      non-inlinable call that boxes its result — the per-element
      dispatch overhead of unvectorised execution. *)
end

(** {1 Construction} *)

val create : batch:int -> width:int -> t
(** Zero-filled tensor. *)

val full : batch:int -> width:int -> float -> t

val of_array : batch:int -> width:int -> float array -> t
(** Takes ownership of the array. @raise Invalid_argument on size mismatch. *)

val of_row : float array -> t
(** Single-row tensor (batch = 1). Copies its input. *)

val copy : t -> t

val identity : int -> t
(** [identity d] is the d×d identity (batch = width = d). *)

val init : batch:int -> width:int -> (int -> int -> float) -> t
(** [init ~batch ~width f] fills position (b, i) with [f b i]. *)

(** {1 Access} *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val numel : t -> int
val row : t -> int -> float array
(** Copy of one row. *)

val blit_row : src:float array -> t -> int -> unit
(** Overwrite row [b] with [src]. *)

val fill : t -> float -> unit
val unsafe_data : t -> float array
(** The backing store; mutate with care. Layout: row [b] occupies
    indices [b*width .. (b+1)*width - 1]. *)

(** {1 Elementwise kernels}

    Each op is one kernel with an [_into] form that writes a
    caller-owned output and never allocates (outputs may alias
    inputs), and an allocating form that is [create] plus the [_into]
    form. The tape interpreter and the plan replay engine both run
    these, so every op is defined once. The Vectorized loops read the
    flat arrays directly and box no float. Binary kernels require
    operands of identical shape; all raise [Invalid_argument] on shape
    mismatch. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val relu : t -> t
val exp : t -> t

val log_floor : float
(** [1e-12], the clamp of {!log_safe_into} and {!log_safe_grad}. *)

val copy_into : out:t -> t -> unit
val add_into : out:t -> t -> t -> unit
val sub_into : out:t -> t -> t -> unit
val mul_into : out:t -> t -> t -> unit
val scale_into : out:t -> float -> t -> unit
val add_scalar_into : out:t -> float -> t -> unit
val relu_into : out:t -> t -> unit
val exp_into : out:t -> t -> unit

val one_minus_into : out:t -> t -> unit
(** [1 + (-x)] elementwise: one rounding, and a NaN's sign flips. *)

val log_safe_into : out:t -> t -> unit
(** Natural log clamped below at [log log_floor], keeping the entropy
    regulariser and its gradient finite. *)

val override_columns_into : out:t -> (int * float) array -> t -> unit
(** Copy of the input with each [(col, c)] column set to [c] in every
    row; later pins of the same column win. *)

(** {1 Accumulating kernels}

    Each adds into its first tensor. The [_grad] kernels are the fused
    adjoints of the ops above, called by both [Ad]'s pulls and [Plan]'s
    backward steps; each reproduces the rounding of the
    tensor-at-a-time expression it stands for. *)

val add_inplace : t -> t -> unit
(** [add_inplace dst src] accumulates [src] into [dst]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y]. *)

val scale_inplace : float -> t -> unit

val mul_grad : into:t -> g:t -> t -> unit
(** [mul_grad ~into ~g y]: [into += g * y], the adjoint of {!mul}
    towards the operand whose partner is [y]. *)

val log_safe_grad : into:t -> g:t -> t -> unit
(** [log_safe_grad ~into ~g x]: [into += g * (1 / max x log_floor)]. *)

val relu_grad : into:t -> g:t -> t -> unit
(** [relu_grad ~into ~g x]: [into += g * (x > 0 ? 1 : 0)]; the mask
    multiply keeps [g *. 0.] signed zeros. *)

val override_columns_grad : into:t -> g:t -> (int * float) array -> unit
(** [into += g] outside the pinned columns and [into += 0.] on them. *)

(** {1 Row, reduction and assembly ops}

    The remaining tape ops' forward kernels and adjoints, shared by
    [Ad] and [Plan] the same way; backend-independent loops.
    [Invalid_argument] on shape mismatch. *)

val sum_all_into : out:t -> t -> unit
(** (B,N) → (1,1) total, summed in index order like {!sum}. *)

val sum_all_grad : into:t -> g:t -> unit
(** [into += g.(0)] everywhere; [g] is (1,1). *)

val dot_const_into : out:t -> t -> float array -> unit
(** [dot_const_into ~out t u]: (B,N) → (B,1) per-row [uᵀ t_b]. *)

val dot_const_grad : into:t -> g:t -> float array -> unit
(** [into.(b, i) += g.(b) * u.(i)]. *)

val mean_rows_into : out:t -> t -> unit
(** (B,N) → (1,N) per-column means; see {!mean_rows}. *)

val mean_rows_grad : into:t -> g:t -> unit
(** [into.(b, i) += g.(i) / B]. *)

val slice_row_into : out:t -> t -> int -> unit
(** [slice_row_into ~out t r] copies row [r] into the (1,N) [out]. *)

val slice_row_grad : into:t -> g:t -> int -> unit
(** [slice_row_grad ~into ~g r]: row [r] of [into] += [g]. *)

val matrix_of_entries_into : out:t -> dim:int -> (int * int * int) array -> t -> unit
(** [matrix_of_entries_into ~out ~dim entries cp]: zero the dim×dim
    [out], then for each [(col, i, j)] in order add [cp.(col)] to
    [out.(i, j)]. *)

val matrix_of_entries_grad : into:t -> g:t -> dim:int -> (int * int * int) array -> unit
(** [into.(col) += g.(i, j)] for each entry, in order. *)

val add_bias_rows : out:t -> t -> unit
(** [add_bias_rows ~out bias] adds the (1,H) [bias] to every row of
    [out] — the bias term of a linear layer. *)

val linear_bias_grad : into:t -> g:t -> unit
(** [into += column sums of g] — the bias adjoint of a linear layer. *)

(** {1 Linear-algebra kernels into preallocated outputs}

    [transpose_into] and [matmul_nt_into] reject aliased outputs. *)

val transpose_into : out:t -> t -> unit
val matmul_nt_into : out:t -> t -> t -> unit

(** {1 Reductions} *)

val sum : t -> float
val dot : t -> t -> float

val all_finite : t -> bool
(** False when any entry is NaN or ±infinity — the numeric-guard check
    run on losses and gradients each iteration. *)

val bits_equal : t -> t -> bool
(** Shape equality plus element-by-element IEEE-754 bit equality
    ([Int64.bits_of_float]) — distinguishes [+0.] from [-0.] and treats
    identical NaN payloads as equal. The comparison the plan replay
    differential check ([--plan check]) uses against the interpreter. *)

val norm1_matrix : t -> float
(** Maximum absolute column sum of a square matrix — the operator 1-norm
    used to pick the scaling power in {!Matfun.expm}. *)

val mean_rows : t -> t
(** Collapse the batch dimension: returns a 1×width tensor whose entries
    are per-column means — the batched-matexp approximation of Eq. (11)
    averages seed adjacency matrices this way. *)

(** {1 Linear algebra} *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b] with [a : (p, n)] and [b : (q, n)] computes the
    p×q product [a · bᵀ] — the layout used by MLP linear layers where
    weights are stored row-per-output-neuron. *)

val matmul : t -> t -> t
(** [matmul a b] with [a : (p, n)], [b : (n, q)] is the plain product. *)

val transpose : t -> t

module Lu : sig
  type factors

  val decompose : t -> factors
  (** LU with partial pivoting of a square matrix.
      @raise Failure on a (numerically) singular matrix. *)

  val solve : factors -> t -> t
  (** [solve f b] solves [A x = b] column-wise; [b] is square d×d. *)

  val preallocate : int -> factors
  (** Workspace for {!decompose_into}: a d×d factor store plus its
      permutation, allocated once and refilled on every call. *)

  val decompose_into : factors -> t -> unit
  (** {!decompose} into a preallocated workspace — no allocation.
      @raise Failure on a (numerically) singular matrix. *)

  val solve_into : out:t -> factors -> t -> unit
  (** {!solve} into a preallocated output of the rhs shape. *)
end

module Matfun : sig
  val expm : t -> t
  (** Matrix exponential of a square matrix by scaling-and-squaring with
      a degree-13 Padé approximant (Higham 2005) — the same algorithm
      behind [torch.matrix_exp] that the paper identifies as the
      bottleneck (§4.3). A fresh copy of {!expm_into}'s result over a
      fresh workspace. *)

  type ws
  (** Preallocated workspace holding every intermediate of one {!expm}
      call for a fixed dimension. *)

  val workspace : int -> ws
  (** [workspace d] allocates the intermediates for d×d inputs
      ([d >= 1]). *)

  val expm_into : ws -> t -> t
  (** {!expm} with zero per-call allocation: all intermediates live in
      the workspace, and the returned tensor is one of the workspace's
      buffers — valid until the next [expm_into] on the same
      workspace. *)

  val trace : t -> float
end
