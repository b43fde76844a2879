(** Segmented kernels over batched tensors.

    E-graphs are sparse (Table 1 reports densities of 1e-5..1e-2), so the
    paper's implementation never materialises dense M×N matrices; it uses
    sparse gather/scatter/segment primitives instead (§4.1). A
    {!t} partitions the width axis of a tensor into contiguous segments —
    e.g. e-nodes grouped by owning e-class, or parent-edge lists grouped
    by child e-class — and every kernel below applies per batch row and
    per segment.

    All kernels honour {!Tensor.Backend}: the Vectorized mode reads the
    flat arrays directly (no float is boxed), the [Scalar] mode runs an
    element-at-a-time reference path through
    {!Tensor.Backend.scalar_read}; both compute identical bits. *)

type t = private { starts : int array; lens : int array; width : int }
(** [width] is the total element count; segment [s] covers
    [starts.(s) .. starts.(s) + lens.(s) - 1]. Segments tile the width
    exactly and in order. *)

val of_lens : int array -> t
(** Build from segment lengths. Lengths must be non-negative. *)

val count : t -> int
val seg_len : t -> int -> int

(** {1 Kernels}

    Inputs are (B, width) tensors; "per-segment" outputs are
    (B, count) tensors. *)

val softmax : Tensor.t -> t -> Tensor.t
(** Per-segment softmax along the width axis — realises Eq. (3b): the
    conditional probabilities of the e-nodes in one e-class sum to 1.
    Numerically stabilised by max subtraction. Empty segments produce no
    output positions (their region is empty). *)

val sum : Tensor.t -> t -> Tensor.t
(** Per-segment sums. *)

val gather : Tensor.t -> int array -> Tensor.t
(** [gather src idx] with [src : (B, M)] returns [(B, |idx|)] where
    output column [e] reads source column [idx.(e)]. *)

val scatter_add : into:Tensor.t -> int array -> Tensor.t -> unit
(** [scatter_add ~into idx src] accumulates column [e] of [src] into
    column [idx.(e)] of [into] — the adjoint of {!gather}. *)

(** {1 Preallocated kernels}

    [_into] variants writing into caller-owned outputs with zero
    allocation — the cores behind the allocating kernels above and the
    building blocks of the plan replay engine. Arithmetic and segment-op
    counters are identical to the allocating versions; outputs must have
    the exact result shape ([Invalid_argument] otherwise). Every cell a
    segment covers is (re)written, so buffers can be reused across
    calls. *)

val softmax_into : out:Tensor.t -> Tensor.t -> t -> unit
val sum_into : out:Tensor.t -> Tensor.t -> t -> unit
val gather_into : out:Tensor.t -> Tensor.t -> int array -> unit

(** {1 Gradient kernels}

    The fused adjoints of the kernels above: each adds the operand's
    gradient contribution into [into] given the output adjoint [g] —
    the one definition both [Ad]'s pulls and [Plan]'s backward steps
    call. Each reproduces the rounding of the composite it stands for
    (segment sum, gather, elementwise multiply, add). *)

val softmax_grad : into:Tensor.t -> g:Tensor.t -> y:Tensor.t -> t -> unit
(** [into_i += y_i (g_i - Σ_{j in seg(i)} g_j y_j)], where [y] is the
    forward {!softmax} output. *)

