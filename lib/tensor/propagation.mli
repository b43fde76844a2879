(** The marginal propagation of Eq. (5)–(7) as one sweep.

    From the conditional probabilities cp of the e-nodes, the sweep
    computes each e-class's probability q of being selected and each
    e-node's marginal p_n = cp_n · q_{ec(n)}. A class's q combines the
    marginals of its parent e-nodes under a {!rule}; the root's q is 1.

    The paper's implementation (§3.3) runs this as K parallel rounds
    over every class, which suits a GPU. Here a {!schedule} visits the
    strongly-connected components of the class graph in topological
    order, parents first. A component without an internal edge is
    visited once: its parents' p are final by then, so one visit gives
    the value the rounds converge to, bit for bit. A cyclic component
    (more than one class, or a class depending on itself) starts from
    q = 0, the root at 1, and runs its own Jacobi rounds once its
    inputs are final.

    Both kernels chunk over batch rows ({!Parallel.chunks}) and walk
    the schedule once per chunk: each class is decoded once, then its
    parent edges are the middle loop and the chunk's rows the inner
    one (its own e-nodes are walked row by row). A row's running
    products, maxima, argmax edges, adjoint sums, factors and prefix
    products sit in row-indexed arrays of the {!state} and {!scratch},
    where a chunk owns only its own rows' slots. Each row still runs
    the expressions of a row-at-a-time sweep in the same order, edge
    after edge, so the loop order changes no bit, and any pool size
    gives the same bits. The kernels honour {!Tensor.Backend}: the
    Scalar backend runs the same loops over all rows as one chunk,
    reading every input through {!Tensor.Backend.scalar_read}, and
    computes the same bits. *)

type rule =
  | Independent  (** Eq. (6): q = 1 − Π_e (1 − p_e) over the parent edges *)
  | Correlated  (** Eq. (7): q = max_e p_e *)
  | Hybrid  (** the mean of the two *)

type schedule

val make :
  rule:rule ->
  root:int ->
  nodes:Segments.t ->
  parent_node:int array ->
  parents:Segments.t ->
  components:int array array ->
  local_rounds:(int -> int) ->
  schedule
(** [make ~rule ~root ~nodes ~parent_node ~parents ~components
    ~local_rounds] builds the sweep over an e-graph with [count nodes]
    classes whose e-nodes [nodes] segments by class. Class [c]'s parent
    edges are [parent_node.(e)] for [e] in segment [c] of [parents].
    [components] lists every class once, grouped by strongly-connected
    component in topological order, parents first. A cyclic component
    of size s runs [local_rounds s] rounds (at least 1).
    @raise Invalid_argument on inconsistent segmentations, a class
    missing or repeated, or a component listed after a child. *)

val width : schedule -> int
(** The e-node count N: the sweep maps (B, N) to (B, N). *)

(** {1 Kernels}

    The forward writes p for every row of cp. It leaves each row's q
    and argmax edge per (round, class) in a {!state}, which the
    backward reads together with cp and p. The backward runs the sweep
    in reverse and adds cp's adjoint into [into]. Its subgradient
    conventions:
    - On a tie in the maximum, the lowest parent edge takes the whole
      adjoint of the correlated term.
    - A parent at p = 1 is a zero factor of the product. Each edge's
      adjoint uses the product of the other factors, computed by prefix
      and suffix without division, so it is exact.
    - The root's q is pinned: its adjoint is dropped, so the root's
      parents receive nothing through it, and the root's cp gradient
      comes only through p_root = cp_root.
    - A cyclic component is differentiated through its truncated
      rounds, as they ran. *)

type state
type scratch

val state : schedule -> batch:int -> state
(** Each row's q and argmax edge per (round, class), and the forward's
    running product per row. *)

val scratch : schedule -> batch:int -> scratch
(** The backward's adjoint accumulators, per-row adjoint sums and
    product-of-others buffers. Neither kernel allocates an array per
    call. *)

val forward : schedule -> state -> out:Tensor.t -> Tensor.t -> unit
(** [forward s st ~out cp] writes p into [out]. Both are (B, width s);
    [st] must come from [state s ~batch:B]. *)

val backward :
  schedule -> state -> scratch -> cp:Tensor.t -> p:Tensor.t -> g:Tensor.t -> into:Tensor.t -> unit
(** [backward s st sc ~cp ~p ~g ~into] adds to [into] the adjoint of cp
    given p's adjoint [g], reading the [st] and [p] that [forward] left
    for this [cp]. *)
