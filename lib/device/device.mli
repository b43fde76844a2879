(** Execution-device model.

    The paper's performance results depend on GPU properties in three
    ways: vectorised execution (Figure 6's "+GPU" step), memory capacity
    limiting the seed-batch size (Table 5: the RTX 2080 Ti's 11 GB is 8×
    smaller than the A100's 80 GB, so the batch shrinks 8×, and four
    e-graphs whose per-seed footprint exceeds 11 GB go OOM), and
    batching-driven utilisation (Figure 7). No GPU is available to this
    reproduction, so a device is modelled as a memory capacity plus a
    tensor backend; the memory accounting below mirrors what the PyTorch
    implementation materialises per seed (tape activations for the
    unrolled propagation plus matrix-exponential workspaces). It keeps
    charging the paper's K unrolled rounds although this reproduction
    propagates in one sweep ({!Propagation}): the model stands for the
    paper's GPU memory, so Table 5's batch sizes and OOM entries stay
    comparable.

    The absolute byte scale is calibrated (see {!val-calibration_scale})
    so that the reproduction's largest e-graphs trip the same relative
    OOM behaviour; see DESIGN.md for the substitution argument. *)

type t = {
  device_name : string;
  memory_bytes : float;
  backend : Tensor.Backend.mode;
}

val a100 : t
(** 80 GB, vectorised — the paper's primary evaluation target. *)

val rtx2080ti : t
(** 11 GB, vectorised — the paper's low-end portability target. *)

val cpu_baseline : t
(** A 256 GB-RAM workstation with the scalar backend — the Figure 6
    CPU reference point. Large unoptimised configurations exceed even
    this, matching the paper's OOM entries. *)

val calibration_scale : float
(** Bytes-per-float multiplier modelling PyTorch autograd overhead
    (activation copies, gradient buffers, workspace). *)

type footprint = {
  per_seed_bytes : float;  (** activations proportional to propagation depth × (N + M + E) *)
  matexp_bytes : float;  (** Σ d² over SCC blocks (shared across seeds when Eq. 11 batching is on) *)
  matexp_per_seed : bool;  (** true when the batched-matexp optimisation is OFF *)
}

val footprint :
  Egraph.t -> prop_iters:int -> scc_decomposition:bool -> batched_matexp:bool -> footprint
(** Memory model for one SmoothE configuration on one e-graph. With SCC
    decomposition off, the matrix-exponential block is the full M×M
    class matrix; with per-seed matexp (batched approximation off) the
    matexp workspace multiplies with the batch. *)

val bytes_for_batch : footprint -> int -> float

val max_batch : t -> footprint -> int
(** Largest batch that fits; 0 means even one seed exceeds memory (OOM). *)

val fits : t -> footprint -> batch:int -> bool

val run : t -> (unit -> 'a) -> 'a
(** Execute a computation under the device's tensor backend. *)
