(** First-order optimisers over tensor parameters.

    The paper optimises the relaxed objective with gradient descent
    (§3.5); in the released implementation this is Adam, which we
    reproduce. Parameters are persistent tensors mutated in place
    between tape iterations. *)

type adam

val adam : lr:float -> Tensor.t list -> adam
(** Standard Adam (Kingma & Ba) with bias correction, at the usual
    beta1 = 0.9, beta2 = 0.999, eps = 1e-8. *)

val adam_step : adam -> Tensor.t list -> unit
(** [adam_step opt grads] applies one update. [grads] aligns one-to-one
    with the parameter list given at construction. *)

val adam_update :
  lr:float -> step:int -> m:Tensor.t -> v:Tensor.t -> Tensor.t -> grad:Tensor.t -> unit
(** [adam_update ~lr ~step ~m ~v p ~grad] is one Adam update of [p] in
    place, with the moment tensors and the 1-based update count [step]
    (the [t] of the bias correction) held by the caller — the form a
    loop uses when its optimiser state lives in its own checkpointable
    record. {!adam_step} is exactly this per parameter. *)

val clip_grad_norm : max_norm:float -> Tensor.t list -> float
(** Global-norm gradient clipping; returns the pre-clip norm. *)
