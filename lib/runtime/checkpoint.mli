(** Crash-safe checkpoint snapshots for the extraction loop.

    SmoothE runs are long, stateful optimisation loops; this module
    makes their state durable so a crashed, killed or faulted run
    resumes from its last snapshot instead of restarting — and, because
    the snapshot is the loop's state record itself (θ, Adam moments,
    RNG state, incumbent and its marginals, patience counter), the
    resumed run replays bit-identically to the uninterrupted one.

    On disk, a snapshot is one {!Frame} (magic ["SMCK"], version 2)
    per file. Writes are atomic (temp file + rename) and rotated: a
    {!store} keeps the last [keep] generations, so a torn or bit-rotted
    newest file (detected by the frame checks — never trusted) falls
    back to the previous generation. *)

(** {1 Snapshot contents} *)

type fingerprint = {
  fp_graph : string;  (** e-graph name *)
  fp_nodes : int;
  fp_classes : int;
  fp_seed : int;
  fp_batch : int;  (** seed batch actually used (after derating) *)
}
(** Identity of the run a snapshot belongs to. A resume against a
    different graph, seed or batch is refused (structural-equality
    check by the consumer) rather than silently loading nonsense. *)

val fingerprint_to_string : fingerprint -> string

type history_point = {
  iter : int;
  elapsed : float;
  relaxed_loss : float;  (** best per-seed f(p) + λ·h this iteration (Fig. 9's optimisation loss) *)
  sampled_cost : float;  (** best sampled discrete cost this iteration (Fig. 9's sampling loss) *)
  incumbent : float;  (** best cost so far *)
}
(** One iteration of the optimisation trajectory. *)

type snapshot = {
  fingerprint : fingerprint;
  mutable iter : int;  (** iterations completed *)
  mutable elapsed : float;  (** budget seconds consumed, including any resumed offset *)
  rng_state : int64 array;  (** xoshiro256** words ({!Rng.state}) after θ's draw *)
  theta : Tensor.t;
  adam_m : Tensor.t;
  adam_v : Tensor.t;
  mutable adam_step : int;
  mutable adam_lr : float;
  mutable best_cost : float;
  mutable best_seed : int;
  mutable best_choice : int option array option;  (** incumbent per-class choice *)
  mutable best_cp : float array option;
      (** the incumbent seed's cp row at the iteration it was found *)
  mutable last_improvement : int;
  mutable recoveries : int;  (** numeric-recovery strikes consumed *)
  ladder_rung : int;  (** OOM derating-ladder position (0 = as configured) *)
  mutable trace : (float * float) list;  (** anytime curve, newest first *)
  mutable history : history_point list;  (** newest first *)
  health : Health.log;  (** supervision events *)
}
(** The SmoothE loop's whole state. The loop mutates one value of this
    type in place (θ and the Adam moments through their tensors), and
    {!save} serialises it as is, so a snapshot is exactly the state an
    iteration starts from. *)

(** {1 Codec} *)

val serialize : snapshot -> string
(** The complete framed file image (header + checksummed payload). *)

val deserialize : string -> (snapshot, string) result
(** Inverse of {!serialize}. Every failure mode — short file, bad
    magic, version skew (including every version-1 file), length
    mismatch from a torn write, checksum mismatch from a bit flip,
    implausible field values, tensors not shaped like the
    fingerprint's batch × nodes — yields
    [Error reason]; this function never raises and never returns a
    snapshot that did not pass the checksum. *)

(** {1 Generation store} *)

type store

val store : ?keep:int -> dir:string -> name:string -> unit -> store
(** [store ~dir ~name ()] manages files [dir/name.<gen>.ckpt]
    ({!Frame.gen_path}), creating [dir] if needed and keeping the newest
    [keep] (default 3) generations. Other files in [dir] are never read
    or deleted. @raise Invalid_argument on [keep < 1] or a [name]
    containing ['/']. *)

val save : store -> snapshot -> int
(** Write the next generation atomically (temp file + rename, so a
    crash mid-write leaves the previous generation intact), delete
    generations beyond [keep], and return the generation number
    written. Under an installed [torn-write] fault the file is
    truncated halfway instead, exercising the fallback path. *)

val load_latest :
  ?health:Health.log -> ?member:string -> store -> (snapshot * int) option
(** Newest snapshot that passes every frame check, with its generation.
    Unusable generations (unreadable, torn, corrupted) are skipped —
    each recorded as a [Checkpoint_corrupt] event in [health] (member
    label [member], default ["checkpoint"]) — and the walk continues to
    older generations. [None] when no generation is usable. *)
