(** Growable arrays.

    A thin, allocation-friendly dynamic array used throughout the code base
    for building index structures whose final size is not known up front
    (e-node tables, edge lists, branch-and-bound node pools, autodiff
    tapes). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] raises [Invalid_argument] when [i] is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit
(** [push v x] appends [x], growing the backing store geometrically. *)

val pop : 'a t -> 'a
(** [pop v] removes and returns the last element.
    @raise Invalid_argument on an empty vector. *)

val last : 'a t -> 'a

val clear : 'a t -> unit
(** [clear v] empties [v] and drops its storage, so the cleared
    elements can be collected; the next [push] starts a fresh array. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b

val exists : ('a -> bool) -> 'a t -> bool

val to_array : 'a t -> 'a array
(** [to_array v] is a fresh array with the current contents. *)

val to_list : 'a t -> 'a list

val of_array : 'a array -> 'a t

val of_list : 'a list -> 'a t

val map : ('a -> 'b) -> 'a t -> 'b t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)
