(** Terms and rewrite patterns.

    The input language of the equality-saturation engine: first-order
    terms over string-labelled operators. Patterns extend terms with
    named holes. Rewrite rules pair a left-hand-side pattern with a
    right-hand-side template (§2: "patterns on the left-hand side are
    matched and the terms on the right-hand side are added"). *)

type t = App of string * t list

val app : string -> t list -> t
val atom : string -> t
(** Nullary operator (a leaf such as a variable or constant). *)

val size : t -> int
val depth : t -> int
val to_string : t -> string
(** S-expression rendering, e.g. [(+ (sec a) (tan a))]. *)

val equal : t -> t -> bool

type pattern = Var of string | Papp of string * pattern list

val pvar : string -> pattern
val papp : string -> pattern list -> pattern
val patom : string -> pattern

val pattern_to_string : pattern -> string

val pattern_vars : pattern -> string list
(** Distinct variables in first-occurrence order. *)

type rule = { rule_name : string; lhs : pattern; rhs : pattern }

val rule : name:string -> pattern -> pattern -> rule
(** @raise Invalid_argument if the right-hand side mentions a variable
    the left-hand side does not bind. *)

val bidirectional : name:string -> pattern -> pattern -> rule list
(** The rule and its reverse (when the reverse is also well-formed). *)
