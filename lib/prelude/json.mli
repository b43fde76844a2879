(** A minimal JSON parser and printer.

    Only what the extraction-gym interchange format needs (objects,
    arrays, strings, numbers, booleans, null; UTF-8 passed through,
    [\uXXXX] escapes decoded for the ASCII range). Written in-repo
    because the build environment is sealed (no yojson). *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

exception Parse_error of string
(** Carries a message with the offending position. *)

val parse : string -> t
(** @raise Parse_error on malformed input (including trailing junk) and
    on arrays/objects nested more than 512 deep, a limit named in the
    message. Every format read through this parser nests at most 5
    deep; the cap keeps a hostile frame from buying unbounded recursion. *)

val to_string : ?pretty:bool -> t -> string
(** Serialise. Non-finite numbers ([nan], [±infinity]) have no JSON
    representation and are emitted as [null]. *)

(** {1 Accessors} — raise [Parse_error] with a path message on shape
    mismatches, so format errors in user files stay debuggable. *)

val member : string -> t -> t
(** Object field; [Null] if absent. *)

val get_string : t -> string
val get_number : t -> float
val get_list : t -> t list
val get_object : t -> (string * t) list
