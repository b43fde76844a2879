(** Framed, checksummed records: the one on-disk record format.

    A checkpoint file ({!Checkpoint}, magic ["SMCK"]) is one frame; a
    request-journal generation ({!Serve_journal}, magic ["SMJR"]) is a
    run of frames appended back to back. A frame, all integers
    little-endian:

    {v
    bytes 0..3    magic (4 bytes)
    bytes 4..7    format version (u32)
    bytes 8..15   payload length (u64)
    bytes 16..19  CRC-32 (IEEE) of the payload (u32)
    bytes 20..    payload
    v}

    The payload is a flat sequence of fields. No [Marshal]: the format
    is stable across compiler versions and checkable field by field.
    Every read is bounds-checked and every count is checked against the
    bytes left, so a short or corrupted payload raises {!Corrupt},
    never an out-of-bounds read or a runaway allocation.

    Files holding frames are numbered generations named
    [<name>.<NNNNNNNN>.<ext>]. *)

exception Corrupt of string
(** A payload field could not be read: the one error of the readers. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Corrupt} with a formatted message. *)

val encode : magic:string -> version:int -> string -> string
(** [encode ~magic ~version payload] is the frame holding [payload]. *)

val decode :
  magic:string -> version:int -> string -> off:int -> (string * int, string) result
(** [decode ~magic ~version s ~off] reads the frame starting at byte
    [off] of [s]: its payload and the offset just past it, or why the
    frame is unusable — a header cut short, another magic or version, a
    length (compared as a full 64-bit value) that overruns [s], or a
    checksum mismatch. Raises only [Invalid_argument] on a negative
    [off]. *)

(** {1 Payload fields}

    Ints, raw int64s and float bits are 64-bit words; a string is its
    length word, then its bytes. Every reader raises {!Corrupt} when the
    payload ends first, and [read_int] also on a word outside [int]'s
    range. *)

val add_int64 : Buffer.t -> int64 -> unit
val add_int : Buffer.t -> int -> unit
val add_float : Buffer.t -> float -> unit
val add_string : Buffer.t -> string -> unit

type reader
(** A cursor over one payload. *)

val reader : string -> reader
val read_int64 : reader -> int64
val read_int : reader -> int
val read_float : reader -> float
val read_string : reader -> string

val count : reader -> elt_bytes:int -> string -> int -> int
(** [count r ~elt_bytes what n] is [n] if the unread payload can hold
    [n] elements of [elt_bytes] bytes each.
    @raise Corrupt naming [what] if [n] is negative or too large. *)

val finish : reader -> unit
(** @raise Corrupt unless the whole payload has been read. *)

(** {1 Generation files} *)

val gen_path : dir:string -> name:string -> ext:string -> int -> string
(** [dir/<name>.<gen>.<ext>], the generation printed as [%08d]. *)

val generations : dir:string -> name:string -> ext:string -> int list
(** The generations in [dir], ascending: files named exactly as
    {!gen_path} names them. Any other middle — [0x10], [1_0], [+5], a
    seven-digit number — is not a generation. [[]] if [dir] cannot be
    read. *)
