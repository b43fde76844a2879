(** CRC-32 (IEEE) checksums.

    Used by {!Frame} for durable on-disk records (checkpoints, the
    request journal): CRC-32 detects every single-bit error and all
    burst errors up to 32 bits, which is exactly the guarantee the
    torn-write / bit-rot recovery path is tested against. Written
    in-repo because the build environment is sealed. *)

val crc32 : ?off:int -> ?len:int -> string -> int
(** [crc32 s] is the standard CRC-32 of [s] (check value:
    [crc32 "123456789" = 0xCBF43926]), as a non-negative int in
    [[0, 2^32)]. [off]/[len] select a substring.
    @raise Invalid_argument on an out-of-range substring. *)
