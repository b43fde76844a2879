exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let header_len = 20

let encode ~magic ~version payload =
  let buf = Buffer.create (String.length payload + header_len) in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int version);
  Buffer.add_int64_le buf (Int64.of_int (String.length payload));
  Buffer.add_int32_le buf (Int32.of_int (Checksum.crc32 payload));
  Buffer.add_string buf payload;
  Buffer.contents buf

let decode ~magic ~version s ~off =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let left = String.length s - off - header_len in
  if left < 0 then err "%s frame header cut short" magic
  else if String.sub s off 4 <> magic then err "bad magic (not a %s frame)" magic
  else
    let v = Int32.to_int (String.get_int32_le s (off + 4)) in
    if v <> version then err "unsupported %s version %d" magic v
    else
      (* compared as a full 64-bit value: [Int64.to_int] wraps modulo
         2^63, so a corrupted top bit would alias a plausible length,
         and the CRC covers only the payload *)
      let len64 = String.get_int64_le s (off + 8) in
      if Int64.compare len64 0L < 0 || Int64.compare len64 (Int64.of_int left) > 0 then
        err "payload length %Lu overruns the %d bytes left (torn tail?)" len64 left
      else
        let len = Int64.to_int len64 in
        let stored = Int32.to_int (String.get_int32_le s (off + 16)) land 0xFFFFFFFF in
        let actual = Checksum.crc32 ~off:(off + header_len) ~len s in
        if stored <> actual then
          err "checksum mismatch (stored %08x, computed %08x)" stored actual
        else Ok (String.sub s (off + header_len) len, off + header_len + len)

(* ------------------------------------------------------------- fields *)

let add_int64 = Buffer.add_int64_le
let add_int buf n = add_int64 buf (Int64.of_int n)
let add_float buf f = add_int64 buf (Int64.bits_of_float f)

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

type reader = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }

let read_int64 r =
  if String.length r.src - r.pos < 8 then corrupt "truncated payload";
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let read_int r =
  let v = read_int64 r in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then corrupt "integer %Ld out of range" v;
  n

let read_float r = Int64.float_of_bits (read_int64 r)

let count r ~elt_bytes what n =
  if n < 0 || n > (String.length r.src - r.pos) / elt_bytes then
    corrupt "implausible %s count %d" what n;
  n

let read_string r =
  let n = count r ~elt_bytes:1 "string length" (read_int r) in
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let finish r = if r.pos <> String.length r.src then corrupt "trailing bytes in payload"

(* -------------------------------------------------------- generations *)

let file_name ~name ~ext gen = Printf.sprintf "%s.%08d.%s" name gen ext
let gen_path ~dir ~name ~ext gen = Filename.concat dir (file_name ~name ~ext gen)

let generations ~dir ~name ~ext =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | files ->
      let pl = String.length name + 1 and sl = String.length ext + 1 in
      Array.to_list files
      |> List.filter_map (fun f ->
             (* a generation's middle prints back as itself: no sign, base
                prefix, underscore or short digit run *)
             let n = String.length f - pl - sl in
             match int_of_string_opt (if n > 0 then String.sub f pl n else "") with
             | Some gen when gen >= 0 && file_name ~name ~ext gen = f -> Some gen
             | _ -> None)
      |> List.sort Int.compare
