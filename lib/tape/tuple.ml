(* Order-preserving tuple encoding for byte-backed tape devices.

   The layout follows the FoundationDB tuple layer: every element is
   emitted with a leading type code chosen so that [String.compare] on
   the encodings agrees with the natural order on the values, and every
   element is self-delimiting, so a packed tuple can be cut back into
   its elements without an external index.

   - [Str s]  ->  0x02, escaped bytes of [s], 0x00.  A 0x00 byte inside
     [s] is escaped as 0x00 0xFF; since 0xFF can never follow a
     terminating 0x00 inside a well-formed stream, the first unescaped
     0x00 ends the element.  The escape preserves order: it maps the
     smallest byte to the smallest two-byte sequence starting with it.
   - [Int n]  ->  a code byte centred on 0x14 (zero), 0x14+k for a
     positive integer needing [k] big-endian bytes, 0x14-k for a
     negative one stored as the offset from the smallest k-byte
     negative (i.e. n + 2^(8k) - 1), so larger negatives still compare
     smaller bytewise.

   Elements are written and read in place in a caller's buffer, at an
   offset, returning the offset just past them (the FoundationDB
   decoder's shape); [pack]/[unpack] are the same primitives over a
   fresh buffer. *)

type elt = Int of int | Str of string

let zero_code = 0x14
let str_code = '\x02'
let max_int_bytes = 8

exception Malformed of string

(* [pos, limit) must lie inside [buf] *)
let check_span buf pos limit =
  if pos < 0 || limit > Bytes.length buf then invalid_arg "Tuple: span outside buffer";
  if pos >= limit then raise (Malformed "element past end")

(* ---------------- strings ------------------------------------------ *)

let zeros s =
  let z = ref 0 in
  for i = 0 to String.length s - 1 do
    if String.unsafe_get s i = '\x00' then incr z
  done;
  !z

let str_size s = String.length s + zeros s + 2

let write_str buf pos s =
  let n = String.length s in
  Bytes.set buf pos str_code;
  let stop =
    if zeros s = 0 then begin
      Bytes.blit_string s 0 buf (pos + 1) n;
      pos + 1 + n
    end
    else begin
      let p = ref (pos + 1) in
      String.iter
        (fun c ->
          Bytes.set buf !p c;
          incr p;
          if c = '\x00' then begin
            Bytes.set buf !p '\xFF';
            incr p
          end)
        s;
      !p
    end
  in
  Bytes.set buf stop '\x00';
  stop + 1

(* just past the first 0x00 at or after [i] not followed by 0xFF, before
   [limit] *)
let rec terminator buf i limit =
  if i >= limit then raise (Malformed "unterminated string element")
  else if Bytes.unsafe_get buf i <> '\x00' then terminator buf (i + 1) limit
  else if i + 1 < limit && Bytes.unsafe_get buf (i + 1) = '\xFF' then
    terminator buf (i + 2) limit
  else i + 1

(* the end offset of the string element at [pos] *)
let str_end buf pos limit =
  check_span buf pos limit;
  if Bytes.get buf pos <> str_code then raise (Malformed "expected a string element");
  terminator buf (pos + 1) limit

let str_value buf pos limit =
  let stop = str_end buf pos limit in
  let raw = Bytes.sub_string buf (pos + 1) (stop - pos - 2) in
  match zeros raw with
  | 0 -> raw
  | z ->
      (* every 0x00 in [raw] is an escape: drop the 0xFF after it *)
      let out = Bytes.create (String.length raw - z) and j = ref 0 in
      for k = 0 to Bytes.length out - 1 do
        let c = String.unsafe_get raw !j in
        Bytes.unsafe_set out k c;
        j := !j + if c = '\x00' then 2 else 1
      done;
      Bytes.unsafe_to_string out

(* ---------------- ints --------------------------------------------- *)

(* bytes needed for |n| read as an unsigned 63-bit word, so that
   [-min_int] (= [min_int]) counts as 2^62 — also the k with
   n + 2^(8k) - 1 >= 0 when n < 0 *)
let bytes_needed n =
  let k = ref 1 and v = ref ((if n < 0 then -n else n) lsr 8) in
  while !v <> 0 do
    incr k;
    v := !v lsr 8
  done;
  !k

let int_size n = if n = 0 then 1 else 1 + bytes_needed n

let write_int buf pos n =
  if n = 0 then begin
    Bytes.set buf pos (Char.chr zero_code);
    pos + 1
  end
  else begin
    let k = bytes_needed n in
    (* negative: store n + (2^(8k) - 1) so bytewise order matches *)
    let v =
      if n > 0 then n else if k < max_int_bytes then n + (1 lsl (8 * k)) - 1 else n - 1
    in
    Bytes.set buf pos (Char.chr (if n > 0 then zero_code + k else zero_code - k));
    for i = k - 1 downto 0 do
      let b = (v lsr (8 * i)) land 0xff in
      (* at k = 8 a negative stores n - 1 mod 2^64, whose bit 63 (past
         the native int) is always set *)
      Bytes.set buf (pos + k - i) (Char.chr (if i = 7 && n < 0 then b lor 0x80 else b))
    done;
    pos + 1 + k
  end

(* the end offset of the int element at [pos]: its code byte carries
   its length *)
let int_end buf pos limit =
  check_span buf pos limit;
  let code = Char.code (Bytes.get buf pos) in
  if code < zero_code - max_int_bytes || code > zero_code + max_int_bytes then
    raise (Malformed (Printf.sprintf "unknown type code 0x%02x" code));
  let stop = pos + 1 + abs (code - zero_code) in
  if stop > limit then raise (Malformed "truncated int element");
  stop

let int_value buf pos limit =
  let stop = int_end buf pos limit in
  let k = stop - pos - 1 in
  (* the big-endian magnitude, mod 2^63 like [Int64.to_int] *)
  let mag = ref 0 in
  for i = pos + 1 to stop - 1 do
    mag := (!mag lsl 8) lor Char.code (Bytes.get buf i)
  done;
  if Char.code (Bytes.get buf pos) >= zero_code then !mag
  else if k < max_int_bytes then !mag - (1 lsl (8 * k)) + 1
  else !mag + 1

(* ---------------- tuples ------------------------------------------- *)

let elt_size = function Str s -> str_size s | Int n -> int_size n
let write_elt buf pos = function Str s -> write_str buf pos s | Int n -> write_int buf pos n

let pack elts =
  let buf = Bytes.create (List.fold_left (fun acc e -> acc + elt_size e) 0 elts) in
  ignore (List.fold_left (write_elt buf) 0 elts);
  Bytes.unsafe_to_string buf

let unpack s =
  let buf = Bytes.unsafe_of_string s and n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else if Bytes.get buf pos = str_code then
      go (str_end buf pos n) (Str (str_value buf pos n) :: acc)
    else go (int_end buf pos n) (Int (int_value buf pos n) :: acc)
  in
  go 0 []
