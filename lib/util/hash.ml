(* The repo's non-cryptographic hashes, one copy each: FNV-1a 64 for
   fingerprints, CRC-32 for storage frames, splitmix64 for seed
   derivation, and the 32-bit choice mixer of the list-machine runs. *)

(* ---------------- FNV-1a 64 ---------------------------------------- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L
let fnv_mix h w = Int64.mul (Int64.logxor h w) fnv_prime
let fnv_byte h b = fnv_mix h (Int64.of_int (b land 0xff))

let fnv_int h x =
  let h = ref h in
  for k = 0 to 7 do
    h := fnv_byte !h (x lsr (8 * k))
  done;
  !h

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

(* ---------------- CRC-32 (IEEE 802.3, reflected 0xEDB88320) -------- *)

(* Slicing-by-16 (Kounavis & Berry's slicing, 16 bytes a step): table
   [k] advances the CRC of a byte that is followed by [k] more bytes, so
   one step folds 16 bytes with 16 lookups.  [t.(k * 256 + b)] is table
   [k] at byte [b]. *)
let crc_tables =
  lazy
    (let t = Array.make (16 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 15 do
       for n = 0 to 255 do
         let c = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (c lsr 8) lxor t.(c land 0xff)
       done
     done;
     t)

external unsafe_get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let crc32_sub buf pos len =
  (* the one bounds check: every load below stays inside [pos, pos + len) *)
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Hash.crc32_sub";
  let t = Lazy.force crc_tables in
  let tb k b = Array.unsafe_get t ((k * 256) + b) in
  let u32 i =
    let w = unsafe_get32 buf i in
    Int32.to_int (if Sys.big_endian then bswap32 w else w) land 0xFFFFFFFF
  in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 16 <= stop do
    let w0 = u32 !i lxor !c
    and w1 = u32 (!i + 4)
    and w2 = u32 (!i + 8)
    and w3 = u32 (!i + 12) in
    c :=
      tb 15 (w0 land 0xff)
      lxor tb 14 ((w0 lsr 8) land 0xff)
      lxor tb 13 ((w0 lsr 16) land 0xff)
      lxor tb 12 (w0 lsr 24)
      lxor tb 11 (w1 land 0xff)
      lxor tb 10 ((w1 lsr 8) land 0xff)
      lxor tb 9 ((w1 lsr 16) land 0xff)
      lxor tb 8 (w1 lsr 24)
      lxor tb 7 (w2 land 0xff)
      lxor tb 6 ((w2 lsr 8) land 0xff)
      lxor tb 5 ((w2 lsr 16) land 0xff)
      lxor tb 4 (w2 lsr 24)
      lxor tb 3 (w3 land 0xff)
      lxor tb 2 ((w3 lsr 8) land 0xff)
      lxor tb 1 ((w3 lsr 16) land 0xff)
      lxor tb 0 (w3 lsr 24);
    i := !i + 16
  done;
  while !i < stop do
    c :=
      tb 0 ((!c lxor Char.code (Bytes.unsafe_get buf !i)) land 0xff)
      lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub (Bytes.unsafe_of_string s) 0 (String.length s)

(* ---------------- splitmix64 --------------------------------------- *)

let golden_gamma = 0x9E3779B97F4A7C15L

(* the splitmix64 finaliser (Steele, Lea & Flood 2014) *)
let splitmix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let splitmix_at base i =
  splitmix64 (Int64.add base (Int64.mul (Int64.of_int (i + 1)) golden_gamma))

(* [Random.State.make] takes native ints; keep the low 62 bits *)
let seed_words base =
  Array.init 4 (fun i ->
      Int64.to_int (Int64.logand (splitmix_at base i) 0x3FFFFFFFFFFFFFFFL))

(* ---------------- the choice mixer --------------------------------- *)

let choice_mix ~seed step =
  let z = ref (seed + (step * 0x9E3779B9) + 0x85EBCA6B) in
  z := (!z lxor (!z lsr 16)) * 0x45D9F3B;
  z := (!z lxor (!z lsr 16)) * 0x45D9F3B;
  (!z lxor (!z lsr 16)) land max_int
