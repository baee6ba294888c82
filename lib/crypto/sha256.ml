(* SHA-256 (FIPS 180-4), implemented from scratch; verified against the
   NIST test vectors in the test suite.

   The compression function runs on untagged native ints (word values
   masked to 32 bits) rather than boxed [Int32.t]: on a 64-bit host every
   Int32 operation allocates, which made hashing the dominant cost of the
   secure-update pipeline.  The message schedule lives in a scratch array
   inside the context, the rounds are a top-level function of the state
   (no closure per block) and the length is an immediate int, so
   steady-state hashing allocates nothing. *)

let () =
  (* the 32-bit arithmetic below needs the 63-bit native int *)
  if Sys.int_size < 63 then
    failwith "Sha256: requires a 64-bit platform"

let mask = 0xFFFF_FFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
    0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
    0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
    0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
    0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
    0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
    0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
    0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
    0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
    0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 words of chaining state *)
  w : int array; (* 64-word message schedule, reused every block *)
  block : Bytes.t; (* 64-byte input block being filled *)
  mutable block_len : int;
  mutable total_len : int; (* bytes hashed so far *)
}

(* Snapshot a context so a precomputed midstate (e.g. an HMAC key pad)
   can be extended many times.  The schedule array is pure scratch — a
   fresh one is fine. *)
let copy ctx =
  {
    h = Array.copy ctx.h;
    w = Array.make 64 0;
    block = Bytes.copy ctx.block;
    block_len = ctx.block_len;
    total_len = ctx.total_len;
  }

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
  }

(* Rotate a 32-bit value held in a native int.  The left shift may spill
   past bit 62 and wrap; only the low 32 bits survive the mask, which is
   exactly the rotation result. *)
let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

(* The 64 rounds over schedule [w], folded into the chaining state [hv].
   Tail-recursive so a..h live in registers across rounds (the ref-cell
   version paid 16 memory round-trips per round for the state rotation),
   and top-level so a block allocates no closure. *)
let rec rounds hv w t a b c d e f g h =
  if t = 64 then begin
    hv.(0) <- (hv.(0) + a) land mask;
    hv.(1) <- (hv.(1) + b) land mask;
    hv.(2) <- (hv.(2) + c) land mask;
    hv.(3) <- (hv.(3) + d) land mask;
    hv.(4) <- (hv.(4) + e) land mask;
    hv.(5) <- (hv.(5) + f) land mask;
    hv.(6) <- (hv.(6) + g) land mask;
    hv.(7) <- (hv.(7) + h) land mask
  end
  else begin
    let s1 = rotr e 6 lxor rotr e 11 lxor rotr e 25 in
    let ch = e land f lxor (lnot e land g) in
    let t1 =
      (h + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t) land mask
    in
    let s0 = rotr a 2 lxor rotr a 13 lxor rotr a 22 in
    let maj = a land b lxor (a land c) lxor (b land c) in
    let t2 = (s0 + maj) land mask in
    rounds hv w (t + 1) ((t1 + t2) land mask) a b c ((d + t1) land mask) e f g
  end

(* Precondition: [offset + 64 <= Bytes.length block] — callers only ever
   hand in full blocks. *)
let process_block ctx block offset =
  let w = ctx.w in
  for t = 0 to 15 do
    let base = offset + (4 * t) in
    Array.unsafe_set w t
      ((Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3)))
  done;
  (* [t] stays within [16, 63], so every schedule index is in bounds *)
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let y = Array.unsafe_get w (t - 2) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let hv = ctx.h in
  rounds hv w 0 hv.(0) hv.(1) hv.(2) hv.(3) hv.(4) hv.(5) hv.(6) hv.(7)

let update ctx data offset length =
  if offset < 0 || length < 0 || offset + length > Bytes.length data then
    invalid_arg "Sha256.update";
  ctx.total_len <- ctx.total_len + length;
  let pos = ref offset and remaining = ref length in
  (* top up a partial block first *)
  if ctx.block_len > 0 then begin
    let need = 64 - ctx.block_len in
    let chunk = min need !remaining in
    Bytes.blit data !pos ctx.block ctx.block_len chunk;
    ctx.block_len <- ctx.block_len + chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    if ctx.block_len = 64 then begin
      process_block ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  while !remaining >= 64 do
    process_block ctx data !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit data !pos ctx.block ctx.block_len !remaining;
    ctx.block_len <- ctx.block_len + !remaining
  end

(* Feed a window of a string without copying it.  [Bytes.unsafe_of_string]
   is sound here because [update] only ever reads from [data]. *)
let update_substring ctx s offset length =
  if offset < 0 || length < 0 || offset + length > String.length s then
    invalid_arg "Sha256.update_substring";
  update ctx (Bytes.unsafe_of_string s) offset length

let update_string ctx s = update_substring ctx s 0 (String.length s)

let finalize ctx =
  let bit_len = Int64.mul (Int64.of_int ctx.total_len) 8L in
  (* append 0x80, pad with zeros to 56 mod 64, then the 64-bit length *)
  let pad_len =
    let used = (ctx.block_len + 1) mod 64 in
    if used <= 56 then 56 - used else 120 - used
  in
  let trailer = Bytes.create (1 + pad_len + 8) in
  Bytes.fill trailer 0 (Bytes.length trailer) '\000';
  Bytes.set trailer 0 '\x80';
  Bytes.set_int64_be trailer (1 + pad_len) bit_len;
  (* bypass total_len accounting for the padding *)
  let saved = ctx.total_len in
  update ctx trailer 0 (Bytes.length trailer);
  ctx.total_len <- saved;
  let digest = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be digest (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.to_string digest

let digest_bytes data =
  let ctx = init () in
  update ctx data 0 (Bytes.length data);
  finalize ctx

let digest_string s =
  let ctx = init () in
  update_string ctx s;
  finalize ctx
