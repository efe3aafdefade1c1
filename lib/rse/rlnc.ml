module Gf = Rmc_gf.Gf

let gf = Gf.gf256
let q = 256

let kind = `Rlnc
let label = "Rlnc"
let caps = { Codec_intf.systematic = true; rateless = true }

(* The wire index field is 16-bit and repair j travels as index k + j. *)
let max_repair ~k = 0xFFFF - k

let check_block ~k ~h =
  if k < 1 then invalid_arg (label ^ ".create: k must be >= 1");
  if h < 0 then invalid_arg (label ^ ".create: h must be >= 0");
  if h > max_repair ~k then
    invalid_arg (label ^ ".create: k + h exceeds the 16-bit wire index space")

(* The dense coefficient row of repair packet [j]: k uniform GF(256)
   bytes from the (k, j)-seeded stream.  The all-zero row (probability
   256^-k) is re-drawn with a bumped salt so every repair packet is a
   genuine combination; both sides perform the identical redraw. *)
let coefficients ~k ~j =
  let row = Bytes.create k in
  let salt = ref 0 and nonzero = ref false in
  while not !nonzero do
    let prng = Codec_prng.of_block ~k ~j ~salt:!salt in
    for i = 0 to k - 1 do
      let c = Codec_prng.byte prng in
      if c <> 0 then nonzero := true;
      Bytes.set_uint8 row i c
    done;
    incr salt
  done;
  row

let innovation_probability ~k ~rank =
  if rank >= k then 0.0 else 1.0 -. (float_of_int q ** float_of_int (rank - k))

let decode_failure_probability ~k ~received =
  if received < k then 1.0
  else begin
    (* Tsimbalo et al.: a uniform random (received x k) matrix over GF(q)
       has full column rank with probability
       prod_{i=0}^{k-1} (1 - q^(i - received)). *)
    let p_full = ref 1.0 in
    for i = 0 to k - 1 do
      p_full := !p_full *. (1.0 -. (float_of_int q ** float_of_int (i - received)))
    done;
    1.0 -. !p_full
  end

module Encoder = struct
  type t = { k : int; h : int; data : Bytes.t array; payload_len : int }

  let create ~k ~h data =
    check_block ~k ~h;
    if Array.length data <> k then
      invalid_arg (label ^ ".Encoder.create: expected k data packets");
    let payload_len = Bytes.length data.(0) in
    Array.iter
      (fun p ->
        if Bytes.length p <> payload_len then
          invalid_arg (label ^ ".Encoder.create: unequal packet lengths"))
      data;
    { k; h; data; payload_len }

  let k e = e.k
  let h e = e.h

  let repair e j =
    if j < 0 || j >= e.h then invalid_arg (label ^ ".Encoder.repair: index out of range");
    let row = coefficients ~k:e.k ~j in
    let out = Bytes.make e.payload_len '\000' in
    for i = 0 to e.k - 1 do
      let coeff = Bytes.get_uint8 row i in
      if coeff <> 0 then Gf.mul_add_into gf ~dst:out ~src:e.data.(i) ~coeff
    done;
    out
end

(* Rank tracking is the shared elimination decoder; the coefficient row
   of repair [j] is re-derived from [(k, j)]. *)
module Decoder = struct
  include Codec_core.Elimination

  let create ~k ~h =
    check_block ~k ~h;
    make ~label ~field:gf ~k ~h ~repair_row:(fun j -> coefficients ~k ~j)
end
