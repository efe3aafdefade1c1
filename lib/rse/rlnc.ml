let q = 256

(* The wire index field is 16-bit and repair j travels as index k + j. *)
let max_repair ~k = 0xFFFF - k

let check_block ~k ~h =
  if k < 1 then invalid_arg "Rlnc.create: k must be >= 1";
  if h < 0 then invalid_arg "Rlnc.create: h must be >= 0";
  if h > max_repair ~k then invalid_arg "Rlnc.create: k + h exceeds the 16-bit wire index space"

(* {1 The (k, j) stream}

   Encoder and decoder never exchange coefficients: both re-derive the
   row of repair [j] of a [k]-block from a splitmix64 stream seeded by
   [(k, j, salt)] alone.  Splitmix64 because it is tiny and any 64-bit
   seed gives an independent-looking stream; [rmc_rse] sits below
   [rmc_numerics], so the simulation [Rng] is out of reach here.

   The derivation is part of the wire contract: changing these constants
   or the mixing breaks decode against previously captured streams. *)

let golden = 0x9e3779b97f4a7c15L
let mix1 = 0xbf58476d1ce4e5b9L
let mix2 = 0x94d049bb133111ebL

let next state =
  state := Int64.add !state golden;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) mix1 in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) mix2 in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* FNV-style fold of (k, j, salt) into the seed, then one mix round so
   that nearby (k, j) pairs do not start from nearby internal states. *)
let stream ~k ~j ~salt =
  let mix acc v = Int64.add (Int64.mul acc 0x100000001b3L) (Int64.of_int v) in
  let state = ref (mix (mix (mix 0xcbf29ce484222325L k) j) salt) in
  ignore (next state);
  state

(* The dense coefficient row of repair packet [j]: k uniform GF(256)
   bytes from the (k, j)-seeded stream.  The all-zero row (probability
   256^-k) is re-drawn with a bumped salt so every repair packet is a
   genuine combination; both sides perform the identical redraw. *)
let coefficients ~k ~j =
  let row = Bytes.create k in
  let salt = ref 0 and nonzero = ref false in
  while not !nonzero do
    let state = stream ~k ~j ~salt:!salt in
    for i = 0 to k - 1 do
      let c = Int64.to_int (Int64.logand (next state) 0xffL) in
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
