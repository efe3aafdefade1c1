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

(* The dense coefficient vector of repair packet [j]: k uniform GF(256)
   bytes from the (k, j)-seeded stream.  The all-zero vector (probability
   256^-k) is re-drawn with a bumped salt so every repair packet is a
   genuine combination; both sides perform the identical redraw. *)
let coefficients ~k ~j =
  let rec attempt salt =
    let prng = Codec_prng.of_block ~k ~j ~salt in
    let row = Array.init k (fun _ -> Codec_prng.byte prng) in
    if Array.exists (fun c -> c <> 0) row then row else attempt (salt + 1)
  in
  attempt 0

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
      let coeff = row.(i) in
      if coeff <> 0 then Gf.mul_add_into gf ~dst:out ~src:e.data.(i) ~coeff
    done;
    out
end

module Decoder = struct
  (* Incremental Gaussian elimination.  [coeffs.(c)]/[payloads.(c)] hold
     the pivot row whose leading 1 sits at column [c] (zero to its left,
     arbitrary to its right — reduction above the diagonal is deferred to
     [decode]).  A data packet that arrives verbatim is the unit pivot of
     its own column: its payload is kept by reference and never mutated,
     and its row is not stored ([coeffs.(c)] stays empty).  A repair
     packet is copied and eliminated against the pivots left to right;
     what survives is either a fresh pivot (innovative) or zero (linearly
     dependent, rejected). *)
  type t = {
    k : int;
    h : int;
    coeffs : int array array; (* k pivot rows; row c has lead 1 at c; [||] = unit *)
    payloads : Bytes.t array; (* parallel to coeffs *)
    present : bool array; (* pivot installed at column c *)
    direct : bool array; (* data index received verbatim *)
    mutable rank : int;
    mutable payload_len : int; (* -1 until the first add *)
    mutable decoded : bool;
  }

  let create ~k ~h =
    check_block ~k ~h;
    {
      k;
      h;
      coeffs = Array.make k [||];
      payloads = Array.make k Bytes.empty;
      present = Array.make k false;
      direct = Array.make k false;
      rank = 0;
      payload_len = -1;
      decoded = false;
    }

  let received d = d.rank
  let needed d = d.k - d.rank
  let complete d = d.rank >= d.k

  let has_data d index =
    if index < 0 || index >= d.k then
      invalid_arg (label ^ ".Decoder.has_data: index out of range");
    d.direct.(index)

  let missing_data d = List.filter (fun j -> not d.direct.(j)) (List.init d.k Fun.id)

  let is_unit d c = Array.length d.coeffs.(c) = 0

  (* Eliminate the owned row [row]/[y], zero left of column [from],
     against the pivots; install what survives as a new pivot.  [true]
     iff the row was innovative. *)
  let reduce d row y ~from =
    let lead = ref (-1) in
    let c = ref from in
    while !c < d.k do
      let coeff = row.(!c) in
      if coeff <> 0 then
        if d.present.(!c) then begin
          (* row -= coeff * pivot(c); subtraction = addition here. *)
          if is_unit d !c then row.(!c) <- 0
          else begin
            let pivot = d.coeffs.(!c) in
            for e = !c to d.k - 1 do
              row.(e) <- Gf.add row.(e) (Gf.mul gf coeff pivot.(e))
            done
          end;
          Gf.mul_add_into gf ~dst:y ~src:d.payloads.(!c) ~coeff
        end
        else begin
          lead := !c;
          c := d.k (* first surviving column: this is the new pivot *)
        end;
      incr c
    done;
    if !lead < 0 then false
    else begin
      let lead = !lead in
      (* Normalise the pivot to a leading 1. *)
      let inv = Gf.inv gf row.(lead) in
      if inv <> 1 then begin
        for e = lead to d.k - 1 do
          row.(e) <- Gf.mul gf inv row.(e)
        done;
        Gf.mul_into gf ~dst:y ~src:y ~coeff:inv
      end;
      d.coeffs.(lead) <- row;
      d.payloads.(lead) <- y;
      d.present.(lead) <- true;
      d.rank <- d.rank + 1;
      true
    end

  let add d ~index payload =
    if index < 0 || index >= d.k + d.h then
      invalid_arg (label ^ ".Decoder.add: index out of range");
    if d.payload_len < 0 then d.payload_len <- Bytes.length payload
    else if Bytes.length payload <> d.payload_len then
      invalid_arg (label ^ ".Decoder.add: unequal payload lengths");
    if index < d.k then d.direct.(index) <- true;
    if complete d then false
    else if index >= d.k then
      (* Copy before eliminating: the seam passes ownership, but a repair
         pivot's payload is mutated by later eliminations and by [decode]. *)
      reduce d (coefficients ~k:d.k ~j:(index - d.k)) (Bytes.copy payload) ~from:0
    else if not d.present.(index) then begin
      d.payloads.(index) <- payload;
      d.present.(index) <- true;
      d.rank <- d.rank + 1;
      true
    end
    else if is_unit d index then false (* duplicate *)
    else begin
      (* A repair row holds this column: the data packet takes it over as
         its unit pivot, and the displaced row, minus the data packet, is
         reduced further — innovative iff the data packet was. *)
      let row = d.coeffs.(index) and y = d.payloads.(index) in
      d.coeffs.(index) <- [||];
      d.payloads.(index) <- payload;
      row.(index) <- 0;
      Gf.xor_into ~dst:y ~src:payload;
      reduce d row y ~from:(index + 1)
    end

  let decode d =
    if not (complete d) then failwith (label ^ ".Decoder.decode: not enough packets");
    if not d.decoded then begin
      (* Back-substitute: clear everything above each diagonal 1, bottom
         up, so payload c becomes data packet c.  Unit rows are already
         clear — they are only ever the source.  Idempotent: the cleared
         coefficients stay zero. *)
      for i = d.k - 1 downto 1 do
        for row = 0 to i - 1 do
          if not (is_unit d row) then begin
            let coeff = d.coeffs.(row).(i) in
            if coeff <> 0 then begin
              Gf.mul_add_into gf ~dst:d.payloads.(row) ~src:d.payloads.(i) ~coeff;
              d.coeffs.(row).(i) <- 0
            end
          end
        done
      done;
      d.decoded <- true
    end;
    Array.init d.k (fun i -> d.payloads.(i))
end
