module Gf = Rmc_gf.Gf
module Gmatrix = Rmc_matrix.Gmatrix

type t = Codec_core.t

let create ?(field = Gf.gf256) ~k ~h () =
  Codec_core.memo_create ~label:"Cauchy" ~field ~k ~h (fun () ->
      Codec_core.check_dimensions ~label:"Cauchy" ~field ~k ~h;
      let generator = Gmatrix.create field ~rows:(k + h) ~cols:k in
      for i = 0 to k - 1 do
        Gmatrix.set generator i i 1
      done;
      (* Parity row i, column j: 1 / (x_i + y_j) with y_j = j (j < k) and
         x_i = k + i — disjoint sets, all sums nonzero in characteristic 2. *)
      for i = 0 to h - 1 do
        for j = 0 to k - 1 do
          Gmatrix.set generator (k + i) j (Gf.inv field (Gf.add (k + i) j))
        done
      done;
      Codec_core.make ~label:"Cauchy" ~field ~k ~h ~generator)

let k = Codec_core.k
let h = Codec_core.h
let n = Codec_core.n
let generator_row = Codec_core.generator_row
let parity_row = Codec_core.parity_row
let encode_parity = Codec_core.encode_parity
let encode = Codec_core.encode
let decode = Codec_core.decode
let decode_data_loss = Codec_core.decode_data_loss
let is_mds_subset = Codec_core.is_mds_subset
