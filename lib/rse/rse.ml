module Gf = Rmc_gf.Gf
module Gmatrix = Rmc_matrix.Gmatrix

type t = Codec_core.t

let create ?(field = Gf.gf256) ~k ~h () =
  Codec_core.memo_create ~label:"Rse" ~field ~k ~h (fun () ->
      Codec_core.check_dimensions ~label:"Rse" ~field ~k ~h;
      let vandermonde = Gmatrix.vandermonde field ~rows:(k + h) ~cols:k in
      let generator = Gmatrix.systematise vandermonde in
      Codec_core.make ~label:"Rse" ~field ~k ~h ~generator)

let k = Codec_core.k
let h = Codec_core.h
let n = Codec_core.n
let field = Codec_core.field
let generator_row = Codec_core.generator_row
let parity_row = Codec_core.parity_row
let encode_parity = Codec_core.encode_parity
let encode = Codec_core.encode
let decode = Codec_core.decode
let decode_data_loss = Codec_core.decode_data_loss
let is_mds_subset = Codec_core.is_mds_subset
