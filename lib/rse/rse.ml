module Gf = Rmc_gf.Gf
module Gmatrix = Rmc_matrix.Gmatrix

type t = Codec_core.t

let create ?(field = Gf.gf256) ~k ~h () =
  Codec_core.memo_create ~label:"Rse" ~field ~k ~h (fun () ->
      Codec_core.check_dimensions ~label:"Rse" ~field ~k ~h;
      let vandermonde = Gmatrix.vandermonde field ~rows:(k + h) ~cols:k in
      let generator = Gmatrix.systematise vandermonde in
      Codec_core.make ~field (Array.init h (fun j -> Gmatrix.row generator (k + j))))

let parity_row = Codec_core.parity_row
