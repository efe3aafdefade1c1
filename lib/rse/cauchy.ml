module Gf = Rmc_gf.Gf

type t = Codec_core.t

let create ?(field = Gf.gf256) ~k ~h () =
  Codec_core.memo_create ~label:"Cauchy" ~field ~k ~h (fun () ->
      Codec_core.check_dimensions ~label:"Cauchy" ~field ~k ~h;
      (* Parity row i, column j: 1 / (x_i + y_j) with y_j = j (j < k) and
         x_i = k + i — disjoint sets, all sums nonzero in characteristic 2. *)
      Codec_core.make ~field
        (Array.init h (fun i -> Array.init k (fun j -> Gf.inv field (Gf.add (k + i) j)))))

let parity_row = Codec_core.parity_row
