module Gf = Rmc_gf.Gf

type t = Codec_core.t

let create ?(field = Gf.gf256) ~k ~h () =
  Codec_core.memo_create ~label:"Rse" ~field ~k ~h (fun () ->
      Codec_core.check_dimensions ~label:"Rse" ~field ~k ~h;
      (* Generator row k + j of the systematised Vandermonde code is
         (1, y, ..., y^(k-1)) V_top^-1 at y = alpha^(k+j): the Lagrange
         basis of the data points x_i = alpha^i evaluated at y,
         L_i(y) = N(y) / ((y + x_i) w_i) with N(y) = prod_l (y + x_l) and
         w_i = prod_{l <> i} (x_i + x_l).  The k + h points alpha^0 ..
         alpha^(k+h-1) are distinct because check_dimensions bounds
         k + h by 2^m - 1, so no factor is zero. *)
      let x = Gf.exp field in
      let w = Array.make k 1 in
      for i = 0 to k - 1 do
        for l = 0 to k - 1 do
          if l <> i then w.(i) <- Gf.mul field w.(i) (Gf.add (x i) (x l))
        done
      done;
      Codec_core.make ~field
        (Array.init h (fun j ->
             let y = x (k + j) in
             let n = ref 1 in
             for l = 0 to k - 1 do
               n := Gf.mul field !n (Gf.add y (x l))
             done;
             let n = !n in
             Array.init k (fun i -> Gf.div field n (Gf.mul field (Gf.add y (x i)) w.(i))))))

let parity_row = Codec_core.parity_row
