type kind = Codec_intf.kind
type caps = Codec_intf.caps = { systematic : bool; rateless : bool }

module type ENCODER = Codec_intf.ENCODER
module type DECODER = Codec_intf.DECODER
module type CODEC = Codec_intf.CODEC

type t = (module Codec_intf.CODEC)

let all : kind list = [ `Rse; `Cauchy; `Rlnc; `Lt ]

let of_kind : kind -> t = function
  | `Rse -> (module Rse.Codec)
  | `Cauchy -> (module Cauchy.Codec)
  | `Rlnc -> (module Rlnc)
  | `Lt -> (module Lt)

let kind (t : t) =
  let (module C) = t in
  C.kind

let label (t : t) =
  let (module C) = t in
  C.label

let caps (t : t) =
  let (module C) = t in
  C.caps

let max_repair (t : t) ~k =
  let (module C) = t in
  C.max_repair ~k

let innovation_probability (t : t) ~k ~rank =
  let (module C) = t in
  C.innovation_probability ~k ~rank

let decode_failure_probability (t : t) ~k ~received =
  let (module C) = t in
  C.decode_failure_probability ~k ~received
