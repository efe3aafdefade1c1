type kind = [ `Rse | `Cauchy | `Rlnc ]
type t = kind

let all : kind list = [ `Rse; `Cauchy; `Rlnc ]
let of_kind (kind : kind) : t = kind
let label = function `Rse -> "Rse" | `Cauchy -> "Cauchy" | `Rlnc -> "Rlnc"

(* The block codecs live inside GF(2^8)'s 255 codeword positions. *)
let max_repair t ~k =
  match t with `Rse | `Cauchy -> 255 - k | `Rlnc -> Rlnc.max_repair ~k

let innovation_probability t ~k ~rank =
  match t with `Rse | `Cauchy -> 1.0 | `Rlnc -> Rlnc.innovation_probability ~k ~rank

let decode_failure_probability t ~k ~received =
  match t with
  | `Rse | `Cauchy -> if received >= k then 0.0 else 1.0
  | `Rlnc -> Rlnc.decode_failure_probability ~k ~received

let repair_rows t ~k ~h =
  match t with
  | `Rse -> Rse.parity_row (Rse.create ~k ~h ())
  | `Cauchy -> Cauchy.parity_row (Cauchy.create ~k ~h ())
  | `Rlnc ->
    Rlnc.check_block ~k ~h;
    fun j -> Rlnc.coefficients ~k ~j
