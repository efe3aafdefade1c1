type codec = [ `Rse | `Cauchy | `Rlnc ]
type controller = [ `Static | `Ewma | `Gilbert_aware ]

type t = {
  k : int;
  h : int;
  proactive : int;
  payload_size : int;
  pacing : float;
  slot : float;
  pre_encode : bool;
  codec : codec;
  controller : controller;
}

let default =
  {
    k = 20;
    h = 40;
    proactive = 0;
    payload_size = 1024;
    pacing = 0.001;
    (* Suppression only works when a slot outlasts the receiver-to-receiver
       propagation delay (the first NAK must arrive before same-slot peers
       fire); 4x the simulator's default 25 ms delay keeps most same-slot
       timers quiet. *)
    slot = 0.100;
    pre_encode = false;
    codec = `Rse;
    controller = `Static;
  }

let default_udp =
  { k = 8; h = 16; proactive = 0; payload_size = 512; pacing = 0.0005; slot = 0.020;
    pre_encode = false; codec = `Rse; controller = `Static }

let codec_to_string = function
  | `Rse -> "rse"
  | `Cauchy -> "cauchy"
  | `Rlnc -> "rlnc"

let codec_of_string = function
  | "rse" -> Some `Rse
  | "cauchy" -> Some `Cauchy
  | "rlnc" -> Some `Rlnc
  | _ -> None

let controller_to_string = function
  | `Static -> "static"
  | `Ewma -> "ewma"
  | `Gilbert_aware -> "gilbert"

let controller_of_string = function
  | "static" -> Some `Static
  | "ewma" -> Some `Ewma
  | "gilbert" | "gilbert-aware" | "gilbert_aware" -> Some `Gilbert_aware
  | _ -> None

(* GF(2^8) gives 255 codeword positions; the block codecs on both the
   simulator and UDP paths build over that field.  The rateless codec
   has no codeword length — its repair budget is bounded only by the
   16-bit wire index space: the last repair packet travels as index
   k + h - 1, and RLNC caps k + h at 0xFFFF. *)
let max_codeword = 255
let max_wire_index = 0xFFFF

(* A packet travels as one datagram, on the simulator as over UDP: its
   payload fits behind the header. *)
let max_payload = Rmc_wire.Header.max_datagram - Rmc_wire.Header.header_size

let codec_is_rateless = function `Rlnc -> true | `Rse | `Cauchy -> false

let validate ?(context = "Profile") t =
  let fail fmt = Printf.ksprintf (fun reason -> Error (Error.make ~context reason)) fmt in
  if t.k < 1 then fail "k must be >= 1 (got %d)" t.k
  else if t.k > 0xFFFF then fail "k exceeds the 16-bit wire field (got %d)" t.k
  else if t.h < 0 then fail "h must be >= 0 (got %d)" t.h
  else if t.proactive < 0 || t.proactive > t.h then
    fail "need 0 <= proactive <= h (got proactive=%d, h=%d)" t.proactive t.h
  else if (not (codec_is_rateless t.codec)) && t.k + t.h > max_codeword then
    fail "k + h exceeds %d codeword positions (got %d; a rateless codec lifts this)"
      max_codeword (t.k + t.h)
  else if codec_is_rateless t.codec && t.k + t.h > max_wire_index then
    fail "k + h exceeds the 16-bit wire index space (got %d)" (t.k + t.h)
  else if t.payload_size < 1 then fail "payload_size must be >= 1 (got %d)" t.payload_size
  else if t.payload_size > max_payload then
    fail "payload_size must be <= %d to fit one %d-byte datagram (got %d)" max_payload
      Rmc_wire.Header.max_datagram t.payload_size
  else if not (t.pacing > 0.0 && Float.is_finite t.pacing) then
    fail "pacing must be positive and finite (got %g)" t.pacing
  else if not (t.slot > 0.0 && Float.is_finite t.slot) then
    fail "slot must be positive and finite (got %g)" t.slot
  else if t.controller <> `Static && t.h < 1 then
    fail "an adaptive controller (%s) needs a repair budget to retune (h = 0)"
      (controller_to_string t.controller)
  else Ok t

let validate_exn ?context t = Error.get_exn (validate ?context t)

let equal a b =
  a.k = b.k && a.h = b.h && a.proactive = b.proactive && a.payload_size = b.payload_size
  && a.pacing = b.pacing && a.slot = b.slot && a.pre_encode = b.pre_encode
  && a.codec = b.codec && a.controller = b.controller

let pp ppf t =
  Format.fprintf ppf
    "{k=%d; h=%d; proactive=%d; payload=%dB; pacing=%gs; slot=%gs; pre_encode=%b; codec=%s; \
     controller=%s}"
    t.k t.h t.proactive t.payload_size t.pacing t.slot t.pre_encode
    (codec_to_string t.codec)
    (controller_to_string t.controller)

let to_string t = Format.asprintf "%a" pp t
