(* FEC-block bookkeeping over the codec seam.  This module owns the
   protocol-facing state of one transmission group — which repair
   packets the sender has issued, how far along the receiver is — while
   the codec itself stays behind [Codec_intf]: [create] unpacks the
   first-class codec module once and keeps the typed encoder (behind a
   closure) or decoder (packed with its module), so no existential type
   leaks and everything above this line is codec-agnostic. *)

module Sender = struct
  type t = {
    k : int;
    h : int;
    data : Bytes.t array;
    repair : int -> Bytes.t;
    cache : Bytes.t option array; (* repair j once encoded *)
    mutable issued : int; (* next unissued repair index *)
  }

  let create ~codec ~h data =
    let (module C : Codec_intf.CODEC) = codec in
    let k = Array.length data in
    let enc = C.Encoder.create ~k ~h data in
    {
      k;
      h;
      data;
      repair = (fun j -> C.Encoder.repair enc j);
      cache = Array.make h None;
      issued = 0;
    }

  let k t = t.k
  let h t = t.h
  let data t = t.data

  let parity t j =
    if j < 0 || j >= t.h then invalid_arg "Fec_block.Sender.parity: index out of range";
    match t.cache.(j) with
    | Some payload -> payload
    | None ->
      let payload = t.repair j in
      t.cache.(j) <- Some payload;
      payload

  let parities_issued t = t.issued

  let next_parities t l =
    if l < 0 then invalid_arg "Fec_block.Sender.next_parities: negative count";
    if t.issued + l > t.h then
      failwith "Fec_block.Sender.next_parities: parity budget exhausted";
    let out =
      List.init l (fun offset ->
          let j = t.issued + offset in
          (j, parity t j))
    in
    t.issued <- t.issued + l;
    out

  let precompute t =
    for j = 0 to t.h - 1 do
      ignore (parity t j)
    done
end

module Receiver = struct
  (* The typed decoder, packed with its codec's decoder module: one
     block per receiver rather than a closure per operation. *)
  type t =
    | Receiver : {
        k : int;
        h : int;
        decoder : (module Codec_intf.DECODER with type t = 'd);
        d : 'd;
      }
        -> t

  let create ~codec ~k ~h =
    let (module C : Codec_intf.CODEC) = codec in
    Receiver { k; h; decoder = (module C.Decoder); d = C.Decoder.create ~k ~h }

  let k (Receiver r) = r.k
  let h (Receiver r) = r.h

  let add (Receiver { k; h; decoder = (module D); d }) ~index payload =
    if index < 0 || index >= k + h then invalid_arg "Fec_block.Receiver.add: index out of range";
    D.add d ~index payload

  let received (Receiver { decoder = (module D); d; _ }) = D.received d
  let needed (Receiver { decoder = (module D); d; _ }) = D.needed d
  let complete (Receiver { decoder = (module D); d; _ }) = D.complete d
  let has_data (Receiver { decoder = (module D); d; _ }) index = D.has_data d index
  let missing_data (Receiver { decoder = (module D); d; _ }) = D.missing_data d

  let decode (Receiver { decoder = (module D); d; _ }) =
    if not (D.complete d) then failwith "Fec_block.Receiver.decode: not enough packets";
    D.decode d
end
