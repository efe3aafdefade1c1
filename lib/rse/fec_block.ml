(* FEC-block bookkeeping over the codec registry.  This module owns the
   protocol-facing state of one transmission group — which repair
   packets the sender has issued, how far along the receiver is.  A
   codec is only a coefficient-row source ([Codec.repair_rows]): the
   sender applies a row with the one encoder loop, and the receiver is
   the one elimination decoder over the same rows. *)

module Gf = Rmc_gf.Gf
module Elimination = Codec_core.Elimination

module Sender = struct
  type t = {
    k : int;
    h : int;
    data : Bytes.t array;
    row : int -> Bytes.t; (* fresh coefficient row of repair j *)
    cache : Bytes.t option array; (* repair j once encoded *)
    mutable issued : int; (* next unissued repair index *)
  }

  let create ~codec ~h data =
    let k = Array.length data in
    let row = Codec.repair_rows codec ~k ~h in
    let len = Bytes.length data.(0) in
    if Array.exists (fun p -> Bytes.length p <> len) data then
      invalid_arg "Fec_block.Sender.create: unequal packet lengths";
    { k; h; data; row; cache = Array.make h None; issued = 0 }

  let k t = t.k
  let h t = t.h
  let data t = t.data

  let parity t j =
    if j < 0 || j >= t.h then invalid_arg "Fec_block.Sender.parity: index out of range";
    match t.cache.(j) with
    | Some payload -> payload
    | None ->
      let payload = Codec_core.combine Gf.gf256 ~row:(t.row j) t.data in
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
  type t = Elimination.t

  let create ~codec ~k ~h =
    Elimination.make ~label:(Codec.label codec) ~field:Gf.gf256 ~k ~h
      ~repair_row:(Codec.repair_rows codec ~k ~h)

  let k = Elimination.k
  let h = Elimination.h

  let add d ~index payload =
    if index < 0 || index >= Elimination.k d + Elimination.h d then
      invalid_arg "Fec_block.Receiver.add: index out of range";
    Elimination.add d ~index payload

  let received = Elimination.received
  let needed = Elimination.needed
  let complete = Elimination.complete
  let has_data = Elimination.has_data
  let missing_data = Elimination.missing_data

  let decode d =
    if not (Elimination.complete d) then failwith "Fec_block.Receiver.decode: not enough packets";
    Elimination.decode d
end
