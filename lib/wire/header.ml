type message =
  | Data of { tg_id : int; k : int; index : int; payload : Bytes.t }
  | Parity of { tg_id : int; k : int; index : int; round : int; payload : Bytes.t }
  | Poll of { tg_id : int; k : int; size : int; round : int }
  | Nak of { tg_id : int; need : int; round : int }
  | Exhausted of { tg_id : int }

let header_size = 26
let max_datagram = 65536
let magic = "RMCP"
let version = 2
let crc_offset = 22
let tg_id_offset = 6

(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over the whole datagram
   with the checksum field itself treated as zero.  UDP's 16-bit checksum is
   optional and weak; without an application-level check, a corrupted DATA
   payload would decode cleanly and silently poison the FEC block.

   The checksum is every datagram's dominant per-byte cost (it runs once per
   encode and once per decode), so it lives in C ([crc_stubs.c]) with two
   paths: PCLMULQDQ folding for the payload where the host has it, and
   slicing-by-8 for the header, the tails and every other host.  The best
   path is chosen once, here.  The external neither allocates nor raises,
   so callers check the slice first. *)

external crc_init : unit -> int = "rmc_crc_init"

external crc_datagram :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "rmc_crc_datagram_byte" "rmc_crc_datagram"
[@@noalloc]

let path_names = [| "portable"; "pclmul" |]

(* Index into [path_names]; every path below it runs here too. *)
let best_path = crc_init ()

(* CRC of the datagram occupying [off, off+len) of [buffer]; [len] must be
   at least [header_size] and the slice in bounds (callers validate). *)
let datagram_crc_slice buffer ~off ~len = crc_datagram buffer off len best_path

let datagram_crc buffer =
  if Bytes.length buffer < header_size then invalid_arg "Header.datagram_crc: truncated buffer";
  datagram_crc_slice buffer ~off:0 ~len:(Bytes.length buffer)

let type_code = function
  | Data _ -> 1
  | Parity _ -> 2
  | Poll _ -> 3
  | Nak _ -> 4
  | Exhausted _ -> 5

let message_type_name = function
  | Data _ -> "DATA"
  | Parity _ -> "PARITY"
  | Poll _ -> "POLL"
  | Nak _ -> "NAK"
  | Exhausted _ -> "EXHAUSTED"

let set_u16 b off v = Bytes.set_uint16_be b off v
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u16 = Bytes.get_uint16_be
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

let tg_id = function
  | Data { tg_id; _ } | Parity { tg_id; _ } | Poll { tg_id; _ } | Nak { tg_id; _ }
  | Exhausted { tg_id } ->
    tg_id

(* tg_id and round are full 32-bit wire fields; the bound must match what
   {!decode} can produce or a legitimately decoded message cannot be
   re-encoded (the old cap was 0xFFFFFFF, a 28-bit typo). *)
let validate_ranges ~tg_id ~k ~aux ~round =
  if tg_id < 0 || tg_id > 0xFFFF_FFFF then invalid_arg "Header: tg_id out of range";
  if k < 0 || k > 0xFFFF then invalid_arg "Header: k out of range";
  if aux < 0 || aux > 0xFFFF then invalid_arg "Header: index/need/size out of range";
  if round < 0 || round > 0xFFFF_FFFF then invalid_arg "Header: round out of range"

let encoded_size message =
  header_size
  + (match message with
    | Data { payload; _ } | Parity { payload; _ } -> Bytes.length payload
    | Poll _ | Nak _ | Exhausted _ -> 0)

(* Every message type reaches this one writer with its fields as labelled
   arguments, never as a tuple or an option, so encoding allocates nothing;
   control messages write the shared empty payload. *)
let write buffer ~off ~code ~tg_id ~k ~aux ~round payload =
  validate_ranges ~tg_id ~k ~aux ~round;
  if code = 1 && aux >= k then invalid_arg "Header: data index must be < k";
  let payload_len = Bytes.length payload in
  let total = header_size + payload_len in
  if off < 0 || off > Bytes.length buffer - total then
    invalid_arg "Header.encode_into: datagram does not fit the buffer";
  Bytes.blit_string magic 0 buffer off 4;
  Bytes.set_uint8 buffer (off + 4) version;
  Bytes.set_uint8 buffer (off + 5) code;
  set_u32 buffer (off + tg_id_offset) tg_id;
  set_u16 buffer (off + 10) k;
  set_u16 buffer (off + 12) aux;
  set_u32 buffer (off + 14) round;
  set_u32 buffer (off + 18) payload_len;
  Bytes.blit payload 0 buffer (off + header_size) payload_len;
  set_u32 buffer (off + crc_offset) (datagram_crc_slice buffer ~off ~len:total);
  total

let encode_into buffer ~off message =
  let code = type_code message in
  match message with
  | Data { tg_id; k; index; payload } ->
    write buffer ~off ~code ~tg_id ~k ~aux:index ~round:0 payload
  | Parity { tg_id; k; index; round; payload } ->
    write buffer ~off ~code ~tg_id ~k ~aux:index ~round payload
  | Poll { tg_id; k; size; round } -> write buffer ~off ~code ~tg_id ~k ~aux:size ~round Bytes.empty
  | Nak { tg_id; need; round } -> write buffer ~off ~code ~tg_id ~k:0 ~aux:need ~round Bytes.empty
  | Exhausted { tg_id } -> write buffer ~off ~code ~tg_id ~k:0 ~aux:0 ~round:0 Bytes.empty

let encode message =
  (* [encode_into] writes every one of the [encoded_size] bytes, so an
     uninitialized buffer is fine. *)
  let buffer = Bytes.create (encoded_size message) in
  let _ = encode_into buffer ~off:0 message in
  buffer

let reseal_slice buffer ~off ~len =
  if off < 0 || len < header_size || off > Bytes.length buffer - len then
    invalid_arg "Header.reseal: truncated buffer";
  set_u32 buffer (off + crc_offset) (datagram_crc_slice buffer ~off ~len)

let reseal buffer = reseal_slice buffer ~off:0 ~len:(Bytes.length buffer)

let set_tg_id buffer ~off tg_id =
  if tg_id < 0 || tg_id > 0xFFFF_FFFF then invalid_arg "Header.set_tg_id: tg_id out of range";
  if off < 0 || off > Bytes.length buffer - header_size then
    invalid_arg "Header.set_tg_id: truncated buffer";
  set_u32 buffer (off + tg_id_offset) tg_id

(* The slice parser is the datapath's per-packet cost, so it is written
   with an early-exit exception instead of a [Result.bind] chain: the
   success path allocates nothing beyond the message (and, for DATA and
   PARITY, the one unavoidable payload copy out of the caller's reusable
   recv buffer), and every rejection reuses a constant string.  The
   exception never escapes. *)
exception Bad of string

let decode_slice buffer ~off ~len =
  match
    if off < 0 || len < 0 || off > Bytes.length buffer - len then raise (Bad "slice out of bounds");
    if len < header_size then raise (Bad "truncated header");
    if
      not
        (Bytes.get buffer off = 'R'
        && Bytes.get buffer (off + 1) = 'M'
        && Bytes.get buffer (off + 2) = 'C'
        && Bytes.get buffer (off + 3) = 'P')
    then raise (Bad "bad magic");
    if Bytes.get_uint8 buffer (off + 4) <> version then raise (Bad "unsupported version");
    let code = Bytes.get_uint8 buffer (off + 5) in
    let tg_id = get_u32 buffer (off + tg_id_offset) in
    let k = get_u16 buffer (off + 10) in
    let aux = get_u16 buffer (off + 12) in
    let round = get_u32 buffer (off + 14) in
    let payload_len = get_u32 buffer (off + 18) in
    if len <> header_size + payload_len then raise (Bad "length field mismatch");
    if get_u32 buffer (off + crc_offset) <> datagram_crc_slice buffer ~off ~len then
      raise (Bad "checksum mismatch");
    match code with
    | 1 ->
      if payload_len = 0 then raise (Bad "DATA without payload");
      if aux >= k then raise (Bad "DATA index not below k");
      Data { tg_id; k; index = aux; payload = Bytes.sub buffer (off + header_size) payload_len }
    | 2 ->
      if payload_len = 0 then raise (Bad "PARITY without payload");
      Parity
        { tg_id; k; index = aux; round; payload = Bytes.sub buffer (off + header_size) payload_len }
    | 3 ->
      if payload_len <> 0 then raise (Bad "POLL with payload");
      Poll { tg_id; k; size = aux; round }
    | 4 ->
      if payload_len <> 0 then raise (Bad "NAK with payload");
      Nak { tg_id; need = aux; round }
    | 5 ->
      if payload_len <> 0 then raise (Bad "EXHAUSTED with payload");
      Exhausted { tg_id }
    | other -> raise (Bad (Printf.sprintf "unknown message type %d" other))
  with
  | message -> Ok message
  | exception Bad reason -> Error reason

let decode buffer = decode_slice buffer ~off:0 ~len:(Bytes.length buffer)

(* Coalesced frames: one UDP datagram may carry several consecutive
   messages (the batched transport packs a whole tick into one frame).
   [frame_length] reads just enough of the message at [off] — magic,
   version, payload length — to delimit it, so a frame walk is
   [frame_length] + [decode_slice] per message with no second parse of
   the payload. *)
let frame_length buffer ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length buffer - len then Error "slice out of bounds"
  else if len < header_size then Error "truncated header"
  else if
    not
      (Bytes.get buffer off = 'R'
      && Bytes.get buffer (off + 1) = 'M'
      && Bytes.get buffer (off + 2) = 'C'
      && Bytes.get buffer (off + 3) = 'P')
  then Error "bad magic"
  else if Bytes.get_uint8 buffer (off + 4) <> version then Error "unsupported version"
  else begin
    let total = header_size + get_u32 buffer (off + 18) in
    if total > len then Error "truncated message" else Ok total
  end

let equal a b =
  match (a, b) with
  | Data x, Data y ->
    x.tg_id = y.tg_id && x.k = y.k && x.index = y.index && Bytes.equal x.payload y.payload
  | Parity x, Parity y ->
    x.tg_id = y.tg_id && x.k = y.k && x.index = y.index && x.round = y.round
    && Bytes.equal x.payload y.payload
  | Poll x, Poll y -> x.tg_id = y.tg_id && x.k = y.k && x.size = y.size && x.round = y.round
  | Nak x, Nak y -> x.tg_id = y.tg_id && x.need = y.need && x.round = y.round
  | Exhausted x, Exhausted y -> x.tg_id = y.tg_id
  | (Data _ | Parity _ | Poll _ | Nak _ | Exhausted _), _ -> false

let pp ppf message =
  match message with
  | Data { tg_id; k; index; payload } ->
    Format.fprintf ppf "DATA(tg=%d, k=%d, index=%d, %d bytes)" tg_id k index
      (Bytes.length payload)
  | Parity { tg_id; k; index; round; payload } ->
    Format.fprintf ppf "PARITY(tg=%d, k=%d, index=%d, round=%d, %d bytes)" tg_id k index
      round (Bytes.length payload)
  | Poll { tg_id; k; size; round } ->
    Format.fprintf ppf "POLL(tg=%d, k=%d, size=%d, round=%d)" tg_id k size round
  | Nak { tg_id; need; round } -> Format.fprintf ppf "NAK(tg=%d, need=%d, round=%d)" tg_id need round
  | Exhausted { tg_id } -> Format.fprintf ppf "EXHAUSTED(tg=%d)" tg_id

module For_testing = struct
  let paths = Array.to_list (Array.sub path_names 0 (best_path + 1))

  let path_index path =
    let rec find p =
      if p > best_path then
        invalid_arg ("Header.For_testing: no CRC path " ^ path ^ " on this host")
      else if path_names.(p) = path then p
      else find (p + 1)
    in
    find 0

  let datagram_crc_slice ~path buffer ~off ~len =
    if off < 0 || len < header_size || off > Bytes.length buffer - len then
      invalid_arg "Header.For_testing.datagram_crc_slice: bad slice";
    crc_datagram buffer off len (path_index path)
end
