module Header = Rmcast.Header

let message = Alcotest.testable Header.pp Header.equal

let roundtrip name msg =
  match Header.decode (Header.encode msg) with
  | Ok decoded -> Alcotest.check message name msg decoded
  | Error e -> Alcotest.fail (name ^ ": decode failed: " ^ e)

let test_roundtrip_all_types () =
  roundtrip "data" (Header.Data { tg_id = 7; k = 20; index = 3; payload = Bytes.of_string "hello" });
  roundtrip "parity"
    (Header.Parity { tg_id = 1; k = 7; index = 2; round = 4; payload = Bytes.of_string "par" });
  roundtrip "poll" (Header.Poll { tg_id = 0; k = 20; size = 20; round = 1 });
  roundtrip "nak" (Header.Nak { tg_id = 9; need = 3; round = 2 });
  roundtrip "exhausted" (Header.Exhausted { tg_id = 123456 })

let test_roundtrip_extremes () =
  roundtrip "max fields"
    (Header.Parity
       { tg_id = 0xFFFF_FFFF; k = 0xFFFF; index = 0xFFFF; round = 0xFFFF_FFFF;
         payload = Bytes.make 65536 '\xAB' });
  roundtrip "tiny payload" (Header.Data { tg_id = 0; k = 1; index = 0; payload = Bytes.make 1 '\x00' })

let qcheck_roundtrip =
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun kind ->
      int_range 0 100000 >>= fun tg_id ->
      int_range 1 255 >>= fun k ->
      int_range 0 (k - 1) >>= fun index ->
      int_range 0 1000 >>= fun round ->
      string_size ~gen:char (int_range 1 64) >>= fun payload ->
      let payload = Bytes.of_string payload in
      return
        (match kind with
        | 1 -> Header.Data { tg_id; k; index; payload }
        | 2 -> Header.Parity { tg_id; k; index; round; payload }
        | 3 -> Header.Poll { tg_id; k; size = index; round }
        | 4 -> Header.Nak { tg_id; need = index; round }
        | _ -> Header.Exhausted { tg_id }))
  in
  QCheck.Test.make ~count:500 ~name:"wire roundtrip" (QCheck.make gen) (fun msg ->
      match Header.decode (Header.encode msg) with
      | Ok decoded -> Header.equal msg decoded
      | Error _ -> false)

let qcheck_roundtrip_full_range =
  (* Every encodable field value survives the wire: tg_id and round over the
     full 32-bit range, k and index/need/size over the full 16-bit range. *)
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun kind ->
      int_range 0 0xFFFF_FFFF >>= fun tg_id ->
      int_range 1 0xFFFF >>= fun k ->
      int_range 0 0xFFFF >>= fun aux ->
      int_range 0 0xFFFF_FFFF >>= fun round ->
      string_size ~gen:char (int_range 1 256) >>= fun payload ->
      let payload = Bytes.of_string payload in
      return
        (match kind with
        | 1 -> Header.Data { tg_id; k; index = aux mod k; payload }
        | 2 -> Header.Parity { tg_id; k; index = aux; round; payload }
        | 3 -> Header.Poll { tg_id; k; size = aux; round }
        | 4 -> Header.Nak { tg_id; need = aux; round }
        | _ -> Header.Exhausted { tg_id }))
  in
  QCheck.Test.make ~count:1000 ~name:"wire roundtrip over full field ranges" (QCheck.make gen)
    (fun msg ->
      match Header.decode (Header.encode msg) with
      | Ok decoded -> Header.equal msg decoded
      | Error _ -> false)

let decode_is_total buffer =
  match Header.decode buffer with Ok _ | Error _ -> true | exception _ -> false

let qcheck_decode_never_raises_random =
  QCheck.Test.make ~count:2000 ~name:"decode total on arbitrary bytes"
    QCheck.(string_of_size (Gen.int_range 0 128))
    (fun s -> decode_is_total (Bytes.of_string s))

let qcheck_decode_never_raises_mutated =
  (* Valid datagrams, then truncated and bit-flipped: the adversarial shape
     a fault-injecting network actually produces. *)
  let gen =
    QCheck.Gen.(
      int_range 0 100000 >>= fun tg_id ->
      string_size ~gen:char (int_range 1 64) >>= fun payload ->
      int_range 0 12 >>= fun cut ->
      list_size (int_range 0 4) (pair (int_range 0 10000) (int_range 1 255)) >>= fun flips ->
      return (tg_id, payload, cut, flips))
  in
  QCheck.Test.make ~count:2000 ~name:"decode total on mutated datagrams" (QCheck.make gen)
    (fun (tg_id, payload, cut, flips) ->
      let buffer =
        Header.encode
          (Header.Parity { tg_id; k = 8; index = 1; round = 1; payload = Bytes.of_string payload })
      in
      let buffer = Bytes.sub buffer 0 (max 0 (Bytes.length buffer - cut)) in
      List.iter
        (fun (pos, flip) ->
          if Bytes.length buffer > 0 then begin
            let pos = pos mod Bytes.length buffer in
            Bytes.set_uint8 buffer pos (Bytes.get_uint8 buffer pos lxor flip)
          end)
        flips;
      decode_is_total buffer)

(* --- slice API ---------------------------------------------------------- *)

let message_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun kind ->
    int_range 0 100000 >>= fun tg_id ->
    int_range 1 255 >>= fun k ->
    int_range 0 (k - 1) >>= fun index ->
    int_range 0 1000 >>= fun round ->
    string_size ~gen:char (int_range 1 64) >>= fun payload ->
    let payload = Bytes.of_string payload in
    return
      (match kind with
      | 1 -> Header.Data { tg_id; k; index; payload }
      | 2 -> Header.Parity { tg_id; k; index; round; payload }
      | 3 -> Header.Poll { tg_id; k; size = index; round }
      | 4 -> Header.Nak { tg_id; need = index; round }
      | _ -> Header.Exhausted { tg_id }))

let qcheck_encode_into_identity =
  (* [encode_into] at a random offset writes exactly the [encode] bytes and
     touches nothing outside them — the aliasing contract pooled send
     buffers rely on. *)
  let gen = QCheck.Gen.(triple message_gen (int_range 0 37) (int_range 0 37)) in
  QCheck.Test.make ~count:500 ~name:"encode_into matches encode, touches only its slice"
    (QCheck.make gen) (fun (msg, before, after) ->
      let dgram = Header.encode msg in
      let size = Bytes.length dgram in
      let buffer = Bytes.init (before + size + after) (fun i -> Char.chr (i * 37 mod 256)) in
      let pristine = Bytes.copy buffer in
      let written = Header.encode_into buffer ~off:before msg in
      written = size
      && Bytes.equal (Bytes.sub buffer before size) dgram
      && Bytes.equal (Bytes.sub buffer 0 before) (Bytes.sub pristine 0 before)
      && Bytes.equal
           (Bytes.sub buffer (before + size) after)
           (Bytes.sub pristine (before + size) after))

let same_result a b =
  match (a, b) with
  | Ok x, Ok y -> Header.equal x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let qcheck_decode_slice_agrees =
  (* A (possibly corrupted) datagram embedded at a random offset, with the
     same valid datagram repeated in the margins as adversarial poison: if
     [decode_slice] read a single byte outside [off, off+len) it could only
     disagree with decoding the extracted copy. *)
  let gen =
    QCheck.Gen.(
      message_gen >>= fun msg ->
      int_range 0 40 >>= fun before ->
      int_range 0 40 >>= fun after ->
      int_range 0 8 >>= fun cut ->
      list_size (int_range 0 3) (pair (int_range 0 10000) (int_range 1 255)) >>= fun flips ->
      return (msg, before, after, cut, flips))
  in
  QCheck.Test.make ~count:2000 ~name:"decode_slice agrees with whole-buffer decode"
    (QCheck.make gen) (fun (msg, before, after, cut, flips) ->
      let dgram = Header.encode msg in
      let dgram = Bytes.sub dgram 0 (max 0 (Bytes.length dgram - cut)) in
      List.iter
        (fun (pos, flip) ->
          if Bytes.length dgram > 0 then begin
            let pos = pos mod Bytes.length dgram in
            Bytes.set_uint8 dgram pos (Bytes.get_uint8 dgram pos lxor flip)
          end)
        flips;
      let len = Bytes.length dgram in
      let poison = Header.encode msg in
      let buffer = Bytes.create (before + len + after) in
      for i = 0 to Bytes.length buffer - 1 do
        Bytes.set buffer i (Bytes.get poison (i mod Bytes.length poison))
      done;
      Bytes.blit dgram 0 buffer before len;
      same_result
        (Header.decode_slice buffer ~off:before ~len)
        (Header.decode (Bytes.sub buffer before len)))

let qcheck_decode_slice_total =
  (* Arbitrary offsets and lengths — negative, overflowing, both: never an
     exception, out-of-bounds slices are a plain [Error]. *)
  let gen =
    QCheck.Gen.(
      triple
        (string_size ~gen:char (int_range 0 80))
        (int_range (-50) 130) (int_range (-50) 130))
  in
  QCheck.Test.make ~count:2000 ~name:"decode_slice total on arbitrary slices"
    (QCheck.make gen) (fun (s, off, len) ->
      let buffer = Bytes.of_string s in
      match Header.decode_slice buffer ~off ~len with
      | exception _ -> false
      | result ->
        if off >= 0 && len >= 0 && off + len <= Bytes.length buffer then
          same_result result (Header.decode (Bytes.sub buffer off len))
        else same_result result (Error "slice out of bounds"))

let test_set_tg_id_reseal () =
  (* The multi-session egress path: patch the session id into an encoded
     datagram and reseal in place — byte-identical to encoding the
     rewritten message, without re-materializing the datagram. *)
  let payload = Bytes.of_string "in-place reseal" in
  let msg tg_id = Header.Data { tg_id; k = 8; index = 2; payload } in
  let size = Header.encoded_size (msg 5) in
  let before = 3 and after = 7 in
  let buffer = Bytes.make (before + size + after) '\xEE' in
  ignore (Header.encode_into buffer ~off:before (msg 5));
  let wire_tg = (2 lsl 16) lor 5 in
  Header.set_tg_id buffer ~off:before wire_tg;
  (match Header.decode_slice buffer ~off:before ~len:size with
  | Error e -> Alcotest.(check string) "stale CRC rejected until resealed" "checksum mismatch" e
  | Ok _ -> Alcotest.fail "stale CRC accepted");
  Header.reseal_slice buffer ~off:before ~len:size;
  Alcotest.(check bytes) "patched slice equals re-encode"
    (Header.encode (msg wire_tg))
    (Bytes.sub buffer before size);
  match Header.decode_slice buffer ~off:before ~len:size with
  | Ok decoded -> Alcotest.check message "decodes to the rewritten message" (msg wire_tg) decoded
  | Error e -> Alcotest.fail ("resealed slice: " ^ e)

let test_slice_bounds_validation () =
  let nak = Header.Nak { tg_id = 1; need = 2; round = 3 } in
  let small = Bytes.make 10 '\x00' in
  Alcotest.check_raises "encode_into overflow"
    (Invalid_argument "Header.encode_into: datagram does not fit the buffer") (fun () ->
      ignore (Header.encode_into small ~off:0 nak));
  Alcotest.check_raises "encode_into negative offset"
    (Invalid_argument "Header.encode_into: datagram does not fit the buffer") (fun () ->
      ignore (Header.encode_into (Bytes.make 64 '\x00') ~off:(-1) nak));
  Alcotest.check_raises "set_tg_id truncated"
    (Invalid_argument "Header.set_tg_id: truncated buffer") (fun () ->
      Header.set_tg_id small ~off:0 1);
  Alcotest.check_raises "reseal_slice truncated"
    (Invalid_argument "Header.reseal: truncated buffer") (fun () ->
      Header.reseal_slice small ~off:0 ~len:10)

(* --- checksum ------------------------------------------------------------ *)

(* The CRC-32 of the wire spec computed the slow, obvious way — one byte at
   a time, one bit per shift, no tables — over the datagram at
   [\[off, off+len)] with its checksum field (bytes 22-25) read as zero. *)
let reference_crc buffer ~off ~len =
  let crc = ref 0xFFFFFFFF in
  for i = 0 to len - 1 do
    let byte = if i >= 22 && i < 26 then 0 else Bytes.get_uint8 buffer (off + i) in
    crc := !crc lxor byte;
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let stored_crc buffer ~off = Int32.to_int (Bytes.get_int32_be buffer (off + 22)) land 0xFFFFFFFF

let max_field_parity =
  Header.Parity
    {
      tg_id = 0xFFFF_FFFF;
      k = 0xFFFF;
      index = 0xFFFF;
      round = 0xFFFF_FFFF;
      payload = Bytes.init 1024 (fun i -> Char.chr ((i * 131 + 7) land 0xFF));
    }

let test_crc_known_answers () =
  (* The standard CRC-32 check value (nine bytes have no checksum field to
     zero, so the reference is plain CRC-32 there), then two datagrams
     whose checksums agree with zlib's crc32 over the same bytes, checksum
     field zeroed. *)
  Alcotest.(check int) "reference check value" 0xCBF43926
    (reference_crc (Bytes.of_string "123456789") ~off:0 ~len:9);
  let hello =
    Header.encode (Header.Data { tg_id = 7; k = 20; index = 3; payload = Bytes.of_string "hello" })
  in
  Alcotest.(check int) "DATA hello" 0xd007251f (Header.datagram_crc hello);
  Alcotest.(check int) "DATA hello, stored" 0xd007251f (stored_crc hello ~off:0);
  let parity = Header.encode max_field_parity in
  Alcotest.(check int) "max-field PARITY" 0x97815df6 (Header.datagram_crc parity);
  Alcotest.(check int) "max-field PARITY, reference" 0x97815df6
    (reference_crc parity ~off:0 ~len:(Bytes.length parity))

let qcheck_crc_every_alignment =
  (* Random bytes framed as a datagram of every length 26-300 at every
     offset 0-7 of a larger buffer: every alignment of the eight-byte steps
     and every tail length, and payloads up to four 64-byte folds.
     [reseal_slice] must store the reference CRC, [decode_slice] must
     accept the result, and every CRC path must compute it. *)
  QCheck.Test.make ~count:8 ~name:"reseal_slice CRC agrees with the reference at every alignment"
    QCheck.(string_of_size (Gen.return 320))
    (fun noise ->
      let buffer = Bytes.of_string noise in
      let ok = ref true in
      for off = 0 to 7 do
        for len = Header.header_size to 300 do
          let payload_len = len - Header.header_size in
          Bytes.blit_string "RMCP" 0 buffer off 4;
          Bytes.set_uint8 buffer (off + 4) 2;
          (* PARITY carries any payload; an empty one is a POLL. *)
          Bytes.set_uint8 buffer (off + 5) (if payload_len > 0 then 2 else 3);
          Bytes.set_int32_be buffer (off + 18) (Int32.of_int payload_len);
          Header.reseal_slice buffer ~off ~len;
          let decoded = Result.is_ok (Header.decode_slice buffer ~off ~len) in
          let expected = reference_crc buffer ~off ~len in
          if not (decoded && stored_crc buffer ~off = expected) then ok := false;
          List.iter
            (fun path ->
              if Header.For_testing.datagram_crc_slice ~path buffer ~off ~len <> expected then
                ok := false)
            Header.For_testing.paths
        done
      done;
      !ok)

let test_single_bit_flips () =
  (* CRC-32 detects every single-bit error, so each of the 8,400 one-bit
     corruptions of a 1,050-byte DATA datagram must be rejected, by
     [decode_slice] and by every CRC path: a wrong lane in the eight-byte
     loop, a wrong fold or the tail would let some through. *)
  let payload = Bytes.init 1024 (fun i -> Char.chr ((i * 37 + 11) land 0xFF)) in
  let buffer = Header.encode (Header.Data { tg_id = 11; k = 20; index = 5; payload }) in
  let len = Bytes.length buffer in
  Alcotest.(check int) "datagram bits" 8400 (8 * len);
  let accepted = ref [] in
  for bit = 0 to (8 * len) - 1 do
    let pos = bit / 8 and mask = 1 lsl (bit mod 8) in
    Bytes.set_uint8 buffer pos (Bytes.get_uint8 buffer pos lxor mask);
    if Result.is_ok (Header.decode_slice buffer ~off:0 ~len) then accepted := bit :: !accepted;
    List.iter
      (fun path ->
        if Header.For_testing.datagram_crc_slice ~path buffer ~off:0 ~len = stored_crc buffer ~off:0
        then accepted := bit :: !accepted)
      Header.For_testing.paths;
    Bytes.set_uint8 buffer pos (Bytes.get_uint8 buffer pos lxor mask)
  done;
  Alcotest.(check (list int)) "no flipped copy decodes" [] !accepted;
  Alcotest.(check bool) "pristine copy decodes" true
    (Result.is_ok (Header.decode_slice buffer ~off:0 ~len))

let test_crc_fold_thresholds () =
  (* Payload lengths either side of the folding path's limits (no fold
     below 64 bytes, four lanes then single-lane 16-byte folds, a tail
     under 16 bytes), up to the largest datagram, at offsets 0-3 of a
     larger buffer: every path must compute the reference CRC. *)
  let rng = Random.State.make [| 25 |] in
  List.iter
    (fun payload_len ->
      let len = Header.header_size + payload_len in
      let buffer = Bytes.init (len + 3) (fun _ -> Char.chr (Random.State.int rng 256)) in
      for off = 0 to 3 do
        let expected = reference_crc buffer ~off ~len in
        List.iter
          (fun path ->
            Alcotest.(check int)
              (Printf.sprintf "%s, payload %d, offset %d" path payload_len off)
              expected
              (Header.For_testing.datagram_crc_slice ~path buffer ~off ~len))
          Header.For_testing.paths
      done)
    [ 37; 38; 63; 64; 65; 79; 80; 81; 1024; 1472; 9000; 65536 - Header.header_size ]

let qcheck_crc_paths_random_slices =
  (* Random slices of lengths 26-9,000 at offsets 0-16: every path agrees
     with the reference. *)
  QCheck.Test.make ~count:100 ~name:"every CRC path agrees with the reference on random slices"
    QCheck.(pair (int_range Header.header_size 9000) (int_range 0 16))
    (fun (len, off) ->
      let buffer = Bytes.init (off + len) (fun i -> Char.chr ((i * 197 + len) land 0xFF)) in
      let expected = reference_crc buffer ~off ~len in
      List.for_all
        (fun path -> Header.For_testing.datagram_crc_slice ~path buffer ~off ~len = expected)
        Header.For_testing.paths)

let test_crc_paths () =
  Alcotest.(check string) "portable path first" "portable" (List.hd Header.For_testing.paths);
  Alcotest.check_raises "unknown path"
    (Invalid_argument "Header.For_testing: no CRC path none on this host") (fun () ->
      ignore (Header.For_testing.datagram_crc_slice ~path:"none" (Bytes.create 26) ~off:0 ~len:26));
  Alcotest.check_raises "short slice"
    (Invalid_argument "Header.For_testing.datagram_crc_slice: bad slice") (fun () ->
      ignore
        (Header.For_testing.datagram_crc_slice ~path:"portable" (Bytes.create 30) ~off:5 ~len:26));
  Alcotest.check_raises "datagram_crc truncated"
    (Invalid_argument "Header.datagram_crc: truncated buffer") (fun () ->
      ignore (Header.datagram_crc (Bytes.create 25)))

(* --- allocation ----------------------------------------------------------- *)

let minor_words_per_call f =
  f () (* warm up *);
  let reps = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  int_of_float ((Gc.minor_words () -. before) /. float_of_int reps)

let test_slice_api_allocation () =
  (* [encode_into] writes into the caller's buffer and allocates nothing,
     whatever the message; a NAK [decode_slice] allocates only the message
     and its [Ok] (4 + 2 words). *)
  let buffer = Bytes.create 2048 in
  List.iter
    (fun message ->
      Alcotest.(check int)
        (Header.message_type_name message ^ " encode_into words")
        0
        (minor_words_per_call (fun () -> ignore (Header.encode_into buffer ~off:3 message))))
    [
      Header.Data { tg_id = 7; k = 20; index = 3; payload = Bytes.make 1024 'd' };
      max_field_parity;
      Header.Poll { tg_id = 1; k = 20; size = 20; round = 2 };
      Header.Nak { tg_id = 1; need = 2; round = 3 };
      Header.Exhausted { tg_id = 9 };
    ];
  let len = Header.encode_into buffer ~off:0 (Header.Nak { tg_id = 1; need = 2; round = 3 }) in
  let words =
    minor_words_per_call (fun () ->
        match Header.decode_slice buffer ~off:0 ~len with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e)
  in
  Alcotest.(check bool) (Printf.sprintf "NAK decode_slice: %d words <= 6" words) true (words <= 6)

let expect_error name buffer expected =
  match Header.decode buffer with
  | Ok _ -> Alcotest.fail (name ^ ": decode unexpectedly succeeded")
  | Error e -> Alcotest.(check string) name expected e

let test_decode_bad_magic () =
  let buffer = Header.encode (Header.Exhausted { tg_id = 1 }) in
  Bytes.set buffer 0 'X';
  expect_error "magic" buffer "bad magic"

let test_decode_bad_version () =
  let buffer = Header.encode (Header.Exhausted { tg_id = 1 }) in
  Bytes.set_uint8 buffer 4 9;
  expect_error "version" buffer "unsupported version"

let test_decode_truncated () =
  expect_error "truncated" (Bytes.make 5 'x') "truncated header";
  let buffer = Header.encode (Header.Data { tg_id = 0; k = 2; index = 0; payload = Bytes.make 10 'a' }) in
  expect_error "cut payload" (Bytes.sub buffer 0 (Bytes.length buffer - 3)) "length field mismatch"

let test_decode_unknown_type () =
  let buffer = Header.encode (Header.Exhausted { tg_id = 1 }) in
  Bytes.set_uint8 buffer 5 77;
  Header.reseal buffer;
  expect_error "type" buffer "unknown message type 77"

let test_decode_data_without_payload () =
  (* Hand-build a DATA header with zero payload length. *)
  let buffer = Header.encode (Header.Exhausted { tg_id = 1 }) in
  Bytes.set_uint8 buffer 5 1;
  Header.reseal buffer;
  expect_error "empty data" buffer "DATA without payload"

let test_decode_data_bad_index () =
  let buffer = Header.encode (Header.Data { tg_id = 0; k = 5; index = 4; payload = Bytes.make 2 'z' }) in
  (* bump index beyond k *)
  Bytes.set_uint16_be buffer 12 5;
  Header.reseal buffer;
  expect_error "index >= k" buffer "DATA index not below k"

let test_decode_checksum_mismatch () =
  (* An unresealed mutation anywhere — header field or payload — is caught
     by the CRC before any semantic validation can be fooled. *)
  let payload = Bytes.of_string "payload" in
  let buffer = Header.encode (Header.Data { tg_id = 3; k = 4; index = 1; payload }) in
  Bytes.set_uint8 buffer (Header.header_size + 2)
    (Bytes.get_uint8 buffer (Header.header_size + 2) lxor 0x40);
  expect_error "flipped payload bit" buffer "checksum mismatch";
  let buffer = Header.encode (Header.Nak { tg_id = 1; need = 2; round = 3 }) in
  Bytes.set_uint16_be buffer 12 9;
  expect_error "flipped header field" buffer "checksum mismatch"

let test_decode_poll_with_payload () =
  let poll = Header.encode (Header.Poll { tg_id = 0; k = 2; size = 2; round = 1 }) in
  let with_payload = Bytes.cat poll (Bytes.of_string "junk") in
  expect_error "poll payload" with_payload "length field mismatch"

let test_encode_validation () =
  Alcotest.check_raises "index >= k" (Invalid_argument "Header: data index must be < k")
    (fun () ->
      ignore (Header.encode (Header.Data { tg_id = 0; k = 3; index = 3; payload = Bytes.make 1 'a' })));
  Alcotest.check_raises "k too large" (Invalid_argument "Header: k out of range") (fun () ->
      ignore (Header.encode (Header.Poll { tg_id = 0; k = 70000; size = 0; round = 0 })))

let test_header_size_exact () =
  let buffer = Header.encode (Header.Nak { tg_id = 1; need = 2; round = 3 }) in
  Alcotest.(check int) "control packets are header-only" Header.header_size (Bytes.length buffer)

let test_type_names () =
  Alcotest.(check string) "nak name" "NAK" (Header.message_type_name (Header.Nak { tg_id = 0; need = 0; round = 0 }))

let suite =
  [
    Alcotest.test_case "roundtrip all types" `Quick test_roundtrip_all_types;
    Alcotest.test_case "roundtrip extremes" `Quick test_roundtrip_extremes;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_roundtrip_full_range;
    QCheck_alcotest.to_alcotest qcheck_decode_never_raises_random;
    QCheck_alcotest.to_alcotest qcheck_decode_never_raises_mutated;
    QCheck_alcotest.to_alcotest qcheck_encode_into_identity;
    QCheck_alcotest.to_alcotest qcheck_decode_slice_agrees;
    QCheck_alcotest.to_alcotest qcheck_decode_slice_total;
    Alcotest.test_case "set_tg_id + reseal_slice in place" `Quick test_set_tg_id_reseal;
    Alcotest.test_case "slice bounds validation" `Quick test_slice_bounds_validation;
    Alcotest.test_case "bad magic" `Quick test_decode_bad_magic;
    Alcotest.test_case "bad version" `Quick test_decode_bad_version;
    Alcotest.test_case "truncation" `Quick test_decode_truncated;
    Alcotest.test_case "unknown type" `Quick test_decode_unknown_type;
    Alcotest.test_case "DATA without payload" `Quick test_decode_data_without_payload;
    Alcotest.test_case "DATA index validation" `Quick test_decode_data_bad_index;
    Alcotest.test_case "POLL with payload" `Quick test_decode_poll_with_payload;
    Alcotest.test_case "checksum mismatch" `Quick test_decode_checksum_mismatch;
    Alcotest.test_case "encode validation" `Quick test_encode_validation;
    Alcotest.test_case "control packet size" `Quick test_header_size_exact;
    Alcotest.test_case "type names" `Quick test_type_names;
    Alcotest.test_case "CRC known answers" `Quick test_crc_known_answers;
    QCheck_alcotest.to_alcotest qcheck_crc_every_alignment;
    Alcotest.test_case "every single-bit flip rejected" `Quick test_single_bit_flips;
    Alcotest.test_case "CRC fold thresholds on every path" `Quick test_crc_fold_thresholds;
    QCheck_alcotest.to_alcotest qcheck_crc_paths_random_slices;
    Alcotest.test_case "CRC paths and bounds" `Quick test_crc_paths;
    Alcotest.test_case "slice API allocation" `Quick test_slice_api_allocation;
  ]
