module Rse = Rmcast.Rse
module Rng = Rmcast.Rng
module Fec_block = Rmcast.Fec_block
module Codec_core = Rmc_rse.Codec_core

let random_data rng ~k ~size =
  Array.init k (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* Encode a [kind] block with [h] parities, drop the packets listed in
   [lost] (codeword indices) and decode the rest, data first, through
   Fec_block. *)
let roundtrip ?(kind = `Rse) ~h data lost =
  let codec = Rmcast.Codec.of_kind kind and k = Array.length data in
  let sender = Fec_block.Sender.create ~codec ~h data in
  let receiver = Fec_block.Receiver.create ~codec ~k ~h in
  for index = 0 to k + h - 1 do
    if not (List.mem index lost) then
      ignore
        (Fec_block.Receiver.add receiver ~index
           (if index < k then data.(index) else Fec_block.Sender.parity sender (index - k)))
  done;
  Fec_block.Receiver.decode receiver

(* The same over a field Fec_block does not carry (GF(2^16)): the code's
   parity rows through the shared encoder loop and elimination decoder. *)
let roundtrip_field ~field ~parity_row ~h data lost =
  let k = Array.length data in
  let decoder =
    Codec_core.Elimination.make ~label:"Codec_core" ~field ~k ~h ~repair_row:parity_row
  in
  for index = 0 to k + h - 1 do
    if not (List.mem index lost) then
      ignore
        (Codec_core.Elimination.add decoder ~index
           (if index < k then data.(index)
            else Codec_core.combine field ~row:(parity_row (index - k)) data))
  done;
  Codec_core.Elimination.decode decoder

let check_equal_data name expected actual =
  Alcotest.(check int) (name ^ ": count") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "%s: packet %d" name i) true (Bytes.equal d actual.(i)))
    expected

let test_no_loss_zero_copy () =
  let rng = Rng.create ~seed:1 () in
  let data = random_data rng ~k:7 ~size:100 in
  let decoded = roundtrip ~h:3 data [] in
  Array.iteri
    (fun i d -> Alcotest.(check bool) "physically same" true (d == data.(i)))
    decoded

let test_lose_all_parities () =
  let rng = Rng.create ~seed:2 () in
  let data = random_data rng ~k:5 ~size:64 in
  let decoded = roundtrip ~h:4 data [ 5; 6; 7; 8 ] in
  check_equal_data "parities lost" data decoded

let test_lose_h_data_packets () =
  let rng = Rng.create ~seed:3 () in
  let data = random_data rng ~k:7 ~size:128 in
  let decoded = roundtrip ~h:3 data [ 0; 3; 6 ] in
  check_equal_data "max data loss" data decoded

let test_only_parities_received () =
  let rng = Rng.create ~seed:4 () in
  let data = random_data rng ~k:4 ~size:32 in
  let decoded = roundtrip ~h:4 data [ 0; 1; 2; 3 ] in
  check_equal_data "all data lost" data decoded

(* Every k-subset of a (4, 8) [kind] block decodes: the full MDS check.
   Returns how many subsets were tried. *)
let exhaustive_mds kind ~seed =
  let rng = Rng.create ~seed () in
  let data = random_data rng ~k:4 ~size:16 in
  let count = ref 0 in
  for a = 0 to 7 do
    for b = a + 1 to 7 do
      for c = b + 1 to 7 do
        for d = c + 1 to 7 do
          let lost = List.filter (fun i -> not (List.mem i [ a; b; c; d ])) (List.init 8 Fun.id) in
          let decoded = roundtrip ~kind ~h:4 data lost in
          Array.iteri
            (fun i x -> Alcotest.(check bool) "exhaustive" true (Bytes.equal x data.(i)))
            decoded;
          incr count
        done
      done
    done
  done;
  !count

let test_exhaustive_small_code () =
  Alcotest.(check int) "all C(8,4) subsets" 70 (exhaustive_mds `Rse ~seed:5)

let qcheck_roundtrip =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 8 >>= fun h ->
      int_range 0 h >>= fun losses ->
      int_range 1 64 >>= fun size ->
      int_range 0 1_000_000 >>= fun seed ->
      return (k, h, losses, size, seed))
  in
  QCheck.Test.make ~count:200 ~name:"random (k,h) roundtrip under <= h losses"
    (QCheck.make gen) (fun (k, h, losses, size, seed) ->
      let rng = Rng.create ~seed () in
      let data = random_data rng ~k ~size in
      let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:(k + h) ~k:losses) in
      let decoded = roundtrip ~h data lost in
      Array.for_all2 Bytes.equal data decoded)

(* MDS across configurations, for both block codes: every entry of the
   parity matrix is nonzero (a zero would make the k x k minor of the
   other k - 1 data rows and that parity singular), and a random
   k-subset of a random block decodes. *)
let qcheck_mds =
  let gen =
    QCheck.Gen.(
      oneofl [ `Rse; `Cauchy ] >>= fun kind ->
      int_range 1 254 >>= fun k ->
      int_range 1 (255 - k) >>= fun h ->
      int_range 1 16 >>= fun size ->
      int_range 0 1_000_000 >>= fun seed -> return (kind, k, h, size, seed))
  in
  let print (kind, k, h, size, seed) =
    Printf.sprintf "%s k=%d h=%d size=%d seed=%d" (Rmcast.Codec.label kind) k h size seed
  in
  QCheck.Test.make ~count:100 ~name:"MDS over random (k, h), Rse and Cauchy"
    (QCheck.make ~print gen) (fun (kind, k, h, size, seed) ->
      let row = Rmcast.Codec.repair_rows kind ~k ~h in
      let nonzero = List.for_all (fun j -> not (Bytes.contains (row j) '\000')) (List.init h Fun.id) in
      let rng = Rng.create ~seed () in
      let data = random_data rng ~k ~size in
      let kept = Rmcast.Sampler.distinct_ints rng ~n:(k + h) ~k in
      let lost = List.filter (fun i -> not (Array.mem i kept)) (List.init (k + h) Fun.id) in
      nonzero && Array.for_all2 Bytes.equal data (roundtrip ~kind ~h data lost))

(* A block short of [k] packets refuses to decode and says how many it
   still needs. *)
let test_too_few_packets () =
  let codec = Rmcast.Codec.of_kind `Rse in
  let receiver = Fec_block.Receiver.create ~codec ~k:3 ~h:2 in
  ignore (Fec_block.Receiver.add receiver ~index:0 (Bytes.make 4 'a'));
  Alcotest.(check int) "needed" 2 (Fec_block.Receiver.needed receiver);
  Alcotest.check_raises "too few" (Failure "Fec_block.Receiver.decode: not enough packets")
    (fun () -> ignore (Fec_block.Receiver.decode receiver))

(* A rejected packet leaves the block, and the shared memoized code
   behind it, usable: it then decodes a valid 1-loss pattern (data 0 and
   the parity, data 1 lost). *)
let check_usable_after_rejection receiver =
  let data = random_data (Rng.create ~seed:21 ()) ~k:2 ~size:4 in
  let sender = Fec_block.Sender.create ~codec:(Rmcast.Codec.of_kind `Rse) ~h:1 data in
  ignore (Fec_block.Receiver.add receiver ~index:0 data.(0));
  ignore (Fec_block.Receiver.add receiver ~index:2 (Fec_block.Sender.parity sender 0));
  check_equal_data "decode after rejection" data (Fec_block.Receiver.decode receiver);
  check_equal_data "fresh block after rejection" data (roundtrip ~h:1 data [ 1 ])

let fresh_block () = Fec_block.Receiver.create ~codec:(Rmcast.Codec.of_kind `Rse) ~k:2 ~h:1

(* A duplicate index is a no-op: refused, not counted. *)
let test_duplicate_index_rejected () =
  let receiver = fresh_block () in
  let data = random_data (Rng.create ~seed:21 ()) ~k:2 ~size:4 in
  Alcotest.(check bool) "first" true (Fec_block.Receiver.add receiver ~index:0 data.(0));
  Alcotest.(check bool) "duplicate" false (Fec_block.Receiver.add receiver ~index:0 data.(0));
  Alcotest.(check int) "counted once" 1 (Fec_block.Receiver.received receiver);
  check_usable_after_rejection receiver

let test_unequal_lengths_rejected () =
  Alcotest.check_raises "sender"
    (Invalid_argument "Fec_block.Sender.create: unequal packet lengths") (fun () ->
      ignore
        (Fec_block.Sender.create ~codec:(Rmcast.Codec.of_kind `Rse) ~h:1
           [| Bytes.make 4 'a'; Bytes.make 5 'b' |]));
  let receiver = fresh_block () in
  ignore (Fec_block.Receiver.add receiver ~index:0 (Bytes.make 4 'a'));
  Alcotest.check_raises "receiver" (Invalid_argument "Rse.Decoder.add: unequal payload lengths")
    (fun () -> ignore (Fec_block.Receiver.add receiver ~index:1 (Bytes.make 5 'b')))

let test_index_out_of_range () =
  let receiver = fresh_block () in
  Alcotest.check_raises "range" (Invalid_argument "Fec_block.Receiver.add: index out of range")
    (fun () -> ignore (Fec_block.Receiver.add receiver ~index:3 (Bytes.make 4 'a')));
  check_usable_after_rejection receiver

let test_create_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Rse.create: k must be >= 1") (fun () ->
      ignore (Rse.create ~k:0 ~h:1 ()));
  Alcotest.check_raises "too long"
    (Invalid_argument "Rse.create: k + h exceeds 2^m - 1 codeword positions") (fun () ->
      ignore (Rse.create ~k:200 ~h:56 ()));
  Alcotest.check_raises "too long for GF(2^16)"
    (Invalid_argument "Rse.create: k + h exceeds 2^m - 1 codeword positions") (fun () ->
      ignore (Rse.create ~field:(Rmcast.Gf.create 16) ~k:1 ~h:65_535 ()));
  Alcotest.(check int) "k + h = 2^m - 1 builds" 1
    (Bytes.length (Rse.parity_row (Rse.create ~k:1 ~h:254 ()) 253))

(* Parity rows are generator rows k..n-1: k symbols each, not all zero,
   and a fresh copy per call. *)
let test_parity_rows () =
  let codec = Rse.create ~k:3 ~h:2 () in
  let parity_row = Rse.parity_row codec 0 in
  Alcotest.(check int) "parity row width" 3 (Bytes.length parity_row);
  Alcotest.(check bool) "parity row nonzero" true
    (Bytes.exists (fun x -> x <> '\000') parity_row);
  Bytes.fill parity_row 0 3 '\000';
  Alcotest.(check bool) "fresh copy" true
    (Bytes.exists (fun x -> x <> '\000') (Rse.parity_row codec 0))

(* Known answer: the MD5 of every parity row, concatenated over [codes]
   in order.  Row j of a (k, h) code depends only on (k, j), so the
   GF(2^8) list (k, 255 - k) for k = 1..254 covers every GF(2^8) RSE
   generator; the digests were taken from the Gauss-Jordan
   systematisation of the Vandermonde matrix. *)
let generator_digest ?field codes =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, h) ->
      let codec = Rse.create ?field ~k ~h () in
      for j = 0 to h - 1 do
        Buffer.add_bytes buf (Rse.parity_row codec j)
      done)
    codes;
  (Buffer.length buf, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_generator_known_answers () =
  Alcotest.(check (pair int string))
    "every GF(2^8) code" (2_763_520, "2057fcafeb96bee06fc5459b7b3217a2")
    (generator_digest (List.init 254 (fun i -> (i + 1, 254 - i))));
  Alcotest.(check (pair int string))
    "GF(2^16) codes" (45_040, "55e7de5cbcdd7d108e1934ad70583eeb")
    (generator_digest ~field:(Rmcast.Gf.create 16) [ (1, 40); (7, 40); (255, 40); (300, 40) ])

(* Any k of the n packets decode: random 6-subsets of a (6, 12) block. *)
let test_random_subsets_decode () =
  let rng = Rng.create ~seed:8 () in
  let data = random_data rng ~k:6 ~size:8 in
  for _ = 1 to 50 do
    let kept = Rmcast.Sampler.distinct_ints rng ~n:12 ~k:6 in
    let lost = List.filter (fun i -> not (Array.mem i kept)) (List.init 12 Fun.id) in
    check_equal_data "MDS" data (roundtrip ~h:6 data lost)
  done

let test_one_byte_packets () =
  let rng = Rng.create ~seed:9 () in
  let data = random_data rng ~k:3 ~size:1 in
  check_equal_data "1-byte" data (roundtrip ~h:2 data [ 0; 2 ])

let test_h_zero () =
  let rng = Rng.create ~seed:10 () in
  let data = random_data rng ~k:3 ~size:8 in
  let sender = Fec_block.Sender.create ~codec:(Rmcast.Codec.of_kind `Rse) ~h:0 data in
  Fec_block.Sender.precompute sender;
  Alcotest.(check int) "no parities" 0 (Fec_block.Sender.h sender);
  Alcotest.check_raises "no parity to issue"
    (Failure "Fec_block.Sender.next_parities: parity budget exhausted") (fun () ->
      ignore (Fec_block.Sender.next_parities sender 1));
  check_equal_data "identity code" data (roundtrip ~h:0 data [])

let test_k_one () =
  (* (1, h) repetition-like code: parity 0 equals the data packet. *)
  let rng = Rng.create ~seed:11 () in
  let data = random_data rng ~k:1 ~size:16 in
  let decoded = roundtrip ~h:3 data [ 0 ] in
  check_equal_data "k=1" data decoded

let test_max_length_code () =
  let rng = Rng.create ~seed:12 () in
  let data = random_data rng ~k:223 ~size:8 in
  let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:255 ~k:32) in
  check_equal_data "RS(255,223)" data (roundtrip ~h:32 data lost)

(* --- Fec_block --- *)

let test_fec_block_sender_budget () =
  let rng = Rng.create ~seed:16 () in
  let codec = Rmcast.Codec.of_kind `Rse in
  let sender = Rmcast.Fec_block.Sender.create ~codec ~h:2 (random_data rng ~k:3 ~size:8) in
  Alcotest.(check int) "issued 0" 0 (Rmcast.Fec_block.Sender.parities_issued sender);
  let batch = Rmcast.Fec_block.Sender.next_parities sender 2 in
  Alcotest.(check int) "issued 2" 2 (Rmcast.Fec_block.Sender.parities_issued sender);
  Alcotest.(check (list int)) "indices" [ 0; 1 ] (List.map fst batch);
  Alcotest.check_raises "exhausted"
    (Failure "Fec_block.Sender.next_parities: parity budget exhausted") (fun () ->
      ignore (Rmcast.Fec_block.Sender.next_parities sender 1))

let test_fec_block_receiver_flow () =
  let rng = Rng.create ~seed:17 () in
  let codec = Rmcast.Codec.of_kind `Rse in
  let data = random_data rng ~k:3 ~size:8 in
  let sender = Rmcast.Fec_block.Sender.create ~codec ~h:2 data in
  let receiver = Rmcast.Fec_block.Receiver.create ~codec ~k:3 ~h:2 in
  Alcotest.(check int) "needed all" 3 (Rmcast.Fec_block.Receiver.needed receiver);
  Alcotest.(check bool) "fresh" true (Rmcast.Fec_block.Receiver.add receiver ~index:0 data.(0));
  Alcotest.(check bool) "duplicate" false (Rmcast.Fec_block.Receiver.add receiver ~index:0 data.(0));
  Alcotest.(check int) "needed 2" 2 (Rmcast.Fec_block.Receiver.needed receiver);
  Alcotest.(check (list int)) "missing data" [ 1; 2 ]
    (Rmcast.Fec_block.Receiver.missing_data receiver);
  Alcotest.check_raises "premature decode"
    (Failure "Fec_block.Receiver.decode: not enough packets") (fun () ->
      ignore (Rmcast.Fec_block.Receiver.decode receiver));
  ignore (Rmcast.Fec_block.Receiver.add receiver ~index:3 (Rmcast.Fec_block.Sender.parity sender 0));
  ignore (Rmcast.Fec_block.Receiver.add receiver ~index:4 (Rmcast.Fec_block.Sender.parity sender 1));
  Alcotest.(check bool) "complete" true (Rmcast.Fec_block.Receiver.complete receiver);
  check_equal_data "decoded" data (Rmcast.Fec_block.Receiver.decode receiver)

let test_fec_block_precompute () =
  let rng = Rng.create ~seed:18 () in
  let data = random_data rng ~k:4 ~size:8 in
  let sender =
    Rmcast.Fec_block.Sender.create ~codec:(Rmcast.Codec.of_kind `Rse) ~h:3 data
  in
  Rmcast.Fec_block.Sender.precompute sender;
  (* Cached parities identical to a fresh encode. *)
  let codec = Rse.create ~k:4 ~h:3 () in
  for j = 0 to 2 do
    let fresh = Codec_core.combine Rmcast.Gf.gf256 ~row:(Rse.parity_row codec j) data in
    Alcotest.(check bool) "cache" true (Bytes.equal fresh (Rmcast.Fec_block.Sender.parity sender j))
  done;
  (* precompute must not consume the issue budget *)
  Alcotest.(check int) "budget intact" 0 (Rmcast.Fec_block.Sender.parities_issued sender)

let base_suite =
  [
    Alcotest.test_case "no loss is zero-copy" `Quick test_no_loss_zero_copy;
    Alcotest.test_case "lose all parities" `Quick test_lose_all_parities;
    Alcotest.test_case "lose h data packets" `Quick test_lose_h_data_packets;
    Alcotest.test_case "decode from parities only" `Quick test_only_parities_received;
    Alcotest.test_case "exhaustive (4,8) MDS" `Quick test_exhaustive_small_code;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_mds;
    Alcotest.test_case "too few packets" `Quick test_too_few_packets;
    Alcotest.test_case "duplicate index" `Quick test_duplicate_index_rejected;
    Alcotest.test_case "unequal lengths" `Quick test_unequal_lengths_rejected;
    Alcotest.test_case "index out of range" `Quick test_index_out_of_range;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "generator rows" `Quick test_parity_rows;
    Alcotest.test_case "generator known answers" `Quick test_generator_known_answers;
    Alcotest.test_case "random 6-of-12 subsets decode" `Quick test_random_subsets_decode;
    Alcotest.test_case "1-byte packets" `Quick test_one_byte_packets;
    Alcotest.test_case "h = 0" `Quick test_h_zero;
    Alcotest.test_case "k = 1" `Quick test_k_one;
    Alcotest.test_case "RS(255,223)" `Quick test_max_length_code;
    Alcotest.test_case "fec block sender budget" `Quick test_fec_block_sender_budget;
    Alcotest.test_case "fec block receiver flow" `Quick test_fec_block_receiver_flow;
    Alcotest.test_case "fec block precompute" `Quick test_fec_block_precompute;
  ]

(* --- GF(2^16): FEC blocks beyond 255 packets --- *)

let test_gf16_large_block () =
  let field = Rmcast.Gf.create 16 in
  let codec = Rse.create ~field ~k:300 ~h:40 () in
  let rng = Rng.create ~seed:21 () in
  let data = random_data rng ~k:300 ~size:64 in
  let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:340 ~k:40) in
  check_equal_data "RS(340,300) over GF(2^16)" data
    (roundtrip_field ~field ~parity_row:(Rse.parity_row codec) ~h:40 data lost)

let test_gf16_odd_payload_rejected () =
  let field = Rmcast.Gf.create 16 in
  let codec = Rse.create ~field ~k:2 ~h:1 () in
  let data = [| Bytes.make 7 'a'; Bytes.make 7 'b' |] in
  Alcotest.check_raises "odd length"
    (Invalid_argument "Gf.mul_add_into_symbols: odd length for 16-bit symbols") (fun () ->
      ignore (Codec_core.combine field ~row:(Rse.parity_row codec 0) data))

let test_unsupported_field_rejected () =
  let field = Rmcast.Gf.create 4 in
  Alcotest.check_raises "no kernels"
    (Invalid_argument "Gf.symbol_bytes: vector kernels exist only for m = 8 and m = 16")
    (fun () -> ignore (Rse.create ~field ~k:2 ~h:1 ()))

let gf16_suite =
  [
    Alcotest.test_case "GF(2^16) 340-packet block" `Quick test_gf16_large_block;
    Alcotest.test_case "GF(2^16) odd payloads rejected" `Quick test_gf16_odd_payload_rejected;
    Alcotest.test_case "unsupported fields rejected" `Quick test_unsupported_field_rejected;
  ]

let suite = base_suite @ gf16_suite
