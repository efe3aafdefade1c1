module Rse = Rmcast.Rse
module Rng = Rmcast.Rng

let random_data rng ~k ~size =
  Array.init k (fun _ -> Bytes.init size (fun _ -> Char.chr (Rng.int rng 256)))

(* Drop the packets listed in [lost] (codeword indices) and decode. *)
let roundtrip codec data lost =
  let parities = Rse.encode codec data in
  let received = ref [] in
  Array.iteri (fun i d -> if not (List.mem i lost) then received := (i, d) :: !received) data;
  Array.iteri
    (fun j p ->
      let index = Rse.k codec + j in
      if not (List.mem index lost) then received := (index, p) :: !received)
    parities;
  Rse.decode codec (Array.of_list !received)

let check_equal_data name expected actual =
  Alcotest.(check int) (name ^ ": count") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "%s: packet %d" name i) true (Bytes.equal d actual.(i)))
    expected

let test_no_loss_zero_copy () =
  let rng = Rng.create ~seed:1 () in
  let codec = Rse.create ~k:7 ~h:3 () in
  let data = random_data rng ~k:7 ~size:100 in
  let decoded = roundtrip codec data [] in
  Array.iteri
    (fun i d -> Alcotest.(check bool) "physically same" true (d == data.(i)))
    decoded

let test_lose_all_parities () =
  let rng = Rng.create ~seed:2 () in
  let codec = Rse.create ~k:5 ~h:4 () in
  let data = random_data rng ~k:5 ~size:64 in
  let decoded = roundtrip codec data [ 5; 6; 7; 8 ] in
  check_equal_data "parities lost" data decoded

let test_lose_h_data_packets () =
  let rng = Rng.create ~seed:3 () in
  let codec = Rse.create ~k:7 ~h:3 () in
  let data = random_data rng ~k:7 ~size:128 in
  let decoded = roundtrip codec data [ 0; 3; 6 ] in
  check_equal_data "max data loss" data decoded

let test_only_parities_received () =
  let rng = Rng.create ~seed:4 () in
  let codec = Rse.create ~k:4 ~h:4 () in
  let data = random_data rng ~k:4 ~size:32 in
  let decoded = roundtrip codec data [ 0; 1; 2; 3 ] in
  check_equal_data "all data lost" data decoded

let test_exhaustive_small_code () =
  (* Every k-subset of a (4,8) block decodes: full MDS check. *)
  let rng = Rng.create ~seed:5 () in
  let codec = Rse.create ~k:4 ~h:4 () in
  let data = random_data rng ~k:4 ~size:16 in
  let parities = Rse.encode codec data in
  let all = Array.append (Array.mapi (fun i d -> (i, d)) data) (Array.mapi (fun j p -> (4 + j, p)) parities) in
  let count = ref 0 in
  for a = 0 to 7 do
    for b = a + 1 to 7 do
      for c = b + 1 to 7 do
        for d = c + 1 to 7 do
          let decoded = Rse.decode codec [| all.(a); all.(b); all.(c); all.(d) |] in
          Array.iteri
            (fun i x -> Alcotest.(check bool) "exhaustive" true (Bytes.equal x data.(i)))
            decoded;
          incr count
        done
      done
    done
  done;
  Alcotest.(check int) "all C(8,4) subsets" 70 !count

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
      let codec = Rse.create ~k ~h () in
      let data = random_data rng ~k ~size in
      let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:(k + h) ~k:losses) in
      let decoded = roundtrip codec data lost in
      Array.for_all2 Bytes.equal data decoded)

let test_too_few_packets () =
  let codec = Rse.create ~k:3 ~h:2 () in
  Alcotest.check_raises "too few" (Invalid_argument "Rse.decode: fewer than k packets received")
    (fun () -> ignore (Rse.decode codec [| (0, Bytes.make 4 'a') |]))

(* A rejected decode leaves the shared, memoized codec usable: it then
   decodes a valid 1-loss pattern (data 0 and the parity, data 1 lost). *)
let check_usable_after_rejection codec =
  let data = random_data (Rng.create ~seed:21 ()) ~k:2 ~size:4 in
  check_equal_data "decode after rejection" data (roundtrip codec data [ 1 ])

let test_duplicate_index_rejected () =
  let codec = Rse.create ~k:2 ~h:1 () in
  let p = Bytes.make 4 'a' in
  Alcotest.check_raises "duplicate" (Invalid_argument "Rse.decode: duplicate packet index")
    (fun () -> ignore (Rse.decode codec [| (0, p); (0, p) |]));
  check_usable_after_rejection codec

let test_unequal_lengths_rejected () =
  let codec = Rse.create ~k:2 ~h:1 () in
  Alcotest.check_raises "lengths" (Invalid_argument "Rse.decode: unequal packet lengths")
    (fun () -> ignore (Rse.decode codec [| (0, Bytes.make 4 'a'); (1, Bytes.make 5 'b') |]))

let test_index_out_of_range () =
  let codec = Rse.create ~k:2 ~h:1 () in
  let p = Bytes.make 4 'a' in
  Alcotest.check_raises "range" (Invalid_argument "Rse.decode: index out of range") (fun () ->
      ignore (Rse.decode codec [| (0, p); (3, p) |]));
  check_usable_after_rejection codec

let test_create_validation () =
  Alcotest.check_raises "k=0" (Invalid_argument "Rse.create: k must be >= 1") (fun () ->
      ignore (Rse.create ~k:0 ~h:1 ()));
  Alcotest.check_raises "too long"
    (Invalid_argument "Rse.create: k + h exceeds 2^m - 1 codeword positions") (fun () ->
      ignore (Rse.create ~k:200 ~h:56 ()))

let test_encode_parity_consistency () =
  let rng = Rng.create ~seed:6 () in
  let codec = Rse.create ~k:5 ~h:3 () in
  let data = random_data rng ~k:5 ~size:48 in
  let all = Rse.encode codec data in
  for j = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "parity %d" j)
      true
      (Bytes.equal all.(j) (Rse.encode_parity codec data j))
  done

let test_generator_row () =
  let codec = Rse.create ~k:3 ~h:2 () in
  Alcotest.(check (array int)) "unit row" [| 0; 1; 0 |] (Rse.generator_row codec 1);
  let parity_row = Rse.generator_row codec 3 in
  Alcotest.(check int) "parity row width" 3 (Array.length parity_row);
  Alcotest.(check bool) "parity row nonzero" true (Array.exists (fun x -> x <> 0) parity_row)

let test_decode_data_loss_wrapper () =
  let rng = Rng.create ~seed:7 () in
  let codec = Rse.create ~k:4 ~h:2 () in
  let data = random_data rng ~k:4 ~size:20 in
  let parities = Rse.encode codec data in
  let slots = [| None; Some data.(1); None; Some data.(3) |] in
  let decoded =
    Rse.decode_data_loss codec ~data:slots ~parity:[ (0, parities.(0)); (1, parities.(1)) ]
  in
  check_equal_data "wrapper" data decoded

let test_is_mds_subset_always () =
  let codec = Rse.create ~k:6 ~h:6 () in
  let rng = Rng.create ~seed:8 () in
  for _ = 1 to 50 do
    let subset = Rmcast.Sampler.distinct_ints rng ~n:12 ~k:6 in
    Alcotest.(check bool) "MDS" true (Rse.is_mds_subset codec subset)
  done

let test_one_byte_packets () =
  let rng = Rng.create ~seed:9 () in
  let codec = Rse.create ~k:3 ~h:2 () in
  let data = random_data rng ~k:3 ~size:1 in
  check_equal_data "1-byte" data (roundtrip codec data [ 0; 2 ])

let test_h_zero () =
  let rng = Rng.create ~seed:10 () in
  let codec = Rse.create ~k:3 ~h:0 () in
  let data = random_data rng ~k:3 ~size:8 in
  Alcotest.(check int) "no parities" 0 (Array.length (Rse.encode codec data));
  check_equal_data "identity code" data (roundtrip codec data [])

let test_k_one () =
  (* (1, h) repetition-like code: parity 0 equals the data packet. *)
  let rng = Rng.create ~seed:11 () in
  let codec = Rse.create ~k:1 ~h:3 () in
  let data = random_data rng ~k:1 ~size:16 in
  let decoded = roundtrip codec data [ 0 ] in
  check_equal_data "k=1" data decoded

let test_max_length_code () =
  let rng = Rng.create ~seed:12 () in
  let codec = Rse.create ~k:223 ~h:32 () in
  let data = random_data rng ~k:223 ~size:8 in
  let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:255 ~k:32) in
  check_equal_data "RS(255,223)" data (roundtrip codec data lost)

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
  let fresh = Rse.encode (Rse.create ~k:4 ~h:3 ()) data in
  for j = 0 to 2 do
    Alcotest.(check bool) "cache" true (Bytes.equal fresh.(j) (Rmcast.Fec_block.Sender.parity sender j))
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
    Alcotest.test_case "too few packets" `Quick test_too_few_packets;
    Alcotest.test_case "duplicate index" `Quick test_duplicate_index_rejected;
    Alcotest.test_case "unequal lengths" `Quick test_unequal_lengths_rejected;
    Alcotest.test_case "index out of range" `Quick test_index_out_of_range;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "encode_parity = encode slice" `Quick test_encode_parity_consistency;
    Alcotest.test_case "generator rows" `Quick test_generator_row;
    Alcotest.test_case "decode_data_loss wrapper" `Quick test_decode_data_loss_wrapper;
    Alcotest.test_case "is_mds_subset" `Quick test_is_mds_subset_always;
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
  check_equal_data "RS(340,300) over GF(2^16)" data (roundtrip codec data lost)

let test_gf16_odd_payload_rejected () =
  let field = Rmcast.Gf.create 16 in
  let codec = Rse.create ~field ~k:2 ~h:1 () in
  let data = [| Bytes.make 7 'a'; Bytes.make 7 'b' |] in
  Alcotest.check_raises "odd length"
    (Invalid_argument "Gf.mul_add_into_symbols: odd length for 16-bit symbols") (fun () ->
      ignore (Rse.encode codec data))

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
