module Cauchy = Rmcast.Cauchy
module Rng = Rmcast.Rng
module Fec_block = Rmcast.Fec_block

let random_data = Test_rse.random_data
let roundtrip = Test_rse.roundtrip ~kind:`Cauchy

let check_equal name expected actual =
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "%s: packet %d" name i) true (Bytes.equal d actual.(i)))
    expected

let test_roundtrip_basic () =
  let rng = Rng.create ~seed:1 () in
  let data = random_data rng ~k:7 ~size:100 in
  check_equal "drop 3 data" data (roundtrip ~h:3 data [ 0; 3; 6 ]);
  check_equal "drop parities" data (roundtrip ~h:3 data [ 7; 8; 9 ]);
  check_equal "mixed" data (roundtrip ~h:3 data [ 1; 8 ])

let test_exhaustive_mds () =
  (* Every 4-subset of a (4,8) Cauchy block decodes. *)
  Alcotest.(check int) "all C(8,4) subsets" 70 (Test_rse.exhaustive_mds `Cauchy ~seed:2)

(* MDS by construction: random 20-subsets of a (20, 60) block decode. *)
let test_mds_by_construction_random_subsets () =
  let rng = Rng.create ~seed:3 () in
  let data = random_data rng ~k:20 ~size:8 in
  for _ = 1 to 100 do
    let kept = Rmcast.Sampler.distinct_ints rng ~n:60 ~k:20 in
    let lost = List.filter (fun i -> not (Array.mem i kept)) (List.init 60 Fun.id) in
    check_equal "invertible" data (roundtrip ~h:40 data lost)
  done

let test_generator_structure () =
  let codec = Cauchy.create ~k:3 ~h:2 () in
  let field = Rmcast.Gf.gf256 in
  (* Parity row i, column j = 1/((k+i) xor j). *)
  let row = Cauchy.parity_row codec 0 in
  for j = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "cauchy entry %d" j)
      (Rmcast.Gf.inv field ((3 + 0) lxor j))
      (Bytes.get_uint8 row j)
  done

let test_differs_from_vandermonde () =
  (* Same (k, h), different parity values: the constructions are not wire
     compatible with each other. *)
  let rng = Rng.create ~seed:4 () in
  let data = random_data rng ~k:5 ~size:32 in
  let parities kind =
    let sender = Fec_block.Sender.create ~codec:(Rmcast.Codec.of_kind kind) ~h:2 data in
    (Fec_block.Sender.parity sender 0, Fec_block.Sender.parity sender 1)
  in
  let c0, c1 = parities `Cauchy and v0, v1 = parities `Rse in
  Alcotest.(check bool) "parities differ" false (Bytes.equal c0 v0 && Bytes.equal c1 v1)

let test_create_validation () =
  Alcotest.check_raises "too long"
    (Invalid_argument "Cauchy.create: k + h exceeds 2^m - 1 codeword positions") (fun () ->
      ignore (Cauchy.create ~k:200 ~h:56 ()))

let qcheck_roundtrip =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 8 >>= fun h ->
      int_range 0 h >>= fun losses ->
      int_range 0 1_000_000 >>= fun seed -> return (k, h, losses, seed))
  in
  QCheck.Test.make ~count:150 ~name:"cauchy roundtrip under <= h losses" (QCheck.make gen)
    (fun (k, h, losses, seed) ->
      let rng = Rng.create ~seed () in
      let data = random_data rng ~k ~size:24 in
      let lost = Array.to_list (Rmcast.Sampler.distinct_ints rng ~n:(k + h) ~k:losses) in
      let decoded = roundtrip ~h data lost in
      Array.for_all2 Bytes.equal data decoded)

let test_wide_field () =
  (* GF(2^16) lifts the 255-packet cap; roundtrip a 300-packet block. *)
  let field = Rmcast.Gf.create 16 in
  let codec = Cauchy.create ~field ~k:280 ~h:20 () in
  Alcotest.(check int) "280 big-endian symbols per row" 560
    (Bytes.length (Cauchy.parity_row codec 0));
  let rng = Rng.create ~seed:10 () in
  let data = random_data rng ~k:280 ~size:16 in
  check_equal "GF(2^16) cauchy" data
    (Test_rse.roundtrip_field ~field ~parity_row:(Cauchy.parity_row codec) ~h:20 data
       [ 0; 1; 2; 3; 4; 299 ])

let suite =
  [
    Alcotest.test_case "roundtrip basics" `Quick test_roundtrip_basic;
    Alcotest.test_case "exhaustive (4,8) MDS" `Quick test_exhaustive_mds;
    Alcotest.test_case "random 20-of-60 subsets invertible" `Quick
      test_mds_by_construction_random_subsets;
    Alcotest.test_case "generator structure" `Quick test_generator_structure;
    Alcotest.test_case "not wire-compatible with Rse" `Quick test_differs_from_vandermonde;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "GF(2^16) wide block" `Quick test_wide_field;
  ]
