(* Differential tests for the kernel tiers and the blocked/parallel codec
   paths: every accelerated implementation must be byte-identical to the
   scalar reference on arbitrary inputs, emphatically including lengths
   that are not multiples of the 8-byte word width. *)

module Gf = Rmcast.Gf
module Rse = Rmcast.Rse
module Parallel = Rmcast.Parallel
module Rng = Rmcast.Rng

let f8 = Gf.gf256
let f16 = Gf.create 16

let random_bytes rng len = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256))

(* Lengths straddling the word width, tile sizes, and odd/even parities. *)
let gen_len = QCheck.Gen.oneof [ QCheck.Gen.int_range 0 300; QCheck.Gen.int_range 0 9 ]

let gen_kernel_case =
  QCheck.Gen.(
    gen_len >>= fun len ->
    int_range 0 255 >>= fun coeff ->
    int_range 0 1_000_000 >>= fun seed -> return (len, coeff, seed))

let qcheck_mul_add_matches_scalar =
  QCheck.Test.make ~count:500 ~name:"mul_add_into: word-wide = scalar (any length)"
    (QCheck.make gen_kernel_case) (fun (len, coeff, seed) ->
      let rng = Rng.create ~seed () in
      let src = random_bytes rng len in
      let dst_word = random_bytes rng len in
      let dst_scalar = Bytes.copy dst_word in
      Gf.mul_add_into f8 ~dst:dst_word ~src ~coeff;
      Gf.mul_add_into_scalar f8 ~dst:dst_scalar ~src ~coeff;
      Bytes.equal dst_word dst_scalar)

let qcheck_mul_matches_scalar =
  QCheck.Test.make ~count:500 ~name:"mul_into: word-wide = scalar (any length)"
    (QCheck.make gen_kernel_case) (fun (len, coeff, seed) ->
      let rng = Rng.create ~seed () in
      let src = random_bytes rng len in
      let dst_word = random_bytes rng len in
      let dst_scalar = Bytes.copy dst_word in
      Gf.mul_into f8 ~dst:dst_word ~src ~coeff;
      Gf.mul_into_scalar f8 ~dst:dst_scalar ~src ~coeff;
      Bytes.equal dst_word dst_scalar)

let qcheck_xor_matches_scalar =
  QCheck.Test.make ~count:500 ~name:"xor_into: word-wide = scalar (any length)"
    (QCheck.make QCheck.Gen.(pair gen_len (int_range 0 1_000_000)))
    (fun (len, seed) ->
      let rng = Rng.create ~seed () in
      let src = random_bytes rng len in
      let dst_word = random_bytes rng len in
      let dst_scalar = Bytes.copy dst_word in
      Gf.xor_into ~dst:dst_word ~src;
      Gf.xor_into_scalar ~dst:dst_scalar ~src;
      Bytes.equal dst_word dst_scalar)

let gen_range_case =
  QCheck.Gen.(
    int_range 0 200 >>= fun len ->
    int_range 0 len >>= fun pos ->
    int_range 0 (len - pos) >>= fun sub ->
    int_range 0 255 >>= fun c0 ->
    int_range 0 255 >>= fun c1 ->
    int_range 0 1_000_000 >>= fun seed -> return (len, pos, sub, c0, c1, seed))

let qcheck_range_matches_scalar =
  QCheck.Test.make ~count:500 ~name:"mul_add_into_range: window = scalar on window"
    (QCheck.make gen_range_case) (fun (len, pos, sub, c0, _c1, seed) ->
      let rng = Rng.create ~seed () in
      let src = random_bytes rng len in
      let dst = random_bytes rng len in
      let expect = Bytes.copy dst in
      Gf.mul_add_into_range f8 ~dst ~src ~coeff:c0 ~pos ~len:sub;
      (* Reference: scalar over the extracted window only. *)
      let src_w = Bytes.sub src pos sub and exp_w = Bytes.sub expect pos sub in
      Gf.mul_add_into_scalar f8 ~dst:exp_w ~src:src_w ~coeff:c0;
      Bytes.blit exp_w 0 expect pos sub;
      Bytes.equal dst expect)

let qcheck_mul_add2_matches_two_calls =
  QCheck.Test.make ~count:500 ~name:"mul_add2_into_range: fused = two mul_adds"
    (QCheck.make gen_range_case) (fun (len, pos, sub, c0, c1, seed) ->
      let rng = Rng.create ~seed () in
      let src0 = random_bytes rng len in
      let src1 = random_bytes rng len in
      let dst = random_bytes rng len in
      let expect = Bytes.copy dst in
      Gf.mul_add2_into_range f8 ~dst ~src0 ~coeff0:c0 ~src1 ~coeff1:c1 ~pos ~len:sub;
      Gf.mul_add_into_range f8 ~dst:expect ~src:src0 ~coeff:c0 ~pos ~len:sub;
      Gf.mul_add_into_range f8 ~dst:expect ~src:src1 ~coeff:c1 ~pos ~len:sub;
      Bytes.equal dst expect)

(* GF(2^16): the optimised symbol kernel against a per-symbol semantic
   reference built from Gf.mul. *)
let qcheck_symbols16_matches_reference =
  let gen =
    QCheck.Gen.(
      int_range 0 100 >>= fun symbols ->
      int_range 0 65535 >>= fun coeff ->
      int_range 0 1_000_000 >>= fun seed -> return (symbols, coeff, seed))
  in
  QCheck.Test.make ~count:300 ~name:"GF(2^16) mul_add_into_symbols = per-symbol reference"
    (QCheck.make gen) (fun (symbols, coeff, seed) ->
      let rng = Rng.create ~seed () in
      let len = 2 * symbols in
      let src = random_bytes rng len in
      let dst = random_bytes rng len in
      let expect = Bytes.copy dst in
      Gf.mul_add_into_symbols f16 ~dst ~src ~coeff;
      for s = 0 to symbols - 1 do
        let v = Bytes.get_uint16_be src (2 * s) in
        let old = Bytes.get_uint16_be expect (2 * s) in
        Bytes.set_uint16_be expect (2 * s) (old lxor Gf.mul f16 coeff v)
      done;
      Bytes.equal dst expect)

(* Long vectors cross into the pair-table tier (>= 64 KiB), which the
   random lengths above never reach; check it differentially too, with a
   length that is not a multiple of the word width. *)
let test_long_vector_matches_scalar () =
  let rng = Rng.create ~seed:4242 () in
  let len = 65536 + 4093 in
  let src = random_bytes rng len in
  List.iter
    (fun coeff ->
      let dst_word = random_bytes rng len in
      let dst_scalar = Bytes.copy dst_word in
      Gf.mul_add_into f8 ~dst:dst_word ~src ~coeff;
      Gf.mul_add_into_scalar f8 ~dst:dst_scalar ~src ~coeff;
      Alcotest.(check bool)
        (Printf.sprintf "coeff %d long mul_add" coeff)
        true
        (Bytes.equal dst_word dst_scalar))
    [ 2; 97; 255 ]

let test_symbols16_odd_length_rejected () =
  let dst = Bytes.make 7 '\000' and src = Bytes.make 7 'x' in
  Alcotest.check_raises "odd length"
    (Invalid_argument "Gf.mul_add_into_symbols: odd length for 16-bit symbols") (fun () ->
      Gf.mul_add_into_symbols f16 ~dst ~src ~coeff:3)

(* Blocked encode vs the row-at-a-time reference. *)
let qcheck_blocked_encode_matches_rows =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 8 >>= fun h ->
      int_range 1 100 >>= fun size ->
      int_range 0 1_000_000 >>= fun seed -> return (k, h, size, seed))
  in
  QCheck.Test.make ~count:300 ~name:"blocked encode = per-row encode_parity"
    (QCheck.make gen) (fun (k, h, size, seed) ->
      let rng = Rng.create ~seed () in
      let codec = Rse.create ~k ~h () in
      let data = Array.init k (fun _ -> random_bytes rng size) in
      let blocked = Rse.encode codec data in
      let rows = Array.init h (fun j -> Rse.encode_parity codec data j) in
      Array.for_all2 Bytes.equal blocked rows)

(* Parallel striping vs sequential, with a multi-domain pool and the
   min_bytes gate forced open so striping actually runs even for small
   payloads (and even on single-core CI hosts). *)
let test_pool = lazy (Parallel.create_pool ~domains:3 ())

let qcheck_parallel_encode_matches_sequential =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 0 8 >>= fun h ->
      int_range 1 400 >>= fun size ->
      int_range 0 1_000_000 >>= fun seed -> return (k, h, size, seed))
  in
  QCheck.Test.make ~count:150 ~name:"parallel encode = sequential encode"
    (QCheck.make gen) (fun (k, h, size, seed) ->
      let rng = Rng.create ~seed () in
      let codec = Rse.create ~k ~h () in
      let data = Array.init k (fun _ -> random_bytes rng size) in
      let sequential = Rse.encode codec data in
      let parallel =
        Rse.encode_parallel ~pool:(Lazy.force test_pool) ~min_bytes:0 codec data
      in
      Array.for_all2 Bytes.equal sequential parallel)

let qcheck_parallel_decode_matches_sequential =
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun k ->
      int_range 1 8 >>= fun h ->
      int_range 1 400 >>= fun size ->
      int_range 0 1_000_000 >>= fun seed -> return (k, h, size, seed))
  in
  QCheck.Test.make ~count:150 ~name:"parallel decode = sequential decode"
    (QCheck.make gen) (fun (k, h, size, seed) ->
      let rng = Rng.create ~seed () in
      let codec = Rse.create ~k ~h () in
      let data = Array.init k (fun _ -> random_bytes rng size) in
      let parity = Rse.encode codec data in
      let losses = min h k in
      let lost = Rmcast.Sampler.distinct_ints rng ~n:k ~k:losses in
      let received = ref [] in
      Array.iteri
        (fun i d -> if not (Array.mem i lost) then received := (i, d) :: !received)
        data;
      Array.iteri (fun j p -> received := (k + j, p) :: !received) parity;
      let received = Array.of_list !received in
      let sequential = Rse.decode codec received in
      let parallel =
        Rse.decode_parallel ~pool:(Lazy.force test_pool) ~min_bytes:0 codec received
      in
      Array.for_all2 Bytes.equal sequential parallel
      && Array.for_all2 Bytes.equal data parallel)

(* The decode aliasing contract on the reconstruction path: packets that
   WERE received must come back physically identical even when other
   packets are being reconstructed around them. *)
let test_decode_aliases_present_payloads () =
  let rng = Rng.create ~seed:77 () in
  let codec = Rse.create ~k:6 ~h:3 () in
  let data = Array.init 6 (fun _ -> random_bytes rng 128) in
  let parity = Rse.encode codec data in
  (* Lose data packets 1 and 4; keep the rest plus two parities. *)
  let received =
    [| (0, data.(0)); (2, data.(2)); (3, data.(3)); (5, data.(5)); (6, parity.(0)); (8, parity.(2)) |]
  in
  let decoded = Rse.decode codec received in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "packet %d physically same" i)
        true
        (decoded.(i) == data.(i)))
    [ 0; 2; 3; 5 ];
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "packet %d reconstructed equal" i)
        true
        (Bytes.equal decoded.(i) data.(i));
      Alcotest.(check bool)
        (Printf.sprintf "packet %d fresh buffer" i)
        false
        (decoded.(i) == data.(i)))
    [ 1; 4 ]

(* Codec construction is memoized: same (field, k, h) yields the same
   instance, so per-transfer create calls stop paying the inversion. *)
let test_create_memoized () =
  let a = Rse.create ~k:20 ~h:7 () in
  let b = Rse.create ~k:20 ~h:7 () in
  Alcotest.(check bool) "same instance" true (a == b);
  let c = Rse.create ~k:20 ~h:8 () in
  Alcotest.(check bool) "different parameters differ" false (a == c)

let test_parallel_pool_basics () =
  let pool = Lazy.force test_pool in
  Alcotest.(check int) "domain count" 3 (Parallel.domain_count pool);
  (* Exercise a payload large enough to stripe for real. *)
  let rng = Rng.create ~seed:9 () in
  let codec = Rse.create ~k:20 ~h:7 () in
  let data = Array.init 20 (fun _ -> random_bytes rng 4096) in
  let sequential = Rse.encode codec data in
  let parallel = Rse.encode_parallel ~pool ~min_bytes:0 codec data in
  Alcotest.(check bool) "striped encode equal" true
    (Array.for_all2 Bytes.equal sequential parallel)

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      qcheck_mul_add_matches_scalar;
      qcheck_mul_matches_scalar;
      qcheck_xor_matches_scalar;
      qcheck_range_matches_scalar;
      qcheck_mul_add2_matches_two_calls;
      qcheck_symbols16_matches_reference;
      qcheck_blocked_encode_matches_rows;
      qcheck_parallel_encode_matches_sequential;
      qcheck_parallel_decode_matches_sequential;
    ]
  @ [
      Alcotest.test_case "long vectors (pair tier) match scalar" `Quick
        test_long_vector_matches_scalar;
      Alcotest.test_case "GF(2^16) odd length rejected" `Quick test_symbols16_odd_length_rejected;
      Alcotest.test_case "decode aliases present payloads" `Quick
        test_decode_aliases_present_payloads;
      Alcotest.test_case "create is memoized" `Quick test_create_memoized;
      Alcotest.test_case "parallel pool basics" `Quick test_parallel_pool_basics;
    ]
