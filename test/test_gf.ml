module Gf = Rmcast.Gf

let f8 = Gf.gf256

let element field = QCheck.Gen.int_range 0 (Gf.size field - 1)
let nonzero field = QCheck.Gen.int_range 1 (Gf.size field - 1)

let qcheck_field_axioms field name =
  let arb = QCheck.make (element field) in
  let arbnz = QCheck.make (nonzero field) in
  let pair = QCheck.pair arb arb in
  let triple = QCheck.triple arb arb arb in
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      QCheck.Test.make ~count:500 ~name:(name ^ ": add associative") triple (fun (a, b, c) ->
          Gf.add (Gf.add a b) c = Gf.add a (Gf.add b c));
      QCheck.Test.make ~count:500 ~name:(name ^ ": add self-inverse") arb (fun a ->
          Gf.add a a = Gf.zero);
      QCheck.Test.make ~count:500 ~name:(name ^ ": mul commutative") pair (fun (a, b) ->
          Gf.mul field a b = Gf.mul field b a);
      QCheck.Test.make ~count:500 ~name:(name ^ ": mul associative") triple (fun (a, b, c) ->
          Gf.mul field (Gf.mul field a b) c = Gf.mul field a (Gf.mul field b c));
      QCheck.Test.make ~count:500 ~name:(name ^ ": distributivity") triple (fun (a, b, c) ->
          Gf.mul field a (Gf.add b c) = Gf.add (Gf.mul field a b) (Gf.mul field a c));
      QCheck.Test.make ~count:500 ~name:(name ^ ": one is identity") arb (fun a ->
          Gf.mul field Gf.one a = a);
      QCheck.Test.make ~count:500 ~name:(name ^ ": inverse") arbnz (fun a ->
          Gf.mul field a (Gf.inv field a) = Gf.one);
      QCheck.Test.make ~count:500 ~name:(name ^ ": div = mul inv") (QCheck.pair arb arbnz)
        (fun (a, b) -> Gf.div field a b = Gf.mul field a (Gf.inv field b));
      QCheck.Test.make ~count:500 ~name:(name ^ ": exp/log roundtrip") arbnz (fun a ->
          Gf.exp field (Gf.log field a) = a);
    ]

let test_exp_periodicity () =
  let order = Gf.size f8 - 1 in
  Alcotest.(check int) "alpha^0" 1 (Gf.exp f8 0);
  Alcotest.(check int) "alpha^order = 1" 1 (Gf.exp f8 order);
  Alcotest.(check int) "negative exponent" (Gf.exp f8 (order - 3)) (Gf.exp f8 (-3))

let test_exp_distinct () =
  (* alpha is primitive: alpha^0 .. alpha^(2^m-2) enumerate all nonzero
     elements exactly once. *)
  let seen = Array.make 256 false in
  for i = 0 to 254 do
    let x = Gf.exp f8 i in
    Alcotest.(check bool) "fresh" false seen.(x);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "zero never hit" false seen.(0)

let test_pow () =
  Alcotest.(check int) "x^0" 1 (Gf.pow f8 37 0);
  Alcotest.(check int) "0^0" 1 (Gf.pow f8 0 0);
  Alcotest.(check int) "0^5" 0 (Gf.pow f8 0 5);
  Alcotest.(check int) "x^1" 37 (Gf.pow f8 37 1);
  let x = 91 in
  Alcotest.(check int) "x^3 = x*x*x" (Gf.mul f8 x (Gf.mul f8 x x)) (Gf.pow f8 x 3);
  (* Fermat: x^(2^m - 1) = 1 *)
  Alcotest.(check int) "Fermat" 1 (Gf.pow f8 123 255)

let test_known_gf256_products () =
  (* Hand-checked products under polynomial 0x11D. *)
  Alcotest.(check int) "2*2" 4 (Gf.mul f8 2 2);
  Alcotest.(check int) "2*3" 6 (Gf.mul f8 2 3);
  (* x * x^7 = x^8 = 0x11D - x^8 = 0x1D under the 0x11D reduction *)
  Alcotest.(check int) "2*128 wraps" 0x1D (Gf.mul f8 2 128);
  Alcotest.(check int) "4*128" (Gf.mul f8 2 (Gf.mul f8 2 128)) (Gf.mul f8 4 128)

let test_div_by_zero () =
  Alcotest.check_raises "div" Division_by_zero (fun () -> ignore (Gf.div f8 5 0));
  Alcotest.check_raises "inv" Division_by_zero (fun () -> ignore (Gf.inv f8 0))

let test_log_zero () =
  Alcotest.check_raises "log 0" (Invalid_argument "Gf.log: log of zero") (fun () ->
      ignore (Gf.log f8 0))

let test_create_bounds () =
  Alcotest.check_raises "m=1" (Invalid_argument "Gf.create: m must be in [2, 16]") (fun () ->
      ignore (Gf.create 1));
  Alcotest.check_raises "m=17" (Invalid_argument "Gf.create: m must be in [2, 16]") (fun () ->
      ignore (Gf.create 17))

let test_all_field_sizes_build () =
  for m = 2 to 16 do
    let field = Gf.create m in
    Alcotest.(check int) (Printf.sprintf "size m=%d" m) (1 lsl m) (Gf.size field);
    (* spot-check an inverse in each field *)
    let x = (1 lsl m) - 1 in
    Alcotest.(check int) "inverse works" Gf.one (Gf.mul field x (Gf.inv field x))
  done

let test_descriptor_cache () =
  Alcotest.(check bool) "cached" true (Gf.create 8 == Gf.create 8)

let bytes_gen length = QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (return length)))

let test_mul_add_into_matches_scalar () =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"mul_add_into = scalar mac"
       (QCheck.make
          QCheck.Gen.(triple (bytes_gen 64) (bytes_gen 64) (int_range 0 255)))
       (fun (dst0, src, coeff) ->
         let dst = Bytes.copy dst0 in
         Gf.mul_add_into f8 ~dst ~src ~coeff;
         let ok = ref true in
         for i = 0 to 63 do
           let expected =
             Gf.add (Char.code (Bytes.get dst0 i)) (Gf.mul f8 coeff (Char.code (Bytes.get src i)))
           in
           if Char.code (Bytes.get dst i) <> expected then ok := false
         done;
         !ok))

let test_mul_into_matches_scalar () =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"mul_into = scalar mul"
       (QCheck.make QCheck.Gen.(pair (bytes_gen 32) (int_range 0 255)))
       (fun (src, coeff) ->
         let dst = Bytes.make 32 'x' in
         Gf.mul_into f8 ~dst ~src ~coeff;
         let ok = ref true in
         for i = 0 to 31 do
           if Char.code (Bytes.get dst i) <> Gf.mul f8 coeff (Char.code (Bytes.get src i)) then
             ok := false
         done;
         !ok))

let test_xor_into () =
  let dst = Bytes.of_string "\x01\x02\x03" in
  let src = Bytes.of_string "\xFF\x02\x10" in
  Gf.xor_into ~dst ~src;
  Alcotest.(check string) "xor" "\xFE\x00\x13" (Bytes.to_string dst)

let test_kernel_length_mismatch () =
  Alcotest.check_raises "length" (Invalid_argument "Gf.xor_into: length mismatch") (fun () ->
      Gf.xor_into ~dst:(Bytes.make 3 ' ') ~src:(Bytes.make 4 ' '))

let test_kernels_require_gf256 () =
  let f4 = Gf.create 4 in
  Alcotest.check_raises "field check"
    (Invalid_argument "Gf.mul_add_into: byte kernels need GF(2^8)") (fun () ->
      Gf.mul_add_into f4 ~dst:(Bytes.make 1 ' ') ~src:(Bytes.make 1 ' ') ~coeff:3)

let suite =
  qcheck_field_axioms f8 "GF(256)"
  @ qcheck_field_axioms (Gf.create 4) "GF(16)"
  @ [
      Alcotest.test_case "exp periodicity" `Quick test_exp_periodicity;
      Alcotest.test_case "alpha is primitive" `Quick test_exp_distinct;
      Alcotest.test_case "pow" `Quick test_pow;
      Alcotest.test_case "known GF(256) products" `Quick test_known_gf256_products;
      Alcotest.test_case "division by zero" `Quick test_div_by_zero;
      Alcotest.test_case "log of zero" `Quick test_log_zero;
      Alcotest.test_case "create bounds" `Quick test_create_bounds;
      Alcotest.test_case "all field sizes m=2..16" `Quick test_all_field_sizes_build;
      Alcotest.test_case "descriptor cache" `Quick test_descriptor_cache;
      test_mul_add_into_matches_scalar ();
      test_mul_into_matches_scalar ();
      Alcotest.test_case "xor_into" `Quick test_xor_into;
      Alcotest.test_case "kernel length mismatch" `Quick test_kernel_length_mismatch;
      Alcotest.test_case "kernels require GF(2^8)" `Quick test_kernels_require_gf256;
    ]
