(* Differential tests for the GF(2^8) kernel paths and the codec built on
   them: every accelerated implementation must be byte-identical to the
   scalar reference on arbitrary inputs, emphatically including lengths
   that are not a whole number of SIMD vectors. *)

module Gf = Rmcast.Gf
module Rse = Rmcast.Rse
module Fec_block = Rmcast.Fec_block
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
    int_range 0 255 >>= fun coeff ->
    int_range 0 1_000_000 >>= fun seed -> return (len, pos, sub, coeff, seed))

let qcheck_range_matches_scalar =
  QCheck.Test.make ~count:500 ~name:"mul_add_into_range: window = scalar on window"
    (QCheck.make gen_range_case) (fun (len, pos, sub, coeff, seed) ->
      let rng = Rng.create ~seed () in
      let src = random_bytes rng len in
      let dst = random_bytes rng len in
      let expect = Bytes.copy dst in
      Gf.For_testing.mul_add_into_range ~path:Gf.kernel f8 ~dst ~src ~coeff ~pos ~len:sub;
      (* Reference: scalar over the extracted window only. *)
      let src_w = Bytes.sub src pos sub and exp_w = Bytes.sub expect pos sub in
      Gf.mul_add_into_scalar f8 ~dst:exp_w ~src:src_w ~coeff;
      Bytes.blit exp_w 0 expect pos sub;
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

(* Long vectors (>= 64 KiB), which the random lengths above never reach;
   check them differentially too, with a length that is not a whole number
   of SIMD vectors. *)
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

(* {1 Every kernel path}

   [Gf.For_testing] runs each path the host supports (GFNI, SSSE3, and
   the portable loop, which runs everywhere) against the OCaml scalar
   reference.  Each case applies the kernel to the window [pos, pos+len)
   of a longer random vector, so the bytes around the window must come
   back untouched too. *)

let window_lengths = List.init 131 Fun.id @ [ 1024; 1500; 65536 + 77 ]

(* [kernel] on the window against [reference] on a copy of the window. *)
let check_window ~what ~kernel ~reference rng ~len ~pos ~coeff =
  let total = pos + len + 33 in
  let src = random_bytes rng total and dst = random_bytes rng total in
  let expect = Bytes.copy dst in
  let exp_w = Bytes.sub expect pos len in
  reference ~dst:exp_w ~src:(Bytes.sub src pos len) ~coeff;
  Bytes.blit exp_w 0 expect pos len;
  kernel ~dst ~src ~coeff ~pos ~len;
  if not (Bytes.equal dst expect) then
    Alcotest.failf "%s: len %d pos %d coeff %d differs from scalar" what len pos coeff

let test_paths_match_scalar () =
  Alcotest.(check bool) "portable always runs" true (List.mem "portable" Gf.For_testing.paths);
  Alcotest.(check bool) "Gf.kernel is a supported path" true
    (List.mem Gf.kernel Gf.For_testing.paths);
  let rng = Rng.create ~seed:2013 () in
  List.iter
    (fun path ->
      let mul_add = Gf.For_testing.mul_add_into_range ~path f8
      and mul = Gf.For_testing.mul_into_range ~path f8 in
      let case ~len ~pos ~coeff =
        check_window ~what:(path ^ " mul_add") ~kernel:mul_add
          ~reference:(Gf.mul_add_into_scalar f8) rng ~len ~pos ~coeff;
        check_window ~what:(path ^ " mul") ~kernel:mul ~reference:(Gf.mul_into_scalar f8) rng
          ~len ~pos ~coeff;
        check_window ~what:(path ^ " xor") ~kernel:mul_add
          ~reference:(fun ~dst ~src ~coeff:_ -> Gf.xor_into_scalar ~dst ~src)
          rng ~len ~pos ~coeff:1
      in
      (* Every (length, offset) pair, the coefficient cycling through the
         field as it goes; then every coefficient at a packet size. *)
      List.iteri
        (fun i len ->
          let offsets = if len > 1500 then [ 0; 13; 31 ] else List.init 32 Fun.id in
          List.iter (fun pos -> case ~len ~pos ~coeff:(((i * 32) + pos) mod 256)) offsets)
        window_lengths;
      for coeff = 0 to 255 do
        case ~len:1500 ~pos:(coeff mod 32) ~coeff
      done)
    Gf.For_testing.paths

let test_paths_products () =
  let src = Bytes.init 256 Char.chr in
  List.iter
    (fun path ->
      for c = 0 to 255 do
        let dst = Bytes.create 256 in
        Gf.For_testing.mul_into_range ~path f8 ~dst ~src ~coeff:c ~pos:0 ~len:256;
        let acc = Bytes.make 256 '\000' in
        Gf.For_testing.mul_add_into_range ~path f8 ~dst:acc ~src ~coeff:c ~pos:0 ~len:256;
        for x = 0 to 255 do
          let expect = Gf.mul f8 c x in
          if Char.code (Bytes.get dst x) <> expect || Char.code (Bytes.get acc x) <> expect then
            Alcotest.failf "%s: %d * %d <> Gf.mul" path c x
        done
      done)
    Gf.For_testing.paths

(* [Rlnc.reduce] scales a row in place: [Gf.mul_into ~dst:y ~src:y]. *)
let test_paths_mul_in_place () =
  let rng = Rng.create ~seed:7 () in
  List.iter
    (fun path ->
      List.iter
        (fun (len, pos, coeff) ->
          let y = random_bytes rng (pos + len + 5) in
          let expect = Bytes.copy y in
          let exp_w = Bytes.sub expect pos len in
          Gf.mul_into_scalar f8 ~dst:exp_w ~src:(Bytes.copy exp_w) ~coeff;
          Bytes.blit exp_w 0 expect pos len;
          Gf.For_testing.mul_into_range ~path f8 ~dst:y ~src:y ~coeff ~pos ~len;
          if not (Bytes.equal y expect) then
            Alcotest.failf "%s: in-place mul len %d pos %d coeff %d" path len pos coeff)
        [ (0, 0, 9); (15, 3, 2); (16, 0, 255); (33, 7, 1); (47, 1, 0); (1024, 0, 142); (1500, 31, 77) ])
    Gf.For_testing.paths;
  let y = random_bytes rng 1024 in
  let expect = Bytes.copy y in
  Gf.mul_into_scalar f8 ~dst:expect ~src:(Bytes.copy y) ~coeff:200;
  Gf.mul_into f8 ~dst:y ~src:y ~coeff:200;
  Alcotest.(check bool) "Gf.mul_into in place" true (Bytes.equal y expect)

(* The dispatch itself: a broken CPU check would fall back to a slower
   path and every differential above would still pass.  Linux lists what
   the CPU and the OS both support in the "flags" line of /proc/cpuinfo
   (x86 only; other architectures say "Features"). *)
let cpu_flags () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> []
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | key :: flags when String.trim key = "flags" ->
             Some (String.split_on_char ' ' (String.concat ":" flags))
           | _ -> None)
    |> Option.value ~default:[]

let test_paths_dispatch () =
  let all = [ "portable"; "ssse3"; "gfni" ] in
  let flags = cpu_flags () in
  if Sys.word_size = 64 && List.mem "gfni" flags && List.mem "avx512bw" flags then begin
    Alcotest.(check string) "Gf.kernel on a GFNI + AVX-512BW host" "gfni" Gf.kernel;
    Alcotest.(check (list string)) "every path runs" all Gf.For_testing.paths
  end
  else begin
    let n = List.length Gf.For_testing.paths in
    Alcotest.(check (list string)) "paths are a prefix of portable; ssse3; gfni"
      (List.filteri (fun i _ -> i < n) all)
      Gf.For_testing.paths;
    Alcotest.(check string) "Gf.kernel is the best path" (List.nth all (n - 1)) Gf.kernel
  end

let test_paths_reject_bad_input () =
  let dst = Bytes.make 8 '\000' and src = Bytes.make 8 'x' in
  Alcotest.check_raises "window out of bounds"
    (Invalid_argument "Gf.mul_add_into_range: range out of bounds") (fun () ->
      Gf.For_testing.mul_add_into_range ~path:"portable" f8 ~dst ~src ~coeff:3 ~pos:4 ~len:5);
  Alcotest.check_raises "coefficient beyond the field"
    (Invalid_argument "Gf.mul_add_into: coefficient out of range") (fun () ->
      Gf.mul_add_into f8 ~dst ~src ~coeff:256);
  Alcotest.check_raises "unknown path"
    (Invalid_argument "Gf.For_testing: no kernel path neon on this host") (fun () ->
      Gf.For_testing.mul_into_range ~path:"neon" f8 ~dst ~src ~coeff:3 ~pos:0 ~len:8)

(* Decoding caches nothing per loss pattern.  k = 100, h = 29 is a
   dimension no other test builds, so the process-wide codec memo builds
   a fresh code; 100 distinct 2-loss patterns then decode through it.
   Per-pattern product tables (200 KiB each at k = 100) would grow the
   live heap by ~20 MB. *)
let test_decode_cache_heap () =
  let k = 100 and h = 29 in
  let rng = Rng.create ~seed:100 () in
  let codec = Rmcast.Codec.of_kind `Rse in
  let data = Array.init k (fun _ -> random_bytes rng 256) in
  let sender = Fec_block.Sender.create ~codec ~h data in
  let parity = [| Fec_block.Sender.parity sender 0; Fec_block.Sender.parity sender 1 |] in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live () in
  for a = 0 to k - 1 do
    let b = (a + 1) mod k in
    let receiver = Fec_block.Receiver.create ~codec ~k ~h in
    for i = 0 to k - 1 do
      if i <> a && i <> b then ignore (Fec_block.Receiver.add receiver ~index:i data.(i))
    done;
    ignore (Fec_block.Receiver.add receiver ~index:k parity.(0));
    ignore (Fec_block.Receiver.add receiver ~index:(k + 1) parity.(1));
    let decoded = Fec_block.Receiver.decode receiver in
    if not (Bytes.equal decoded.(a) data.(a) && Bytes.equal decoded.(b) data.(b)) then
      Alcotest.failf "pattern {%d, %d} decoded wrong" a b
  done;
  let growth = live () - before in
  if growth >= 2 * 1024 * 1024 then
    Alcotest.failf "live heap grew %d bytes over 100 decode patterns" growth

let test_symbols16_odd_length_rejected () =
  let dst = Bytes.make 7 '\000' and src = Bytes.make 7 'x' in
  Alcotest.check_raises "odd length"
    (Invalid_argument "Gf.mul_add_into_symbols: odd length for 16-bit symbols") (fun () ->
      Gf.mul_add_into_symbols f16 ~dst ~src ~coeff:3)

(* The decode aliasing contract on the reconstruction path: packets that
   WERE received must come back physically identical even when other
   packets are being reconstructed around them. *)
let test_decode_aliases_present_payloads () =
  let rng = Rng.create ~seed:77 () in
  let codec = Rmcast.Codec.of_kind `Rse in
  let data = Array.init 6 (fun _ -> random_bytes rng 128) in
  let sender = Fec_block.Sender.create ~codec ~h:3 data in
  (* Lose data packets 1 and 4; keep the rest plus two parities. *)
  let receiver = Fec_block.Receiver.create ~codec ~k:6 ~h:3 in
  List.iter
    (fun (index, payload) -> ignore (Fec_block.Receiver.add receiver ~index payload))
    [ (0, data.(0)); (2, data.(2)); (3, data.(3)); (5, data.(5));
      (6, Fec_block.Sender.parity sender 0); (8, Fec_block.Sender.parity sender 2) ];
  let decoded = Fec_block.Receiver.decode receiver in
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

let suite =
  List.map (fun t -> QCheck_alcotest.to_alcotest t)
    [
      qcheck_mul_add_matches_scalar;
      qcheck_mul_matches_scalar;
      qcheck_xor_matches_scalar;
      qcheck_range_matches_scalar;
      qcheck_symbols16_matches_reference;
    ]
  @ [
      Alcotest.test_case "long vectors (pair tier) match scalar" `Quick
        test_long_vector_matches_scalar;
      Alcotest.test_case "GF(2^16) odd length rejected" `Quick test_symbols16_odd_length_rejected;
      Alcotest.test_case "decode aliases present payloads" `Quick
        test_decode_aliases_present_payloads;
      Alcotest.test_case "create is memoized" `Quick test_create_memoized;
      Alcotest.test_case "kernel paths: mul_add, mul, xor = scalar" `Quick
        test_paths_match_scalar;
      Alcotest.test_case "kernel paths: every product = Gf.mul" `Quick test_paths_products;
      Alcotest.test_case "kernel paths: mul_into in place" `Quick test_paths_mul_in_place;
      Alcotest.test_case "kernel paths: bad input rejected" `Quick test_paths_reject_bad_input;
      Alcotest.test_case "kernel paths: dispatch follows the CPU" `Quick test_paths_dispatch;
      Alcotest.test_case "decode cache heap at k=100" `Quick test_decode_cache_heap;
    ]
