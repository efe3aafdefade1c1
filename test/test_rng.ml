module Rng = Rmcast.Rng

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = Rng.create ~seed:123 () in
  let b = Rng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create ~seed:1 () in
  let b = Rng.create ~seed:2 () in
  let equal_count = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr equal_count
  done;
  Alcotest.(check bool) "streams differ" true (!equal_count < 4)

let test_copy_independent () =
  let a = Rng.create ~seed:5 () in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb;
  ignore (Rng.bits64 a);
  (* advancing a does not affect b *)
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  Alcotest.(check bool) "diverged positions differ" true (not (Int64.equal a' b'))

let test_split_streams_differ () =
  let parent = Rng.create ~seed:9 () in
  let child = Rng.split parent in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr matches
  done;
  Alcotest.(check bool) "split independent" true (!matches < 4)

let test_float_range () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_float_pos_range () =
  let rng = Rng.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    Alcotest.(check bool) "in (0,1]" true (x > 0.0 && x <= 1.0)
  done

let test_float_mean () =
  let rng = Rng.create ~seed:17 () in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.005)

let test_int_bounds () =
  let rng = Rng.create ~seed:4 () in
  List.iter
    (fun bound ->
      for _ = 1 to 2_000 do
        let x = Rng.int rng bound in
        Alcotest.(check bool) "in range" true (x >= 0 && x < bound)
      done)
    [ 1; 2; 3; 7; 16; 1000; 1 lsl 30 ]

let test_int_uniform () =
  let rng = Rng.create ~seed:21 () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun count ->
      let expected = n / 10 in
      Alcotest.(check bool) "bucket within 5%" true
        (abs (count - expected) < expected / 20 + 50))
    buckets

let test_int_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_bernoulli_rate () =
  let rng = Rng.create ~seed:6 () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_exponential_mean () =
  let rng = Rng.create ~seed:8 () in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~rate:4.0
  done;
  let mean = !sum /. float_of_int n in
  check_float "exponential positive rate required" 0.0 0.0;
  Alcotest.(check bool) "mean near 1/4" true (Float.abs (mean -. 0.25) < 0.01)

let test_exponential_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "rate 0" (Invalid_argument "Rng.exponential: rate must be positive")
    (fun () -> ignore (Rng.exponential rng ~rate:0.0))

let test_geometric_mean () =
  let rng = Rng.create ~seed:10 () in
  let n = 100_000 in
  let p = 0.2 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric rng ~p
  done;
  let mean = float_of_int !sum /. float_of_int n in
  (* E = (1-p)/p = 4 *)
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.1)

let test_geometric_p_one () =
  let rng = Rng.create () in
  for _ = 1 to 100 do
    Alcotest.(check int) "always 0" 0 (Rng.geometric rng ~p:1.0)
  done

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:12 () in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

let test_shuffle_moves_things () =
  let rng = Rng.create ~seed:13 () in
  let a = Array.init 100 Fun.id in
  Rng.shuffle_in_place rng a;
  Alcotest.(check bool) "not identity" true (a <> Array.init 100 Fun.id)

(* --- known-answer vectors ------------------------------------------------- *)

(* Literal outputs of the generator.  The stream is a determinism contract:
   captures, golden protocol digests and --jobs sweeps all assume that a
   seed names the same draws forever, so any change to seeding, the
   xoshiro256++ step or the rejection loop in [int] must fail here first. *)
let test_known_answers () =
  let check_stream name expected rng =
    Alcotest.(check (list int64))
      name expected
      (List.init (List.length expected) (fun _ -> Rng.bits64 rng))
  in
  check_stream "seed 0"
    [ 5987356902031041503L; 7051070477665621255L; 6633766593972829180L;
      211316841551650330L; 9136120204379184874L; 379361710973160858L;
      -2633320696210193810L; -2849859482894481063L ]
    (Rng.create ~seed:0 ());
  check_stream "seed 1"
    [ -3475142291704528229L; -4665094578477473651L; 1847458086238483744L;
      -4681472437956815146L; 3406718355780431780L; -7554331206127443131L;
      -242130512033606393L; -8791407139816738271L ]
    (Rng.create ~seed:1 ());
  check_stream "seed max_int"
    [ 5042704402088116674L; -4346585348570061276L; 2275662942369039416L;
      2651003317969226783L; 289318042140842819L; -4094180690987639946L;
      5626987630393445440L; 1696139565964319462L ]
    (Rng.create ~seed:max_int ());
  check_stream "default seed"
    [ -2842400717068830474L; -8840522739554158868L; -7396601464258813662L;
      -7100346880147597872L; -5681317958999888752L; 1261979599004495150L;
      6744644745241048720L; -8395251129469310616L ]
    (Rng.create ());
  check_stream "negative int64 seed"
    [ 6090142340066393828L; 6167527935988847924L; 4165419306531239227L;
      -8271877321286816844L; 3340692806023900667L; -7276522855703697961L;
      3483310755612457193L; 5929148326969155888L ]
    (Rng.of_int64_seed (-0x123456789abcdefL));
  let parent = Rng.create ~seed:42 () in
  let child = Rng.split parent in
  check_stream "split child"
    [ 5745406364259058299L; -3749950290529424113L; -1760308716576054147L;
      -9037075910341025277L ]
    child;
  check_stream "split parent advances"
    [ 5881210131331364753L; -297100157724070516L; -5513075133950446152L;
      -3809169831026726285L ]
    parent;
  let original = Rng.create ~seed:7 () in
  ignore (Rng.bits64 original);
  let copied = Rng.copy original in
  let copy_stream =
    [ 3174977118032272916L; -5209800880474007438L; 7880630202246103356L;
      -670363499373198474L ]
  in
  check_stream "copy" copy_stream copied;
  check_stream "original after copy" copy_stream original;
  let rng = Rng.create ~seed:99 () in
  Alcotest.(check (list int)) "int 10" [ 6; 7; 0; 0; 6; 7; 3; 3 ]
    (List.init 8 (fun _ -> Rng.int rng 10));
  (* 2^61 + 1 rejects about a quarter of its draws, so this pins the
     rejection loop too; the trailing bits64 pins how many words it used. *)
  Alcotest.(check (list int)) "int (2^61 + 1)"
    [ 1789037822308181751; 1250859626443785304; 2100614548673788146;
      1267982677565146706; 569394150250210011; 422104503731014843;
      1553045713852674725; 1975154300711772970 ]
    (List.init 8 (fun _ -> Rng.int rng ((1 lsl 61) + 1)));
  Alcotest.(check int64) "bits64 after the int draws" 827563300089475766L (Rng.bits64 rng);
  Alcotest.(check (list int)) "derive_seed"
    [ 4073552104164651883; 317874996322878970; 3280347150589302973 ]
    [ Rng.derive_seed 0 [||]; Rng.derive_seed 1 [| 2; 3 |];
      Rng.derive_seed 12345 [| 0; -1; max_int |] ]

(* The float draws and the draws built on them, pinned on one stream: a
   change to the 53-bit conversion, the (0, 1] shift of [float_pos], the
   comparison in [bernoulli] or the log ratio in [geometric] must fail
   here.  Floats are compared bit for bit, written as hex literals. *)
let test_float_known_answers () =
  let rng = Rng.create ~seed:2024 () in
  let bits l = List.map Int64.bits_of_float l in
  Alcotest.(check (list int64)) "float"
    (bits [ 0x1.0c824a7f1fdbp-1; 0x1.2dfbbb18abd9ap-2; 0x1.f2caff4e7ba34p-3;
            0x1.afc6a90c0d19p-2; 0x1.7f12c9ad24582p-1; 0x1.9dd9584376417p-1 ])
    (bits (List.init 6 (fun _ -> Rng.float rng)));
  Alcotest.(check (list int64)) "float_pos"
    (bits [ 0x1.f5017920702f5p-1; 0x1.536fa63b84c8ep-1; 0x1.852834bb3b13p-4;
            0x1.878de5bbf11d8p-2; 0x1.2e4615437c219p-1; 0x1.a228a13811e3cp-1 ])
    (bits (List.init 6 (fun _ -> Rng.float_pos rng)));
  Alcotest.(check string) "bernoulli 0.3" "00000100000100100000000011011100"
    (String.concat "" (List.init 32 (fun _ -> if Rng.bernoulli rng 0.3 then "1" else "0")));
  Alcotest.(check (list int)) "geometric 0.2" [ 9; 0; 5; 2; 5; 2; 2; 8; 0; 10; 2; 0 ]
    (List.init 12 (fun _ -> Rng.geometric rng ~p:0.2));
  Alcotest.(check int64) "bits64 after the float draws" 140713949635215565L (Rng.bits64 rng)

(* --- allocation budget ---------------------------------------------------- *)

(* The exact simulation tier makes one draw per receiver per packet, so a
   draw that returns an immediate must not touch the minor heap.  The
   budget allows a few words of slack for the [Gc.minor_words] calls
   themselves over [draws] iterations. *)
let draws = 100_000

let words_per_call f =
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int draws

let test_draws_allocate_nothing () =
  let rng = Rng.create ~seed:31 () in
  let hits = ref 0 in
  let zero = 0.001 in
  let measured =
    [
      ("bernoulli", words_per_call (fun () -> if Rng.bernoulli rng 0.3 then incr hits), zero);
      ("bool", words_per_call (fun () -> if Rng.bool rng then incr hits), zero);
      (* A float returned to another module stays unboxed only where the
         call inlines, which -opaque forbids. *)
      ("float", words_per_call (fun () -> if Rng.float rng < 0.5 then incr hits), zero);
      ("float_pos", words_per_call (fun () -> if Rng.float_pos rng < 0.5 then incr hits), zero);
      ("int 10", words_per_call (fun () -> hits := !hits + Rng.int rng 10), zero);
      ("int 16", words_per_call (fun () -> hits := !hits + Rng.int rng 16), zero);
      ("geometric", words_per_call (fun () -> hits := !hits + Rng.geometric rng ~p:0.2), zero);
      ( "binomial_by_trials 20",
        words_per_call (fun () -> hits := !hits + Rng.binomial_by_trials rng ~n:20 ~p:0.3),
        zero );
      ( "binomial_by_skips 500",
        words_per_call (fun () -> hits := !hits + Rng.binomial_by_skips rng ~n:500 ~p:0.01),
        zero );
    ]
  in
  (* Words per [Network.lost] query over transmissions [spacing] seconds
     apart: the per-transmission record is spread over the receivers. *)
  let words_per_query network ~spacing =
    let receivers = Rmcast.Network.receivers network in
    let transmissions = draws / receivers in
    let before = Gc.minor_words () in
    for i = 1 to transmissions do
      let tx = Rmcast.Network.transmit network ~time:(float_of_int i *. spacing) in
      for r = 0 to receivers - 1 do
        if Rmcast.Network.lost tx r then incr hits
      done
    done;
    (Gc.minor_words () -. before) /. float_of_int (transmissions * receivers)
  in
  (* The independent regime is one bernoulli per query; the temporal one
     advances one Markov chain per query, whose float state must not box
     on the way. *)
  let send_rate = 1000.0 in
  let measured =
    measured
    @ [
        ( "Network.lost (independent, R = 500)",
          words_per_query (Rmcast.Network.independent rng ~receivers:500 ~p:0.02) ~spacing:1.0,
          0.05 );
        ( "Network.lost (temporal markov2, R = 64)",
          words_per_query
            (Rmcast.Network.temporal rng ~receivers:64 ~make:(fun rng ->
                 Rmcast.Loss.markov2 rng ~p:0.05 ~mean_burst:2.0 ~send_rate))
            ~spacing:(1.0 /. send_rate),
          0.1 );
      ]
  in
  (* Report every draw over budget at once, not just the first. *)
  let over =
    List.filter_map
      (fun (name, per_call, budget) ->
        if per_call < budget then None
        else
          Some
            (Printf.sprintf
               "%s: %.3f words per call, budget %g (the allocation pins assume the \
                workspace's default release profile; under --profile dev, -opaque boxes \
                every float returned across a module boundary)"
               name per_call budget))
      measured
  in
  Alcotest.(check (list string)) "draws within allocation budget" [] over;
  Alcotest.(check bool) "draws were made" true (!hits > 0)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "copy replays then diverges" `Quick test_copy_independent;
    Alcotest.test_case "split gives independent stream" `Quick test_split_streams_differ;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "float_pos in (0,1]" `Quick test_float_pos_range;
    Alcotest.test_case "float mean" `Quick test_float_mean;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int uniformity" `Quick test_int_uniform;
    Alcotest.test_case "int rejects bad bound" `Quick test_int_invalid;
    Alcotest.test_case "bernoulli rate" `Quick test_bernoulli_rate;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential rejects rate 0" `Quick test_exponential_invalid;
    Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
    Alcotest.test_case "geometric p=1" `Quick test_geometric_p_one;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "shuffle moves" `Quick test_shuffle_moves_things;
    Alcotest.test_case "known-answer stream pins" `Quick test_known_answers;
    Alcotest.test_case "known-answer float pins" `Quick test_float_known_answers;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
  ]
