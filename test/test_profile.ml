(* The unified Profile record and its converters to the per-layer config
   types. *)

module Profile = Rmcast.Profile
module Error = Rmcast.Error
module Np = Rmcast.Np
module Udp = Rmcast.Udp_np

(* Valid profiles only: the invariants Profile.validate enforces.  The
   repair-budget bound depends on the codec — 255 codeword positions for
   the block codecs, the 16-bit wire index space for the rateless one
   (capped here to keep shrunk counterexamples readable). *)
let profile_gen =
  QCheck.Gen.(
    oneofl Rmcast.Codec.all >>= fun codec ->
    int_range 1 100 >>= fun k ->
    (match codec with
    | `Rse | `Cauchy -> int_range 0 (255 - k)
    | `Rlnc -> int_range 0 (min 2000 (0xFFFF - k)))
    >>= fun h ->
    int_range 0 h >>= fun proactive ->
    int_range 5 2048 >>= fun payload_size ->
    int_range 1 500 >>= fun pacing_tenth_ms ->
    int_range 1 5000 >>= fun slot_tenth_ms ->
    bool >>= fun pre_encode ->
    (* Adaptive controllers require h >= 1 to have anything to retune. *)
    (if h = 0 then return `Static else oneofl [ `Static; `Ewma; `Gilbert_aware ])
    >>= fun controller ->
    return
      {
        Profile.k;
        h;
        proactive;
        payload_size;
        pacing = float_of_int pacing_tenth_ms /. 10_000.0;
        slot = float_of_int slot_tenth_ms /. 10_000.0;
        pre_encode;
        codec;
        controller;
      })

let arbitrary_profile = QCheck.make ~print:Profile.to_string profile_gen

let qcheck_generator_valid =
  QCheck.Test.make ~count:500 ~name:"generated profiles validate" arbitrary_profile
    (fun p -> Result.is_ok (Profile.validate p))

let qcheck_np_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Np config_of_profile roundtrip" arbitrary_profile
    (fun p -> Profile.equal p (Np.profile_of_config (Np.config_of_profile p)))

(* Every profile field lands in the UDP config unchanged. *)
let qcheck_udp_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Udp_np config_of_profile roundtrip" arbitrary_profile
    (fun p ->
      let c = Udp.config_of_profile p in
      Profile.equal p
        {
          Profile.k = c.Udp.k;
          h = c.Udp.h;
          proactive = c.Udp.proactive;
          payload_size = c.Udp.payload_size;
          pacing = c.Udp.spacing;
          slot = c.Udp.slot;
          pre_encode = c.Udp.pre_encode;
          codec = c.Udp.codec;
          controller = c.Udp.controller;
        })

let test_defaults_valid () =
  let check name p =
    match Profile.validate p with
    | Ok p' -> Alcotest.(check bool) (name ^ " unchanged") true (Profile.equal p p')
    | Error e -> Alcotest.failf "%s rejected: %s" name (Error.to_string e)
  in
  check "default" Profile.default;
  check "default_udp" Profile.default_udp

let test_validate_rejections () =
  let rejected name p =
    match Profile.validate ~context:"T" p with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error e ->
      let s = Error.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "%s error carries context (%s)" name s)
        true
        (String.length s > 3 && String.sub s 0 3 = "T: ")
  in
  rejected "k = 0" { Profile.default with k = 0 };
  rejected "k beyond wire field" { Profile.default with k = 0x10000; h = 0 };
  rejected "negative h" { Profile.default with h = -1; proactive = 0 };
  rejected "proactive > h" { Profile.default with h = 2; proactive = 3 };
  rejected "k + h > 255" { Profile.default with k = 200; h = 56 };
  rejected "k + h > 255 (cauchy)" { Profile.default with k = 200; h = 56; codec = `Cauchy };
  rejected "rateless k + h beyond wire index"
    { Profile.default with k = 100; h = 0x10000 - 99; codec = `Rlnc };
  rejected "payload_size = 0" { Profile.default with payload_size = 0 };
  rejected "payload_size = 65511" { Profile.default with payload_size = 65_511 };
  rejected "zero pacing" { Profile.default with pacing = 0.0 };
  rejected "negative slot" { Profile.default with slot = -0.1 };
  rejected "adaptive controller without repair budget"
    { Profile.default with h = 0; proactive = 0; controller = `Ewma };
  rejected "gilbert controller without repair budget"
    { Profile.default with h = 0; proactive = 0; controller = `Gilbert_aware };
  (* validate_exn mirrors validate with Invalid_argument *)
  Alcotest.check_raises "validate_exn raises"
    (Invalid_argument "Profile: k must be >= 1 (got 0)") (fun () ->
      ignore (Profile.validate_exn { Profile.default with k = 0 }))

let test_rateless_lifts_codeword_bound () =
  (* k + h = 1256 > 255: rejected for the block codecs, fine for the
     rateless ones (bounded by the 16-bit wire index only). *)
  let big codec = { Profile.default with k = 200; h = 1056; codec } in
  List.iter
    (fun codec ->
      match Profile.validate (big codec) with
      | Ok _ -> Alcotest.failf "block codec %s accepted k+h=1256" (Profile.codec_to_string codec)
      | Error _ -> ())
    [ `Rse; `Cauchy ];
  List.iter
    (fun codec ->
      match Profile.validate (big codec) with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "rateless codec %s rejected k+h=1256: %s"
          (Profile.codec_to_string codec) (Error.to_string e))
    [ `Rlnc ]

(* The profile's budget bound is exactly each codec's index space: h =
   Codec.max_repair ~k validates and one more does not, so no valid profile
   can make a codec constructor raise. *)
let test_budget_matches_codec () =
  List.iter
    (fun codec ->
      List.iter
        (fun k ->
          let h = Rmcast.Codec.max_repair (Rmcast.Codec.of_kind codec) ~k in
          let profile h = { Profile.default with k; h; proactive = 0; codec } in
          let name = Printf.sprintf "%s, k = %d" (Profile.codec_to_string codec) k in
          Alcotest.(check bool) (name ^ ": h = max_repair accepted") true
            (Result.is_ok (Profile.validate (profile h)));
          Alcotest.(check bool) (name ^ ": h = max_repair + 1 rejected") true
            (Result.is_error (Profile.validate (profile (h + 1)))))
        [ 1; 20; 200; 255 ])
    Rmcast.Codec.all;
  (* The rateless edge k + h = 65536 used to pass validation and then raise
     inside the machine. *)
  let rng = Rmcast.Rng.create ~seed:1 () in
  let network = Rmcast.Network.independent rng ~receivers:1 ~p:0.0 in
  match
    Rmcast.Transfer.send
      ~profile:{ Profile.default with k = 1; h = 65535; codec = `Rlnc }
      ~network ~rng "x"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k + h = 65536 accepted"

let test_codec_string_roundtrip () =
  List.iter
    (fun codec ->
      Alcotest.(check bool)
        (Profile.codec_to_string codec ^ " roundtrips")
        true
        (Profile.codec_of_string (Profile.codec_to_string codec) = Some codec))
    Rmcast.Codec.all;
  Alcotest.(check bool) "unknown name rejected" true (Profile.codec_of_string "fountain" = None);
  Alcotest.(check bool) "removed codec rejected" true (Profile.codec_of_string "lt" = None)

let test_controller_string_roundtrip () =
  List.iter
    (fun controller ->
      Alcotest.(check bool)
        (Profile.controller_to_string controller ^ " roundtrips")
        true
        (Profile.controller_of_string (Profile.controller_to_string controller)
        = Some controller))
    [ `Static; `Ewma; `Gilbert_aware ];
  List.iter
    (fun alias ->
      Alcotest.(check bool) (alias ^ " accepted") true
        (Profile.controller_of_string alias = Some `Gilbert_aware))
    [ "gilbert-aware"; "gilbert_aware" ];
  Alcotest.(check bool) "unknown name rejected" true
    (Profile.controller_of_string "pid" = None)

let test_derived_configs_inherit_fields () =
  let p =
    { Profile.default with k = 11; h = 13; proactive = 2; payload_size = 333; codec = `Rlnc }
  in
  let np = Np.config_of_profile ~delay:0.042 p in
  Alcotest.(check int) "np k" 11 np.Np.k;
  Alcotest.(check int) "np h" 13 np.Np.h;
  Alcotest.(check bool) "np codec" true (np.Np.codec = `Rlnc);
  Alcotest.(check (float 0.0)) "np delay is the caller's" 0.042 np.Np.delay;
  let udp = Udp.config_of_profile ~linger:0.9 p in
  Alcotest.(check int) "udp payload" 333 udp.Udp.payload_size;
  Alcotest.(check bool) "udp codec" true (udp.Udp.codec = `Rlnc);
  Alcotest.(check (float 0.0)) "udp linger is the caller's" 0.9 udp.Udp.linger;
  Alcotest.(check (float 0.0)) "udp keeps profile pacing" p.Profile.pacing udp.Udp.spacing

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_generator_valid;
    QCheck_alcotest.to_alcotest qcheck_np_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_udp_roundtrip;
    Alcotest.test_case "defaults validate" `Quick test_defaults_valid;
    Alcotest.test_case "validate rejections" `Quick test_validate_rejections;
    Alcotest.test_case "rateless codecs lift the codeword bound" `Quick
      test_rateless_lifts_codeword_bound;
    Alcotest.test_case "codec names roundtrip" `Quick test_codec_string_roundtrip;
    Alcotest.test_case "controller names roundtrip" `Quick test_controller_string_roundtrip;
    Alcotest.test_case "derived configs inherit profile fields" `Quick
      test_derived_configs_inherit_fields;
    Alcotest.test_case "budget bound is the codec's index space" `Quick
      test_budget_matches_codec;
  ]
