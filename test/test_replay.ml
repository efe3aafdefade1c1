(* Driver equivalence and deterministic replay.

   The tentpole claim of the sans-IO refactor: the virtual-time simulator
   (Np.Mux over Engine) and the wall-clock UDP driver (Udp_np over
   Reactor) interpret the *same* Np_machine core, so feeding both the
   same profile, payloads, seed and loss process must produce identical
   per-machine event/effect streams — the drivers differ only in how they
   move bytes and time between the machines.  The recorder makes the
   comparison literal: capture both runs and diff the logs. *)

module M = Rmcast.Np_machine
module Recorder = Rmcast.Recorder
module Udp = Rmcast.Udp_np
module Np = Rmcast.Np

let payloads ~count ~size seed =
  let rng = Rmcast.Rng.create ~seed () in
  Array.init count (fun _ -> Bytes.init size (fun _ -> Char.chr (Rmcast.Rng.int rng 256)))

(* One knob set, rendered for each driver.  Only the fields the machine
   sees (k, h, proactive, slot — and payload size through the packets)
   must agree; spacing/delay/linger are driver-local. *)
let k = 4
let h = 8
let slot = 0.02
let payload_size = 256

let sim_config =
  {
    Np.default_config with
    k;
    h;
    proactive = 0;
    payload_size;
    slot;
    pre_encode = false;
  }

let udp_config =
  {
    Udp.default_config with
    k;
    h;
    proactive = 0;
    payload_size;
    slot;
    session_timeout = 20.0;
  }

let stream recorder =
  List.map
    (fun (e : Recorder.entry) ->
      ( e.actor,
        (match e.kind with Recorder.Event -> "E" | Recorder.Effect -> "X"),
        e.body ))
    (Recorder.entries recorder)

let actors recorder =
  List.sort_uniq compare (List.map (fun (e : Recorder.entry) -> e.actor) (Recorder.entries recorder))

let per_actor recorder actor =
  List.filter (fun (a, _, _) -> a = actor) (stream recorder)

let sim_capture ?(codec = `Rse) ?(pre_encode = false) ~receivers ~loss ~seed ~data () =
  let engine = Rmcast.Engine.create () in
  let mux = Np.Mux.create engine in
  let network =
    Rmcast.Network.independent (Rmcast.Rng.create ~seed ()) ~receivers ~p:loss
  in
  (* The UDP driver seeds receiver id's damping RNG from the run seed; with
     one receiver the sim flow's shared RNG must draw from the same
     stream for the machines to agree. *)
  let rng = Rmcast.Rng.create ~seed:(Udp.receiver_machine_seed ~seed ~id:0) () in
  let recorder = Recorder.create () in
  let config = { sim_config with Np.codec; pre_encode } in
  let flow = Np.Mux.add_flow mux ~config ~recorder ~network ~rng ~data () in
  Np.Mux.run mux;
  Alcotest.(check bool) "sim flow complete" true (Np.Mux.complete flow);
  recorder

let udp_capture ?(codec = `Rse) ?(pre_encode = false) ~receivers ~loss ~seed ~data () =
  let recorder = Recorder.create () in
  let config = { udp_config with Udp.codec; pre_encode } in
  let report = Udp.run_local_exn ~config ~recorder ~receivers ~loss ~seed ~data () in
  Alcotest.(check bool) "udp verified" true report.Udp.verified;
  recorder

let check_same_streams a b =
  Alcotest.(check (list string)) "same machines" (actors a) (actors b);
  List.iter
    (fun actor ->
      Alcotest.(check (list (triple string string string)))
        (Printf.sprintf "per-actor stream (%s)" actor)
        (per_actor a actor) (per_actor b actor))
    (actors a);
  Alcotest.(check bool) "streams non-trivial" true (Recorder.length a > 0)

let check_equivalence ?codec ?pre_encode ~receivers ~loss ~seed ~data () =
  check_same_streams
    (sim_capture ?codec ?pre_encode ~receivers ~loss ~seed ~data ())
    (udp_capture ?codec ?pre_encode ~receivers ~loss ~seed ~data ())

(* Lossless, several receivers and TGs: no randomness is consumed, both
   drivers must walk every machine through the identical schedule — with
   repair packets encoded on demand and all up front alike. *)
let test_differential_lossless () =
  List.iter
    (fun pre_encode ->
      check_equivalence ~pre_encode ~receivers:3 ~loss:0.0 ~seed:11
        ~data:(payloads ~count:12 ~size:payload_size 5) ())
    [ false; true ]

(* Lossy, one receiver, one TG: the loss draws and the NAK damping draws
   line up between the drivers (same seeds, same draw order), so even the
   repair rounds must match event-for-event. *)
let test_differential_lossy () =
  List.iter
    (fun seed ->
      check_equivalence ~receivers:1 ~loss:0.3 ~seed
        ~data:(payloads ~count:k ~size:payload_size (seed + 100)) ())
    [ 21; 22; 23 ]

(* Same contract under the rateless codec: repair packets are coded
   combinations re-derived from (k, j) on both sides, and the coded repair
   rounds must still replay byte-identically between the drivers. *)
let test_differential_lossy_coded () =
  List.iter
    (fun (codec, seed) ->
      check_equivalence ~codec ~receivers:1 ~loss:0.3 ~seed
        ~data:(payloads ~count:k ~size:payload_size (seed + 200)) ())
    [ (`Rlnc, 24); (`Rlnc, 25) ]

(* run_local is run_multi with one session: the same machines see the same
   streams and the reports agree; only the sender counters' [session.0.]
   scope tells the two apart.  Lossless, so no wall-clock race decides
   what any machine sees. *)
let test_run_local_is_one_session () =
  let data = payloads ~count:12 ~size:payload_size 13 in
  let local_recorder = Recorder.create () and multi_recorder = Recorder.create () in
  let local =
    Udp.run_local_exn ~config:udp_config ~recorder:local_recorder ~receivers:3 ~loss:0.0
      ~seed:17 ~data ()
  in
  let multi =
    Rmcast.Error.get_exn
      (Udp.run_multi ~config:udp_config ~recorder:multi_recorder ~receivers:3 ~loss:0.0
         ~seed:17 ~sessions:[| data |] ())
  in
  check_same_streams local_recorder multi_recorder;
  let s = multi.Udp.session_reports.(0) in
  Alcotest.(check bool) "both verified" true (local.Udp.verified && multi.Udp.all_verified);
  Alcotest.(check (list int)) "report counts"
    [ local.Udp.transmission_groups; local.Udp.data_tx; local.Udp.parity_tx; local.Udp.polls;
      local.Udp.completed; local.Udp.naks_sent; local.Udp.naks_suppressed;
      local.Udp.datagrams_dropped; local.Udp.decode_failures ]
    [ s.Udp.transmission_groups; s.Udp.data_tx; s.Udp.parity_tx; s.Udp.polls;
      s.Udp.completed; multi.Udp.naks_sent; multi.Udp.naks_suppressed;
      multi.Udp.datagrams_dropped; multi.Udp.decode_failures ];
  let unscoped counters =
    let prefix = "session.0." in
    let n = String.length prefix in
    let strip name =
      if String.starts_with ~prefix name then String.sub name n (String.length name - n) else name
    in
    List.sort compare (List.map (fun (name, value) -> (strip name, value)) counters)
  in
  (* The transport's own counters (syscalls, timer fires) follow the wall
     clock, so only their names must agree. *)
  let protocol (name, _) =
    List.exists (fun prefix -> String.starts_with ~prefix name) [ "tx."; "rx."; "sender." ]
  in
  Alcotest.(check (list (pair string int))) "protocol counters, scope stripped"
    (List.filter protocol (unscoped local.Udp.counters))
    (List.filter protocol (unscoped multi.Udp.counters));
  Alcotest.(check (list string)) "same counter names, scope stripped"
    (List.map fst (unscoped local.Udp.counters))
    (List.map fst (unscoped multi.Udp.counters))

(* --- capture -> save -> load -> replay --------------------------------- *)

let temp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

(* The checked-in capture, found next to the test binary (dune copies it
   there as a dependency) so the suite passes from any working
   directory: under [dune runtest] and under [dune exec] alike. *)
let fixture_path =
  Filename.concat (Filename.dirname Sys.executable_name) "fixtures/replay_2session.rmcrec"

let test_replay_roundtrip () =
  (* Once per codec family: the capture meta carries the codec (absent =
     rse for pre-seam fixtures) and replay must rebuild the same blocks. *)
  List.iter
    (fun codec ->
      let recorder = Recorder.create () in
      let data = payloads ~count:8 ~size:payload_size 7 in
      let config = { udp_config with Udp.codec } in
      let report =
        Udp.run_local_exn ~config ~recorder ~receivers:2 ~loss:0.25 ~seed:31 ~data ()
      in
      Alcotest.(check bool) "run verified" true report.Udp.verified;
      let path = temp_path "rmcast_replay_roundtrip.rmcrec" in
      Recorder.save ~path recorder;
      let loaded =
        match Recorder.load ~path with
        | Ok r -> r
        | Error reason -> Alcotest.fail reason
      in
      Sys.remove path;
      Alcotest.(check int) "entries survive the file" (Recorder.length recorder)
        (Recorder.length loaded);
      match Rmcast.Np_replay.replay loaded with
      | Error reason -> Alcotest.fail reason
      | Ok outcome ->
        Alcotest.(check (option string)) "bit-identical replay" None
          outcome.Rmcast.Np_replay.divergence;
        Alcotest.(check bool) "events replayed" true (outcome.Rmcast.Np_replay.events > 0);
        Alcotest.(check bool) "effects checked" true (outcome.Rmcast.Np_replay.effects > 0))
    [ `Rse; `Rlnc ]

(* Tampering with a recorded effect must be caught, not absorbed. *)
let test_replay_detects_tampering () =
  let recorder = Recorder.create () in
  let data = payloads ~count:4 ~size:payload_size 9 in
  ignore (Udp.run_local_exn ~config:udp_config ~recorder ~receivers:1 ~loss:0.0 ~seed:41 ~data ());
  let path = temp_path "rmcast_replay_tamper.rmcrec" in
  Recorder.save ~path recorder;
  let lines =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let tampered = ref false in
  let flip line =
    if (not !tampered) && String.length line > 2 && String.sub line 0 2 = "X " then begin
      tampered := true;
      (* Flip the last character of the first recorded effect. *)
      let b = Bytes.of_string line in
      let last = Bytes.length b - 1 in
      Bytes.set b last (if Bytes.get b last = '0' then '1' else '0');
      Bytes.to_string b
    end
    else line
  in
  let oc = open_out path in
  List.iter (fun line -> output_string oc (flip line ^ "\n")) lines;
  close_out oc;
  Alcotest.(check bool) "found an effect to corrupt" true !tampered;
  let loaded =
    match Recorder.load ~path with Ok r -> r | Error reason -> Alcotest.fail reason
  in
  Sys.remove path;
  match Rmcast.Np_replay.replay loaded with
  | Error reason -> Alcotest.fail ("expected a divergence, got a hard error: " ^ reason)
  | Ok outcome ->
    Alcotest.(check bool) "divergence reported" true
      (outcome.Rmcast.Np_replay.divergence <> None)

(* A capture with no usable meta is rejected outright. *)
let test_replay_rejects_bad_meta () =
  let recorder = Recorder.create () in
  Recorder.record_event recorder ~actor:"s0" "tick";
  match Rmcast.Np_replay.replay recorder with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected Error on missing meta"

(* A hostile meta in an otherwise valid capture — the checked-in fixture
   with one value changed — is an [Error] naming the capture meta, not a
   crash in the machine constructors: k = 0 used to divide by zero,
   proactive > h and a budget past the codec's index space used to raise
   Invalid_argument. *)
let test_replay_rejects_hostile_meta () =
  let fixture =
    In_channel.with_open_text fixture_path In_channel.input_all
  in
  let lines = String.split_on_char '\n' fixture in
  List.iter
    (fun (key, value) ->
      let prefix = Printf.sprintf "meta %s " key in
      Alcotest.(check bool) (key ^ " in the fixture meta") true
        (List.exists (String.starts_with ~prefix) lines);
      let path = temp_path "rmcast_replay_hostile.rmcrec" in
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i line ->
              if i > 0 then output_char oc '\n';
              output_string oc
                (if String.starts_with ~prefix line then prefix ^ value else line))
            lines);
      let loaded =
        match Recorder.load ~path with Ok r -> r | Error reason -> Alcotest.fail reason
      in
      Sys.remove path;
      match Rmcast.Np_replay.replay loaded with
      | Ok _ -> Alcotest.failf "meta %s %s accepted" key value
      | Error reason ->
        Alcotest.(check bool)
          (Printf.sprintf "meta %s %s: %s" key value reason)
          true
          (String.starts_with ~prefix:"capture meta: " reason))
    [ ("k", "0"); ("proactive", "50"); ("h", "300") ]

(* A capture naming a codec this build does not have — LT, which left the
   registry — is an [Error] naming the capture meta, not a raise: an RLNC
   capture with its one codec line rewritten. *)
let test_replay_rejects_removed_codec () =
  let recorder =
    udp_capture ~codec:`Rlnc ~receivers:2 ~loss:0.25 ~seed:31
      ~data:(payloads ~count:8 ~size:payload_size 7) ()
  in
  let path = temp_path "rmcast_replay_removed_codec.rmcrec" in
  Recorder.save ~path recorder;
  let lines = String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all) in
  let prefix = "meta codec " in
  Alcotest.(check (list string)) "the capture names its codec" [ prefix ^ "rlnc" ]
    (List.filter (String.starts_with ~prefix) lines);
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.map (fun line -> if String.starts_with ~prefix line then prefix ^ "lt" else line)
              lines)));
  let loaded =
    match Recorder.load ~path with Ok r -> r | Error reason -> Alcotest.fail reason
  in
  Sys.remove path;
  match Rmcast.Np_replay.replay loaded with
  | Ok _ -> Alcotest.fail "a capture naming lt replayed"
  | Error reason ->
    Alcotest.(check string) "error" "capture meta codec: cannot parse \"lt\"" reason

(* A session of more than 0x10000 TGs overflows the wire tg's 16-bit
   local index into the next session's ids.  Replay refuses such a meta
   before it builds a receiver, whose expected list would name a TG
   twice. *)
let test_replay_rejects_tg_overflow () =
  let recorder = Recorder.create () in
  let config =
    { M.k = 1; h = 1; proactive = 0; pre_encode = false; slot; codec = `Rse }
  in
  Rmcast.Np_replay.record_setup recorder ~config ~payload_size:1 ~receivers:1
    ~sessions:[| payloads ~count:0x10001 ~size:1 1; payloads ~count:1 ~size:1 2 |]
    ~rx_seeds:[| 1 |] ();
  Recorder.record_event recorder ~actor:"r0" (M.event_to_string M.Tick);
  match Rmcast.Np_replay.replay recorder with
  | Ok _ -> Alcotest.fail "a session of 0x10001 TGs accepted"
  | Error reason ->
    Alcotest.(check string) "error" "capture meta data.0: too many TGs (wire tg is 16-bit)"
      reason

(* The recorder file format itself: meta, ordering, hostile input. *)
let test_recorder_format () =
  let r = Recorder.create () in
  Recorder.set_meta r "format" "np-machine/1";
  Recorder.set_meta r "note" "value with spaces";
  Recorder.record_event r ~actor:"s0" "tick";
  Recorder.record_effect r ~actor:"s0" "done";
  Recorder.record_event r ~actor:"r1" "fb:0:1:1";
  let path = temp_path "rmcast_recorder_format.rmcrec" in
  Recorder.save ~path r;
  (match Recorder.load ~path with
  | Error reason -> Alcotest.fail reason
  | Ok loaded ->
    Alcotest.(check (option string)) "meta value keeps its spaces"
      (Some "value with spaces") (Recorder.meta loaded "note");
    Alcotest.(check int) "length" 3 (Recorder.length loaded);
    Alcotest.(check (list (triple string string string)))
      "entry order preserved"
      [ ("s0", "E", "tick"); ("s0", "X", "done"); ("r1", "E", "fb:0:1:1") ]
      (stream loaded));
  let oc = open_out path in
  output_string oc "# rmc-replay 1\nE missing-body\n";
  close_out oc;
  (match Recorder.load ~path with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error reason ->
    Alcotest.(check bool) "diagnostic names the line" true
      (String.length reason > 0));
  Sys.remove path;
  Alcotest.check_raises "whitespace in actor rejected"
    (Invalid_argument "Recorder: whitespace in actor \"s 0\"") (fun () ->
      Recorder.record_event r ~actor:"s 0" "tick")

let suite =
  [
    Alcotest.test_case "drivers agree: lossless multi-receiver" `Quick
      test_differential_lossless;
    Alcotest.test_case "drivers agree: lossy single receiver" `Quick test_differential_lossy;
    Alcotest.test_case "drivers agree: lossy, coded repair (rlnc)" `Quick
      test_differential_lossy_coded;
    Alcotest.test_case "run_local is a one-session run_multi" `Quick
      test_run_local_is_one_session;
    Alcotest.test_case "capture/save/load/replay roundtrip" `Quick test_replay_roundtrip;
    Alcotest.test_case "replay detects tampering" `Quick test_replay_detects_tampering;
    Alcotest.test_case "replay rejects missing meta" `Quick test_replay_rejects_bad_meta;
    Alcotest.test_case "recorder file format" `Quick test_recorder_format;
    Alcotest.test_case "replay rejects hostile meta" `Quick test_replay_rejects_hostile_meta;
    Alcotest.test_case "replay rejects a removed codec" `Quick test_replay_rejects_removed_codec;
    Alcotest.test_case "replay rejects a session past 0x10000 TGs" `Quick
      test_replay_rejects_tg_overflow;
  ]
