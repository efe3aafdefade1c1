(* Unit and property tests for the sans-IO NP core (Np_machine): the state
   machine both drivers interpret.  Everything here runs without an engine,
   a reactor or a socket — events in, effects out. *)

module M = Rmcast.Np_machine
module Header = Rmcast.Header
module Hex = Rmc_proto.Hex

let config = { M.k = 4; h = 4; proactive = 0; pre_encode = false; slot = 0.01; codec = `Rse }

let payload i = Bytes.make 8 (Char.chr (0x20 + (i mod 64)))

let data n = Array.init n payload

let drain sender =
  let rec go acc =
    if M.Sender.pending sender then
      go (acc @ M.Sender.handle sender M.Tick)
    else acc
  in
  go []

let sends effects =
  List.filter_map (function M.Send m -> Some m | _ -> None) effects

(* --- sender ------------------------------------------------------------ *)

let test_sender_stream () =
  let sender = M.Sender.create config ~data:(data 6) in
  Alcotest.(check int) "tg count" 2 (M.Sender.tg_count sender);
  Alcotest.(check bool) "pending" true (M.Sender.pending sender);
  let shapes =
    List.map
      (function
        | Header.Data { tg_id; index; _ } -> Printf.sprintf "d%d.%d" tg_id index
        | Header.Parity { tg_id; index; _ } -> Printf.sprintf "p%d.%d" tg_id index
        | Header.Poll { tg_id; size; round; _ } -> Printf.sprintf "poll%d.%d.%d" tg_id size round
        | Header.Nak _ -> "nak"
        | Header.Exhausted _ -> "exhausted")
      (sends (drain sender))
  in
  Alcotest.(check (list string))
    "initial volley: per TG, data then a round-1 poll sized to the round"
    [ "d0.0"; "d0.1"; "d0.2"; "d0.3"; "poll0.4.1"; "d1.0"; "d1.1"; "poll1.2.1" ]
    shapes;
  Alcotest.(check bool) "drained" false (M.Sender.pending sender);
  Alcotest.(check (list string)) "idle tick" []
    (List.map M.effect_to_string (M.Sender.handle sender M.Tick));
  Alcotest.(check int) "data_tx" 6 (M.Sender.data_tx sender);
  Alcotest.(check int) "polls" 2 (M.Sender.polls sender);
  Alcotest.(check int) "parity_tx" 0 (M.Sender.parity_tx sender)

let test_sender_proactive_pre_encode () =
  let config = { config with proactive = 2; pre_encode = true } in
  let sender = M.Sender.create config ~data:(data 4) in
  let messages = sends (drain sender) in
  let parities =
    List.length (List.filter (function Header.Parity _ -> true | _ -> false) messages)
  in
  Alcotest.(check int) "proactive parities on the wire" 2 parities;
  (match List.rev messages with
  | Header.Poll { size; round; _ } :: _ ->
    Alcotest.(check int) "poll sizes the whole volley" 6 size;
    Alcotest.(check int) "round 1" 1 round
  | _ -> Alcotest.fail "expected a trailing poll");
  Alcotest.(check int) "pre-encode pays the full budget up front" config.M.h
    (M.Sender.parities_encoded sender)

let test_sender_repair_round () =
  let sender = M.Sender.create config ~data:(data 4) in
  ignore (drain sender);
  (* First NAK of round 1: batch of [need] parities plus a round-2 poll. *)
  let immediate = M.Sender.handle sender (M.Feedback { tg = 0; need = 2; round = 1 }) in
  Alcotest.(check bool) "feedback queues work, sends nothing itself" true
    (sends immediate = [] && M.Sender.pending sender);
  Alcotest.(check (list string)) "repair volley"
    [ "parity 0"; "parity 1"; "poll 2 round 2" ]
    (List.map
       (function
         | Header.Parity { index; _ } -> Printf.sprintf "parity %d" index
         | Header.Poll { size; round; _ } -> Printf.sprintf "poll %d round %d" size round
         | _ -> "unexpected")
       (sends (drain sender)));
  Alcotest.(check int) "repair_rounds" 1 (M.Sender.repair_rounds sender);
  (* A second NAK for the same round arrives late: already serviced. *)
  Alcotest.(check (list string)) "duplicate round ignored" []
    (List.map M.effect_to_string (M.Sender.handle sender (M.Feedback { tg = 0; need = 1; round = 1 })));
  Alcotest.(check int) "parity_tx" 2 (M.Sender.parity_tx sender)

let test_sender_exhaustion () =
  let config = { config with h = 1 } in
  let sender = M.Sender.create config ~data:(data 4) in
  ignore (drain sender);
  ignore (M.Sender.handle sender (M.Feedback { tg = 0; need = 2; round = 1 }));
  (match sends (drain sender) with
  | [ Header.Parity _; Header.Poll { size = 1; round = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected the last budgeted parity and a round-2 poll");
  (* Budget is spent: the next NAK ejects instead of repairing. *)
  ignore (M.Sender.handle sender (M.Feedback { tg = 0; need = 1; round = 2 }));
  match sends (drain sender) with
  | [ Header.Exhausted { tg_id = 0 } ] -> ()
  | _ -> Alcotest.fail "expected an EXHAUSTED notice"

(* A NAK answers a POLL.  One for a round the sender never polled (a
   forged or corrupted round) starts no repair round: at the largest round
   the wire carries, the next POLL's round would not fit the header. *)
let test_sender_ignores_unpolled_rounds () =
  let sender = M.Sender.create config ~data:(data 4) in
  ignore (drain sender);
  List.iter
    (fun round ->
      let name = Printf.sprintf "NAK round %d" round in
      Alcotest.(check (list string)) (name ^ ": no effect") []
        (List.map M.effect_to_string (M.Sender.handle sender (M.Feedback { tg = 0; need = 1; round })));
      Alcotest.(check (list string)) (name ^ ": as a packet") []
        (List.map M.effect_to_string
           (M.Sender.handle sender (M.Packet_received (Header.Nak { tg_id = 0; need = 1; round }))));
      Alcotest.(check bool) (name ^ ": nothing queued") false (M.Sender.pending sender);
      Alcotest.(check (list string)) (name ^ ": the next tick is idle") []
        (List.map M.effect_to_string (M.Sender.handle sender M.Tick)))
    [ 0xFFFF_FFFF; 2 ];
  Alcotest.(check int) "no repair round" 0 (M.Sender.repair_rounds sender);
  (* The polled round itself is still serviced. *)
  ignore (M.Sender.handle sender (M.Feedback { tg = 0; need = 1; round = 1 }));
  match sends (drain sender) with
  | [ Header.Parity _; Header.Poll { size = 1; round = 2; _ } ] -> ()
  | _ -> Alcotest.fail "expected a repair round for the polled round"

(* --- receiver ---------------------------------------------------------- *)

let make_receiver ?(expected = [ (0, 4) ]) ?(rand = fun () -> 0.5) config =
  M.Receiver.create ~expected config ~rand

let feed receiver message = M.Receiver.handle receiver (M.Packet_received message)

let data_packet ?(tg = 0) ?(k = 4) index =
  Header.Data { tg_id = tg; k; index; payload = payload index }

let test_receiver_lossless () =
  let receiver = make_receiver config in
  let effects = List.concat_map (fun i -> feed receiver (data_packet i)) [ 0; 1; 2; 3 ] in
  (match effects with
  | [ M.Deliver { tg = 0; reconstructed = 0; data } ; M.Done ] ->
    Alcotest.(check int) "payload count" 4 (Array.length data)
  | _ -> Alcotest.fail "expected Deliver then Done");
  Alcotest.(check bool) "finished" true (M.Receiver.finished receiver);
  Alcotest.(check bool) "delivered" true (M.Receiver.delivered receiver ~tg:0);
  (* Post-Done traffic is silent (counted, no effects). *)
  Alcotest.(check (list string)) "after Done" []
    (List.map M.effect_to_string (feed receiver (data_packet 0)));
  Alcotest.(check int) "late duplicate counted unnecessary" 1 (M.Receiver.unnecessary receiver)

let test_receiver_decode () =
  let receiver = make_receiver config in
  ignore (feed receiver (data_packet 0));
  ignore (feed receiver (data_packet 1));
  ignore (feed receiver (data_packet 3));
  let sender = Rmcast.Fec_block.Sender.create ~codec:`Rse ~h:4 (data 4) in
  let parity = Rmcast.Fec_block.Sender.parity sender 0 in
  match feed receiver (Header.Parity { tg_id = 0; k = 4; index = 0; round = 1; payload = parity }) with
  | [ M.Deliver { reconstructed = 1; data = decoded; _ }; M.Done ] ->
    Alcotest.(check bytes) "reconstructed packet 2" (payload 2) decoded.(2);
    Alcotest.(check int) "packets_decoded" 1 (M.Receiver.packets_decoded receiver)
  | _ -> Alcotest.fail "expected a decoding delivery"

let test_receiver_nak_round () =
  let draws = ref [] in
  let receiver =
    make_receiver config ~rand:(fun () ->
        draws := 0.25 :: !draws;
        0.25)
  in
  ignore (feed receiver (data_packet 0));
  ignore (feed receiver (data_packet 1));
  ignore (feed receiver (data_packet 2));
  (* Missing 1 of 4: slot index k+0-1 = 3, damped by 0.25 within the slot. *)
  (match feed receiver (Header.Poll { tg_id = 0; k = 4; size = 4; round = 1 }) with
  | [ M.Arm_timer { tg = 0; round = 1; offset } ] ->
    Alcotest.(check (float 1e-9)) "slotted + damped offset"
      ((3.0 +. 0.25) *. config.M.slot)
      offset
  | _ -> Alcotest.fail "expected a NAK timer");
  Alcotest.(check int) "one damping draw" 1 (List.length !draws);
  Alcotest.(check bool) "armed" true (M.Receiver.timer_armed receiver ~tg:0);
  (match M.Receiver.handle receiver (M.Timer_fired { tg = 0; round = 1 }) with
  | [ M.Send (Header.Nak { tg_id = 0; need = 1; round = 1 }) ] -> ()
  | _ -> Alcotest.fail "expected the NAK to fire");
  Alcotest.(check bool) "disarmed" false (M.Receiver.timer_armed receiver ~tg:0);
  Alcotest.(check int) "naks_sent" 1 (M.Receiver.naks_sent receiver);
  (* A stale fire for the same round is ignored. *)
  Alcotest.(check (list string)) "stale fire" []
    (List.map M.effect_to_string (M.Receiver.handle receiver (M.Timer_fired { tg = 0; round = 1 })))

let test_receiver_suppression () =
  let receiver = make_receiver config in
  ignore (feed receiver (data_packet 0));
  ignore (feed receiver (data_packet 1));
  ignore (feed receiver (Header.Poll { tg_id = 0; k = 4; size = 4; round = 1 }));
  Alcotest.(check bool) "armed" true (M.Receiver.timer_armed receiver ~tg:0);
  (* Overhearing a NAK that covers our need (2) cancels the timer... *)
  (match feed receiver (Header.Nak { tg_id = 0; need = 3; round = 1 }) with
  | [ M.Cancel_timer { tg = 0 } ] -> ()
  | _ -> Alcotest.fail "expected suppression");
  Alcotest.(check int) "naks_suppressed" 1 (M.Receiver.naks_suppressed receiver);
  Alcotest.(check bool) "disarmed" false (M.Receiver.timer_armed receiver ~tg:0);
  (* ...and a NAK for fewer packets than we need would not have. *)
  let receiver = make_receiver config in
  ignore (feed receiver (data_packet 0));
  ignore (feed receiver (data_packet 1));
  ignore (feed receiver (Header.Poll { tg_id = 0; k = 4; size = 4; round = 1 }));
  Alcotest.(check (list string)) "insufficient overheard need" []
    (List.map M.effect_to_string (feed receiver (Header.Nak { tg_id = 0; need = 1; round = 1 })));
  Alcotest.(check bool) "still armed" true (M.Receiver.timer_armed receiver ~tg:0)

let test_receiver_ejection () =
  let receiver = make_receiver ~expected:[ (0, 4); (1, 2) ] config in
  ignore (feed receiver (data_packet 0));
  (match feed receiver (Header.Exhausted { tg_id = 0 }) with
  | [ M.Ejected { tg = 0 } ] -> ()
  | _ -> Alcotest.fail "expected ejection");
  Alcotest.(check bool) "gave up" true (M.Receiver.gave_up receiver ~tg:0);
  Alcotest.(check bool) "not finished yet" false (M.Receiver.finished receiver);
  (* The other expected TG completes: Done follows the delivery. *)
  ignore (feed receiver (data_packet ~tg:1 ~k:2 0));
  match feed receiver (data_packet ~tg:1 ~k:2 1) with
  | [ M.Deliver { tg = 1; _ }; M.Done ] ->
    Alcotest.(check bool) "finished" true (M.Receiver.finished receiver)
  | _ -> Alcotest.fail "expected final delivery to finish the machine"

let test_receiver_duplicates () =
  let receiver = make_receiver config in
  ignore (feed receiver (data_packet 0));
  Alcotest.(check (list string)) "stale add" []
    (List.map M.effect_to_string (feed receiver (data_packet 0)));
  Alcotest.(check int) "duplicates" 1 (M.Receiver.duplicates receiver);
  Alcotest.(check int) "unnecessary includes duplicates" 1 (M.Receiver.unnecessary receiver);
  (* Out-of-range indices are rejected without effect (hostile traffic). *)
  Alcotest.(check (list string)) "out-of-range parity index" []
    (List.map M.effect_to_string
       (feed receiver (Header.Parity { tg_id = 0; k = 4; index = 200; round = 1; payload = payload 0 })))

let expected_tgs n ~k = List.init n (fun tg -> (tg, k))

(* A resolved TG drops its decoder and every payload it held: receiver
   memory grows by a few words per delivered TG, not by the TG's bytes. *)
let test_receiver_memory_bounded () =
  let k = 20 in
  let receiver = make_receiver ~expected:(expected_tgs 64 ~k) { config with k; h = 4 } in
  let deliver tg =
    let data = Array.init k (fun i -> Bytes.make 1024 (Char.chr ((tg + i) land 0xff))) in
    for i = 1 to k - 1 do
      ignore (feed receiver (Header.Data { tg_id = tg; k; index = i; payload = data.(i) }))
    done;
    let sender = Rmcast.Fec_block.Sender.create ~codec:`Rse ~h:4 data in
    let parity = Rmcast.Fec_block.Sender.parity sender 0 in
    let parity = Header.Parity { tg_id = tg; k; index = 0; round = 1; payload = parity } in
    match feed receiver parity with
    | M.Deliver { reconstructed = 1; _ } :: ([] | [ M.Done ]) -> ()
    | _ -> Alcotest.fail "expected a decoding delivery"
  in
  for tg = 0 to 7 do
    deliver tg
  done;
  let words_at_8 = Obj.reachable_words (Obj.repr receiver) in
  for tg = 8 to 63 do
    deliver tg
  done;
  let per_tg = (Obj.reachable_words (Obj.repr receiver) - words_at_8) / 56 in
  Alcotest.(check bool) (Printf.sprintf "%d words per delivered TG < 64" per_tg) true (per_tg < 64);
  Alcotest.(check bool) "delivered" true (M.Receiver.delivered receiver ~tg:63)

(* A TG opens its decoder at its first payload, not when the receiver is
   created: an expected TG that has received nothing costs a few words. *)
let test_receiver_unopened_tgs_small () =
  let receiver = make_receiver ~expected:(expected_tgs 200 ~k:20) { config with k = 20; h = 40 } in
  let per_tg = Obj.reachable_words (Obj.repr receiver) / 200 in
  Alcotest.(check bool) (Printf.sprintf "%d words per expected TG <= 32" per_tg) true (per_tg <= 32)

(* A receiver is long-lived, so its blocks sit in the major heap.  A TG's
   decoder and payloads are young together, and a lossless TG is delivered
   and dropped before a minor collection would promote them. *)
let test_receiver_lossless_drive_stays_young () =
  let k = 20 and tgs = 200 in
  let receiver = make_receiver ~expected:(expected_tgs tgs ~k) { config with k; h = 40 } in
  Gc.minor ();
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let delivered = ref 0 in
  for tg_id = 0 to tgs - 1 do
    for index = 0 to k - 1 do
      let payload = Bytes.make 1024 (Char.chr ((tg_id + index) land 0xff)) in
      List.iter
        (function M.Deliver _ -> incr delivered | _ -> ())
        (feed receiver (Header.Data { tg_id; k; index; payload }))
    done
  done;
  let promoted = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let payload_words = float_of_int (tgs * k * (1 + (1024 / (Sys.word_size / 8)))) in
  Alcotest.(check int) "every TG delivered" tgs !delivered;
  Alcotest.(check bool) "finished" true (M.Receiver.finished receiver);
  let share = promoted /. payload_words in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f%% of payload words promoted < 10%%" (100.0 *. share))
    true (share < 0.10)

(* The control paths of a TG that has received nothing read its need as
   the whole [k], as an empty decoder would, so each emits what it did
   when every decoder was opened up front. *)
let test_receiver_unopened_control_paths () =
  let strings effects = List.map M.effect_to_string effects in
  let poll receiver = feed receiver (Header.Poll { tg_id = 0; k = 4; size = 6; round = 1 }) in
  (* POLL: slot index size - k = 2, damped by 0.5 within the slot. *)
  let receiver = make_receiver config in
  Alcotest.(check (list string)) "poll arms at slot size - k"
    [ Printf.sprintf "arm:0:1:%h" (2.5 *. config.M.slot) ]
    (strings (poll receiver));
  (* Timer: the NAK asks for all k. *)
  Alcotest.(check (list string)) "fired timer NAKs need = k"
    [ M.effect_to_string (M.Send (Header.Nak { tg_id = 0; need = 4; round = 1 })) ]
    (strings (M.Receiver.handle receiver (M.Timer_fired { tg = 0; round = 1 })));
  (* Overheard NAK: need >= k covers ours, need < k does not. *)
  let receiver = make_receiver config in
  ignore (poll receiver);
  Alcotest.(check (list string)) "overheard need k - 1 does not suppress" []
    (strings (feed receiver (Header.Nak { tg_id = 0; need = 3; round = 1 })));
  Alcotest.(check (list string)) "overheard need k suppresses" [ "cancel:0" ]
    (strings (feed receiver (Header.Nak { tg_id = 0; need = 4; round = 1 })));
  Alcotest.(check int) "naks_suppressed" 1 (M.Receiver.naks_suppressed receiver);
  (* EXHAUSTED: ejected, and the last expected TG resolved finishes. *)
  let receiver = make_receiver config in
  Alcotest.(check (list string)) "exhausted ejects" [ "ejected:0"; "done" ]
    (strings (feed receiver (Header.Exhausted { tg_id = 0 })));
  let receiver = make_receiver config in
  ignore (poll receiver);
  Alcotest.(check (list string)) "exhausted cancels the armed timer"
    [ "cancel:0"; "ejected:0"; "done" ]
    (strings (feed receiver (Header.Exhausted { tg_id = 0 })));
  Alcotest.(check bool) "gave up" true (M.Receiver.gave_up receiver ~tg:0)

(* Headers for a TG outside the receiver's expected set, with [k] above
   the config's (k = 300 would overflow RSE's 255 codeword positions),
   below 1, or in range.  None raises, none has an effect, none allocates
   a block. *)
let hostile_headers tg_id k =
  [
    Header.Data { tg_id; k; index = 0; payload = payload 0 };
    Header.Parity { tg_id; k; index = 0; round = 1; payload = payload 0 };
    Header.Poll { tg_id; k; size = 1; round = 1 };
  ]

let test_receiver_refuses_hostile_headers () =
  let check name receiver messages =
    let words = Obj.reachable_words (Obj.repr receiver) in
    List.iter
      (fun message ->
        Alcotest.(check (list string)) (name ^ ": no effect") []
          (List.map M.effect_to_string (feed receiver message)))
      messages;
    Alcotest.(check int) (name ^ ": no block") words (Obj.reachable_words (Obj.repr receiver))
  in
  let out_of_range = hostile_headers 99 300 @ hostile_headers 98 0 @ hostile_headers 97 (-1) in
  check "forged TG, bad k" (make_receiver config) out_of_range;
  check "forged TG, valid k" (make_receiver config) (hostile_headers 7 4);
  (* The expected TG itself still works. *)
  let receiver = make_receiver config in
  ignore (feed receiver (Header.Poll { tg_id = 0; k = 4; size = 4; round = 1 }));
  Alcotest.(check bool) "expected TG still polled" true (M.Receiver.timer_armed receiver ~tg:0)

(* A flood of forged TG ids costs a bounded receiver nothing. *)
let test_receiver_memory_bounded_forged_ids () =
  let receiver = make_receiver config in
  let words = Obj.reachable_words (Obj.repr receiver) in
  for tg_id = 1 to 20_000 do
    ignore (feed receiver (Header.Poll { tg_id; k = 4; size = 1; round = 1 }))
  done;
  Alcotest.(check int) "words after 20,000 forged POLLs" words
    (Obj.reachable_words (Obj.repr receiver))

(* A duplicate expected TG would count twice toward [Done] while holding
   one block, so [Done] could never fire: it is refused at [create]. *)
let test_receiver_duplicate_expected () =
  let refused = Invalid_argument "Np_machine.Receiver.create: duplicate expected TG" in
  Alcotest.check_raises "same pair twice" refused (fun () ->
      ignore (make_receiver ~expected:[ (0, 2); (0, 2) ] config));
  Alcotest.check_raises "same TG, another k" refused (fun () ->
      ignore (make_receiver ~expected:[ (5, 2); (1, 4); (5, 3) ] config));
  (* Distinct ids in any order are accepted. *)
  let receiver = make_receiver ~expected:[ (1, 2); (0, 2) ] config in
  ignore (feed receiver (data_packet ~tg:1 ~k:2 0));
  ignore (feed receiver (data_packet ~tg:1 ~k:2 1));
  ignore (feed receiver (data_packet ~tg:0 ~k:2 0));
  match feed receiver (data_packet ~tg:0 ~k:2 1) with
  | [ M.Deliver { tg = 0; _ }; M.Done ] -> ()
  | _ -> Alcotest.fail "expected the second TG to finish the machine"

(* One machine serving two sessions, as the UDP driver builds it: wire ids
   of sessions 0 and 3.  Both sessions' TGs are found; the ids between
   them and past each session's last TG are not. *)
let test_receiver_two_sessions () =
  let module Replay = Rmcast.Np_replay in
  let packets = data 6 in
  let expected = Replay.expected ~k:4 ~sid:0 packets @ Replay.expected ~k:4 ~sid:3 packets in
  let tgs = List.map fst expected in
  let receiver = make_receiver ~expected config in
  let words = Obj.reachable_words (Obj.repr receiver) in
  let n = List.length (Replay.expected ~k:4 ~sid:0 packets) in
  List.iter
    (fun tg_id ->
      List.iter
        (fun message ->
          Alcotest.(check (list string)) (Printf.sprintf "tg %#x: no effect" tg_id) []
            (List.map M.effect_to_string (feed receiver message)))
        (hostile_headers tg_id 4 @ [ Header.Exhausted { tg_id } ]))
    [ n; 1 lsl 16; 2 lsl 16; (3 lsl 16) + n; 4 lsl 16 ];
  Alcotest.(check int) "refused ids hold no block" words (Obj.reachable_words (Obj.repr receiver));
  let delivered = ref [] and finished = ref false in
  List.iter
    (fun (tg, k) ->
      for index = 0 to k - 1 do
        List.iter
          (function
            | M.Deliver { tg; _ } -> delivered := tg :: !delivered
            | M.Done -> finished := true
            | _ -> ())
          (feed receiver (data_packet ~tg ~k index))
      done)
    expected;
  Alcotest.(check (list int)) "every TG of both sessions delivered" tgs (List.rev !delivered);
  Alcotest.(check bool) "Done" true !finished;
  Alcotest.(check bool) "a refused id reads undelivered" false
    (M.Receiver.delivered receiver ~tg:(1 lsl 16))

(* --- serialization roundtrip ------------------------------------------- *)

let gen_message =
  QCheck.Gen.(
    let payload = map (fun n -> Bytes.make 4 (Char.chr n)) (int_range 0 255) in
    oneof
      [
        map3
          (fun tg index p -> Header.Data { tg_id = tg; k = 8; index; payload = p })
          (int_range 0 100) (int_range 0 7) payload;
        map3
          (fun tg index p -> Header.Parity { tg_id = tg; k = 8; index; round = 2; payload = p })
          (int_range 0 100) (int_range 0 7) payload;
        map2
          (fun tg size -> Header.Poll { tg_id = tg; k = 8; size; round = 1 })
          (int_range 0 100) (int_range 1 16);
        (* [need] spans the wire's 16-bit field: a hostile NAK may ask
           for far more than [h]. *)
        map2
          (fun tg need -> Header.Nak { tg_id = tg; need; round = 3 })
          (int_range 0 100) (int_range 0 0xFFFF);
        map (fun tg -> Header.Exhausted { tg_id = tg }) (int_range 0 100);
      ])

let gen_event =
  QCheck.Gen.(
    oneof
      [
        map (fun m -> M.Packet_received m) gen_message;
        map2 (fun tg round -> M.Timer_fired { tg; round }) (int_range 0 100) (int_range 1 8);
        map3
          (fun tg need round -> M.Feedback { tg; need; round })
          (int_range 0 100) (int_range 0 0xFFFF) (int_range 1 8);
        return M.Tick;
      ])

let qcheck_event_roundtrip =
  QCheck.Test.make ~count:300 ~name:"event string form roundtrips" (QCheck.make gen_event)
    (fun event ->
      match M.event_of_string (M.event_to_string event) with
      | Ok event' -> M.event_to_string event' = M.event_to_string event
      | Error reason -> QCheck.Test.fail_report reason)

let qcheck_hex_roundtrip =
  (* The table-driven hex codec writes what one [Printf "%02x"] per byte
     wrote, and reads it back (in either case). *)
  QCheck.Test.make ~count:300 ~name:"capture hex codec roundtrips"
    QCheck.(string_of_size (Gen.int_range 0 2000))
    (fun raw ->
      let bytes = Bytes.of_string raw in
      let hex = Hex.encode bytes in
      let printf_hex = Buffer.create (2 * String.length raw) in
      String.iter (fun c -> Printf.bprintf printf_hex "%02x" (Char.code c)) raw;
      let printf_hex = Buffer.contents printf_hex in
      hex = printf_hex
      && Hex.decode hex = Ok bytes
      && Hex.decode (String.uppercase_ascii hex) = Ok bytes)

let test_hex_errors () =
  let check name expected s =
    Alcotest.(check (result string string)) name expected
      (Result.map Bytes.to_string (Hex.decode s))
  in
  check "empty" (Ok "") "";
  check "odd length" (Error "odd-length hex string") "abc";
  check "non-hex digit" (Error "malformed hex string") "0g";
  check "non-hex in a later byte" (Error "malformed hex string") "00ff 1";
  check "sign" (Error "malformed hex string") "-1";
  check "mixed case" (Ok "\xab\xcd") "aBCd"

(* --- fuzz: machine invariants under arbitrary event orderings ----------- *)

(* The receiver under fire from arbitrary (well-formed and hostile)
   traffic and spurious timer events.  Invariants:
   - [handle] never raises;
   - no effects after [Done];
   - [Cancel_timer] refers to a timer the driver knows is armed (we mirror
     the driver's bookkeeping: the most recent [Arm_timer] not yet fired
     or cancelled);
   - [Done] is emitted at most once. *)
let qcheck_receiver_invariants =
  let gen = QCheck.Gen.(pair (int_range 0 1000) (list_size (int_range 0 120) gen_event)) in
  QCheck.Test.make ~count:200 ~name:"receiver invariants under arbitrary events"
    (QCheck.make gen) (fun (seed, events) ->
      let rng = Rmcast.Rng.create ~seed () in
      let receiver =
        M.Receiver.create
          ~expected:[ (0, 4); (1, 2) ]
          config
          ~rand:(fun () -> Rmcast.Rng.float rng)
      in
      let armed : (int, int) Hashtbl.t = Hashtbl.create 4 in
      let done_seen = ref false in
      List.iter
        (fun event ->
          let effects = M.Receiver.handle receiver event in
          if !done_seen && effects <> [] then
            QCheck.Test.fail_report
              (Printf.sprintf "effect after Done: %s"
                 (M.effect_to_string (List.hd effects)));
          (* A fire consumes the armed timer only when the rounds agree —
             the machine ignores stale fires, keeping the timer its own. *)
          (match event with
          | M.Timer_fired { tg; round } ->
            if Hashtbl.find_opt armed tg = Some round then Hashtbl.remove armed tg
          | _ -> ());
          List.iter
            (fun effect ->
              match effect with
              | M.Arm_timer { tg; round; _ } -> Hashtbl.replace armed tg round
              | M.Cancel_timer { tg } ->
                if not (Hashtbl.mem armed tg) then
                  QCheck.Test.fail_report
                    (Printf.sprintf "Cancel_timer for unarmed tg %d" tg);
                Hashtbl.remove armed tg
              | M.Done ->
                if !done_seen then QCheck.Test.fail_report "Done emitted twice";
                done_seen := true
              | _ -> ())
            effects)
        events;
      true)

(* The sender under arbitrary feedback: never raises, a tick emits at most
   one packet, an idle sender stays idle, and no TG gets more than [h]
   parities however much a NAK asks for. *)
let qcheck_sender_invariants =
  let gen = QCheck.Gen.(list_size (int_range 0 80) gen_event) in
  QCheck.Test.make ~count:200 ~name:"sender invariants under arbitrary events"
    (QCheck.make gen) (fun events ->
      let sender = M.Sender.create config ~data:(data 6) in
      let parities = Array.make (M.Sender.tg_count sender) 0 in
      List.iter
        (fun event ->
          let was_pending = M.Sender.pending sender in
          let effects = M.Sender.handle sender event in
          let sent = sends effects in
          if List.length sent > 1 then
            QCheck.Test.fail_report "tick emitted more than one packet";
          if event = M.Tick && (not was_pending) && effects <> [] then
            QCheck.Test.fail_report "idle tick produced effects";
          List.iter
            (function
              | Header.Parity { tg_id; _ } ->
                parities.(tg_id) <- parities.(tg_id) + 1;
                if parities.(tg_id) > config.M.h then
                  QCheck.Test.fail_report
                    (Printf.sprintf "tg %d sent %d parities > h = %d" tg_id parities.(tg_id)
                       config.M.h)
              | _ -> ())
            sent)
        events;
      true)

let suite =
  [
    Alcotest.test_case "sender lossless stream" `Quick test_sender_stream;
    Alcotest.test_case "sender proactive + pre-encode" `Quick test_sender_proactive_pre_encode;
    Alcotest.test_case "sender repair round" `Quick test_sender_repair_round;
    Alcotest.test_case "sender budget exhaustion" `Quick test_sender_exhaustion;
    Alcotest.test_case "sender ignores NAKs for unpolled rounds" `Quick
      test_sender_ignores_unpolled_rounds;
    Alcotest.test_case "receiver lossless delivery" `Quick test_receiver_lossless;
    Alcotest.test_case "receiver FEC decode" `Quick test_receiver_decode;
    Alcotest.test_case "receiver NAK round" `Quick test_receiver_nak_round;
    Alcotest.test_case "receiver suppression" `Quick test_receiver_suppression;
    Alcotest.test_case "receiver ejection" `Quick test_receiver_ejection;
    Alcotest.test_case "receiver duplicates + hostile input" `Quick test_receiver_duplicates;
    Alcotest.test_case "receiver memory bounded by open TGs" `Quick test_receiver_memory_bounded;
    Alcotest.test_case "receiver opens no decoder before a payload" `Quick
      test_receiver_unopened_tgs_small;
    Alcotest.test_case "receiver lossless drive stays young" `Quick
      test_receiver_lossless_drive_stays_young;
    Alcotest.test_case "receiver control paths before a payload" `Quick
      test_receiver_unopened_control_paths;
    Alcotest.test_case "receiver refuses hostile headers" `Quick
      test_receiver_refuses_hostile_headers;
    Alcotest.test_case "receiver refuses a duplicate expected TG" `Quick
      test_receiver_duplicate_expected;
    Alcotest.test_case "receiver serves two sessions' wire ids" `Quick
      test_receiver_two_sessions;
    Alcotest.test_case "receiver memory bounded under forged TG ids" `Quick
      test_receiver_memory_bounded_forged_ids;
    QCheck_alcotest.to_alcotest qcheck_event_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
    Alcotest.test_case "capture hex errors" `Quick test_hex_errors;
    QCheck_alcotest.to_alcotest qcheck_receiver_invariants;
    QCheck_alcotest.to_alcotest qcheck_sender_invariants;
  ]
