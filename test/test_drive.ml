(* The driver binding (Np_drive) on a fake clock: the per-TG NAK-timer
   rules and the retune wiring both NP drivers rely on, checked without an
   engine, a reactor or a socket. *)

module M = Rmcast.Np_machine
module Drive = Rmcast.Np_drive
module Header = Rmcast.Header
module Profile = Rmcast.Profile
module Recorder = Rmcast.Recorder

(* A clock whose timers only fire when the test says so. *)
type timer = { delay : float; thunk : unit -> unit; mutable cancelled : bool }

let fake_clock () =
  let armed = ref [] in
  let clock =
    {
      Drive.after =
        (fun delay thunk ->
          let t = { delay; thunk; cancelled = false } in
          armed := !armed @ [ t ];
          t);
      cancel = (fun t -> t.cancelled <- true);
    }
  in
  (clock, armed)

let live armed = List.filter (fun t -> not t.cancelled) !armed

let config = { M.k = 2; h = 2; proactive = 0; pre_encode = false; slot = 0.1; codec = `Rse }

let poll ~tg ~round = M.Packet_received (Header.Poll { tg_id = tg; k = 2; size = 2; round })

(* A receiver expecting [tgs] TGs of two packets, recording what reaches
   [apply]. *)
let receiver ?entry ~tgs clock =
  let applied = ref [] in
  let machine =
    M.Receiver.create ~expected:(List.init tgs (fun tg -> (tg, 2))) config ~rand:(fun () -> 0.5)
  in
  let rx =
    Drive.Receiver.create ~actor:"r0" ~clock ?entry
      ~apply:(fun e -> applied := !applied @ [ e ])
      machine
  in
  (rx, applied)

let test_arm_replaces () =
  let clock, armed = fake_clock () in
  let rx, applied = receiver ~tgs:1 clock in
  Drive.Receiver.receive rx (poll ~tg:0 ~round:1);
  Alcotest.(check int) "first poll arms" 1 (List.length (live armed));
  Drive.Receiver.receive rx (poll ~tg:0 ~round:2);
  Alcotest.(check int) "second arm for the TG" 2 (List.length !armed);
  Alcotest.(check bool) "first timer cancelled" true (List.hd !armed).cancelled;
  Alcotest.(check int) "one timer live" 1 (List.length (live armed));
  Alcotest.(check int) "timer effects never reach apply" 0 (List.length !applied)

let test_fired_timer_forgotten () =
  let clock, armed = fake_clock () in
  let cancels_seen = ref (-1) in
  let rx = ref None in
  (* The driver's entry point: by the time a fired timer re-enters, the
     binding must have forgotten it, so cancelling every timer touches
     nothing. *)
  let entry event =
    let rx = Option.get !rx in
    Drive.Receiver.cancel_timers rx;
    cancels_seen := List.length (List.filter (fun t -> t.cancelled) !armed);
    Drive.Receiver.receive rx event
  in
  let bound, applied = receiver ~entry ~tgs:1 clock in
  rx := Some bound;
  Drive.Receiver.receive bound (poll ~tg:0 ~round:1);
  let timer = List.hd !armed in
  Alcotest.(check (float 1e-9)) "offset as the machine computed it" 0.05 timer.delay;
  timer.thunk ();
  Alcotest.(check int) "fired timer already forgotten" 0 !cancels_seen;
  Alcotest.(check bool) "the fire reached the machine: NAK sent" true
    (List.exists (function M.Send (Header.Nak _) -> true | _ -> false) !applied)

let test_cancel_rules () =
  let clock, armed = fake_clock () in
  let rx, applied = receiver ~tgs:2 clock in
  Drive.Receiver.receive rx (poll ~tg:0 ~round:1);
  Drive.Receiver.receive rx (poll ~tg:1 ~round:1);
  Alcotest.(check int) "two TGs armed" 2 (List.length (live armed));
  Drive.Receiver.cancel_timers rx;
  Alcotest.(check int) "cancel_timers cancels every armed timer" 0 (List.length (live armed));
  (* The machine still believes TG 0 armed, so completing it emits
     Cancel_timer for a TG the binding no longer holds: a no-op. *)
  List.iter
    (fun index ->
      Drive.Receiver.receive rx
        (M.Packet_received
           (Header.Data { tg_id = 0; k = 2; index; payload = Bytes.make 4 'x' })))
    [ 0; 1 ];
  Alcotest.(check int) "no timer created or cancelled" 2 (List.length !armed);
  Alcotest.(check bool) "TG 0 delivered" true
    (List.exists (function M.Deliver { tg = 0; _ } -> true | _ -> false) !applied)

(* The sender's events, in order, as the capture saw them. *)
let sender_events recorder =
  List.filter_map
    (fun (e : Recorder.entry) -> if e.kind = Recorder.Event then Some e.body else None)
    (Recorder.entries recorder)

let run_sender profile =
  let recorder = Recorder.create () in
  let data = Array.init 40 (fun i -> Bytes.make 16 (Char.chr (65 + (i mod 26)))) in
  let sender = Drive.Sender.create ~recorder ~actor:"s0" ~receivers:8 profile ~data in
  let ticks = ref 0 in
  while M.Sender.pending (Drive.Sender.machine sender) do
    incr ticks;
    List.iter
      (function
        | M.Send (Header.Poll { tg_id; round = 1; _ }) ->
          (* heavy loss at every receiver: two of four packets missing *)
          ignore (Drive.Sender.feedback sender ~tg:tg_id ~need:2 ~round:1)
        | _ -> ())
      (Drive.Sender.tick sender)
  done;
  (!ticks, sender_events recorder)

let is_prefix prefix s = String.starts_with ~prefix s

let test_static_feeds_exactly_tick () =
  let profile = { Profile.default_udp with k = 4; h = 8; payload_size = 16 } in
  let ticks, events = run_sender profile in
  Alcotest.(check int) "one Tick per tick" ticks
    (List.length (List.filter (String.equal "tick") events));
  Alcotest.(check bool) "nothing but Tick and Feedback" true
    (List.for_all (fun e -> e = "tick" || is_prefix "fb:" e) events)

let test_retune_only_on_change () =
  let profile = { Profile.default_udp with k = 4; h = 8; payload_size = 16; controller = `Ewma } in
  let _, events = run_sender profile in
  let retunes = List.filter (is_prefix "retune:") events in
  Alcotest.(check bool) "the controller retuned" true (retunes <> []);
  let rec check = function
    | a :: (b :: _ as rest) ->
      if is_prefix "retune:" a then
        Alcotest.(check string) "a Retune is followed by its Tick" "tick" b;
      check rest
    | _ -> ()
  in
  check events;
  let rec distinct = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) ("consecutive retunes differ: " ^ a) true (a <> b);
      distinct rest
    | _ -> ()
  in
  distinct retunes

let suite =
  [
    Alcotest.test_case "arming replaces the pending timer" `Quick test_arm_replaces;
    Alcotest.test_case "fired timer forgotten before re-entry" `Quick
      test_fired_timer_forgotten;
    Alcotest.test_case "cancel rules" `Quick test_cancel_rules;
    Alcotest.test_case "static sender feeds exactly Tick" `Quick
      test_static_feeds_exactly_tick;
    Alcotest.test_case "retune only when the decision changes" `Quick
      test_retune_only_on_change;
  ]
