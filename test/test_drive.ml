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

let payload tg index = Bytes.make 4 (Char.chr (Char.code 'a' + (2 * tg) + index))
let payloads ~tgs = Array.init (2 * tgs) (fun p -> payload (p / 2) (p mod 2))

(* A receiver expecting [tgs] TGs of two packets, recording what reaches
   [apply] and the scoreboard's verdict as [apply] saw each Deliver.  Its
   scoreboard expects [sent ~tgs] (default {!payloads}). *)
let receiver ?entry ?(sent = payloads) ~tgs clock =
  let applied = ref [] and verdicts = ref [] in
  let machine =
    M.Receiver.create ~expected:(List.init tgs (fun tg -> (tg, 2))) config ~rand:(fun () -> 0.5)
  in
  let scoreboard = Drive.Scoreboard.create ~k:2 ~first_sid:0 [| sent ~tgs |] in
  let apply e =
    (match e with
    | M.Deliver _ -> verdicts := !verdicts @ [ Drive.Scoreboard.verdict scoreboard ~session:0 ]
    | _ -> ());
    applied := !applied @ [ e ]
  in
  let rx = Drive.Receiver.create ~actor:"r0" ~clock ~scoreboard ?entry ~apply machine in
  (rx, applied, scoreboard, verdicts)

let data ~tg ~index =
  M.Packet_received (Header.Data { tg_id = tg; k = 2; index; payload = payload tg index })

let test_arm_replaces () =
  let clock, armed = fake_clock () in
  let rx, applied, _, _ = receiver ~tgs:1 clock in
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
  let bound, applied, _, _ = receiver ~entry ~tgs:1 clock in
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
  let rx, applied, _, _ = receiver ~tgs:2 clock in
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

(* --- the delivery scoreboard --------------------------------------------- *)

(* Both TGs delivered through the binding, against a scoreboard that
   expects [sent]. *)
let deliver_both ~sent =
  let clock, _ = fake_clock () in
  let rx, _, scoreboard, verdicts = receiver ~sent ~tgs:2 clock in
  List.iter
    (fun (tg, index) -> Drive.Receiver.receive rx (data ~tg ~index))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  (scoreboard, !verdicts)

let test_scoreboard_intact () =
  let scoreboard, at_apply = deliver_both ~sent:payloads in
  Alcotest.(check bool) "verdict" true (Drive.Scoreboard.verdict scoreboard ~session:0);
  Alcotest.(check (list int)) "one intact delivery per TG" [ 1; 1 ]
    (List.map (fun tg -> Drive.Scoreboard.intact_deliveries scoreboard ~tg) [ 0; 1 ]);
  Alcotest.(check int) "a TG outside the scoreboard" 0
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:2);
  Alcotest.(check int) "another session's TG" 0
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:(Rmcast.Np_replay.wire_tg ~sid:1 0));
  Alcotest.(check (list bool)) "verdict as apply saw it" [ true; true ] at_apply

(* The scoreboard's copy of TG 1's last packet differs in one byte from
   the one the machine is given: that TG is not intact, the verdict
   falls, and the driver's [apply] already sees it fallen. *)
let test_scoreboard_one_byte () =
  let sent ~tgs =
    let rows = payloads ~tgs in
    let last = Bytes.copy rows.(3) in
    Bytes.set last 2 (Char.chr (Char.code (Bytes.get last 2) lxor 0x01));
    rows.(3) <- last;
    rows
  in
  let scoreboard, at_apply = deliver_both ~sent in
  Alcotest.(check bool) "verdict" false (Drive.Scoreboard.verdict scoreboard ~session:0);
  Alcotest.(check (list int)) "only TG 0 intact" [ 1; 0 ]
    (List.map (fun tg -> Drive.Scoreboard.intact_deliveries scoreboard ~tg) [ 0; 1 ]);
  Alcotest.(check (list bool)) "verdict as apply saw it" [ true; false ] at_apply

(* Sessions sharing receivers: each wire TG lands on its own session, and
   a short delivery is not intact. *)
let test_scoreboard_sessions () =
  let a = payloads ~tgs:1 and b = Array.sub (payloads ~tgs:2) 2 1 in
  let scoreboard = Drive.Scoreboard.create ~k:2 ~first_sid:4 [| a; b |] in
  let wire sid = Rmcast.Np_replay.wire_tg ~sid 0 in
  Drive.Scoreboard.record scoreboard ~tg:(wire 4) (Array.map Bytes.copy a);
  Drive.Scoreboard.record scoreboard ~tg:(wire 5) [||];
  Drive.Scoreboard.record scoreboard ~tg:(wire 6) [||];
  Alcotest.(check (list bool)) "verdicts" [ true; false ]
    (List.map (fun session -> Drive.Scoreboard.verdict scoreboard ~session) [ 0; 1 ]);
  Alcotest.(check int) "session 4's TG" 1
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:(wire 4));
  Alcotest.check_raises "k < 1" (Invalid_argument "Np_drive.Scoreboard.create: k < 1")
    (fun () -> ignore (Drive.Scoreboard.create ~k:0 ~first_sid:0 [| a |]))

(* Every receiver checks every TG it delivers, so a check must not touch
   the minor heap: one 20 x 1 KiB TG, delivered as copies so each row
   really is compared byte by byte. *)
let test_scoreboard_allocates_nothing () =
  let rng = Rmcast.Rng.create ~seed:11 () in
  let data =
    Array.init 20 (fun _ -> Bytes.init 1024 (fun _ -> Char.chr (Rmcast.Rng.int rng 256)))
  in
  let rows = Array.map Bytes.copy data in
  let scoreboard = Drive.Scoreboard.create ~k:20 ~first_sid:0 [| data |] in
  let reps = 10_000 in
  Drive.Scoreboard.record scoreboard ~tg:0 rows (* warm up *);
  let before = Gc.minor_words () in
  for _ = 1 to reps do
    Drive.Scoreboard.record scoreboard ~tg:0 rows
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "words per verified TG" 0 (int_of_float (words /. float_of_int reps));
  Alcotest.(check int) "every check intact" (reps + 1)
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:0)

(* Every receiver of a multicast takes every DATA, so a reception into an
   open TG must not touch the minor heap, through the machine or through
   the binding with no recorder.  One TG of k = 200 is opened by its first
   packet; each of the next 198 advances the decoder without completing
   it. *)
let test_data_reception_allocates_nothing () =
  let k = 200 in
  let config = { config with M.k; h = 4 } in
  let events =
    Array.init (k - 1) (fun index ->
        M.Packet_received (Header.Data { tg_id = 0; k; index; payload = Bytes.make 16 'x' }))
  in
  let words feed events =
    feed events.(0);
    let before = Gc.minor_words () in
    for i = 1 to Array.length events - 1 do
      feed events.(i)
    done;
    int_of_float (Gc.minor_words () -. before)
  in
  let machine () = M.Receiver.create ~expected:[ (0, k) ] config ~rand:(fun () -> 0.5) in
  let direct = machine () in
  Alcotest.(check int) "words through Np_machine.Receiver.handle" 0
    (words (fun event -> ignore (M.Receiver.handle direct event)) events);
  let clock, _ = fake_clock () in
  let scoreboard = Drive.Scoreboard.create ~k ~first_sid:0 [| Array.make k Bytes.empty |] in
  let rx = Drive.Receiver.create ~actor:"r0" ~clock ~scoreboard ~apply:ignore (machine ()) in
  Alcotest.(check int) "words through Np_drive.Receiver.receive" 0
    (words (Drive.Receiver.receive rx) events);
  Alcotest.(check int) "no duplicates" 0 (M.Receiver.duplicates (Drive.Receiver.machine rx))

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
    Alcotest.test_case "scoreboard: intact deliveries" `Quick test_scoreboard_intact;
    Alcotest.test_case "scoreboard: one byte off clears the verdict" `Quick
      test_scoreboard_one_byte;
    Alcotest.test_case "scoreboard: sessions sharing receivers" `Quick test_scoreboard_sessions;
    Alcotest.test_case "scoreboard: a check allocates nothing" `Quick
      test_scoreboard_allocates_nothing;
    Alcotest.test_case "a DATA reception allocates nothing" `Quick
      test_data_reception_allocates_nothing;
    Alcotest.test_case "static sender feeds exactly Tick" `Quick
      test_static_feeds_exactly_tick;
    Alcotest.test_case "retune only when the decision changes" `Quick
      test_retune_only_on_change;
  ]
