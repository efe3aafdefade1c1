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
   the minor heap, on either path: one 20 x 1 KiB TG whose memo holds one
   set of buffers.  Copies of the same rows miss the memo, so each of
   their rows really is compared byte by byte; the memo's own buffers hit
   it and are compared by no one. *)
let test_scoreboard_allocates_nothing () =
  let rng = Rmcast.Rng.create ~seed:11 () in
  let data =
    Array.init 20 (fun _ -> Bytes.init 1024 (fun _ -> Char.chr (Rmcast.Rng.int rng 256)))
  in
  let memo_rows = Array.map Bytes.copy data and copies = Array.map Bytes.copy data in
  let scoreboard = Drive.Scoreboard.create ~k:20 ~first_sid:0 [| data |] in
  let reps = 10_000 in
  (* warm up: the first delivery fills the memo, the second misses it *)
  Drive.Scoreboard.record scoreboard ~tg:0 memo_rows;
  Drive.Scoreboard.record scoreboard ~tg:0 copies;
  let measure rows =
    let memcmps = Drive.Scoreboard.memcmps scoreboard in
    let before = Gc.minor_words () in
    for _ = 1 to reps do
      Drive.Scoreboard.record scoreboard ~tg:0 rows
    done;
    let words = Gc.minor_words () -. before in
    (int_of_float (words /. float_of_int reps), Drive.Scoreboard.memcmps scoreboard - memcmps)
  in
  Alcotest.(check (pair int int))
    "copies: words per verified TG, memcmps" (0, reps * 20) (measure copies);
  Alcotest.(check (pair int int))
    "the memo's buffers: words per verified TG, memcmps" (0, 0) (measure memo_rows);
  Alcotest.(check int) "every check intact" ((2 * reps) + 2)
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:0);
  Alcotest.(check bool) "verdict" true (Drive.Scoreboard.verdict scoreboard ~session:0)

(* The scoreboard's work, counted without a clock: one TG of k = 20
   multicast to 500 receivers, whose decoders all keep the one buffer of
   each packet, is compared k times when first delivered and k times
   again when the verdict is read, not 500 k times. *)
let test_scoreboard_shared_buffers () =
  let k = 20 and receivers = 500 in
  let config = { config with M.k } in
  let data = Array.init k (fun i -> Bytes.make 1024 (Char.chr (i + 65))) in
  let wire = Array.map Bytes.copy data in
  let clock, _ = fake_clock () in
  let scoreboard = Drive.Scoreboard.create ~k ~first_sid:0 [| data |] in
  for _ = 1 to receivers do
    let machine = M.Receiver.create ~expected:[ (0, k) ] config ~rand:(fun () -> 0.5) in
    let rx = Drive.Receiver.create ~actor:"r" ~clock ~scoreboard ~apply:ignore machine in
    Array.iteri
      (fun index payload ->
        Drive.Receiver.receive rx
          (M.Packet_received (Header.Data { tg_id = 0; k; index; payload })))
      wire
  done;
  Alcotest.(check int) "intact deliveries" receivers
    (Drive.Scoreboard.intact_deliveries scoreboard ~tg:0);
  Alcotest.(check int) "memcmps after the deliveries" k (Drive.Scoreboard.memcmps scoreboard);
  Alcotest.(check bool) "verdict" true (Drive.Scoreboard.verdict scoreboard ~session:0);
  Alcotest.(check int) "memcmps after the verdict's re-check" (2 * k)
    (Drive.Scoreboard.memcmps scoreboard)

(* A buffer accepted by identity and then mutated in place still clears
   the verdict: when the verdict is read, and when the memo moves on to
   another TG, even if the buffer is restored before the verdict is
   read. *)
let test_scoreboard_mutated_after_accept () =
  let sent = Array.init 6 (fun i -> Bytes.make 8 (Char.chr (i + 65))) in
  let deliver_twice scoreboard =
    let rows = Array.map Bytes.copy (Array.sub sent 0 3) in
    Drive.Scoreboard.record scoreboard ~tg:0 rows;
    Drive.Scoreboard.record scoreboard ~tg:0 (Array.copy rows);
    Alcotest.(check int) "the second delivery compared nothing" 3
      (Drive.Scoreboard.memcmps scoreboard);
    rows.(1)
  in
  let at_read = Drive.Scoreboard.create ~k:3 ~first_sid:0 [| sent |] in
  Bytes.set (deliver_twice at_read) 0 'z';
  Alcotest.(check bool) "cleared at the verdict read" false
    (Drive.Scoreboard.verdict at_read ~session:0);
  let at_move = Drive.Scoreboard.create ~k:3 ~first_sid:0 [| sent |] in
  let row = deliver_twice at_move in
  Bytes.set row 0 'z';
  Drive.Scoreboard.record at_move ~tg:1 (Array.sub sent 3 3);
  Bytes.set row 0 'B';
  Alcotest.(check bool) "cleared when the memo moved" false
    (Drive.Scoreboard.verdict at_move ~session:0);
  Alcotest.(check (list int)) "intact deliveries as recorded" [ 2; 1 ]
    (List.map (fun tg -> Drive.Scoreboard.intact_deliveries at_move ~tg) [ 0; 1 ])

(* The memo against a reference that compares every row of every
   delivery.  Each delivery is recorded one to four times, as by the
   receivers of one multicast.  Two sessions of k = 3 at first sid 2:
   session 0's TGs hold 3, 3 and 1 packets, session 1's 3 and 1.
   Two-byte payloads from a three-letter alphabet, so equal rows recur
   across indices and a swapped row is sometimes intact. *)
let memo_k = 3
let memo_first_sid = 2

let memo_sent =
  Array.map (Array.map (fun c -> Bytes.make 2 c))
    [| [| 'a'; 'b'; 'a'; 'c'; 'c'; 'b'; 'a' |]; [| 'b'; 'a'; 'b'; 'c' |] |]

(* The buffers shared by every receiver: pool 0 is the sent buffers
   themselves, pools 1 and 2 two wire-decoded copies of each packet. *)
let memo_pools =
  Array.init 3 (fun pool ->
      Array.map (Array.map (if pool = 0 then Fun.id else Bytes.copy)) memo_sent)

let memo_tgs data = (Array.length data + memo_k - 1) / memo_k

(* Row [q] of a delivery of [local] in [session] (2 is no session of the
   scoreboard's, and [local] may be one past the last TG: both deliver
   rows of a real TG).  Kind 0: the shared buffer of its own packet;
   1: the shared buffer of packet [index] of the TG; 2: a private copy;
   3: a copy one byte off; 4: the shared buffer of packet [index] of the
   session, whichever TG holds it. *)
let memo_row ~session ~local q (kind, index, pool) =
  let session = session mod 2 in
  let data = memo_sent.(session) in
  let local = min local (memo_tgs data - 1) in
  let len = min memo_k (Array.length data - (local * memo_k)) in
  let packet i = (local * memo_k) + (i mod len) in
  match kind with
  | 0 -> memo_pools.(pool).(session).(packet q)
  | 1 -> memo_pools.(pool).(session).(packet index)
  | 2 -> Bytes.copy data.(packet q)
  | 4 -> memo_pools.(pool).(session).(index mod Array.length data)
  | _ ->
    let b = Bytes.copy data.(packet q) in
    Bytes.set b 1 'z';
    b

let qcheck_scoreboard_memo =
  let open QCheck.Gen in
  let row =
    triple
      (frequency [ (6, return 0); (2, return 1); (1, return 2); (1, return 3); (1, return 4) ])
      (int_bound 6) (int_bound 2)
  in
  let delivery =
    frequency [ (5, return 0); (5, return 1); (1, return 2) ] >>= fun session ->
    let data = memo_sent.(session mod 2) in
    int_bound (memo_tgs data) >>= fun local ->
    let len = min memo_k (Array.length data - (min local (memo_tgs data - 1) * memo_k)) in
    frequency [ (8, return len); (1, int_bound (memo_k + 1)) ] >>= fun n ->
    list_repeat n row >>= fun rows ->
    int_range 1 4 >>= fun times -> return (Some (session, local, times, rows))
  in
  let ops = list_size (int_range 1 60) (frequency [ (1, return None); (10, delivery) ]) in
  let print =
    QCheck.Print.list (function
      | None -> "verdict"
      | Some (session, local, times, rows) ->
        Printf.sprintf "s%d/tg%d x%d [%s]" session local times
          (String.concat ";"
             (List.map (fun (kind, index, pool) -> Printf.sprintf "%d,%d,%d" kind index pool) rows)))
  in
  QCheck.Test.make ~count:300 ~name:"scoreboard: the memo agrees with comparing every row"
    (QCheck.make ~print ops) (fun ops ->
      let scoreboard = Drive.Scoreboard.create ~k:memo_k ~first_sid:memo_first_sid memo_sent in
      let counts = Array.map (fun data -> Array.make (memo_tgs data) 0) memo_sent in
      let verdicts = Array.make 2 true in
      let reference ~session ~local rows =
        if session < 2 && local < Array.length counts.(session) then begin
          let data = memo_sent.(session) and base = local * memo_k in
          if
            Array.length rows = min memo_k (Array.length data - base)
            && Array.for_all Fun.id (Array.mapi (fun i row -> Bytes.equal row data.(base + i)) rows)
          then counts.(session).(local) <- counts.(session).(local) + 1
          else verdicts.(session) <- false
        end
      in
      let wire session local = Rmcast.Np_replay.wire_tg ~sid:(memo_first_sid + session) local in
      let counts_agree () =
        Array.for_all Fun.id
          (Array.mapi
             (fun session per_tg ->
               Array.for_all Fun.id
                 (Array.mapi
                    (fun local count ->
                      Drive.Scoreboard.intact_deliveries scoreboard ~tg:(wire session local)
                      = count)
                    per_tg))
             counts)
      in
      let verdicts_agree () =
        Drive.Scoreboard.verdict scoreboard ~session:0 = verdicts.(0)
        && Drive.Scoreboard.verdict scoreboard ~session:1 = verdicts.(1)
      in
      List.for_all
        (function
          | None -> verdicts_agree ()
          | Some (session, local, times, spec) ->
            let rows = Array.of_list (List.mapi (memo_row ~session ~local) spec) in
            List.for_all
              (fun () ->
                Drive.Scoreboard.record scoreboard ~tg:(wire session local) (Array.copy rows);
                reference ~session ~local rows;
                counts_agree ())
              (List.init times ignore))
        ops
      && verdicts_agree ())

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
    Alcotest.test_case "scoreboard: 500 receivers sharing buffers cost 2k memcmps" `Quick
      test_scoreboard_shared_buffers;
    Alcotest.test_case "scoreboard: a buffer mutated after acceptance clears the verdict"
      `Quick test_scoreboard_mutated_after_accept;
    QCheck_alcotest.to_alcotest qcheck_scoreboard_memo;
    Alcotest.test_case "a DATA reception allocates nothing" `Quick
      test_data_reception_allocates_nothing;
    Alcotest.test_case "static sender feeds exactly Tick" `Quick
      test_static_feeds_exactly_tick;
    Alcotest.test_case "retune only when the decision changes" `Quick
      test_retune_only_on_change;
  ]
