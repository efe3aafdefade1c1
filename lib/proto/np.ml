module Engine = Rmc_sim.Engine
module Network = Rmc_sim.Network
module Rng = Rmc_numerics.Rng
module Header = Rmc_wire.Header
module Profile = Rmc_core.Profile
module Error = Rmc_core.Error

let ( let* ) = Result.bind

type config = {
  k : int;
  h : int;
  proactive : int;
  payload_size : int;
  spacing : float;
  delay : float;
  slot : float;
  pre_encode : bool;
  codec : Rmc_rse.Codec.kind;
  controller : Profile.controller;
}

let default_delay = 0.025

let config_of_profile ?(delay = default_delay) (p : Profile.t) =
  {
    k = p.Profile.k;
    h = p.Profile.h;
    proactive = p.Profile.proactive;
    payload_size = p.Profile.payload_size;
    spacing = p.Profile.pacing;
    delay;
    slot = p.Profile.slot;
    pre_encode = p.Profile.pre_encode;
    codec = p.Profile.codec;
    controller = p.Profile.controller;
  }

let default_config = config_of_profile Profile.default

let profile_of_config c =
  {
    Profile.k = c.k;
    h = c.h;
    proactive = c.proactive;
    payload_size = c.payload_size;
    pacing = c.spacing;
    slot = c.slot;
    pre_encode = c.pre_encode;
    codec = c.codec;
    controller = c.controller;
  }

type report = {
  config : config;
  receivers : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  naks_sent : int;
  naks_suppressed : int;
  parities_encoded : int;
  packets_decoded : int;
  unnecessary_receptions : int;
  ejected : (int * int) list;
  duration : float;
  delivered_intact : bool;
}

let transmissions_per_packet report =
  float_of_int (report.data_tx + report.parity_tx) /. float_of_int report.data_tx

(* The protocol rules, the payload bound among them, are the profile's;
   the simulator adds its propagation delay. *)
let validate_config ?(context = "Np") c =
  let* _ = Profile.validate ~context (profile_of_config c) in
  if c.delay < 0.0 then Error.invalid_arg ~context "negative delay"
  else if not (Float.is_finite c.delay) then
    Error.msgf ~context "delay must be finite (got %g)" c.delay |> Result.error
  else Ok ()

(* ------------------------------------------------------------------ *)

(* One NP transfer multiplexed on a shared engine.  The protocol itself
   lives in the pure {!Np_machine} core, bound to virtual time through
   {!Np_drive} (capture, retunes, NAK timers, the delivery scoreboard); a
   flow adds what is the simulator's own — the simulated multicast
   channel, pacing and churn. *)

(* The record types {!Mux} exports. *)
module Mux_types = struct
  type churn_event = { receiver : int; at : float; action : [ `Join | `Leave ] }

  (* Receivers a flow holds as something other than machines — the
     aggregate tier's count-vector remainder.  The loop calls each hook one
     propagation delay after the multicast that triggers it, after the
     machine receivers' delivery event for that multicast; a
     population's own NAK re-enters the loop through {!multicast_nak}. *)
  type population = {
    on_payload : tg:int -> unit;
    on_poll : tg:int -> size:int -> round:int -> unit;
    on_exhausted : tg:int -> unit;
    on_nak : tg:int -> need:int -> round:int -> unit;
  }
end

include Mux_types

type flow = {
  config : config;
  network : Network.t;
  sender : Np_drive.Sender.t;
  mutable rxs : Engine.timer Np_drive.Receiver.t array;
      (* set once by [add_flow]: the bindings' callbacks close over the flow *)
  scoreboard : Np_drive.Scoreboard.t; (* the flow is session 0 on it *)
  receivers : int;
  started_at : float;
  (* Receiver churn.  [presence] gates packet delivery only — the loss
     process still draws one fate per (transmission, receiver), so a
     churn-free run consumes exactly the RNG stream it always did.
     [last_polls] and [tg_exhausted] track what a late joiner needs to
     catch up: the current (k, size, round) of each TG's latest poll, and
     whether its repair budget was already exhausted. *)
  presence : bool array;
  skip : int array; (* scratch for {!skipped}: one slot per receiver *)
  completed_at : float option array; (* virtual time of each receiver's Done *)
  last_polls : (int * int * int) array; (* per TG: k, size, round (0 = no poll yet) *)
  tg_exhausted : bool array;
  mutable population : population option;
  mutable in_ready : bool; (* member of the arbiter's rotation *)
  mutable finished_at : float; (* virtual time of the flow's last event *)
  mutable ejected_rev : (int * int) list;
  mutable tamper : Header.message -> Header.message; (* [For_testing] only *)
}

(* The arbiter: a round-robin rotation of flows that currently have sender
   jobs queued.  Exactly one packet occupies the shared send slot at a
   time; after a data/parity packet the slot is busy for that flow's
   [spacing], after control packets (POLL, EXHAUSTED) it is free
   immediately — the same pacing model the single-flow machine used, now
   shared fairly across sessions. *)
type mux = {
  engine : Engine.t;
  ready : flow Queue.t;
  mutable pumping : bool;
  scratch : Bytes.t; (* the datagram of the wire round-trip *)
}

let create engine =
  {
    engine;
    ready = Queue.create ();
    pumping = false;
    (* One packet is on the wire at a time (the shared send slot), so the
       round-trip below needs one buffer. *)
    scratch = Bytes.create Header.max_datagram;
  }

(* Route a packet through the real wire format: serialize it into the
   mux's scratch datagram and parse it back out, the same bytes the UDP
   driver would put in a datagram.  The decoded message does not alias
   the scratch buffer ({!Header.decode_slice} copies payloads out), so one
   round-trip is shared by every receiver the simulated multicast reaches
   and the buffer is free again at once.  Every receiver's decoder keeps
   a reference to that one decoded payload (decoders store data packets
   by reference and never mutate them); a wire decode that borrowed its
   payload from the scratch buffer would have to copy it here, before the
   buffer is reused.  Encode/decode is lossless, so recorder
   streams — which re-encode each [Packet_received] — are unchanged; a
   round-trip failure is a codec bug, not an input condition. *)
let through_wire mux message =
  let len = Header.encode_into mux.scratch ~off:0 message in
  match Header.decode_slice mux.scratch ~off:0 ~len with
  | Ok message -> message
  | Error reason -> invalid_arg ("Np: wire round-trip failed: " ^ reason)

let touch mux flow = flow.finished_at <- Engine.now mux.engine
let sender_machine flow = Np_drive.Sender.machine flow.sender
let pending flow = Np_machine.Sender.pending (sender_machine flow)

(* The receivers [skips r] selects, in ascending order: the ones a
   multicast does not reach, fixed at send time.  A multicast keeps the
   receivers it skips (the lost, the absent, a NAK's speaker), not the
   ones it reaches: that set is usually a few receivers, so it stays in
   the minor heap where a reached set of hundreds would not. *)
let skipped flow skips =
  let n = ref 0 in
  for r = 0 to flow.receivers - 1 do
    if skips r then begin
      flow.skip.(!n) <- r;
      incr n
    end
  done;
  Array.sub flow.skip 0 !n

(* Schedule a population hook one propagation delay out. *)
let to_population mux flow hook =
  match flow.population with
  | Some population ->
    ignore (Engine.after mux.engine flow.config.delay (fun () -> hook population))
  | None -> ()

let rec pump mux =
  match Queue.pop mux.ready with
  | exception Queue.Empty -> mux.pumping <- false
  | flow ->
    if not (pending flow) then begin
      flow.in_ready <- false;
      pump mux
    end
    else begin
      let busy = execute mux flow in
      if pending flow then Queue.push flow mux.ready
      else flow.in_ready <- false;
      touch mux flow;
      ignore (Engine.after mux.engine busy (fun () -> pump mux))
    end

(* Wake the arbiter for a flow that (re)gained jobs.  Entering the rotation
   is what starts a flow: [add_flow] schedules this at the flow's start
   time. *)
and wake mux flow =
  if pending flow && not flow.in_ready then begin
    flow.in_ready <- true;
    Queue.push flow mux.ready;
    if not mux.pumping then begin
      mux.pumping <- true;
      ignore (Engine.after mux.engine 0.0 (fun () -> pump mux))
    end
  end

(* Interpret one sender Tick: [Send] effects become simulated multicasts
   (data/parity through the network's loss process, control delivered
   reliably — the analysis' assumption), and the returned busy time keeps
   the old pacing: [spacing] after a payload-bearing packet, none after
   control. *)
and execute mux flow =
  let c = flow.config in
  let effects = Np_drive.Sender.tick flow.sender in
  List.fold_left
    (fun busy effect ->
      match effect with
      | Np_machine.Send ((Header.Data _ | Header.Parity _) as msg) ->
        let msg = through_wire mux (flow.tamper msg) in
        let tx = Network.transmit flow.network ~time:(Engine.now mux.engine) in
        deliver mux flow msg
          (skipped flow (fun r ->
               (* One [lost] query per receiver, present or not: the
                  Bernoulli fate is drawn on demand, and churn must not
                  shift the RNG stream of the receivers that stay. *)
               let lost = Network.lost tx r in
               lost || not flow.presence.(r)));
        to_population mux flow (fun p -> p.on_payload ~tg:(Header.tg_id msg));
        c.spacing
      | Np_machine.Send ((Header.Poll _ | Header.Exhausted _) as msg) ->
        let msg = through_wire mux msg in
        deliver mux flow msg (skipped flow (fun r -> not flow.presence.(r)));
        (match msg with
        | Header.Poll { tg_id; k; size; round } ->
          if tg_id >= 0 && tg_id < Array.length flow.last_polls then
            flow.last_polls.(tg_id) <- (k, size, round);
          to_population mux flow (fun p -> p.on_poll ~tg:tg_id ~size ~round)
        | Header.Exhausted { tg_id } ->
          if tg_id >= 0 && tg_id < Array.length flow.tg_exhausted then
            flow.tg_exhausted.(tg_id) <- true;
          to_population mux flow (fun p -> p.on_exhausted ~tg:tg_id)
        | _ -> ());
        busy
      | _ -> busy)
    0.0 effects

(* One engine event per multicast: one propagation delay out, [msg]
   reaches every receiver not in the ascending [skipped], in ascending
   order, and the flow is touched once.  The order is the one
   per-receiver events would give: those would run consecutively (equal
   times run FIFO), and whatever one delivery schedules runs after all of
   them. *)
and deliver mux flow msg skipped =
  if Array.length skipped < flow.receivers then
    ignore
      (Engine.after mux.engine flow.config.delay (fun () ->
           touch mux flow;
           let event = Np_machine.Packet_received msg in
           let next = ref 0 in
           for receiver = 0 to flow.receivers - 1 do
             if !next < Array.length skipped && skipped.(!next) = receiver then incr next
             else Np_drive.Receiver.receive flow.rxs.(receiver) event
           done))

(* A receiver's entry point: deliveries and its own fired NAK timers. *)
and rx_event mux flow ~receiver event =
  touch mux flow;
  Np_drive.Receiver.receive flow.rxs.(receiver) event

(* Every receiver effect but the timers, which the binding performs. *)
and rx_apply mux flow ~receiver effect =
  match effect with
  | Np_machine.Send (Header.Nak { tg_id; need; round }) ->
    multicast_nak mux flow ~from:(`Receiver receiver) ~tg:tg_id ~need ~round
  | Np_machine.Ejected { tg } -> flow.ejected_rev <- (receiver, tg) :: flow.ejected_rev
  | Np_machine.Done -> flow.completed_at.(receiver) <- Some (Engine.now mux.engine)
  | _ -> ()

(* The NAK is multicast: the sender reacts, and every other present
   receiver — machine or population — overhears it and may suppress its
   own pending NAK for the round.  Machine NAKs and the population's
   virtual NAKs take this one path. *)
and multicast_nak mux flow ~from ~tg ~need ~round =
  touch mux flow;
  let nak = through_wire mux (Header.Nak { tg_id = tg; need; round }) in
  ignore
    (Engine.after mux.engine flow.config.delay (fun () ->
         sender_feedback mux flow ~tg ~need ~round));
  let speaker = match from with `Receiver r -> r | `Population -> -1 in
  deliver mux flow nak (skipped flow (fun other -> other = speaker || not flow.presence.(other)));
  match from with
  | `Receiver _ -> to_population mux flow (fun p -> p.on_nak ~tg ~need ~round)
  | `Population -> ()

and sender_feedback mux flow ~tg ~need ~round =
  touch mux flow;
  ignore (Np_drive.Sender.feedback flow.sender ~tg ~need ~round);
  if pending flow then wake mux flow

(* Take receiver [ev.receiver] in or out of the delivery set.

   Leave cancels the receiver's armed NAK timers (its machine keeps its
   partial blocks — a flapper that rejoins resumes from what it had).

   Join replays the sender's current control state at the newcomer: for
   every unresolved TG it has seen a poll for, the latest poll (so the
   joiner NAKs into the normal repair path and catches up from parities —
   slotting and suppression apply exactly as for any other receiver), or
   EXHAUSTED if the TG's budget is already spent (the joiner gives up at
   once instead of NAKing into a void the sender would ignore).  Both are
   ordinary machine events, so they are recorded and replay verbatim. *)
let apply_churn mux flow ev =
  match ev.action with
  | `Leave ->
    if flow.presence.(ev.receiver) then begin
      flow.presence.(ev.receiver) <- false;
      Np_drive.Receiver.cancel_timers flow.rxs.(ev.receiver);
      touch mux flow
    end
  | `Join ->
    if not flow.presence.(ev.receiver) then begin
      flow.presence.(ev.receiver) <- true;
      let machine = Np_drive.Receiver.machine flow.rxs.(ev.receiver) in
      Array.iteri
        (fun tg (k, size, round) ->
          if
            not
              (Np_machine.Receiver.delivered machine ~tg
              || Np_machine.Receiver.gave_up machine ~tg)
          then
            if flow.tg_exhausted.(tg) then
              rx_event mux flow ~receiver:ev.receiver
                (Np_machine.Packet_received (Header.Exhausted { tg_id = tg }))
            else if round > 0 then
              rx_event mux flow ~receiver:ev.receiver
                (Np_machine.Packet_received (Header.Poll { tg_id = tg; k; size; round })))
        flow.last_polls
    end

(* What a flow adds to a valid config: its packets, start and churn.
   Without [context] each rule reports under the entry point that has
   always named it. *)
let validate_flow ?context ?(start = 0.0) ?(churn = []) ~network c data =
  let fail default reason =
    Error.invalid_arg ~context:(Option.value context ~default) reason
  in
  let receivers = Network.receivers network in
  if Array.length data = 0 then fail "Np.run" "no data"
  else if Array.exists (fun payload -> Bytes.length payload <> c.payload_size) data then
    fail "Np.run" "payload size mismatch"
  else if not (Np_replay.fits_wire ~k:c.k data) then
    fail "Np.run" "too many transmission groups (wire tg is 16-bit)"
  else if start < 0.0 then fail "Np.run" "negative start time"
  else if not (Float.is_finite start) then fail "Np.run" "start time must be finite"
  else if List.exists (fun ev -> ev.receiver < 0 || ev.receiver >= receivers) churn then
    fail "Np.add_flow" "churn receiver out of range"
  else if List.exists (fun ev -> ev.at < start) churn then
    fail "Np.add_flow" "churn event before the flow starts"
  else if List.exists (fun ev -> not (Float.is_finite ev.at)) churn then
    fail "Np.add_flow" "churn event time must be finite"
  else Ok ()

let add_flow mux ?(config = default_config) ?(start = 0.0) ?recorder ?(churn = [])
    ~network ~rng ~data () =
  let c = config in
  Error.get_exn
    (let* () = validate_config c in
     validate_flow ~start ~churn ~network c data);
  if start < Engine.now mux.engine then invalid_arg "Np.run: start time in the past";
  let receivers = Network.receivers network in
  let profile = profile_of_config c in
  let sender = Np_drive.Sender.create ?recorder ~actor:"s0" ~receivers profile ~data in
  (* A receiver whose earliest churn event is a Join is a late joiner: it
     starts outside the delivery set. *)
  let presence = Array.make receivers true in
  let earliest = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match Hashtbl.find_opt earliest ev.receiver with
      | Some (at, _) when at <= ev.at -> ()
      | _ -> Hashtbl.replace earliest ev.receiver (ev.at, ev.action))
    churn;
  Hashtbl.iter
    (fun receiver (_, action) -> if action = `Join then presence.(receiver) <- false)
    earliest;
  let tg_count = Np_machine.Sender.tg_count (Np_drive.Sender.machine sender) in
  let flow =
    {
      config = c;
      network;
      sender;
      rxs = [||];
      scoreboard = Np_drive.Scoreboard.create ~k:c.k ~first_sid:0 [| data |];
      receivers;
      started_at = start;
      presence;
      skip = Array.make receivers 0;
      completed_at = Array.make receivers None;
      last_polls = Array.make tg_count (0, 0, 0);
      tg_exhausted = Array.make tg_count false;
      population = None;
      in_ready = false;
      finished_at = start;
      ejected_rev = [];
      tamper = Fun.id;
    }
  in
  let mc = Np_replay.machine_config profile in
  let expected = Np_replay.expected ~k:c.k ~sid:0 data in
  let clock = { Np_drive.after = Engine.after mux.engine; cancel = Engine.cancel } in
  (* All receiver machines share the flow's RNG for NAK damping, exactly
     like the pre-sans-IO machine did — one draw per armed timer, in
     delivery order. *)
  let rand () = Rng.float rng in
  flow.rxs <-
    Array.init receivers (fun r ->
        Np_drive.Receiver.create ?recorder ~actor:("r" ^ string_of_int r) ~clock
          ~scoreboard:flow.scoreboard ~entry:(rx_event mux flow ~receiver:r)
          ~apply:(rx_apply mux flow ~receiver:r)
          (Np_machine.Receiver.create ~expected mc ~rand));
  List.iter
    (fun ev -> ignore (Engine.at mux.engine ev.at (fun () -> apply_churn mux flow ev)))
    churn;
  ignore (Engine.at mux.engine start (fun () -> wake mux flow));
  flow

(* Does [resolved] hold for every TG at every receiver present when
   asked?  Delivery verdicts, like completion below, cover the survivors:
   receivers absent (left, or joined-and-left) are not waited for.  With
   no churn every receiver is present. *)
let all_present flow resolved =
  let tg_count = Np_machine.Sender.tg_count (sender_machine flow) in
  let all = ref true in
  Array.iteri
    (fun r rx ->
      if flow.presence.(r) then
        for tg = 0 to tg_count - 1 do
          if not (resolved (Np_drive.Receiver.machine rx) ~tg) then all := false
        done)
    flow.rxs;
  !all

let flow_complete flow =
  Array.for_all2
    (fun present rx ->
      (not present) || Np_machine.Receiver.finished (Np_drive.Receiver.machine rx))
    flow.presence flow.rxs

let flow_report flow =
  let sender = sender_machine flow in
  let tg_count = Np_machine.Sender.tg_count sender in
  let sum f =
    Array.fold_left (fun acc rx -> acc + f (Np_drive.Receiver.machine rx)) 0 flow.rxs
  in
  {
    config = flow.config;
    receivers = flow.receivers;
    transmission_groups = tg_count;
    data_tx = Np_machine.Sender.data_tx sender;
    parity_tx = Np_machine.Sender.parity_tx sender;
    polls = Np_machine.Sender.polls sender;
    naks_sent = sum Np_machine.Receiver.naks_sent;
    naks_suppressed = sum Np_machine.Receiver.naks_suppressed;
    parities_encoded = Np_machine.Sender.parities_encoded sender;
    packets_decoded = sum Np_machine.Receiver.packets_decoded;
    unnecessary_receptions = sum Np_machine.Receiver.unnecessary;
    ejected = List.rev flow.ejected_rev;
    duration = flow.finished_at;
    delivered_intact =
      Np_drive.Scoreboard.verdict flow.scoreboard ~session:0
      && all_present flow Np_machine.Receiver.delivered;
  }

module Mux = struct
  type t = mux
  type nonrec flow = flow

  include Mux_types

  let create = create
  let engine mux = mux.engine
  let add_flow = add_flow
  let started_at flow = flow.started_at
  let finished_at flow = flow.finished_at
  let complete = flow_complete
  let report = flow_report
  let run t = Engine.run t.engine
  let set_population flow population = flow.population <- Some population
  let population_nak mux flow ~tg ~need ~round =
    multicast_nak mux flow ~from:`Population ~tg ~need ~round
  let retunes flow = Np_machine.Sender.retunes (sender_machine flow)
  let tuning flow = Np_machine.Sender.tuning (sender_machine flow)

  let present flow ~receiver =
    if receiver < 0 || receiver >= flow.receivers then invalid_arg "Np.Mux.present";
    flow.presence.(receiver)

  let completed_at flow ~receiver =
    if receiver < 0 || receiver >= flow.receivers then invalid_arg "Np.Mux.completed_at";
    flow.completed_at.(receiver)

  let controller_estimates flow = Np_drive.Sender.estimates flow.sender
end

let run ?config ?start ?churn ~network ~rng ~data () =
  let engine = Engine.create () in
  let mux = create engine in
  let flow = add_flow mux ?config ?start ?churn ~network ~rng ~data () in
  Engine.run engine;
  (* Preserve the historical duration definition: virtual time when the
     event queue drained, not just this flow's last touch. *)
  { (flow_report flow) with duration = Engine.now engine }

module For_testing = struct
  let tamper flow f = flow.tamper <- f
end
