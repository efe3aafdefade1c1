module Engine = Rmc_sim.Engine
module Network = Rmc_sim.Network
module Rng = Rmc_numerics.Rng

type config = {
  payload_size : int;
  spacing : float;
  delay : float;
  slot : float;
  damping_slots : int;
}

let default_config =
  { payload_size = 1024; spacing = 0.001; delay = 0.025; slot = 0.010; damping_slots = 8 }

type report = {
  config : config;
  receivers : int;
  packets : int;
  data_tx : int;
  polls : int;
  naks_sent : int;
  naks_suppressed : int;
  unnecessary_receptions : int;
  rounds : int;
  duration : float;
  delivered_intact : bool;
}

let transmissions_per_packet report =
  float_of_int report.data_tx /. float_of_int report.packets

type rx_state = {
  have : bool array;
  mutable missing : int;
  (* seq -> pending NAK timer; seq -> round of last NAK involvement *)
  timers : (int, Engine.timer) Hashtbl.t;
  nak_round : (int, int) Hashtbl.t;
}

type job = Packet of int | Poll of int (* round *)

let run ?(config = default_config) ~network ~rng ~data () =
  let c = config in
  if Array.length data = 0 then invalid_arg "N2.run: no data";
  Array.iter
    (fun payload ->
      if Bytes.length payload <> c.payload_size then invalid_arg "N2.run: payload size mismatch")
    data;
  if c.spacing <= 0.0 || c.slot <= 0.0 || c.damping_slots < 1 then
    invalid_arg "N2.run: bad timing configuration";
  let receivers = Network.receivers network in
  let packets = Array.length data in
  let engine = Engine.create () in

  let data_tx = ref 0 and polls = ref 0 in
  let naks_sent = ref 0 and naks_suppressed = ref 0 in
  let unnecessary = ref 0 in
  let rounds = ref 0 in
  let intact = ref true in

  let rx =
    Array.init receivers (fun _ ->
        {
          have = Array.make packets false;
          missing = packets;
          timers = Hashtbl.create 8;
          nak_round = Hashtbl.create 8;
        })
  in

  let serviced_round = Array.make packets 0 in
  let queue : job Queue.t = Queue.create () in
  let sending = ref false in
  let poll_queued_for_round = ref 1 (* the round-1 poll is queued below *) in
  let current_round = ref 1 in

  let handle_nak_at_sender = ref (fun ~seq:_ ~round:_ -> ()) in
  let overhear = ref (fun ~receiver:_ ~seq:_ ~round:_ -> ()) in

  let deliver ~receiver ~seq payload =
    let state = rx.(receiver) in
    if state.have.(seq) then incr unnecessary
    else begin
      if not (Np_drive.Scoreboard.intact ~sent:data.(seq) payload) then intact := false;
      state.have.(seq) <- true;
      state.missing <- state.missing - 1;
      match Hashtbl.find_opt state.timers seq with
      | Some timer ->
        Engine.cancel timer;
        Hashtbl.remove state.timers seq
      | None -> ()
    end
  in

  let send_nak ~receiver ~seq ~round =
    let state = rx.(receiver) in
    Hashtbl.remove state.timers seq;
    if not state.have.(seq) then begin
      incr naks_sent;
      Hashtbl.replace state.nak_round seq round;
      ignore (Engine.after engine c.delay (fun () -> !handle_nak_at_sender ~seq ~round));
      for other = 0 to receivers - 1 do
        if other <> receiver then
          ignore (Engine.after engine c.delay (fun () -> !overhear ~receiver:other ~seq ~round))
      done
    end
  in

  let deliver_poll ~receiver ~round =
    let state = rx.(receiver) in
    if state.missing > 0 then
      Array.iteri
        (fun seq have ->
          if not have then begin
            let already = Option.value ~default:0 (Hashtbl.find_opt state.nak_round seq) in
            if already < round && not (Hashtbl.mem state.timers seq) then begin
              let offset = Rng.float rng *. (float_of_int c.damping_slots *. c.slot) in
              let timer =
                Engine.after engine offset (fun () -> send_nak ~receiver ~seq ~round)
              in
              Hashtbl.replace state.timers seq timer
            end
          end)
        state.have
  in

  let rec pump () =
    if Queue.is_empty queue then sending := false
    else begin
      let next_delay =
        match Queue.pop queue with
        | Packet seq ->
          incr data_tx;
          let tx = Network.transmit network ~time:(Engine.now engine) in
          for r = 0 to receivers - 1 do
            if not (Network.lost tx r) then
              ignore (Engine.after engine c.delay (fun () -> deliver ~receiver:r ~seq data.(seq)))
          done;
          c.spacing
        | Poll round ->
          incr polls;
          rounds := max !rounds round;
          current_round := round;
          for r = 0 to receivers - 1 do
            ignore (Engine.after engine c.delay (fun () -> deliver_poll ~receiver:r ~round))
          done;
          0.0
      in
      ignore (Engine.after engine next_delay pump)
    end
  in

  (handle_nak_at_sender :=
     fun ~seq ~round ->
       if serviced_round.(seq) < round then begin
         serviced_round.(seq) <- round;
         Queue.push (Packet seq) queue;
         (* One follow-up poll per round, enqueued only after every NAK of
            the round can have arrived (damping window + round trip), so the
            poll follows all of the round's retransmissions. *)
         if !poll_queued_for_round <= round then begin
           poll_queued_for_round := round + 1;
           let settle = (float_of_int c.damping_slots *. c.slot) +. (2.0 *. c.delay) in
           ignore
             (Engine.after engine settle (fun () ->
                  Queue.push (Poll (round + 1)) queue;
                  if not !sending then begin
                    sending := true;
                    ignore (Engine.after engine 0.0 pump)
                  end))
         end;
         if not !sending then begin
           sending := true;
           ignore (Engine.after engine 0.0 pump)
         end
       end);

  (overhear :=
     fun ~receiver ~seq ~round ->
       let state = rx.(receiver) in
       match Hashtbl.find_opt state.timers seq with
       | Some timer ->
         Engine.cancel timer;
         Hashtbl.remove state.timers seq;
         Hashtbl.replace state.nak_round seq round;
         incr naks_suppressed
       | None -> ());

  for seq = 0 to packets - 1 do
    Queue.push (Packet seq) queue
  done;
  Queue.push (Poll 1) queue;
  sending := true;
  ignore (Engine.after engine 0.0 pump);
  Engine.run engine;

  let all_delivered = Array.for_all (fun state -> state.missing = 0) rx in
  {
    config = c;
    receivers;
    packets;
    data_tx = !data_tx;
    polls = !polls;
    naks_sent = !naks_sent;
    naks_suppressed = !naks_suppressed;
    unnecessary_receptions = !unnecessary;
    rounds = !rounds;
    duration = Engine.now engine;
    delivered_intact = !intact && all_delivered;
  }
