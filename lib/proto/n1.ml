module Engine = Rmc_sim.Engine
module Network = Rmc_sim.Network

type config = { payload_size : int; spacing : float; delay : float; rto : float }

let default_config = { payload_size = 1024; spacing = 0.001; delay = 0.025; rto = 0.120 }

type report = {
  config : config;
  receivers : int;
  packets : int;
  data_tx : int;
  acks_received : int;
  timer_expiries : int;
  unnecessary_receptions : int;
  duration : float;
  delivered_intact : bool;
}

let transmissions_per_packet report =
  float_of_int report.data_tx /. float_of_int report.packets

type packet_state = {
  seq : int;
  acked : bool array; (* per receiver *)
  mutable ack_count : int;
  mutable timer : Engine.timer option;
  mutable in_queue : bool;
}

let run ?(config = default_config) ~network ~rng ~data () =
  ignore rng;
  let c = config in
  if Array.length data = 0 then invalid_arg "N1.run: no data";
  Array.iter
    (fun payload ->
      if Bytes.length payload <> c.payload_size then invalid_arg "N1.run: payload size mismatch")
    data;
  if c.spacing <= 0.0 || c.rto <= 0.0 then invalid_arg "N1.run: bad timing configuration";
  let receivers = Network.receivers network in
  let packets = Array.length data in
  let engine = Engine.create () in

  let data_tx = ref 0 and acks = ref 0 and expiries = ref 0 in
  let unnecessary = ref 0 in
  let intact = ref true in

  let states =
    Array.init packets (fun seq ->
        { seq; acked = Array.make receivers false; ack_count = 0; timer = None; in_queue = false })
  in
  let have = Array.init receivers (fun _ -> Array.make packets false) in

  let queue : packet_state Queue.t = Queue.create () in
  let sending = ref false in

  let handle_ack = ref (fun ~receiver:_ ~seq:_ -> ()) in

  let deliver ~receiver state payload =
    if have.(receiver).(state.seq) then incr unnecessary
    else begin
      if not (Np_drive.Scoreboard.intact ~sent:data.(state.seq) payload) then intact := false;
      have.(receiver).(state.seq) <- true
    end;
    (* Positive ACK on every reception, duplicates included ([18]'s model:
       the sender pays Xa per ACK received). *)
    ignore (Engine.after engine c.delay (fun () -> !handle_ack ~receiver ~seq:state.seq))
  in

  let rec pump () =
    match Queue.take_opt queue with
    | None -> sending := false
    | Some state ->
      state.in_queue <- false;
      if state.ack_count < receivers then begin
        incr data_tx;
        let tx = Network.transmit network ~time:(Engine.now engine) in
        for r = 0 to receivers - 1 do
          if not (Network.lost tx r) then
            ignore (Engine.after engine c.delay (fun () -> deliver ~receiver:r state data.(state.seq)))
        done;
        (* (Re)arm the retransmission timer. *)
        (match state.timer with Some t -> Engine.cancel t | None -> ());
        state.timer <-
          Some
            (Engine.after engine c.rto (fun () ->
                 state.timer <- None;
                 if state.ack_count < receivers && not state.in_queue then begin
                   incr expiries;
                   state.in_queue <- true;
                   Queue.push state queue;
                   if not !sending then begin
                     sending := true;
                     ignore (Engine.after engine 0.0 pump)
                   end
                 end))
      end;
      ignore (Engine.after engine c.spacing pump)
  in

  (handle_ack :=
     fun ~receiver ~seq ->
       incr acks;
       let state = states.(seq) in
       if not state.acked.(receiver) then begin
         state.acked.(receiver) <- true;
         state.ack_count <- state.ack_count + 1;
         if state.ack_count = receivers then begin
           match state.timer with
           | Some t ->
             Engine.cancel t;
             state.timer <- None
           | None -> ()
         end
       end);

  Array.iter
    (fun state ->
      state.in_queue <- true;
      Queue.push state queue)
    states;
  sending := true;
  ignore (Engine.after engine 0.0 pump);
  Engine.run engine;

  let all_delivered = Array.for_all (fun per_rx -> Array.for_all Fun.id per_rx) have in
  {
    config = c;
    receivers;
    packets;
    data_tx = !data_tx;
    acks_received = !acks;
    timer_expiries = !expiries;
    unnecessary_receptions = !unnecessary;
    duration = Engine.now engine;
    delivered_intact = !intact && all_delivered;
  }
