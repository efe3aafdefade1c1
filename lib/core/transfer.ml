module Profile = Rmc_core.Profile
module Error = Rmc_core.Error
module Np = Rmc_proto.Np
module Metrics = Rmc_obs.Metrics

type outcome = {
  report : Rmc_proto.Np.report;
  bytes_sent : int;
  efficiency : float;
  verified : bool;
}

(* The first 4 bytes carry the message length so that padding can be
   stripped on reassembly. *)
let packetize ~payload_size message =
  if payload_size < 5 then invalid_arg "Transfer.packetize: payload_size must be >= 5";
  let length = String.length message in
  let total = 4 + length in
  let packets = (total + payload_size - 1) / payload_size in
  let buffer = Bytes.make (packets * payload_size) '\000' in
  Bytes.set_int32_be buffer 0 (Int32.of_int length);
  Bytes.blit_string message 0 buffer 4 length;
  Array.init packets (fun i -> Bytes.sub buffer (i * payload_size) payload_size)

let reassemble ~payload_size packets =
  if Array.length packets = 0 then invalid_arg "Transfer.reassemble: no packets";
  Array.iter
    (fun p ->
      if Bytes.length p <> payload_size then
        invalid_arg "Transfer.reassemble: packet size mismatch")
    packets;
  let buffer = Bytes.concat Bytes.empty (Array.to_list packets) in
  let length = Int32.to_int (Bytes.get_int32_be buffer 0) in
  if length < 0 || length > Bytes.length buffer - 4 then
    invalid_arg "Transfer.reassemble: corrupt length prefix";
  Bytes.sub_string buffer 4 length

let ( let* ) = Result.bind

(* One admission path for every simulated transfer: the config first, so
   packetizing is safe, then the message, then the flow rules on the
   packets the flow will carry. *)
let prepare ~context ?start ?churn ~network profile message =
  let config = Np.config_of_profile profile in
  let* () = Np.validate_config ~context config in
  if String.length message = 0 then Error.invalid_arg ~context "empty message"
  else if profile.Profile.payload_size < 5 then
    Error.invalid_arg ~context "payload_size must be >= 5 (4-byte length prefix)"
  else
    let data = packetize ~payload_size:profile.Profile.payload_size message in
    let* () = Np.validate_flow ~context ?start ?churn ~network config data in
    Ok (config, data)

let outcome_of_report ~message_len (report : Np.report) =
  let payload_packets = report.Np.data_tx + report.Np.parity_tx in
  let bytes_sent = payload_packets * report.Np.config.Np.payload_size in
  {
    report;
    bytes_sent;
    efficiency = float_of_int message_len /. float_of_int bytes_sent;
    verified = report.Np.delivered_intact && report.Np.ejected = [];
  }

let send ?(profile = Profile.default) ?(virtual_start = 0.0) ?churn ~network ~rng
    message =
  let context = "Transfer.send" in
  match prepare ~context ~start:virtual_start ?churn ~network profile message with
  | Error _ as e -> e
  | Ok (config, data) ->
    let report = Rmc_proto.Np.run ~config ~start:virtual_start ?churn ~network ~rng ~data () in
    Ok (outcome_of_report ~message_len:(String.length message) report)

let send_exn ?profile ?virtual_start ?churn ~network ~rng message =
  Error.get_exn (send ?profile ?virtual_start ?churn ~network ~rng message)

type session = {
  outcome : outcome;
  started_at : float;
  finished_at : float;
}

type summary = {
  sessions : session list;
  all_verified : bool;
  total_bytes : int;
  total_bytes_sent : int;
  makespan : float;
}

let record_metrics metrics index (s : session) =
  let m = Metrics.scope metrics (Printf.sprintf "session.%d" index) in
  let bump name v = Metrics.incr ~by:v (Metrics.counter m name) in
  let report = s.outcome.report in
  bump "tx.data" report.Np.data_tx;
  bump "tx.parity" report.Np.parity_tx;
  bump "tx.poll" report.Np.polls;
  bump "naks.sent" report.Np.naks_sent;
  bump "naks.suppressed" report.Np.naks_suppressed;
  bump "codec.parities_encoded" report.Np.parities_encoded;
  bump "codec.packets_decoded" report.Np.packets_decoded;
  bump "rx.unnecessary" report.Np.unnecessary_receptions;
  bump "bytes.sent" s.outcome.bytes_sent;
  Metrics.set (Metrics.gauge m "time.started") s.started_at;
  Metrics.set (Metrics.gauge m "time.finished") s.finished_at;
  if s.outcome.verified then bump "verified" 1

let send_all ?(profile = Profile.default) ?metrics ~network ~rng messages =
  let context = "Transfer.send_all" in
  let rec admit acc = function
    | [] -> Ok (List.rev acc)
    | message :: rest ->
      let* flow = prepare ~context ~network profile message in
      admit ((message, flow) :: acc) rest
  in
  let* admitted =
    if messages = [] then Error.invalid_arg ~context "no messages" else admit [] messages
  in
  let engine = Rmc_sim.Engine.create () in
  let mux = Np.Mux.create engine in
  let flows =
    List.map
      (fun (message, (config, data)) ->
        (message, Np.Mux.add_flow mux ~config ~network ~rng ~data ()))
      admitted
  in
  Np.Mux.run mux;
  let sessions =
    List.map
      (fun (message, flow) ->
        {
          outcome =
            outcome_of_report ~message_len:(String.length message) (Np.Mux.report flow);
          started_at = Np.Mux.started_at flow;
          finished_at = Np.Mux.finished_at flow;
        })
      flows
  in
  let makespan = Rmc_sim.Engine.now engine in
  Option.iter
    (fun m ->
      List.iteri (record_metrics m) sessions;
      Metrics.incr ~by:(List.length sessions) (Metrics.counter m "scheduler.sessions");
      Metrics.set (Metrics.gauge m "scheduler.makespan") makespan)
    metrics;
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  Ok
    {
      sessions;
      all_verified = List.for_all (fun s -> s.outcome.verified) sessions;
      total_bytes = sum String.length messages;
      total_bytes_sent = sum (fun s -> s.outcome.bytes_sent) sessions;
      makespan;
    }
