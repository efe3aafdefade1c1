module Profile = Rmc_core.Profile
module Error = Rmc_core.Error

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
let prepare ~context ?(what = "message") ?delay ?start ?churn ~network profile message =
  let config = Rmc_proto.Np.config_of_profile ?delay profile in
  let* () = Rmc_proto.Np.validate_config ~context config in
  if String.length message = 0 then Error.invalid_arg ~context ("empty " ^ what)
  else if profile.Profile.payload_size < 5 then
    Error.invalid_arg ~context "payload_size must be >= 5 (4-byte length prefix)"
  else
    let data = packetize ~payload_size:profile.Profile.payload_size message in
    let* () = Rmc_proto.Np.validate_flow ~context ?start ?churn ~network config data in
    Ok (config, data)

let outcome_of_report ~message_len (report : Rmc_proto.Np.report) =
  let payload_packets = report.Rmc_proto.Np.data_tx + report.Rmc_proto.Np.parity_tx in
  let bytes_sent = payload_packets * report.Rmc_proto.Np.config.Rmc_proto.Np.payload_size in
  {
    report;
    bytes_sent;
    efficiency = float_of_int message_len /. float_of_int bytes_sent;
    verified =
      report.Rmc_proto.Np.delivered_intact && report.Rmc_proto.Np.ejected = [];
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
