module Profile = Rmc_core.Profile
module Error = Rmc_core.Error
module Np = Rmc_proto.Np
module Metrics = Rmc_obs.Metrics

type spec = {
  name : string;
  payload : string;
  config : Np.config;
  data : Bytes.t array;
  start : float;
}

type t = {
  network : Rmc_sim.Network.t;
  rng : Rmc_numerics.Rng.t;
  delay : float;
  default_profile : Profile.t;
  mutable specs_rev : spec list;
  mutable count : int;
}

let create ?(delay = Np.default_config.Np.delay) ?(profile = Profile.default) ~network
    ~rng () =
  Np.validate_config ~context:"Scheduler.create" (Np.config_of_profile ~delay profile)
  |> Result.map (fun () ->
         { network; rng; delay; default_profile = profile; specs_rev = []; count = 0 })

let create_exn ?delay ?profile ~network ~rng () =
  Error.get_exn (create ?delay ?profile ~network ~rng ())

let add t ?profile ?(start = 0.0) ~name payload =
  let profile = Option.value profile ~default:t.default_profile in
  Transfer.prepare ~context:"Scheduler.add" ~what:"payload" ~delay:t.delay ~start
    ~network:t.network profile payload
  |> Result.map (fun (config, data) ->
         t.specs_rev <- { name; payload; config; data; start } :: t.specs_rev;
         t.count <- t.count + 1)

let add_exn t ?profile ?start ~name payload =
  Error.get_exn (add t ?profile ?start ~name payload)

let sessions t = t.count

type result_ = {
  name : string;
  outcome : Transfer.outcome;
  started_at : float;
  finished_at : float;
}

type summary = {
  results : result_ list;
  all_verified : bool;
  total_bytes : int;
  total_bytes_sent : int;
  makespan : float;
}

let record_metrics metrics index (r : result_) =
  let m = Metrics.scope metrics (Printf.sprintf "session.%d" index) in
  let bump name v = Metrics.incr ~by:v (Metrics.counter m name) in
  let report = r.outcome.Transfer.report in
  bump "tx.data" report.Np.data_tx;
  bump "tx.parity" report.Np.parity_tx;
  bump "tx.poll" report.Np.polls;
  bump "naks.sent" report.Np.naks_sent;
  bump "naks.suppressed" report.Np.naks_suppressed;
  bump "codec.parities_encoded" report.Np.parities_encoded;
  bump "codec.packets_decoded" report.Np.packets_decoded;
  bump "rx.unnecessary" report.Np.unnecessary_receptions;
  bump "bytes.sent" r.outcome.Transfer.bytes_sent;
  Metrics.set (Metrics.gauge m "time.started") r.started_at;
  Metrics.set (Metrics.gauge m "time.finished") r.finished_at;
  if r.outcome.Transfer.verified then bump "verified" 1

let run ?metrics t =
  let specs = List.rev t.specs_rev in
  let engine = Rmc_sim.Engine.create () in
  let mux = Np.Mux.create engine in
  let flows =
    List.map
      (fun spec ->
        ( spec,
          Np.Mux.add_flow mux ~config:spec.config ~start:spec.start ~network:t.network
            ~rng:t.rng ~data:spec.data () ))
      specs
  in
  Np.Mux.run mux;
  let results =
    List.map
      (fun (spec, flow) ->
        let report = Np.Mux.report flow in
        let outcome = Transfer.outcome_of_report ~message_len:(String.length spec.payload) report in
        {
          name = spec.name;
          outcome;
          started_at = Np.Mux.started_at flow;
          finished_at = Np.Mux.finished_at flow;
        })
      flows
  in
  (match metrics with
  | None -> ()
  | Some m ->
    List.iteri (fun i r -> record_metrics m i r) results;
    Metrics.incr ~by:(List.length results) (Metrics.counter m "scheduler.sessions");
    Metrics.set (Metrics.gauge m "scheduler.makespan") (Rmc_sim.Engine.now engine));
  let total_bytes =
    List.fold_left (fun acc s -> acc + String.length s.payload) 0 specs
  in
  let total_sent =
    List.fold_left (fun acc r -> acc + r.outcome.Transfer.bytes_sent) 0 results
  in
  {
    results;
    all_verified = List.for_all (fun r -> r.outcome.Transfer.verified) results;
    total_bytes;
    total_bytes_sent = total_sent;
    makespan = Rmc_sim.Engine.now engine;
  }
