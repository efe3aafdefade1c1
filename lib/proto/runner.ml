module Network = Rmc_sim.Network
module Stats = Rmc_numerics.Stats
module Rng = Rmc_numerics.Rng

type scheme =
  | No_fec
  | Layered of { h : int }
  | Integrated_open_loop of { a : int }
  | Integrated_nak of { a : int; codec : Rmc_rse.Codec.kind }
  | Carousel of { h : int }

let scheme_name = function
  | No_fec -> "no-fec"
  | Layered { h } -> Printf.sprintf "layered(h=%d)" h
  | Integrated_open_loop { a } -> Printf.sprintf "integrated-1(a=%d)" a
  | Integrated_nak { a; codec = `Rse } -> Printf.sprintf "integrated-2(a=%d)" a
  | Integrated_nak { a; codec } ->
    Printf.sprintf "coded(%s,a=%d)" (Rmc_core.Profile.codec_to_string codec) a
  | Carousel { h } -> Printf.sprintf "carousel(h=%d)" h

(* The fixed-seed innovation stream used when the caller supplies none. *)
let default_rng () = Rng.create ~seed:0x7c0ded ()

let run_tg net ~k ~scheme ?rng ~timing ~start () =
  let integrated ~a ~variant ~codec =
    let rng = match rng with Some r -> r | None -> default_rng () in
    Tg_integrated.run net ~k ~a ~variant ~codec ~rng ~timing ~start ()
  in
  match scheme with
  | No_fec -> Tg_arq.run net ~k ~timing ~start
  | Layered { h } -> Tg_layered.run net ~k ~h ~timing ~start
  | Integrated_open_loop { a } -> integrated ~a ~variant:Tg_integrated.Open_loop ~codec:`Rse
  | Integrated_nak { a; codec } -> integrated ~a ~variant:Tg_integrated.Nak_rounds ~codec
  | Carousel { h } -> Tg_carousel.run net ~k ~h ~timing ~start

type estimate = {
  scheme : scheme;
  k : int;
  receivers : int;
  reps : int;
  transmissions_per_packet : Stats.Accumulator.t;
  rounds : Stats.Accumulator.t;
  feedback : Stats.Accumulator.t;
  unnecessary_per_receiver : Stats.Accumulator.t;
  completion_time : Stats.Accumulator.t;
}

let mean_m e = Stats.Accumulator.mean e.transmissions_per_packet

(* Combine estimates of the same experiment run as independent chunks
   (e.g. replication ranges evaluated on different domains).  The
   accumulators merge with the Welford pairwise formula, so folding the
   chunks in index order gives the same result whatever schedule
   produced them. *)
let merge a b =
  if scheme_name a.scheme <> scheme_name b.scheme || a.k <> b.k
     || a.receivers <> b.receivers
  then invalid_arg "Runner.merge: estimates come from different experiments";
  let m = Stats.Accumulator.merge in
  {
    scheme = a.scheme;
    k = a.k;
    receivers = a.receivers;
    reps = a.reps + b.reps;
    transmissions_per_packet = m a.transmissions_per_packet b.transmissions_per_packet;
    rounds = m a.rounds b.rounds;
    feedback = m a.feedback b.feedback;
    unnecessary_per_receiver = m a.unnecessary_per_receiver b.unnecessary_per_receiver;
    completion_time = m a.completion_time b.completion_time;
  }

(* The rep loop both tiers share: [reps] TGs back to back, each starting
   [timing.feedback_delay] after the previous one finished. *)
let replicate ~scheme ~k ~receivers ?metrics ~(timing : Timing.t) ~reps run_tg =
  if reps < 1 then invalid_arg "Runner.estimate: reps must be >= 1";
  let module Metrics = Rmc_obs.Metrics in
  (* Resolve the counter handles once, outside the rep loop: a handle bump
     is a single mutable-field write, while a by-name [Metrics.counter]
     lookup concatenates the registry prefix and hashes the result — five
     string allocations per rep the hot loop does not need. *)
  let handle name = Option.map (fun m -> Metrics.counter m name) metrics in
  let c_tgs = handle "runner.tgs" in
  let c_transmissions = handle "runner.transmissions" in
  let c_rounds = handle "runner.rounds" in
  let c_feedback = handle "runner.feedback" in
  let c_unnecessary = handle "runner.unnecessary" in
  let count handle by =
    match handle with None -> () | Some c -> Metrics.incr ~by c
  in
  let m_acc = Stats.Accumulator.create () in
  let rounds_acc = Stats.Accumulator.create () in
  let feedback_acc = Stats.Accumulator.create () in
  let unnecessary_acc = Stats.Accumulator.create () in
  let completion_acc = Stats.Accumulator.create () in
  let clock = ref 0.0 in
  for _ = 1 to reps do
    let result = run_tg ~start:!clock in
    Stats.Accumulator.add completion_acc (result.Tg_result.finish_time -. !clock);
    clock := result.Tg_result.finish_time +. timing.feedback_delay;
    Stats.Accumulator.add m_acc (Tg_result.per_packet result);
    Stats.Accumulator.add rounds_acc (float_of_int result.Tg_result.rounds);
    Stats.Accumulator.add feedback_acc (float_of_int result.Tg_result.feedback_messages);
    Stats.Accumulator.add unnecessary_acc
      (float_of_int result.Tg_result.unnecessary_receptions /. float_of_int receivers);
    count c_tgs 1;
    count c_transmissions (Tg_result.transmissions result);
    count c_rounds result.Tg_result.rounds;
    count c_feedback result.Tg_result.feedback_messages;
    count c_unnecessary result.Tg_result.unnecessary_receptions
  done;
  {
    scheme;
    k;
    receivers;
    reps;
    transmissions_per_packet = m_acc;
    rounds = rounds_acc;
    feedback = feedback_acc;
    unnecessary_per_receiver = unnecessary_acc;
    completion_time = completion_acc;
  }

let estimate net ~k ~scheme ?rng ?metrics ?(timing = Timing.instantaneous) ?(reps = 200) () =
  (* One innovation-draw stream across all reps. *)
  let rng = match rng with Some r -> r | None -> default_rng () in
  replicate ~scheme ~k ~receivers:(Network.receivers net) ?metrics ~timing ~reps
    (fun ~start -> run_tg net ~k ~scheme ~rng ~timing ~start ())

let burst_length_histogram loss ~packets ~spacing =
  if packets < 1 then invalid_arg "Runner.burst_length_histogram: packets must be >= 1";
  if spacing <= 0.0 then invalid_arg "Runner.burst_length_histogram: spacing must be positive";
  let histogram = Stats.Histogram.create () in
  let run = ref 0 in
  for i = 0 to packets - 1 do
    if Rmc_sim.Loss.lost loss (float_of_int i *. spacing) then incr run
    else if !run > 0 then begin
      Stats.Histogram.add histogram !run;
      run := 0
    end
  done;
  if !run > 0 then Stats.Histogram.add histogram !run;
  histogram
