(* The aggregate NP tier: an {!Np.Mux} flow whose receiver population is
   split into a small {e tracked cohort} of exact {!Np_machine} instances
   (the flow's machine receivers) and an {e aggregate remainder} held as a
   count-vector population ({!Rmc_sim.Aggregate}).

   There is one drive loop: the cohort {e is} an ordinary {!Np.Mux} flow,
   so with [population = cohort] the tier consumes the same random draws in
   the same order and produces event-identical machine streams (the
   equivalence contract, enforced by test_aggregate).  The remainder is
   attached as the flow's {!Np.Mux.population} hooks, none of which touch
   the cohort's RNG:

   - [on_payload]: every simulated DATA/PARITY multicast binomially thins
     the population's deficit classes at its arrival time;
   - [on_poll]: every POLL arms one *virtual* NAK timer per TG at the
     offset the population's first-firing receiver would draw: slot index
     from its maximum deficit (the paper's deterministic slotting) plus the
     minimum of c iid damping uniforms, sampled by inversion;
   - [on_nak]: an overheard cohort NAK with need >= the population's
     maximum deficit suppresses the virtual timer, exactly like the
     machine's suppression rule;
   - [on_exhausted]: an exhausted budget ejects every remainder receiver
     still short of k packets.

   Firing a virtual timer feeds the sender the population's maximum deficit
   — what the first-arriving real NAK of that class would have carried — by
   multicasting it through {!Np.Mux.population_nak}, the path cohort NAKs
   take too.  NAK *counts* for the aggregate side are sampled from the
   slot-occupancy model (receivers in the winning slot whose timers land
   within one propagation delay of the first also fire; everyone else armed
   is suppressed), which is the one deliberately statistical element:
   per-round NAK tallies are estimates, while transmissions, rounds and
   deficits are exact in distribution.  DESIGN.md §10 spells out the
   argument. *)

module Engine = Rmc_sim.Engine
module Network = Rmc_sim.Network
module Aggregate = Rmc_sim.Aggregate
module Rng = Rmc_numerics.Rng
module Sampler = Rmc_numerics.Sampler
module Recorder = Rmc_obs.Recorder

let default_cohort = 64

type report = {
  config : Np.config;
  population : int; (* total receivers: cohort + aggregate *)
  cohort : int;
  transmission_groups : int;
  data_tx : int;
  parity_tx : int;
  polls : int;
  cohort_naks_sent : int;
  cohort_naks_suppressed : int;
  agg_naks_sent : int; (* slot-occupancy estimate, incl. the virtual NAK *)
  agg_naks_suppressed : int;
  parities_encoded : int;
  packets_decoded : int;
  cohort_unnecessary : int;
  agg_unnecessary : int;
  cohort_ejected : (int * int) list;
  agg_ejected : int;
  agg_complete : int; (* aggregate receivers holding every TG at the end *)
  duration : float;
  delivered_intact : bool;
}

let transmissions_per_packet report =
  float_of_int (report.data_tx + report.parity_tx) /. float_of_int report.data_tx

(* The count-vector population model assumes an MDS code: a receiver's state
   is its reception count and any k receptions decode.  The rateless codec
   breaks that premise (a coded packet is innovative only with probability
   < 1), so the aggregate tier only accepts the block codecs.  The adaptive
   controllers fall to the same axe from the other side: the remainder is a
   count-vector distribution, not a set of machines, so a mid-transfer
   retune would have to re-derive every deficit class under the new budget
   — the tier cannot interpret retunes, and says so up front. *)
let check_config (c : Np.config) =
  let context = "Np_aggregate" in
  match c.Np.codec with
  | `Rlnc ->
    Rmc_core.Error.invalid_arg ~context
      "the aggregate tier models receivers by reception count, which requires an MDS \
       block codec (rse or cauchy)"
  | (`Rse | `Cauchy) when c.Np.controller <> `Static ->
    Error
      (Rmc_core.Error.msgf ~context
         "the aggregate tier holds the remainder as a count-vector population and \
          cannot interpret %s retunes; use the exact tier or --controller static"
         (Rmc_core.Profile.controller_to_string c.Np.controller))
  | `Rse | `Cauchy -> Ok ()

(* One virtual NAK timer per TG: the aggregate population's contribution to
   the current feedback round. *)
type agg_tg = {
  pop : Aggregate.t;
  mutable armed : Engine.timer option;
  mutable armed_round : int;
  mutable armed_need : int;
}

type remainder = {
  mux : Np.Mux.t;
  cohort_flow : Np.Mux.flow;
  config : Np.config;
  recorder : Recorder.t option;
  rng : Rng.t; (* split off the flow RNG; the cohort never draws from it *)
  tgs : agg_tg array;
  mutable naks_sent : int;
  mutable naks_suppressed : int;
  mutable ejected : int;
}

type flow = {
  cohort_flow : Np.Mux.flow;
  population : int;
  remainder : remainder option; (* None iff population = cohort *)
}

let record rem line =
  match rem.recorder with
  | Some r -> Recorder.record_event r ~actor:"aggregate" line
  | None -> ()

let cancel at =
  match at.armed with
  | Some timer ->
    Engine.cancel timer;
    at.armed <- None
  | None -> ()

(* DATA/PARITY multicast reaching the aggregate population. *)
let on_payload rem ~tg =
  Aggregate.receive rem.tgs.(tg).pop rem.rng ~time:(Engine.now (Np.Mux.engine rem.mux))

(* The population's first NAK timer fires: feed the sender the maximum
   deficit, multicast the NAK to the cohort, and tally how many same-slot
   peers fire alongside (timers within one propagation delay of the first
   cannot be suppressed any more) versus how many armed receivers the NAK
   silences. *)
let nak_fire rem ~tg =
  let at = rem.tgs.(tg) in
  let need = at.armed_need and round = at.armed_round in
  record rem (Printf.sprintf "nak tg=%d need=%d round=%d" tg need round);
  let c = Aggregate.deficit_count at.pop need in
  let armed = Aggregate.missing at.pop in
  let window = Float.min 1.0 (rem.config.Np.delay /. rem.config.Np.slot) in
  let same_slot_firers =
    if c <= 1 then 0 else Sampler.binomial rem.rng ~n:(c - 1) ~p:window
  in
  let fired = 1 + same_slot_firers in
  rem.naks_sent <- rem.naks_sent + fired;
  rem.naks_suppressed <- rem.naks_suppressed + max 0 (armed - fired);
  Np.Mux.population_nak rem.mux rem.cohort_flow ~tg ~need ~round

(* A POLL arriving at the population (re)arms the TG's virtual NAK timer,
   mirroring the machine: slot index [max 0 (size - need)], damping uniform
   = minimum over the receivers sharing that maximum deficit. *)
let on_poll rem ~tg ~size ~round =
  let at = rem.tgs.(tg) in
  cancel at;
  let need = Aggregate.max_deficit at.pop in
  if need > 0 then begin
    let c = Aggregate.deficit_count at.pop need in
    let slot_index = max 0 (size - need) in
    let u = Aggregate.min_uniform rem.rng ~count:c in
    let offset = (float_of_int slot_index +. u) *. rem.config.Np.slot in
    at.armed_round <- round;
    at.armed_need <- need;
    at.armed <-
      Some
        (Engine.after (Np.Mux.engine rem.mux) offset (fun () ->
             at.armed <- None;
             nak_fire rem ~tg))
  end

(* A NAK overheard by the population (from the cohort): same suppression
   rule as the machine — an equal-or-greater need for the armed round
   cancels the virtual timer and silences every armed aggregate receiver. *)
let on_nak rem ~tg ~need ~round =
  let at = rem.tgs.(tg) in
  match at.armed with
  | Some _ when at.armed_round = round && need >= at.armed_need ->
    cancel at;
    rem.naks_suppressed <- rem.naks_suppressed + Aggregate.missing at.pop
  | _ -> ()

let on_exhausted rem ~tg =
  let at = rem.tgs.(tg) in
  cancel at;
  let dropped = Aggregate.eject_missing at.pop in
  if dropped > 0 then begin
    record rem (Printf.sprintf "ejected tg=%d count=%d" tg dropped);
    rem.ejected <- rem.ejected + dropped
  end

let add_flow mux ?(config = Np.default_config) ?(start = 0.0) ?recorder
    ?(cohort = default_cohort) ?channel ~population ~network ~rng ~data () =
  Rmc_core.Error.get_exn
    (Result.bind (Np.validate_config config) (fun () -> check_config config));
  let receivers = Network.receivers network in
  if receivers <> min cohort population then
    invalid_arg "Np_aggregate: network must cover exactly the tracked cohort";
  if population < receivers then invalid_arg "Np_aggregate: population smaller than cohort";
  if population > receivers && Option.is_none channel then
    invalid_arg "Np_aggregate: ~channel required when population > cohort";
  let cohort_flow = Np.Mux.add_flow mux ~config ~start ?recorder ~network ~rng ~data () in
  (* The remainder draws from a split stream so the cohort's shared damping
     RNG sees exactly the draws a plain Np.Mux flow would make; with an
     empty remainder no split happens and the streams coincide. *)
  let remainder =
    if population = receivers then None
    else begin
      let channel = Option.get channel in
      let rng = Rng.split rng in
      let tgs =
        Array.init (Np.Mux.report cohort_flow).Np.transmission_groups (fun _ ->
            {
              pop =
                Aggregate.create rng ~size:(population - receivers) ~k:config.Np.k ~channel
                  ~time:start;
              armed = None;
              armed_round = 0;
              armed_need = 0;
            })
      in
      let rem =
        { mux; cohort_flow; config; recorder; rng; tgs; naks_sent = 0; naks_suppressed = 0;
          ejected = 0 }
      in
      Np.Mux.set_population cohort_flow
        {
          Np.Mux.on_payload = on_payload rem;
          on_poll = on_poll rem;
          on_exhausted = on_exhausted rem;
          on_nak = on_nak rem;
        };
      Some rem
    end
  in
  { cohort_flow; population; remainder }

let flow_complete flow =
  Np.Mux.complete flow.cohort_flow
  &&
  match flow.remainder with
  | None -> true
  | Some rem -> Array.for_all (fun at -> Aggregate.missing at.pop = 0) rem.tgs

(* The cohort's half is the flow's {!Np.report}; the remainder adds its
   counters. *)
let flow_report flow =
  let r = Np.Mux.report flow.cohort_flow in
  let agg_unnecessary, agg_naks_sent, agg_naks_suppressed, agg_ejected, agg_complete =
    match flow.remainder with
    | None -> (0, 0, 0, 0, 0)
    | Some rem ->
      let unnecessary =
        Array.fold_left (fun acc at -> acc + Aggregate.unnecessary at.pop) 0 rem.tgs
      in
      let complete =
        (* A remainder receiver holds the whole transfer iff complete in
           every TG; with ejections that joint count is not recoverable
           from marginals, so report the conservative minimum. *)
        Array.fold_left
          (fun acc at -> min acc (Aggregate.complete at.pop))
          (flow.population - r.Np.receivers)
          rem.tgs
      in
      (unnecessary, rem.naks_sent, rem.naks_suppressed, rem.ejected, complete)
  in
  {
    config = r.Np.config;
    population = flow.population;
    cohort = r.Np.receivers;
    transmission_groups = r.Np.transmission_groups;
    data_tx = r.Np.data_tx;
    parity_tx = r.Np.parity_tx;
    polls = r.Np.polls;
    cohort_naks_sent = r.Np.naks_sent;
    cohort_naks_suppressed = r.Np.naks_suppressed;
    agg_naks_sent;
    agg_naks_suppressed;
    parities_encoded = r.Np.parities_encoded;
    packets_decoded = r.Np.packets_decoded;
    cohort_unnecessary = r.Np.unnecessary_receptions;
    agg_unnecessary;
    cohort_ejected = r.Np.ejected;
    agg_ejected;
    agg_complete;
    duration = r.Np.duration;
    delivered_intact = r.Np.delivered_intact;
  }

module Mux = struct
  type t = Np.Mux.t
  type nonrec flow = flow

  let create = Np.Mux.create
  let engine = Np.Mux.engine
  let add_flow = add_flow
  let started_at flow = Np.Mux.started_at flow.cohort_flow
  let finished_at flow = Np.Mux.finished_at flow.cohort_flow
  let complete = flow_complete
  let report = flow_report
  let run = Np.Mux.run
end

let run ?(config = Np.default_config) ?(start = 0.0) ?cohort ?channel ~population ~network
    ~rng ~data () =
  let engine = Engine.create () in
  let mux = Mux.create engine in
  let flow =
    add_flow mux ~config ~start ?cohort ?channel ~population ~network ~rng ~data ()
  in
  Engine.run engine;
  { (flow_report flow) with duration = Engine.now engine }
