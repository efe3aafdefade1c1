module Loss = Rmc_sim.Loss

type kind = [ `Static | `Ewma | `Gilbert_aware ]

type decision = { proactive : int; budget : int }

let decision_equal a b = a.proactive = b.proactive && a.budget = b.budget

(* Per-TG observation window, opened by the round-1 poll (the volley
   boundary) and closed a few TGs later so straggling NAKs have time to
   arrive before we declare the TG clean. *)
type tg_obs = {
  tg_k : int;  (* data packets in the TG, from the poll header *)
  first_size : int;  (* round-1 volley size: tg_k + proactive at materialization *)
  mutable extras : int;  (* repair parities actually transmitted (round >= 2 polls) *)
  mutable worst_need : int;  (* largest round-1 need reported, 0 if clean so far *)
  mutable nak_seen : bool;
}

type t = {
  kind : kind;
  k : int;
  h_cap : int;  (* blocks are built with h parities; budget can only shrink *)
  receivers : int;
  pacing : float;
  initial : decision;
  (* Exponentially decayed pseudo-counts: p_hat = lost / total with
     half-count smoothing, so a run of clean TGs decays the estimate
     geometrically instead of snapping to zero. *)
  mutable lost_acc : float;
  mutable total_acc : float;
  mutable m_hat : float;  (* EWMA of per-TG transmissions-per-packet *)
  (* First and second moments of the per-TG loss count: the index of
     dispersion D = Var/Mean separates independent loss (D ~ 1) from
     bursty loss (D ~ 2b - 1 for mean burst length b). *)
  mutable loss_mean : float;
  mutable loss_sq : float;
  mutable samples : int;
  mutable dirty : bool;
  mutable cached : decision;
  mutable retunes : int;
  open_tgs : (int, tg_obs) Hashtbl.t;
  mutable frontier : int;  (* highest TG whose round-1 poll was observed *)
}

(* The estimator decay per closed TG; the closed TGs required before the
   first retune; the TGs of lag that give straggling NAKs time to arrive
   before a TG is declared clean. *)
let alpha = 0.125
let min_samples = 3
let close_lag = 2

let create ~kind ~k ~h ~proactive ~receivers ~pacing () =
  if k < 1 then invalid_arg "Controller.create: k must be >= 1";
  if h < 0 || proactive < 0 || proactive > h then
    invalid_arg "Controller.create: need 0 <= proactive <= h";
  if receivers < 1 then invalid_arg "Controller.create: receivers must be >= 1";
  if pacing <= 0.0 then invalid_arg "Controller.create: pacing must be positive";
  let initial = { proactive; budget = h } in
  {
    kind;
    k;
    h_cap = h;
    receivers;
    pacing;
    initial;
    lost_acc = 0.0;
    total_acc = 0.0;
    m_hat = 0.0;
    loss_mean = 0.0;
    loss_sq = 0.0;
    samples = 0;
    dirty = false;
    cached = initial;
    retunes = 0;
    open_tgs = Hashtbl.create 16;
    frontier = -1;
  }

let kind t = t.kind
let samples t = t.samples
let retunes t = t.retunes
let initial_decision t = t.initial

let p_hat t =
  if t.samples = 0 then 0.0
  else (t.lost_acc +. 0.5) /. (t.total_acc +. 1.0)

let m_hat t = t.m_hat

let burst_hat t =
  if t.samples = 0 then 1.0
  else begin
    let mean = t.loss_mean and sq = t.loss_sq in
    let var = Float.max 0.0 (sq -. (mean *. mean)) in
    if mean < 1e-9 then 1.0
    else
      (* D = 2b - 1 for geometric bursts of mean length b. *)
      Float.max 1.0 ((var /. mean +. 1.0) /. 2.0)
  end

let ewma prev x = ((1.0 -. alpha) *. prev) +. (alpha *. x)

(* Close the observation window for [tg]: one loss/volume sample per TG. *)
let close t tg =
  match Hashtbl.find_opt t.open_tgs tg with
  | None -> ()
  | Some o ->
    Hashtbl.remove t.open_tgs tg;
    let a = o.first_size - o.tg_k in
    (* The worst receiver's need under-counts its losses by the proactive
       parities it absorbed; clean TGs contribute zero (a slight
       underestimate — losses up to [a] are invisible by design). *)
    let lost = if o.nak_seen then float_of_int (o.worst_need + a) else 0.0 in
    let total = float_of_int (o.first_size + o.extras) in
    let decay = 1.0 -. alpha in
    t.lost_acc <- (decay *. t.lost_acc) +. lost;
    t.total_acc <- (decay *. t.total_acc) +. total;
    let m_sample = total /. float_of_int (max 1 o.tg_k) in
    t.m_hat <- (if t.samples = 0 then m_sample else ewma t.m_hat m_sample);
    t.loss_mean <-
      (if t.samples = 0 then lost else ewma t.loss_mean lost);
    t.loss_sq <-
      (if t.samples = 0 then lost *. lost
       else ewma t.loss_sq (lost *. lost));
    t.samples <- t.samples + 1;
    t.dirty <- true

let observe_poll t ~tg ~k ~size ~round =
  if t.kind <> `Static then begin
    if round <= 1 then begin
      if not (Hashtbl.mem t.open_tgs tg) then begin
        Hashtbl.replace t.open_tgs tg
          { tg_k = k; first_size = size; extras = 0; worst_need = 0; nak_seen = false };
        if tg > t.frontier then t.frontier <- tg;
        (* The round-1 poll of TG n closes TG n - lag: by then any NAK for
           it has long since crossed the (much shorter) feedback path. *)
        let cutoff = t.frontier - close_lag in
        Hashtbl.iter (fun id _ -> if id <= cutoff then close t id)
          (Hashtbl.copy t.open_tgs)
      end
    end
    else
      match Hashtbl.find_opt t.open_tgs tg with
      | Some o -> o.extras <- o.extras + size
      | None -> ()
  end

let observe_nak t ~tg ~need ~round =
  if t.kind <> `Static then
    match Hashtbl.find_opt t.open_tgs tg with
    | None -> ()
    | Some o ->
      o.nak_seen <- true;
      if round <= 1 && need > o.worst_need then o.worst_need <- need

(* Burst-aware proactive inflation: calibrate a two-state chain at the
   estimated (p, burst) point and widen the tail allowance by the run-length
   factor sqrt((1+c)/(1-c)), c the per-packet loss-run continuation
   probability.  Falls back to the Ewma plan when the calibration is
   infeasible (mean_burst too short for the loss rate). *)
let gilbert_inflate t ~p ~(plan : Planner.plan) =
  let b = burst_hat t in
  if b <= 1.0 +. 1e-9 then plan.Planner.proactive
  else
    match
      Loss.markov2_parameters ~p ~mean_burst:b ~send_rate:(1.0 /. t.pacing)
    with
    | exception Invalid_argument _ -> plan.Planner.proactive
    | mu01, mu10 ->
      let c =
        Loss.transition_to_bad_probability ~mu01 ~mu10 ~from_state:1 t.pacing
      in
      if c >= 1.0 -. 1e-9 then plan.Planner.proactive
      else begin
        let n = float_of_int (t.k + plan.Planner.proactive) in
        let mean = n *. p in
        let tail = Float.max 0.0 (float_of_int plan.Planner.proactive -. mean) in
        let inflate = sqrt ((1.0 +. c) /. (1.0 -. c)) in
        let a = int_of_float (ceil (mean +. (tail *. inflate))) in
        max plan.Planner.proactive (min a t.k)
      end

let decision t =
  match t.kind with
  | `Static -> t.initial
  | `Ewma | `Gilbert_aware ->
    if t.samples < min_samples then t.initial
    else if not t.dirty then t.cached
    else begin
      let p = Float.max 1e-4 (Float.min 0.5 (p_hat t)) in
      let r_eff =
        if t.receivers <= 1 then 1
        else begin
          (* m_hat measures with-FEC transmissions, so inverting it through
             the no-FEC E[M] map under-counts receivers — erring toward
             *less* redundancy, the conservative direction under shared
             loss (paper §4.1). *)
          let m = Float.max 1.0 t.m_hat in
          max 1 (min t.receivers (Planner.effective_receivers ~measured_m_nofec:m ~p))
        end
      in
      let plan = Planner.plan ~k:t.k ~p ~receivers:r_eff () in
      let proactive =
        match t.kind with
        | `Gilbert_aware -> gilbert_inflate t ~p ~plan
        | _ -> plan.Planner.proactive
      in
      let proactive = min proactive t.h_cap in
      (* Budget only caps on-demand repair, so shrinking it saves nothing;
         keep the planner's exhaustion-safe h (doubled, as lag headroom)
         on top of a full volley's worth — a budget under k makes a
         fully-missed volley (a late joiner's catch-up, one long loss
         burst) undecodable from parity alone, and a joiner then loses
         repair packets like anyone else. *)
      let budget = min t.h_cap (t.k + max proactive (2 * plan.Planner.budget)) in
      let d = { proactive; budget } in
      if not (decision_equal d t.cached) then t.retunes <- t.retunes + 1;
      t.cached <- d;
      t.dirty <- false;
      d
    end
