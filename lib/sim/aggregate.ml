(* Aggregate receiver populations: the count-vector representation behind
   the O(k+h)-per-TG simulation tier.

   For loss processes that are iid across receivers (independent Bernoulli,
   or per-receiver Gilbert-Elliott chains), the population state of one
   transmission group is exchangeable: everything the protocol dynamics can
   observe is captured by how many receivers currently need n more packets
   (n in 0..k), split by hidden channel state for the bursty model.  One
   multicast transmission then thins every occupied cell binomially —
   Binomial(c, 1-p) receivers of a cell of size c receive the packet and
   move one deficit class down — which is exact in distribution and costs
   O(k) binomial draws instead of O(R) per-receiver coin flips.

   The shared-loss topology (FBT) is deliberately absent: a failed inner
   node correlates the loser sets across receivers *and* across packets'
   class membership, so the count vector is no longer a sufficient
   statistic there.  That regime stays on the exact per-receiver tier. *)

module Rng = Rmc_numerics.Rng
module Sampler = Rmc_numerics.Sampler
module Dist = Rmc_numerics.Dist
module Special = Rmc_numerics.Special

type channel =
  | Bernoulli of { p : float }
  | Gilbert of { mu01 : float; mu10 : float; p_good : float; p_bad : float }

let bernoulli ~p =
  if not (p >= 0.0 && p < 1.0) then invalid_arg "Aggregate.bernoulli: p outside [0,1)";
  Bernoulli { p }

let gilbert ~mu01 ~mu10 ~p_good ~p_bad =
  if not (mu01 > 0.0 && mu10 > 0.0) then
    invalid_arg "Aggregate.gilbert: rates must be positive";
  if not (p_good >= 0.0 && p_good <= p_bad && p_bad < 1.0) then
    invalid_arg "Aggregate.gilbert: need 0 <= p_good <= p_bad < 1";
  Gilbert { mu01; mu10; p_good; p_bad }

let bursty ~p ~mean_burst ~send_rate =
  let mu01, mu10 = Loss.markov2_parameters ~p ~mean_burst ~send_rate in
  Gilbert { mu01; mu10; p_good = 0.0; p_bad = 1.0 -. Float.epsilon }

let channel_loss_probability = function
  | Bernoulli { p } -> p
  | Gilbert { mu01; mu10; p_good; p_bad } ->
    let pi1 = mu01 /. (mu01 +. mu10) in
    (pi1 *. p_bad) +. ((1.0 -. pi1) *. p_good)

let channel_description = function
  | Bernoulli { p } -> Printf.sprintf "iid bernoulli p=%g" p
  | Gilbert _ as c ->
    Printf.sprintf "gilbert-elliott p=%g (bursty)" (channel_loss_probability c)

(* [counts.(n * states + s)] = receivers that still need [n] packets and
   whose channel chain sits in state [s] (0 good, 1 bad; [states = 1] for
   the memoryless channel). *)
type t = {
  k : int;
  size : int;
  channel : channel;
  states : int;
  counts : int array;
  mutable missing : int; (* receivers with deficit > 0 *)
  mutable unnecessary : int; (* receptions by already-complete receivers *)
  mutable last_time : float;
}

let create rng ~size ~k ~channel ~time =
  if size < 0 then invalid_arg "Aggregate.create: negative population";
  if k < 1 then invalid_arg "Aggregate.create: k must be >= 1";
  let states = match channel with Bernoulli _ -> 1 | Gilbert _ -> 2 in
  let counts = Array.make ((k + 1) * states) 0 in
  (match channel with
  | Bernoulli _ -> counts.(k) <- size
  | Gilbert { mu01; mu10; _ } ->
    (* Stationary start, matching Loss.gilbert_elliott. *)
    let pi1 = mu01 /. (mu01 +. mu10) in
    let bad = Sampler.binomial rng ~n:size ~p:pi1 in
    counts.(k * states) <- size - bad;
    counts.((k * states) + 1) <- bad);
  { k; size; channel; states; counts; missing = size; unnecessary = 0; last_time = time }

let size t = t.size
let missing t = t.missing
let complete t = t.size - t.missing
let unnecessary t = t.unnecessary
let k t = t.k

let max_deficit t =
  let rec scan n =
    if n = 0 then 0
    else begin
      let occupied = ref false in
      for s = 0 to t.states - 1 do
        if t.counts.((n * t.states) + s) > 0 then occupied := true
      done;
      if !occupied then n else scan (n - 1)
    end
  in
  scan t.k

let deficit_count t n =
  if n < 0 || n > t.k then 0
  else begin
    let total = ref 0 in
    for s = 0 to t.states - 1 do
      total := !total + t.counts.((n * t.states) + s)
    done;
    !total
  end

let deficits t = Array.init (t.k + 1) (deficit_count t)

(* Move every cell through the channel chain for the gap since the last
   packet: each member lands in the bad state with the two-state transition
   probability for its current state.  The memoryless channel computes no
   gap, so its packets box no float. *)
let transition t rng ~time =
  match t.channel with
  | Bernoulli _ -> ()
  | Gilbert { mu01; mu10; _ } ->
    let dt = Float.max 0.0 (time -. t.last_time) in
    if dt > 0.0 then begin
      (* The chain's step depends only on [dt], not on the cell.  An empty
         class is skipped: [Sampler.binomial ~n:0] draws nothing, so the
         stream is the same either way. *)
      let p01 = Loss.transition_to_bad_probability ~mu01 ~mu10 ~from_state:0 dt in
      let p11 = Loss.transition_to_bad_probability ~mu01 ~mu10 ~from_state:1 dt in
      for n = 0 to t.k do
        let base = n * t.states in
        let good = t.counts.(base) and bad = t.counts.(base + 1) in
        if good > 0 || bad > 0 then begin
          let good_to_bad = Sampler.binomial rng ~n:good ~p:p01 in
          let bad_to_bad = Sampler.binomial rng ~n:bad ~p:p11 in
          t.counts.(base) <- good - good_to_bad + (bad - bad_to_bad);
          t.counts.(base + 1) <- good_to_bad + bad_to_bad
        end
      done
    end

let state_loss_probability t s =
  match t.channel with
  | Bernoulli { p } -> p
  | Gilbert { p_good; p_bad; _ } -> if s = 0 then p_good else p_bad

(* One multicast packet of this TG reaching the population at [time]:
   advance the channel chains over the gap, then thin every cell — the
   members that receive the packet move one deficit class down (or count as
   an unnecessary reception when already complete).

   One ascending pass does both, in place.  Receivers only ever move from
   class [n] into [n - 1], which the pass has already drawn, so when cell
   [(n, s)] is drawn nothing has moved into it yet: it still holds the
   count it held before the packet, no receiver is thinned twice, and the
   draws come in the same order and with the same arguments as drawing
   every cell from a snapshot first.  The receivers that just completed on
   this packet land in class 0 after it was drawn, so they are not counted
   as unnecessary.  An empty cell draws nothing, as in [transition]. *)
let receive t rng ~time =
  transition t rng ~time;
  t.last_time <- time;
  let states = t.states and counts = t.counts in
  for n = 0 to t.k do
    for s = 0 to states - 1 do
      let cell = (n * states) + s in
      let c = counts.(cell) in
      if c > 0 then begin
        let got = c - Sampler.binomial rng ~n:c ~p:(state_loss_probability t s) in
        if got > 0 then
          if n = 0 then t.unnecessary <- t.unnecessary + got
          else begin
            counts.(cell) <- c - got;
            counts.(cell - states) <- counts.(cell - states) + got;
            if n = 1 then t.missing <- t.missing - got
          end
      end
    done
  done

(* Initial volley shortcut for the memoryless channel: receiver losses out
   of [packets] transmissions are Binomial(packets, p) iid, so the class
   sizes are one multinomial draw — split sequentially with conditional
   binomials in O(packets) instead of O(packets * k) thinning steps.
   Deficit after the volley is max(0, losses - spare) with
   [spare = packets - k] proactive parities. *)
let bernoulli_volley t rng ~packets =
  (match t.channel with
  | Bernoulli _ -> ()
  | Gilbert _ -> invalid_arg "Aggregate.bernoulli_volley: memoryless channel only");
  if packets < t.k then invalid_arg "Aggregate.bernoulli_volley: packets < k";
  if t.missing <> t.size || t.unnecessary <> 0 then
    invalid_arg "Aggregate.bernoulli_volley: population already touched";
  let p = match t.channel with Bernoulli { p } -> p | Gilbert _ -> assert false in
  let spare = packets - t.k in
  Array.fill t.counts 0 (Array.length t.counts) 0;
  let remaining = ref t.size in
  let tail = ref 1.0 in
  let losses = ref 0 in
  while !remaining > 0 do
    let count =
      if !losses >= packets then !remaining
      else begin
        let pr = Dist.Binomial.pmf ~n:packets ~p !losses in
        let q = if !tail <= 0.0 then 1.0 else Float.max 0.0 (Float.min 1.0 (pr /. !tail)) in
        tail := !tail -. pr;
        Sampler.binomial rng ~n:!remaining ~p:q
      end
    in
    if count > 0 then begin
      let deficit = min t.k (max 0 (!losses - spare)) in
      t.counts.(deficit * t.states) <- t.counts.(deficit * t.states) + count;
      if deficit = 0 then t.missing <- t.missing - count;
      remaining := !remaining - count
    end;
    incr losses
  done

(* Remove every still-incomplete receiver (parity budget exhausted, the
   sender ejected them); returns how many were dropped. *)
let eject_missing t =
  let dropped = t.missing in
  for n = 1 to t.k do
    for s = 0 to t.states - 1 do
      t.counts.((n * t.states) + s) <- 0
    done
  done;
  t.missing <- 0;
  dropped

(* Minimum of [count] iid uniforms on [0,1) by inversion: the first NAK
   timer to fire among a class of [count] receivers draws its damping
   uniform from this law. *)
let min_uniform rng ~count =
  if count < 1 then invalid_arg "Aggregate.min_uniform: count < 1";
  let u = Rng.float rng in
  if count = 1 then u
  else Special.one_minus_power_of_complement u (1.0 /. float_of_int count)

(* ------------------------------------------------------------------ *)

(* The group order statistic of the paper's eq. 4-6: L = max over R
   receivers of the extra parities each needs beyond the initial volley,
   whose per-receiver law is the (shifted) negative binomial of
   {!Dist.Negative_binomial}.  In the integrated scheme the sender stops
   exactly when the worst receiver completes, so total extra transmissions
   equal L and can be drawn directly by inverting
   G(m) = F(m)^R — O(log mmax) per sample, independent of R. *)
module Extra_parities = struct
  type sampler = {
    group_cdf : float array; (* G(m) = P(L <= m) *)
    expected : float;
  }

  let tail_negligible = 1e-12

  let create ~k ~a ~p ~receivers =
    if receivers < 1 then invalid_arg "Extra_parities.create: receivers < 1";
    let r = float_of_int receivers in
    let mmax = ref 32 in
    let build () =
      let f = Dist.Negative_binomial.cdf_array ~k ~a ~p !mmax in
      Array.map (fun c -> if c <= 0.0 then 0.0 else exp (r *. log c)) f
    in
    let g = ref (build ()) in
    while !g.(!mmax) < 1.0 -. tail_negligible && !mmax < 1 lsl 22 do
      mmax := !mmax * 2;
      g := build ()
    done;
    let expected = Array.fold_left (fun acc gm -> acc +. (1.0 -. gm)) 0.0 !g in
    { group_cdf = !g; expected }

  let expected t = t.expected

  let sample t rng =
    let u = Rng.float rng in
    let g = t.group_cdf in
    let last = Array.length g - 1 in
    if u <= g.(0) then 0
    else begin
      (* Least m with G(m) >= u; the tail beyond the table carries less
         than [tail_negligible] mass, so clamping there is harmless. *)
      let lo = ref 0 and hi = ref last in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if g.(mid) >= u then hi := mid else lo := mid
      done;
      !hi
    end
end
