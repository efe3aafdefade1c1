(* BTRS: transformed rejection with squeeze (Hörmann 1993), exact for
   n*p >= 10 and p <= 1/2.  A loop rather than a local recursive function,
   so no closure (and no boxed copy of each constant) is built per call. *)
let binomial_btrs rng ~n ~p =
  let nf = float_of_int n in
  let q = 1.0 -. p in
  let spq = sqrt (nf *. p *. q) in
  let b = 1.15 +. (2.53 *. spq) in
  let a = -0.0873 +. (0.0248 *. b) +. (0.01 *. p) in
  let c = (nf *. p) +. 0.5 in
  let vr = 0.92 -. (4.2 /. b) in
  let alpha = (2.83 +. (5.1 /. b)) *. spq in
  let lpq = log (p /. q) in
  let m = int_of_float ((nf +. 1.0) *. p) in
  let h = Special.log_factorial m +. Special.log_factorial (n - m) in
  let result = ref (-1) in
  while !result < 0 do
    let u = Rng.float rng -. 0.5 in
    let v = Rng.float rng in
    let us = 0.5 -. Float.abs u in
    let kf = Float.floor ((((2.0 *. a /. us) +. b) *. u) +. c) in
    if kf >= 0.0 && kf <= nf then begin
      let k = int_of_float kf in
      if us >= 0.07 && v <= vr then result := k
      else begin
        let v = log (v *. alpha /. ((a /. (us *. us)) +. b)) in
        let accept =
          v
          <= h
             -. Special.log_factorial k
             -. Special.log_factorial (n - k)
             +. (float_of_int (k - m) *. lpq)
        in
        if accept then result := k
      end
    end
  done;
  !result

(* Standard normal via the Marsaglia polar method; feeds the gamma sampler
   below, which only the large-n binomial split path reaches. *)
let rec std_normal rng =
  let u = (2.0 *. Rng.float rng) -. 1.0 in
  let v = (2.0 *. Rng.float rng) -. 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || s = 0.0 then std_normal rng
  else u *. sqrt (-2.0 *. log s /. s)

(* Marsaglia-Tsang squeeze for Gamma(shape, 1), shape >= 1: exact rejection,
   ~1.05 normal draws per variate.  The attempt is a top-level function of
   [d = shape - 1/3] and [c = 1/sqrt(9d)], so no closure is built per
   variate. *)
let rec gamma_attempt rng ~d ~c =
  let x = std_normal rng in
  let t = 1.0 +. (c *. x) in
  if t <= 0.0 then gamma_attempt rng ~d ~c
  else begin
    let v = t *. t *. t in
    let u = Rng.float_pos rng in
    if log u < (0.5 *. x *. x) +. d -. (d *. v) +. (d *. log v) then d *. v
    else gamma_attempt rng ~d ~c
  end

let gamma_mt rng ~shape =
  if shape < 1.0 then invalid_arg "Sampler.gamma_mt: shape < 1";
  let d = shape -. (1.0 /. 3.0) in
  gamma_attempt rng ~d ~c:(1.0 /. sqrt (9.0 *. d))

let beta rng ~a ~b =
  let x = gamma_mt rng ~shape:a in
  let y = gamma_mt rng ~shape:b in
  x /. (x +. y)

(* Above this the BTRS acceptance test starts paying log_gamma tail calls
   and accumulating log-domain cancellation at ~1e7-magnitude operands; the
   beta split below halves n per level, so it reaches this regime in
   O(log(n/threshold)) exact splits. *)
let binomial_split_threshold = 1 lsl 16

let clamp_unit x = Float.max 0.0 (Float.min 1.0 x)

let rec binomial rng ~n ~p =
  if n < 0 then invalid_arg "Sampler.binomial: n < 0";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Sampler.binomial: p outside [0,1]";
  if n = 0 || p = 0.0 then 0
  else if p = 1.0 then n
  else if p > 0.5 then n - binomial rng ~n ~p:(1.0 -. p)
  (* The two cheap regimes loop in [Rng], where each uniform (and the
     skips' [log1p (-p)], computed once per call) stays unboxed. *)
  else if n <= 32 then Rng.binomial_by_trials rng ~n ~p
  else if float_of_int n *. p < 10.0 then Rng.binomial_by_skips rng ~n ~p
  else if n > binomial_split_threshold then binomial_beta_split rng ~n ~p
  else binomial_btrs rng ~n ~p

(* Large-n fast path: condition on the i-th order statistic of the n latent
   uniforms, U_(i) ~ Beta(i, n+1-i).  If U_(i) <= p then i trials already
   succeeded and the n-i remaining uniforms are iid on (U_(i), 1], else at
   most i-1 succeeded and the i-1 uniforms below U_(i) are iid on [0, U_(i)).
   Either branch is an exact binomial of about half the size with a rescaled
   p, recursed through the main dispatch (which restores p <= 1/2 and picks
   the cheap regime once n is moderate). *)
and binomial_beta_split rng ~n ~p =
  let i = (n + 1) / 2 in
  let x = beta rng ~a:(float_of_int i) ~b:(float_of_int (n + 1 - i)) in
  if x <= p then i + binomial rng ~n:(n - i) ~p:(clamp_unit ((p -. x) /. (1.0 -. x)))
  else binomial rng ~n:(i - 1) ~p:(clamp_unit (p /. x))

let distinct_ints rng ~n ~k =
  if k < 0 || k > n then invalid_arg "Sampler.distinct_ints: need 0 <= k <= n";
  (* Floyd's algorithm: for j = n-k .. n-1, insert either a fresh uniform
     draw in [0, j] or j itself on collision. *)
  let seen = Hashtbl.create (2 * k) in
  let out = Array.make k 0 in
  let slot = ref 0 in
  for j = n - k to n - 1 do
    let candidate = Rng.int rng (j + 1) in
    let chosen = if Hashtbl.mem seen candidate then j else candidate in
    Hashtbl.replace seen chosen ();
    out.(!slot) <- chosen;
    incr slot
  done;
  out

let subset_bernoulli rng ~n ~p =
  let size = binomial rng ~n ~p in
  let members = distinct_ints rng ~n ~k:size in
  Array.sort compare members;
  members

let categorical rng ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Sampler.categorical: weights sum to <= 0";
  let x = Rng.float rng *. total in
  let rec scan i acc =
    if i = Array.length weights - 1 then i
    else begin
      let acc = acc +. weights.(i) in
      if x < acc then i else scan (i + 1) acc
    end
  in
  scan 0 0.0
